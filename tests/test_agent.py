"""Device agent: duty-cycled feed, debounce, empathy, dedupe, lifecycle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valencelab.agent import (DEBOUNCE_WINDOW_S, EMPATHY_PER_REPORT,
                              PERSISTENCE_LIMIT_S, EmpathyState, LocalStore,
                              Record, SensingAgent, dedupe_store, feed_tick,
                              homeostasis_check, ingest_report,
                              on_system_event, update_empathy)
from valencelab.errors import ContractViolationError
from valencelab.simworld import SimClock
from valencelab.syncsec import handle_ack, make_batch


def _agent() -> SensingAgent:
    return SensingAgent("e000")


# -- duty-cycled feed ----------------------------------------------------------


def test_feed_one_day_active_fraction_and_battery():
    agent = _agent()
    for k in range(1, 97):                   # 15-minute ticks for a day
        feed_tick(agent, SimClock(now=k * 900.0))
    assert agent.active_seconds_total / 86400.0 == pytest.approx(0.2, abs=1e-9)
    assert agent.energy_spent == pytest.approx(1.0, abs=1e-9)


def test_feed_tick_partition_does_not_change_totals():
    whole = _agent()
    feed_tick(whole, SimClock(now=86400.0))
    pieces = _agent()
    for k in range(1, 961):
        feed_tick(pieces, SimClock(now=k * 90.0))
    assert whole.active_seconds_total == pytest.approx(
        pieces.active_seconds_total, abs=1e-9)
    assert whole.energy_spent == pytest.approx(pieces.energy_spent, abs=1e-12)


def test_crashed_agent_spends_nothing():
    agent = _agent()
    on_system_event(agent, "crash")
    energy = feed_tick(agent, SimClock(now=3600.0))
    assert energy == 0.0
    assert agent.energy_spent == 0.0
    # revival does not bill the dead interval retroactively
    on_system_event(agent, "revive_tick", now=3600.0)
    energy = feed_tick(agent, SimClock(now=3610.0))
    assert energy == pytest.approx(2.0 / 17280.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=0, max_value=2000))
def test_active_overlap_matches_brute_force(q0, qd):
    """Closed-form active seconds == cell-by-cell integration.

    Quarter-second grid: every active boundary (k*10, k*10+2) falls on a
    cell edge, so midpoint sampling is exact rather than approximate."""
    from valencelab.agent.core import _active_overlap
    t0, t1 = q0 * 0.25, (q0 + qd) * 0.25
    got = _active_overlap(t0, t1, 2.0, 10.0)
    brute = sum(0.25 for i in range(qd)
                if (t0 + (i + 0.5) * 0.25) % 10.0 < 2.0)
    assert got == pytest.approx(brute, abs=1e-9)


# -- report debounce -----------------------------------------------------------


def test_reports_debounce_last_click_wins():
    agent = _agent()
    assert ingest_report(agent, "negative", 10.0)[0] == "stored"
    state, rec = ingest_report(agent, "positive", 30.0)
    assert state == "stored"
    pend = [r for r in agent.store.pending if r.kind == "report"]
    assert len(pend) == 1 and pend[0].payload == "positive"
    assert pend[0].uuid == rec.uuid
    # next window stands alone
    ingest_report(agent, "neutral", 61.0)
    pend = [r for r in agent.store.pending if r.kind == "report"]
    assert sorted(r.payload for r in pend) == ["neutral", "positive"]


def test_reports_out_of_order_keeps_latest_timestamp():
    agent = _agent()
    ingest_report(agent, "positive", 50.0)
    state, rec = ingest_report(agent, "negative", 20.0)  # stale correction
    assert (state, rec) == ("superseded", None)
    pend = agent.store.pending
    assert len(pend) == 1 and pend[0].payload == "positive"
    # a regression into an older window still keeps one winner per window
    ingest_report(agent, "neutral", 130.0)
    ingest_report(agent, "negative", 55.0)
    by_window = {}
    for r in agent.store.pending:
        by_window.setdefault(math.floor(r.t / 60.0), []).append(r)
    assert all(len(v) == 1 for v in by_window.values())
    assert by_window[0][0].payload == "negative"


def test_report_rejects_unknown_class():
    with pytest.raises(ContractViolationError):
        ingest_report(_agent(), "meh", 0.0)


def test_every_click_bumps_empathy_even_when_superseded():
    agent = _agent()
    ingest_report(agent, "positive", 50.0)
    ingest_report(agent, "negative", 20.0)
    assert agent.empathy.pending_increment == 10.0
    update_empathy(agent.empathy, 50.0)
    assert agent.empathy.score > 50.0


def test_in_flight_record_is_not_superseded():
    agent = _agent()
    _, first = ingest_report(agent, "negative", 10.0)
    batch = make_batch(agent.store, now=11.0)
    assert first.uuid in batch.to_payload().decode()
    # the correction lands as its own record; the shipped one stays
    state, second = ingest_report(agent, "positive", 30.0)
    assert state == "stored"
    uuids = {r.uuid for r in agent.store.pending}
    assert {first.uuid, second.uuid} <= uuids
    assert agent.store.in_flight == {first.uuid}
    handle_ack(agent.store, batch, now=12.0)
    assert first.uuid in agent.store.synced
    assert not agent.store.in_flight


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=30.0),
                          st.sampled_from(["negative", "neutral", "positive"])),
                min_size=1, max_size=40))
def test_debounce_matches_naive_oracle(steps):
    """Monotone click stream: stored set == per-window last click."""
    agent = _agent()
    t = 0.0
    winners = {}
    for dt, label in steps:
        t += dt
        ingest_report(agent, label, t)
        w = math.floor(t / DEBOUNCE_WINDOW_S)
        if w not in winners or t >= winners[w][0]:
            winners[w] = (t, label)
    got = {math.floor(r.t / DEBOUNCE_WINDOW_S): (r.t, r.payload)
           for r in agent.store.pending}
    assert got == winners


# -- empathy -------------------------------------------------------------------


def test_empathy_half_life():
    emp = EmpathyState(score=80.0, last_update=0.0)
    update_empathy(emp, 48 * 3600.0)
    assert emp.score == pytest.approx(40.0)
    update_empathy(emp, 96 * 3600.0)
    assert emp.score == pytest.approx(20.0)


def test_empathy_clamps_and_resets_pending():
    emp = EmpathyState(score=99.0, last_update=0.0, pending_increment=5.0)
    update_empathy(emp, 1.0)
    assert emp.score == 100.0
    assert emp.pending_increment == 0.0
    low = EmpathyState(score=0.5, last_update=0.0)
    update_empathy(low, 1000 * 3600.0)
    assert 0.0 <= low.score < 0.5


def test_empathy_rejects_backwards_time():
    emp = EmpathyState(last_update=100.0)
    with pytest.raises(ContractViolationError):
        update_empathy(emp, 99.0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=96.0),
                          st.integers(min_value=0, max_value=4)),
                max_size=20))
def test_empathy_stays_in_range(moves):
    emp = EmpathyState()
    now = 0.0
    for hours, clicks in moves:
        now += hours * 3600.0
        emp.pending_increment += clicks * EMPATHY_PER_REPORT
        update_empathy(emp, now)
        assert 0.0 <= emp.score <= 100.0


# -- local store dedupe and pruning ---------------------------------------------


def _rec(uuid, kind="sensor", t=0.0, x=0.0, y=0.0, payload="still"):
    return Record(uuid=uuid, kind=kind, t=t, x=x, y=y, payload=payload)


def test_dedupe_forgets_consecutive_identical():
    store = LocalStore("e000")
    assert dedupe_store(store, _rec("a", t=0.0))[0] == "stored"
    assert dedupe_store(store, _rec("b", t=5.0, x=0.2))[0] == "forgotten"
    assert dedupe_store(store, _rec("c", t=9.0, payload="walking"))[0] \
        == "stored"
    # not consecutive anymore, so the original value is kept again
    assert dedupe_store(store, _rec("d", t=12.0))[0] == "stored"
    assert [r.uuid for r in store.pending] == ["a", "c", "d"]


def test_dedupe_cell_granularity_and_kind_isolation():
    store = LocalStore("e000")
    dedupe_store(store, _rec("a", x=0.99))
    assert dedupe_store(store, _rec("b", x=1.01))[0] == "stored"
    dedupe_store(store, _rec("c", kind="text", payload="hi"))
    assert dedupe_store(store, _rec("d", kind="text", payload="hi"))[0] \
        == "forgotten"
    # text dedupe does not disturb the sensor track
    assert dedupe_store(store, _rec("e", x=1.01))[0] == "forgotten"


def test_store_sync_bookkeeping_and_pruning():
    store = LocalStore("e000")
    store.add_pending(_rec("a"))
    store.add_pending(_rec("b"))
    assert store.mark_synced("a", ack_time=10.0) is True
    assert store.mark_synced("zz", ack_time=10.0) is False
    assert store.ever_synced == {"a"}
    assert [r.uuid for r in store.pending] == ["b"]
    assert store.prune_synced(now=10.0 + PERSISTENCE_LIMIT_S) == 0
    assert store.prune_synced(now=10.0 + PERSISTENCE_LIMIT_S + 1.0) == 1
    assert "a" not in store.synced
    # the id ledger never forgets
    assert store.ever_synced == {"a"}


def test_prune_from_the_front_matches_a_full_scan():
    """Over 30 days of interleaved records, acks and prunes, the pruned
    store keeps exactly what a scan of every ack would keep."""
    rng = random.Random(5)
    store = LocalStore("e000")
    acked: dict[str, float] = {}     # the full-scan oracle
    now, n = 0.0, 0
    while now < 30 * 86400.0:
        now += rng.choice([0.0, 60.0, 900.0, 7200.0])
        for _ in range(rng.randint(0, 3)):
            store.add_pending(_rec(f"r{n}"))
            n += 1
        for rec in rng.sample(store.pending, min(len(store.pending),
                                                 rng.randint(0, 4))):
            assert store.mark_synced(rec.uuid, ack_time=now)
            acked[rec.uuid] = now
        if rng.random() < 0.3:
            stale = [u for u, t in acked.items()
                     if now - t > PERSISTENCE_LIMIT_S]
            for u in stale:
                del acked[u]
            assert store.prune_synced(now) == len(stale)
            assert dict(store.synced) == acked
    assert n > 1000 and len(store.ever_synced) > 1000


def test_acks_must_arrive_in_time_order():
    store = LocalStore("e000")
    store.add_pending(_rec("a"))
    store.add_pending(_rec("b"))
    assert store.mark_synced("a", ack_time=10.0)
    with pytest.raises(ContractViolationError):
        store.mark_synced("b", ack_time=9.0)
    assert [r.uuid for r in store.pending] == ["b"]


# -- homeostasis and lifecycle ---------------------------------------------------


def test_homeostasis_branches():
    agent = _agent()
    with pytest.raises(ContractViolationError):
        homeostasis_check(agent, 100.0)      # before the 15-min interval
    assert homeostasis_check(agent, 900.0) == ["run_db_maintenance"]
    agent.status.feed_alive = False
    assert homeostasis_check(agent, 1800.0) == ["restart_feed"]
    assert agent.status.feed_alive is True
    agent.status.user_interacting = True
    agent.empathy.pending_increment = 5.0
    assert homeostasis_check(agent, 2700.0) == ["update_notification"]
    assert agent.empathy.pending_increment == 0.0


def test_homeostasis_requires_running_agent():
    agent = _agent()
    on_system_event(agent, "crash")
    with pytest.raises(ContractViolationError):
        homeostasis_check(agent, 900.0)


def test_crash_is_absorbing_until_revival():
    agent = _agent()
    ingest_report(agent, "positive", 5.0)
    on_system_event(agent, "crash")
    assert agent.status.state == "crashed"
    on_system_event(agent, "crash")
    assert agent.status.state == "crashed"
    # the persisted store survives the crash
    assert len(agent.store.pending) == 1
    status = on_system_event(agent, "revive_tick", now=900.0)
    assert status.state == "running" and status.feed_alive
    assert agent.status.last_homeostasis == 900.0
    with pytest.raises(ContractViolationError):
        on_system_event(agent, "hiccup")


def test_boot_on_running_agent_resets_feed_origin():
    agent = _agent()
    feed_tick(agent, SimClock(now=100.0))
    before = agent.status.last_homeostasis
    on_system_event(agent, "boot", now=200.0)
    assert agent._feed_last_t == 200.0
    # a clean reboot does not touch the check schedule
    assert agent.status.last_homeostasis == before
