"""World generator: cohorts, event streams, fault plans."""

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valencelab.errors import ConfigurationError, ContractViolationError
from valencelab.simworld import (LABELS, SECONDS_PER_DAY, CohortSpec,
                                 EntityProfile, Fault, FaultPlan, _cdf,
                                 build_cohort, day_of_week, events_to_jsonl,
                                 hour_band, make_crash_plan,
                                 make_delivery_fault_plan, make_net_flap_plan,
                                 parse_kv_config, peaked_row,
                                 place_visit_matrix, run_cohort)

SMALL = CohortSpec(
    n_entities=3, n_no_demographics=1, n_low_rate=0, n_single_class=0,
    n_skewed=0, n_interaction=1, n_band_only=1, days=3.0)


# -- time helpers --------------------------------------------------------------


def test_hour_bands():
    assert hour_band(6 * 3600.0) == 0          # morning starts 06:00
    assert hour_band(14 * 3600.0 - 1) == 0
    assert hour_band(14 * 3600.0) == 1         # afternoon starts 14:00
    assert hour_band(22 * 3600.0 - 1) == 1
    assert hour_band(22 * 3600.0) == 2         # night wraps past midnight
    assert hour_band(0.0) == 2
    assert hour_band(5 * 3600.0) == 2
    # bands repeat daily
    assert hour_band(3 * SECONDS_PER_DAY + 7 * 3600.0) == 0


def test_day_of_week_starts_monday():
    assert day_of_week(0.0) == 0
    assert day_of_week(SECONDS_PER_DAY - 1) == 0
    assert day_of_week(5 * SECONDS_PER_DAY) == 5    # saturday
    assert day_of_week(7 * SECONDS_PER_DAY) == 0


# -- behavioral building blocks ------------------------------------------------


def test_visit_matrix_rows_are_distributions():
    m = place_visit_matrix(3)
    assert m.shape == (3, 3)
    np.testing.assert_allclose(m.sum(axis=1), 1.0)
    assert np.allclose(np.diag(m), 0.6)
    assert np.allclose(place_visit_matrix(1), 1.0)
    with pytest.raises(ContractViolationError):
        place_visit_matrix(0)


def test_peaked_row_shape():
    row = peaked_row(1, 0.85)
    assert row[1] == 0.85
    assert math.isclose(sum(row), 1.0)
    # remainder splits 2:1 starting at the next index
    assert math.isclose(row[2], 0.10) and math.isclose(row[0], 0.05)


def _profile(**over):
    base = dict(
        entity_id="e000", birthdate=date(1990, 5, 1), gender="female",
        places=((0.0, 0.0), (5.0, 0.0), (0.0, 5.0)), place_spread=0.4,
        valence_policy=np.tile(peaked_row(0, 0.85), (3, 3, 1)),
        report_rate=2.7, text_rate=1.0, sensor_rate=24.0)
    base.update(over)
    return EntityProfile(**base)


def test_profile_validation():
    with pytest.raises(ContractViolationError):
        _profile(gender="other")
    with pytest.raises(ContractViolationError):
        _profile(report_rate=-1.0)
    with pytest.raises(ContractViolationError):
        _profile(places=())
    bad = np.tile(peaked_row(0, 0.85), (3, 3, 1))
    bad[0, 0, 0] += 0.1
    with pytest.raises(ContractViolationError):
        _profile(valence_policy=bad)
    with pytest.raises(ContractViolationError):
        _profile(valence_policy=np.ones((2, 3, 3)) / 3.0)


def test_profile_dict_round_trip():
    p = _profile()
    q = EntityProfile.from_dict(p.to_dict())
    assert q.entity_id == p.entity_id and q.birthdate == p.birthdate
    np.testing.assert_array_equal(q.valence_policy, p.valence_policy)
    assert q.places == p.places


# -- fault plans ---------------------------------------------------------------


def test_fault_plan_sorts_and_validates_alternation():
    plan = FaultPlan([Fault(5.0, "a", "crash"), Fault(1.0, "a", "net_down"),
                      Fault(3.0, "a", "net_up")])
    assert [f.t for f in plan] == [1.0, 3.0, 5.0]
    with pytest.raises(ContractViolationError):
        FaultPlan([Fault(1.0, "a", "net_down"), Fault(2.0, "a", "net_down")])
    with pytest.raises(ContractViolationError):
        FaultPlan([Fault(1.0, "a", "net_up")])
    # other entities do not interfere
    FaultPlan([Fault(1.0, "a", "net_down"), Fault(2.0, "b", "net_down"),
               Fault(3.0, "a", "net_up"), Fault(4.0, "b", "net_up")])
    with pytest.raises(ContractViolationError):
        Fault(0.0, "a", "meteor")


def test_fault_plan_text_round_trip():
    plan = FaultPlan([Fault(10.0, "e001", "crash"),
                      Fault(20.5, "e002", "dup_delivery")])
    again = FaultPlan.from_text(plan.to_text())
    assert [(f.t, f.entity_id, f.kind) for f in again] \
        == [(10.0, "e001", "crash"), (20.5, "e002", "dup_delivery")]
    with pytest.raises(ConfigurationError):
        FaultPlan.from_text("not a fault line\n")
    with pytest.raises(ConfigurationError):
        FaultPlan.from_text("x e001 crash\n")


def test_plan_builders():
    ids = [f"e{i:03d}" for i in range(5)]
    horizon = 10 * SECONDS_PER_DAY
    crash = make_crash_plan(ids, 100, horizon, seed=3)
    assert len(crash) == 100
    assert all(f.kind == "crash" and 0 <= f.t <= horizon - 960.0
               for f in crash)
    deliver = make_delivery_fault_plan(ids, 7, 9, horizon, seed=3)
    kinds = [f.kind for f in deliver]
    assert kinds.count("dup_delivery") == 7
    assert kinds.count("drop_delivery") == 9
    # construction passes the alternation validator by design
    flaps = make_net_flap_plan(ids, 24, horizon, seed=3)
    assert len(flaps) == 48


# -- config parsing ------------------------------------------------------------


def test_parse_kv_config():
    text = "# comment\n\nn_entities = 6  # trailing\n days=3\n"
    assert parse_kv_config(text) == {"n_entities": "6", "days": "3"}
    with pytest.raises(ConfigurationError):
        parse_kv_config("just words\n")


def test_cohort_spec_validation():
    with pytest.raises(ConfigurationError):
        CohortSpec(n_entities=5)        # groups sum to 57 by default
    with pytest.raises(ConfigurationError):
        CohortSpec(n_entities=-1, n_no_demographics=0, n_low_rate=0,
                   n_single_class=0, n_skewed=0, n_interaction=0,
                   n_band_only=-1)
    with pytest.raises(ConfigurationError):
        SMALL_BAD = dict(days=0.0)
        CohortSpec(**{**SMALL.__dict__, **SMALL_BAD})
    with pytest.raises(ConfigurationError):
        CohortSpec.from_mapping({"n_entities": "lots"})
    with pytest.raises(ConfigurationError):
        CohortSpec.from_mapping({"n_wizards": "3"})
    spec = CohortSpec.from_mapping(
        {"n_entities": "3", "n_no_demographics": "1", "n_low_rate": "0",
         "n_single_class": "0", "n_skewed": "0", "n_interaction": "1",
         "n_band_only": "1", "days": "3"})
    assert spec.n_entities == 3 and spec.days == 3.0


# -- cohort construction -------------------------------------------------------


def test_default_cohort_composition():
    cohort = build_cohort(CohortSpec(), seed=7)
    profiles = cohort.profiles
    assert len(profiles) == 57
    assert [p.entity_id for p in profiles] == [f"e{i:03d}" for i in range(57)]
    by_arch = {}
    for p in profiles:
        by_arch.setdefault(p.archetype, []).append(p)
    assert len(by_arch["no_demographics"]) == 8
    assert len(by_arch["low_rate"]) == 5
    assert len(by_arch["single_class"]) == 6
    assert len(by_arch["skewed"]) == 7
    assert len(by_arch["interaction"]) == 15
    assert len(by_arch["band_only"]) == 16
    genders = [p.gender for p in profiles]
    assert genders.count("undisclosed") == 8
    assert genders.count("female") == 18
    assert genders.count("male") == 31
    assert all(p.birthdate is None for p in by_arch["no_demographics"])
    assert all(p.report_rate == cohort.spec.low_report_rate
               for p in by_arch["low_rate"])
    for p in profiles:
        for a, b in ((0, 1), (0, 2), (1, 2)):
            d = math.hypot(p.places[a][0] - p.places[b][0],
                           p.places[a][1] - p.places[b][1])
            assert d >= cohort.spec.min_place_separation


def test_cohort_is_deterministic():
    a = build_cohort(CohortSpec(), seed=7)
    b = build_cohort(CohortSpec(), seed=7)
    assert a.to_jsonl() == b.to_jsonl()
    c = build_cohort(CohortSpec(), seed=8)
    assert a.to_jsonl() != c.to_jsonl()


# -- event streams -------------------------------------------------------------


def test_events_sorted_unique_and_in_horizon():
    cohort = build_cohort(SMALL, seed=11)
    events = run_cohort(cohort)
    assert events == sorted(events, key=lambda e: (e.t, e.entity_id, e.kind,
                                                   e.uuid))
    assert len({e.uuid for e in events}) == len(events)
    horizon = SMALL.days * SECONDS_PER_DAY
    assert all(0.0 <= e.t < horizon for e in events)
    for e in events:
        assert e.kind in ("sensor", "report", "text")
        if e.kind == "report":
            assert e.payload in LABELS


# sha256 of events_to_jsonl, recorded with the earlier windowed replay
# (SimWorld.step over 6-hour windows): the single pass draws every stream
# exactly as before
@pytest.mark.parametrize("spec, seed, n_events, digest", [
    (CohortSpec(), 7, 46664,
     "a19d5eb01ceba5346d7645dbd753f95e9b933a5856a1d6b3809df1cde16219b9"),
    (replace(SMALL, days=2.7), 11, 255,
     "4f1db0bd2aab7050f57e099ad968e81fc91ff8f79f75a825e005f747abce48f6"),
    (replace(SMALL, days=1 / 3), 11, 34,
     "5dab5252a3a45e10c285e9c6f8948e7314e5270cfdcb47302850cf8f68c5096e"),
], ids=["default-seed7", "small-2.7d", "small-third-day"])
def test_event_stream_matches_golden_digest(spec, seed, n_events, digest):
    events = run_cohort(build_cohort(spec, seed))
    assert len(events) == n_events
    text = events_to_jsonl(events)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# rows with zeros, tiny weights and sums a rounding away from one, as
# Generator.choice accepts them
_ROWS = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                 min_size=1, max_size=6).filter(lambda r: sum(r) > 0).map(
    lambda r: [w / sum(r) for w in r])


@settings(max_examples=100, deadline=None)
@given(st.lists(_ROWS, min_size=1, max_size=5),
       st.integers(0, 2 ** 32 - 1))
def test_cdf_draws_what_generator_choice_draws(rows, seed):
    """bisect_right over _cdf(row) with one rng.random() draws the index
    rng.choice(len(row), p=row) draws, and leaves the generator where
    choice leaves it; the cdf is numpy's cumsum over its last value."""
    for row in rows:
        cdf = np.cumsum(row)
        cdf /= cdf[-1]
        assert _cdf(row) == cdf.tolist()
    by_choice, by_cdf = (np.random.default_rng(seed) for _ in range(2))
    cdfs = [_cdf(row) for row in rows]
    for i in range(200):
        row, cdf = rows[i % len(rows)], cdfs[i % len(rows)]
        assert (int(by_choice.choice(len(row), p=row))
                == bisect_right(cdf, by_cdf.random()))
    assert by_choice.bit_generator.state == by_cdf.bit_generator.state


def test_event_jsonl_round_trip():
    cohort = build_cohort(replace(SMALL, days=1.0), seed=5)
    events = run_cohort(cohort)
    lines = events_to_jsonl(events).splitlines()
    assert [json.loads(line) for line in lines] == \
        [e.to_dict() for e in events]


def test_report_rate_matches_poisson_mean():
    """30-day cohort: total reports per entity concentrate around
    rate * days; a 5-sigma band keeps this deterministic-in-practice."""
    spec = CohortSpec(n_entities=4, n_no_demographics=0, n_low_rate=0,
                      n_single_class=0, n_skewed=0, n_interaction=0,
                      n_band_only=4, days=30.0)
    cohort = build_cohort(spec, seed=13)
    events = run_cohort(cohort)
    per_entity = {p.entity_id: 0 for p in cohort.profiles}
    for e in events:
        if e.kind == "report":
            per_entity[e.entity_id] += 1
    mean = spec.report_rate * spec.days
    band = 5.0 * math.sqrt(mean)
    for n in per_entity.values():
        assert abs(n - mean) <= band


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 7))
def test_hour_band_total_partition(t):
    assert hour_band(float(t)) in (0, 1, 2)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=2 ** 31 - 1))
def test_cohort_serialization_is_pure(seed):
    spec = SMALL
    assert build_cohort(spec, seed).to_jsonl() \
        == build_cohort(spec, seed).to_jsonl()
