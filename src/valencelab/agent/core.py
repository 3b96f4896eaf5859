"""On-device agent: duty-cycled feed, debounced reports, empathy score,
duplicate-forgetting store, homeostasis, and crash/revive lifecycle.

The agent is a plain state machine advanced by simulated time. Nothing here
spawns threads; the surrounding loop decides when ticks and checks happen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ContractViolationError
from ..simworld import EVENT_KINDS, LABELS

# Sensing rhythm: FEED_ACTIVE_S on, then off for the rest of each period.
FEED_ACTIVE_S = 2.0
FEED_PERIOD_S = 10.0
# calibrated so the 20% duty cycle drains 1% battery per day:
# 0.2 * 86400 s active per day, 1.0 (percent) / 17280 per active second
ENERGY_PER_ACTIVE_S = 1.0 / 17280.0

DEBOUNCE_WINDOW_S = 60.0
DEDUPE_CELL = 1.0

EMPATHY_HALF_LIFE_H = 48.0
EMPATHY_PER_REPORT = 5.0
HOMEOSTASIS_INTERVAL_S = 15 * 60.0
# acks older than this are forgotten by the store's maintenance
PERSISTENCE_LIMIT_S = 168 * 3600.0


@dataclass
class EmpathyState:
    """Displayed rapport score: exponential decay plus per-report bumps."""

    score: float = 50.0
    last_update: float = 0.0
    pending_increment: float = 0.0


def update_empathy(state: EmpathyState, now: float) -> float:
    """Apply decay since last_update plus accumulated report bumps."""
    if now < state.last_update:
        raise ContractViolationError("empathy updates must move forward in time")
    dt_h = (now - state.last_update) / 3600.0
    decayed = state.score * 2.0 ** (-dt_h / EMPATHY_HALF_LIFE_H)
    state.score = min(max(decayed + state.pending_increment, 0.0), 100.0)
    state.pending_increment = 0.0
    state.last_update = now
    return state.score


@dataclass(frozen=True, slots=True)
class Record:
    """One stored observation, sensor or report or text."""

    uuid: str
    kind: str
    t: float
    x: float
    y: float
    payload: str

    def to_dict(self) -> dict:
        return {"uuid": self.uuid, "kind": self.kind, "t": self.t,
                "x": self.x, "y": self.y, "payload": self.payload}

    @classmethod
    def from_dict(cls, d: dict) -> "Record":
        """The record of a JSON object from outside the program. A field of
        the wrong type, a kind outside EVENT_KINDS, a report whose payload
        is not a label and an integer past float range are each a
        ContractViolationError; NaN is a number."""
        uuid, kind, t, x, y, payload = (
            d["uuid"], d["kind"], d["t"], d["x"], d["y"], d["payload"])
        # type(), not isinstance(): a JSON true is a bool, not a number
        if not (type(uuid) is str and kind in EVENT_KINDS
                and type(payload) is str and type(t) in (int, float)
                and type(x) in (int, float) and type(y) in (int, float)):
            raise ContractViolationError("record field of the wrong type")
        if kind == "report" and payload not in LABELS:
            raise ContractViolationError("report payload is not a label")
        try:
            float(t), float(x), float(y)
        except OverflowError as exc:
            raise ContractViolationError("record number past float range") \
                from exc
        return cls(uuid, kind, t, x, y, payload)


class LocalStore:
    """Pending/synced record store with batch bookkeeping.

    `pending` records have not been acknowledged by the cloud side; `synced`
    maps uuid to ack time, oldest ack first, and is pruned after
    PERSISTENCE_LIMIT_S. Batch draining and acking live in the sync layer;
    this class only owns state.
    """

    def __init__(self, entity_id: str = ""):
        self.entity_id = entity_id
        self.pending: list[Record] = []
        self.synced: dict[str, float] = {}
        # id-only ledger of everything ever acked; it survives pruning, so
        # delivery accounting stays possible
        self.ever_synced: set[str] = set()
        self.open_batches: dict[int, tuple[str, ...]] = {}
        self._next_batch_id = 1
        self._last_dedupe: dict[str, tuple] = {}

    def next_batch_id(self) -> int:
        bid = self._next_batch_id
        self._next_batch_id += 1
        return bid

    def in_flight(self, uuid: str) -> bool:
        return any(uuid in uuids for uuids in self.open_batches.values())

    def add_pending(self, record: Record) -> None:
        self.pending.append(record)

    def remove_pending(self, uuid: str) -> bool:
        for i, rec in enumerate(self.pending):
            if rec.uuid == uuid:
                del self.pending[i]
                return True
        return False

    def mark_synced(self, uuid: str, ack_time: float) -> bool:
        if self.synced and ack_time < next(reversed(self.synced.values())):
            raise ContractViolationError("acks must arrive in time order")
        for i, rec in enumerate(self.pending):
            if rec.uuid == uuid:
                del self.pending[i]
                self.synced[uuid] = ack_time
                self.ever_synced.add(uuid)
                return True
        return False

    def prune_synced(self, now: float) -> int:
        """Forget acks older than PERSISTENCE_LIMIT_S. Acks are kept in time
        order, so the stale ones are a prefix of `synced`."""
        stale = []
        for u, t in self.synced.items():
            if now - t <= PERSISTENCE_LIMIT_S:
                break
            stale.append(u)
        for u in stale:
            del self.synced[u]
        return len(stale)


def dedupe_store(store: LocalStore, record: Record):
    """Store, unless identical in (kind, payload, location cell) to the
    immediately preceding stored record of that kind."""
    cell = (math.floor(record.x / DEDUPE_CELL),
            math.floor(record.y / DEDUPE_CELL))
    key = (record.payload, cell)
    if store._last_dedupe.get(record.kind) == key:
        return "forgotten", None
    store._last_dedupe[record.kind] = key
    store.add_pending(record)
    return "stored", record


@dataclass
class AgentStatus:
    state: str = "running"
    feed_alive: bool = True
    last_homeostasis: float = 0.0
    user_interacting: bool = False


class SensingAgent:
    """Per-entity agent state; all behavior goes through the module ops."""

    def __init__(self, entity_id: str):
        self.entity_id = entity_id
        self.empathy = EmpathyState()
        self.store = LocalStore(entity_id)
        self.status = AgentStatus()
        self.energy_spent = 0.0
        self.active_seconds_total = 0.0
        self._feed_last_t = 0.0
        # debounce winner per window: window index -> (uuid, timestamp)
        self._window_reports: dict[int, tuple[str, float]] = {}
        self._click_seq = 0


def _active_overlap(t0: float, t1: float, active: float, period: float) -> float:
    """Seconds of [t0, t1) inside the active window of each period."""
    if t1 <= t0:
        return 0.0
    k0 = math.floor(t0 / period)
    k1 = math.floor(t1 / period)
    if k0 == k1:
        a = k0 * period
        return max(0.0, min(t1, a + active) - max(t0, a))
    head = max(0.0, k0 * period + active - max(t0, k0 * period))
    head = min(head, active)
    full = (k1 - k0 - 1) * active
    tail = max(0.0, min(t1 - k1 * period, active))
    return head + full + tail


def feed_tick(agent: SensingAgent, clock) -> float:
    """Advance the feed to clock.now and spend energy for the active time
    covered; returns that energy. A crashed agent spends nothing but time
    still passes.
    """
    now = clock.now
    t0, agent._feed_last_t = agent._feed_last_t, now
    if agent.status.state != "running" or not agent.status.feed_alive:
        return 0.0
    active = _active_overlap(t0, now, FEED_ACTIVE_S, FEED_PERIOD_S)
    energy = active * ENERGY_PER_ACTIVE_S
    agent.energy_spent += energy
    agent.active_seconds_total += active
    return energy


def ingest_report(agent: SensingAgent, click: str, timestamp: float,
                  location=(0.0, 0.0), uuid: str | None = None):
    """Store a valence click; within one debounce window only the
    chronologically last click survives. Every click bumps empathy."""
    if click not in LABELS:
        raise ContractViolationError(f"unknown valence class {click!r}")
    agent.empathy.pending_increment += EMPATHY_PER_REPORT
    if uuid is None:
        uuid = f"{agent.entity_id}:c{agent._click_seq:05d}"
        agent._click_seq += 1
    record = Record(uuid=uuid, kind="report", t=timestamp,
                    x=float(location[0]), y=float(location[1]), payload=click)
    window = math.floor(timestamp / DEBOUNCE_WINDOW_S)
    prev = agent._window_reports.get(window)
    if prev is not None:
        prev_uuid, prev_t = prev
        # an in-flight record was already transmitted; the correction has to
        # stand on its own
        if not agent.store.in_flight(prev_uuid):
            if timestamp >= prev_t:
                agent.store.remove_pending(prev_uuid)
            else:
                return "superseded", None
    agent.store.add_pending(record)
    agent._window_reports[window] = (uuid, timestamp)
    return "stored", record


def homeostasis_check(agent: SensingAgent, now: float) -> list[str]:
    """Periodic self-check; returns the repair/maintenance actions taken."""
    if agent.status.state != "running":
        raise ContractViolationError("homeostasis runs only on a running agent")
    if now - agent.status.last_homeostasis < HOMEOSTASIS_INTERVAL_S:
        raise ContractViolationError("homeostasis called before its interval")
    agent.status.last_homeostasis = now
    actions: list[str] = []
    if not agent.status.feed_alive:
        agent.status.feed_alive = True
        agent._feed_last_t = now
        actions.append("restart_feed")
    elif agent.status.user_interacting:
        update_empathy(agent.empathy, now)
        actions.append("update_notification")
    else:
        agent.store.prune_synced(now)
        actions.append("run_db_maintenance")
    return actions


def on_system_event(agent: SensingAgent, event: str,
                    now: float | None = None) -> AgentStatus:
    """Lifecycle transitions: crash is absorbing until boot or revive_tick."""
    if event == "crash":
        agent.status.state = "crashed"
        agent.status.feed_alive = False
    elif event in ("boot", "revive_tick"):
        was_crashed = agent.status.state == "crashed"
        agent.status.state = "running"
        agent.status.feed_alive = True
        if now is not None:
            # no retroactive sampling for the dead interval
            agent._feed_last_t = now
            if was_crashed:
                agent.status.last_homeostasis = now
    else:
        raise ContractViolationError(f"unknown system event {event!r}")
    return agent.status
