"""Synthetic cohort generation and a single-pass replay of its world.

A cohort is a fixed roster of entity profiles. Each profile owns a small set
of 2-D place centers (home, work, other), a valence policy mapping
(place index, hour band) to class probabilities, and per-day event rates.
`run_cohort` replays the whole horizon in one pass as three independent
Poisson streams per entity (sensor summaries, valence reports, short texts)
and returns them as one time-ordered list. Faults are a separate,
scheduled plan that the harness merges in when it drives the agents.

Everything is driven by ``numpy`` generators seeded from (cohort seed,
entity index, stream id), so the full event stream is a pure function of
(spec, seed) and re-simulation reproduces every draw.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from datetime import date, timedelta
from itertools import accumulate

from .errors import ConfigurationError, ContractViolationError
from .lazy import lazy_import

np = lazy_import("numpy")

LABELS = ("negative", "neutral", "positive")
GENDERS = ("female", "male", "undisclosed")
EVENT_KINDS = ("sensor", "report", "text")
FAULT_KINDS = (
    "crash", "reboot", "net_down", "net_up", "dup_delivery", "drop_delivery")
ACTIVITIES = ("still", "walking", "running")
ACTIVITY_PROBS = (0.6, 0.3, 0.1)

SECONDS_PER_DAY = 86400.0
PLACE_BOX = 10.0

# the longest horizon: a finite but absurd one would simulate until killed
MAX_DAYS = 3650.0

# Per-day emission rates: the report rate lands eligible entities near 80
# self-reports over a 30-day study, the low rate well under the 20-report
# eligibility floor. Visits spread tightly around well-separated places.
# PEAK_PROB is the mass on an entity's preferred valence class per (place,
# band) cell, SKEW_PROB the skewed archetype's mass on its dominant class.
REPORT_RATE = 2.7
LOW_REPORT_RATE = 0.2
TEXT_RATE = 1.0
SENSOR_RATE = 24.0
PLACE_SPREAD = 0.4
MIN_PLACE_SEPARATION = 4.0
PEAK_PROB = 0.85
SKEW_PROB = 0.90
NET_OUTAGE_S = 3600.0       # each net_down window of a net flap plan

# substreams hanging off (seed, entity_index, stream)
_PROFILE_STREAM = 0
_STREAM_IDS = {"sensor": 1, "report": 2, "text": 3}

# small mixed-language pool; the texts exist to exercise the sentiment
# analyzer and to add sync volume, they carry no label information
TEXT_POOL = (
    "loving this sunny day :)",
    "what a great afternoon with friends",
    "so tired of this traffic :(",
    "this is awful, worst commute ever",
    "adoro este dia maravilhoso",
    "que dia horrivel, estou cansado",
    "tudo bem por aqui",
    "meeting went fine",
    "fico feliz com o resultado :)",
    "this is fine",
    "nao gosto deste tempo :(",
    "best coffee ever!",
    "o pior transito de sempre",
    "just another day",
)


def hour_band(t: float) -> int:
    """Band of a simulated timestamp: 0 morning [6,14), 1 afternoon [14,22),
    2 night [22,6)."""
    h = (t / 3600.0) % 24.0
    if 6.0 <= h < 14.0:
        return 0
    if 14.0 <= h < 22.0:
        return 1
    return 2


def day_of_week(t: float) -> int:
    """Day index 0..6; simulated time zero is a Monday midnight."""
    return int(t // SECONDS_PER_DAY) % 7


def place_visit_matrix(n_places: int) -> np.ndarray:
    """P(place | hour band): each band prefers its same-index place.

    Rows are bands, columns places; with one place the matrix is all ones.
    The 0.6 diagonal keeps a realistic place/time correlation while leaving
    enough off-diagonal visits that place x band interactions are actually
    observable in a month of data.
    """
    if n_places < 1:
        raise ContractViolationError("need at least one place")
    m = np.zeros((3, n_places))
    for b in range(3):
        j = b % n_places
        if n_places == 1:
            m[b, 0] = 1.0
        else:
            m[b, :] = 0.4 / (n_places - 1)
            m[b, j] = 0.6
    return m


def peaked_row(top_class: int, peak: float) -> tuple[float, float, float]:
    """Class-probability row with `peak` on top_class and a fixed 2:1 split
    of the remainder on the other two (next index gets the larger share)."""
    rest = 1.0 - peak
    row = [0.0, 0.0, 0.0]
    row[top_class] = peak
    row[(top_class + 1) % 3] = rest * 2.0 / 3.0
    row[(top_class + 2) % 3] = rest / 3.0
    return tuple(row)


@dataclass(frozen=True, eq=False)
class EntityProfile:
    """One synthetic human: identity, demographics, places, valence policy.

    `valence_policy` has shape (n_places, 3 bands, 3 classes); rows sum to
    one. `archetype` names the generating behavior (band_only, interaction,
    single_class, skewed) and is carried for diagnostics only.
    """

    entity_id: str
    birthdate: date | None
    gender: str
    places: tuple
    place_spread: float
    valence_policy: np.ndarray
    report_rate: float
    text_rate: float
    sensor_rate: float = 0.0
    archetype: str = "band_only"

    def to_dict(self) -> dict:
        return {
            "entity_id": self.entity_id,
            "birthdate": None if self.birthdate is None
            else self.birthdate.isoformat(),
            "gender": self.gender,
            "places": [list(p) for p in self.places],
            "place_spread": self.place_spread,
            "valence_policy": self.valence_policy.tolist(),
            "report_rate": self.report_rate,
            "text_rate": self.text_rate,
            "sensor_rate": self.sensor_rate,
            "archetype": self.archetype,
        }


@dataclass
class SimClock:
    """Simulated time in seconds."""

    now: float = 0.0


@dataclass(frozen=True)
class Fault:
    t: float
    entity_id: str
    kind: str

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ContractViolationError(f"unknown fault kind {self.kind!r}")


class FaultPlan:
    """Time-sorted fault schedule; net_down/net_up must alternate per entity."""

    def __init__(self, entries=()):
        ents = [e if isinstance(e, Fault) else Fault(*e) for e in entries]
        ents.sort(key=lambda f: f.t)
        last_net: dict[str, str] = {}
        for f in ents:
            if f.kind in ("net_down", "net_up"):
                prev = last_net.get(f.entity_id)
                if f.kind == "net_down" and prev == "net_down":
                    raise ContractViolationError(
                        f"{f.entity_id}: net_down without intervening net_up")
                if f.kind == "net_up" and prev != "net_down":
                    raise ContractViolationError(
                        f"{f.entity_id}: net_up without prior net_down")
                last_net[f.entity_id] = f.kind
        self.entries: tuple[Fault, ...] = tuple(ents)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_text(self) -> str:
        lines = ["# t_seconds entity_id kind"]
        lines += [f"{f.t:.3f} {f.entity_id} {f.kind}" for f in self.entries]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FaultPlan":
        entries = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ConfigurationError(
                    f"fault plan line {ln}: expected 't entity kind'")
            try:
                t = _finite(parts[0])
                entries.append(Fault(t, parts[1], parts[2]))
            except ValueError as exc:
                raise ConfigurationError(
                    f"fault plan line {ln}: bad time {parts[0]!r}") from exc
            except ContractViolationError as exc:
                raise ConfigurationError(f"fault plan line {ln}: {exc}") \
                    from exc
        try:
            return cls(entries)
        except ContractViolationError as exc:
            raise ConfigurationError(f"fault plan: {exc}") from exc


def load_fault_plan(path) -> FaultPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return FaultPlan.from_text(fh.read())


@dataclass(frozen=True, slots=True)
class Event:
    uuid: str
    entity_id: str
    kind: str
    t: float
    x: float
    y: float
    payload: str

    def to_dict(self) -> dict:
        return {
            "uuid": self.uuid, "entity_id": self.entity_id,
            "kind": self.kind, "t": self.t,
            "x": self.x, "y": self.y, "payload": self.payload,
        }


def events_to_jsonl(events) -> str:
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n"
                   for e in events)


@dataclass(frozen=True)
class CohortSpec:
    """Cohort composition and horizon. The archetype counts must sum to
    n_entities: one group excluded at demographics, five behavioral ones.
    Rates, places and valence sharpness are the module's constants."""

    n_entities: int = 57
    n_no_demographics: int = 8
    n_low_rate: int = 5
    n_single_class: int = 6
    n_skewed: int = 7
    n_interaction: int = 15
    n_band_only: int = 16
    days: float = 30.0

    def __post_init__(self):
        counts = (self.n_entities, self.n_no_demographics, self.n_low_rate,
                  self.n_single_class, self.n_skewed, self.n_interaction,
                  self.n_band_only)
        if any(c < 0 for c in counts):
            raise ConfigurationError("cohort counts must be >= 0")
        group_sum = sum(counts[1:])
        if group_sum != self.n_entities:
            raise ConfigurationError(
                f"archetype counts sum to {group_sum}, "
                f"expected n_entities={self.n_entities}")
        if not 0 < self.days <= MAX_DAYS:
            raise ConfigurationError(f"days must be in (0, {MAX_DAYS:g}]")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "CohortSpec":
        return cls(**typed_fields(cls, mapping, "cohort"))


def parse_kv_config(text: str) -> dict:
    """key = value lines, each key at most once; # comments ignored."""
    out, first_line = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {ln}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigurationError(
                f"config lines {first_line[key]} and {ln} both set {key!r}")
        first_line[key] = ln
        out[key] = val
    return out


def _finite(raw: str) -> float:
    """A float from text; nan and inf are a ValueError, as a typo is."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# each config field's text parser, by the field's annotation
_FIELD_PARSERS = {
    "int": int, "float": _finite, "str": str,
    "tuple": lambda raw: tuple(v.strip() for v in raw.split(",")
                               if v.strip()),
}


def typed_fields(cls, mapping: dict, what: str) -> dict:
    """Constructor arguments for dataclass `cls` from `key = value` text,
    each value parsed by its field's annotation. `what` names the kind of
    config in the error for a key that `cls` has no field for."""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, raw in mapping.items():
        if key not in types:
            raise ConfigurationError(f"unknown {what} key {key!r}")
        try:
            kwargs[key] = _FIELD_PARSERS[types[key]](raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad value for {key!r}: {raw!r}") from exc
    return kwargs


@dataclass(frozen=True)
class Cohort:
    spec: CohortSpec
    seed: int
    profiles: tuple

    def to_jsonl(self) -> str:
        return "".join(json.dumps(p.to_dict(), sort_keys=True) + "\n"
                       for p in self.profiles)


def _sample_places(rng) -> tuple:
    """Three centers in the box, MIN_PLACE_SEPARATION apart, by rejection."""
    places: list[np.ndarray] = []
    while len(places) < 3:
        cand = rng.uniform(0.0, PLACE_BOX, 2)
        if all(float(np.hypot(*(cand - p))) >= MIN_PLACE_SEPARATION
               for p in places):
            places.append(cand)
    return tuple((float(p[0]), float(p[1])) for p in places)


def _policy_for(archetype: str, rng) -> np.ndarray:
    """(3 places, 3 bands, 3 classes) policy per behavioral archetype."""
    pol = np.zeros((3, 3, 3))
    if archetype == "interaction":
        # top class rotates with place+band: not expressible by any additive
        # model over one-hot place and band features
        for p in range(3):
            for b in range(3):
                pol[p, b] = peaked_row((p + b) % 3, PEAK_PROB)
    elif archetype == "single_class":
        k = int(rng.integers(3))
        pol[:, :, k] = 1.0
    elif archetype == "skewed":
        k = int(rng.integers(3))
        row = [0.0, 0.0, 0.0]
        row[k] = SKEW_PROB
        row[(k + 1) % 3] = (1.0 - SKEW_PROB) * 0.8
        row[(k + 2) % 3] = (1.0 - SKEW_PROB) * 0.2
        pol[:, :] = row
    else:
        # band_only (also used for the excluded and low-rate groups):
        # top class follows the hour band alone
        for b in range(3):
            pol[:, b] = peaked_row(b, PEAK_PROB)
    return pol


def build_cohort(spec: CohortSpec, seed: int) -> Cohort:
    """Deterministic roster for (spec, seed); see CohortSpec for the groups."""
    n = spec.n_entities
    arch_list = (["no_demographics"] * spec.n_no_demographics
                 + ["low_rate"] * spec.n_low_rate
                 + ["single_class"] * spec.n_single_class
                 + ["skewed"] * spec.n_skewed
                 + ["interaction"] * spec.n_interaction
                 + ["band_only"] * spec.n_band_only)
    assign_rng = np.random.default_rng([seed, 101])
    order = assign_rng.permutation(n)
    archetypes = [arch_list[order[i]] for i in range(n)]

    disclosed = [i for i in range(n) if archetypes[i] != "no_demographics"]
    gender_rng = np.random.default_rng([seed, 102])
    shuffled = list(gender_rng.permutation(disclosed))
    n_female = int(round(len(disclosed) * 18 / 49)) if disclosed else 0
    female = set(int(i) for i in shuffled[:n_female])

    profiles = []
    for i in range(n):
        rng = np.random.default_rng([seed, i, _PROFILE_STREAM])
        arch = archetypes[i]
        places = _sample_places(rng)
        policy = _policy_for(arch, rng)
        birth = date(1970, 1, 1) + timedelta(days=int(rng.integers(0, 13149)))
        if arch == "no_demographics":
            gender, birthdate = "undisclosed", None
        else:
            gender = "female" if i in female else "male"
            birthdate = birth
        rate = LOW_REPORT_RATE if arch == "low_rate" else REPORT_RATE
        profiles.append(EntityProfile(
            entity_id=f"e{i:03d}",
            birthdate=birthdate,
            gender=gender,
            places=places,
            place_spread=PLACE_SPREAD,
            valence_policy=policy,
            report_rate=rate,
            text_rate=TEXT_RATE,
            sensor_rate=SENSOR_RATE,
            archetype=arch,
        ))
    return Cohort(spec=spec, seed=seed, profiles=tuple(profiles))


def _cdf(row) -> list[float]:
    """The cumulative sums of `row` over their total, as Generator.choice
    makes them: bisect_right(cdf, rng.random()) draws the category that
    rng.choice(len(row), p=row) draws, from the same one double."""
    cdf = list(accumulate(float(p) for p in row))
    return [c / cdf[-1] for c in cdf]


_ACTIVITY_CDF = _cdf(ACTIVITY_PROBS)


def _stream_events(prof: EntityProfile, kind: str, rate: float, rng,
                   horizon: float):
    """One Poisson stream of `kind` events for `prof`, up to the horizon."""
    if rate <= 0:
        return
    scale = SECONDS_PER_DAY / rate
    visit = [_cdf(row) for row in place_visit_matrix(len(prof.places))]
    valence = [[_cdf(row) for row in bands] for bands in prof.valence_policy]
    t = float(rng.exponential(scale))
    seq = 0
    while t < horizon:
        band = hour_band(t)
        place = bisect_right(visit[band], rng.random())
        cx, cy = prof.places[place]
        x = cx + float(rng.normal(0.0, prof.place_spread))
        y = cy + float(rng.normal(0.0, prof.place_spread))
        if kind == "report":
            payload = LABELS[bisect_right(valence[place][band], rng.random())]
        elif kind == "sensor":
            payload = ACTIVITIES[bisect_right(_ACTIVITY_CDF, rng.random())]
        else:
            payload = TEXT_POOL[int(rng.integers(len(TEXT_POOL)))]
        yield Event(f"{prof.entity_id}:{kind[0]}{seq:05d}", prof.entity_id,
                    kind, t, x, y, payload)
        seq += 1
        t += float(rng.exponential(scale))


def run_cohort(cohort: Cohort) -> list[Event]:
    """Replay the whole horizon; returns every event, sorted by
    (t, entity_id, kind, uuid).

    Each (entity, kind) stream draws from its own generator, so the streams
    are independent of each other and of how time is split."""
    horizon = SECONDS_PER_DAY * cohort.spec.days
    events: list[Event] = []
    for i, prof in enumerate(cohort.profiles):
        for kind, rate in (("sensor", prof.sensor_rate),
                           ("report", prof.report_rate),
                           ("text", prof.text_rate)):
            rng = np.random.default_rng([cohort.seed, i, _STREAM_IDS[kind]])
            events.extend(_stream_events(prof, kind, rate, rng, horizon))
    events.sort(key=lambda e: (e.t, e.entity_id, e.kind, e.uuid))
    return events


def make_crash_plan(entity_ids, n_crashes: int, horizon_s: float,
                    seed: int) -> FaultPlan:
    """Uniformly scattered crashes, each at least one revival interval before
    the horizon so recovery is observable."""
    rng = np.random.default_rng([seed, 301])
    ids = list(entity_ids)
    entries = []
    for _ in range(n_crashes):
        t = float(rng.uniform(0.0, max(horizon_s - 960.0, 1.0)))
        who = ids[int(rng.integers(len(ids)))]
        entries.append(Fault(t, who, "crash"))
    return FaultPlan(entries)


def make_delivery_fault_plan(entity_ids, n_dup: int, n_drop: int,
                             horizon_s: float, seed: int) -> FaultPlan:
    """One-shot duplicate/drop markers scattered over the horizon."""
    rng = np.random.default_rng([seed, 302])
    ids = list(entity_ids)
    entries = []
    for kind, count in (("dup_delivery", n_dup), ("drop_delivery", n_drop)):
        for _ in range(count):
            t = float(rng.uniform(0.0, horizon_s))
            who = ids[int(rng.integers(len(ids)))]
            entries.append(Fault(t, who, kind))
    return FaultPlan(entries)


def make_net_flap_plan(entity_ids, n_cycles: int, horizon_s: float,
                       seed: int) -> FaultPlan:
    """Alternating net_down/net_up windows per sampled entity.

    Each cycle lives in its own slice of the horizon so windows for the same
    entity can never overlap.
    """
    rng = np.random.default_rng([seed, 303])
    ids = list(entity_ids)
    slot = horizon_s / max(n_cycles, 1)
    entries = []
    for k in range(n_cycles):
        width = min(NET_OUTAGE_S, 0.8 * slot)
        t = k * slot + float(rng.uniform(0.0, slot - width))
        who = ids[int(rng.integers(len(ids)))]
        entries.append(Fault(t, who, "net_down"))
        entries.append(Fault(t + width, who, "net_up"))
    return FaultPlan(entries)
