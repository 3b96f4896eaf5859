"""Cloud-side memory and pipeline: idempotent ingestion, per-entity
aggregation, the eligibility funnel, dataset assembly, and the scoped
prediction service.

Class counts use the fixed label order (negative, neutral, positive). The
imbalance measure is the likelihood-ratio statistic against the uniform
class distribution, exposed behind its own function so an alternative
formula can be swapped without touching the funnel.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from .agent.core import Record
from .errors import ContractViolationError, EmptyDatasetError, NotFoundError
from .lazy import lazy_import
from .learn.automl import predict_proba
from .learn.cluster import nearest_exemplar
from .simworld import LABELS, day_of_week, hour_band
from .syncsec import (SyncBatch, canonical_json, decode_envelope, parse_json,
                      verify_and_scope)

np = lazy_import("numpy")

LABEL_INDEX = {name: k for k, name in enumerate(LABELS)}

DOW_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
BAND_NAMES = ("morning", "afternoon", "night")


BUCKET_KEYS = 64    # mean keys per bucket past which the buckets double


def _key(uuid: str) -> bytes:
    """A uuid's UTF-8 bytes ended by 0xFF, a byte UTF-8 never holds.

    "surrogatepass" encodes the lone surrogate a JSON "\\ud800" decodes
    to."""
    return uuid.encode("utf-8", "surrogatepass") + b"\xff"


class UuidSet:
    """An exact set of uuids, hashed into buckets of delimited keys.

    A bucket is one bytearray: 0xFF, then each key with its 0xFF end mark.
    No key holds 0xFF before its end, so 0xFF + key occurs in a bucket only
    where that whole key is held. A key's bucket is the low bits of its
    crc32, which no PYTHONHASHSEED moves. Once the set holds more than
    BUCKET_KEYS keys per bucket, the bucket count doubles: each bucket in
    turn splits into itself and one new bucket, so no step copies more
    than one bucket's keys (the split of linear hashing, Litwin, VLDB 1980,
    taken a whole round at a time).
    """

    __slots__ = ("_buckets", "_n")

    def __init__(self):
        self._buckets = [bytearray(b"\xff")]
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _bucket(self, key: bytes) -> bytearray:
        return self._buckets[zlib.crc32(key) & (len(self._buckets) - 1)]

    def __contains__(self, uuid: str) -> bool:
        key = _key(uuid)
        return b"\xff" + key in self._bucket(key)

    def add(self, uuid: str) -> bool:
        """Add one uuid; False when it was in already."""
        key = _key(uuid)
        bucket = self._bucket(key)
        if b"\xff" + key in bucket:
            return False
        bucket += key
        self._n += 1
        if self._n > BUCKET_KEYS * len(self._buckets):
            self._double()
        return True

    def _double(self) -> None:
        """Split bucket i into i and i + n, where n is the old count: a
        key moves when bit n of its crc32 is set."""
        n = len(self._buckets)
        for i in range(n):
            stay, move = bytearray(b"\xff"), bytearray(b"\xff")
            # every key ends in 0xFF, so the last piece is empty and is
            # dropped; an empty bucket splits into no key at all
            for body in self._buckets[i][1:].split(b"\xff")[:-1]:
                key = body + b"\xff"
                (move if zlib.crc32(key) & n else stay).extend(key)
            self._buckets[i] = stay
            self._buckets.append(move)


class AckLedger:
    """The uuids acknowledged per entity, and nothing else: what a sync
    ack's `new` count needs. `serve` keeps this, since it never reads a
    record back."""

    def __init__(self):
        self._uuids: dict[str, UuidSet] = {}

    def register_entity(self, entity_id: str) -> None:
        self._uuids.setdefault(entity_id, UuidSet())

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._uuids

    def add(self, entity_id: str, record: Record) -> bool:
        seen = self._uuids.get(entity_id)
        if seen is None:
            seen = self._uuids[entity_id] = UuidSet()
        return seen.add(record.uuid)

    def total_records(self) -> int:
        return sum(len(seen) for seen in self._uuids.values())


class MemoryStore(AckLedger):
    """Per-entity append-only event log over the uuid ledger."""

    def __init__(self):
        super().__init__()
        self._events: dict[str, list[Record]] = {}
        self._dirty: set[str] = set()
        self._demographics: dict[str, dict] = {}

    def register_entity(self, entity_id: str, gender: str = "undisclosed",
                        birthdate: str | None = None) -> None:
        super().register_entity(entity_id)
        self._events.setdefault(entity_id, [])
        self._demographics[entity_id] = {
            "gender": gender, "birthdate": birthdate}

    def entity_ids(self) -> list[str]:
        return sorted(self._events)

    def demographics(self, entity_id: str) -> dict:
        if entity_id not in self._events:
            raise NotFoundError(f"unknown entity {entity_id!r}")
        return self._demographics.get(
            entity_id, {"gender": "undisclosed", "birthdate": None})

    def add(self, entity_id: str, record: Record) -> bool:
        if not super().add(entity_id, record):
            return False
        self._events.setdefault(entity_id, []).append(record)
        self._dirty.add(entity_id)
        return True

    def events(self, entity_id: str) -> list[Record]:
        if entity_id not in self._events:
            raise NotFoundError(f"unknown entity {entity_id!r}")
        if entity_id in self._dirty:
            self._events[entity_id].sort(key=lambda r: (r.t, r.uuid))
            self._dirty.discard(entity_id)
        return self._events[entity_id]


def ingest(store: AckLedger, batch: SyncBatch) -> int:
    """Insert only unseen uuids; the count returned is what was new."""
    return sum(1 for rec in batch.records if store.add(batch.entity_id, rec))


def imbalance_degree(class_counts) -> float:
    """Likelihood-ratio distance from perfectly balanced counts.

    2 * sum_k n_k * ln(K * n_k / N) with 0 * ln 0 = 0; zero iff balanced.
    """
    counts = [int(c) for c in class_counts]
    if any(c < 0 for c in counts):
        raise ContractViolationError("class counts must be >= 0")
    n = sum(counts)
    if n == 0:
        raise ContractViolationError("imbalance undefined for zero reports")
    k = len(counts)
    return 2.0 * sum(c * math.log(k * c / n) for c in counts if c > 0)


# the funnel's gates, after the demographics gate, in the order they apply
MIN_REPORTS = 20
MIN_PER_CLASS = 2           # reports a class needs to count as present
MIN_CLASSES = 2
MAX_IMBALANCE_DEGREE = 25.0


def funnel_row(store: MemoryStore, entity_id: str) -> dict:
    """One entity's funnel.csv row: its reports per class, counted in one
    pass, and the first gate it fails as the reason, else "eligible"."""
    counts = [0, 0, 0]
    for rec in store.events(entity_id):
        if rec.kind == "report":
            counts[LABEL_INDEX[rec.payload]] += 1
    n_reports = sum(counts)
    degree = imbalance_degree(counts) if n_reports else float("nan")
    demo = store.demographics(entity_id)
    no_demo = demo["gender"] == "undisclosed" or demo["birthdate"] is None
    n_classes = sum(c >= MIN_PER_CLASS for c in counts)
    reason = ("demographics" if no_demo
              else "min_reports" if n_reports < MIN_REPORTS
              else "min_classes" if n_classes < MIN_CLASSES
              else "imbalance" if degree > MAX_IMBALANCE_DEGREE
              else "eligible")
    return {"entity_id": entity_id, "gender": demo["gender"],
            "n_reports": n_reports, "n_negative": counts[0],
            "n_neutral": counts[1], "n_positive": counts[2],
            "imbalance_degree": degree, "eligible": reason == "eligible",
            "reason": reason}


def eligibility_funnel(store: MemoryStore):
    """(rows, counts): a `funnel_row` per registered entity, and
    `funnel_counts(rows)`."""
    rows = [funnel_row(store, eid) for eid in store.entity_ids()]
    return rows, funnel_counts(rows)


def funnel_counts(rows) -> dict:
    """Funnel totals from the rows alone, so a re-run from funnel.csv
    counts what the pipeline counted: with_demographics is every entity
    that passed the demographics gate."""
    return {
        "total": len(rows),
        "with_demographics": sum(1 for r in rows
                                 if r["reason"] != "demographics"),
        "eligible": sum(1 for r in rows if r["eligible"]),
    }


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: tuple


def context_features(cluster_label: int, n_clusters: int, t: float):
    """One feature row: cluster one-hot + noise bucket + hour band one-hot
    + day-of-week one-hot + weekend flag."""
    row = np.zeros(n_clusters + 1 + 3 + 7 + 1)
    if cluster_label >= 0:
        row[cluster_label] = 1.0
    else:
        row[n_clusters] = 1.0
    band = hour_band(t)
    row[n_clusters + 1 + band] = 1.0
    dow = day_of_week(t)
    row[n_clusters + 4 + dow] = 1.0
    if dow >= 5:
        row[n_clusters + 11] = 1.0
    return row


def feature_names_for(n_clusters: int) -> tuple:
    names = [f"cluster_{c}" for c in range(n_clusters)]
    names.append("cluster_noise")
    names += [f"band_{b}" for b in BAND_NAMES]
    names += [f"dow_{d}" for d in DOW_NAMES]
    names.append("weekend")
    return tuple(names)


def build_dataset(store: MemoryStore, entity_id: str, cluster_model) -> Dataset:
    """Feature rows for every usable report of one entity.

    The cluster model must have been fitted on exactly this entity's
    reports: its stored labels are the cluster features (noise rows stay in
    the noise bucket).
    """
    reports = [r for r in store.events(entity_id) if r.kind == "report"]
    if not reports:
        raise EmptyDatasetError(f"{entity_id} has no reports")
    if len(cluster_model.labels) != len(reports):
        raise ContractViolationError(
            f"cluster model has {len(cluster_model.labels)} labels for "
            f"{len(reports)} reports of {entity_id}")
    n_clusters = cluster_model.n_clusters
    rows = []
    y = []
    for rec, lab in zip(reports, cluster_model.labels):
        if not (math.isfinite(rec.t) and math.isfinite(rec.x)
                and math.isfinite(rec.y)):
            continue
        rows.append(context_features(int(lab), n_clusters, rec.t))
        y.append(LABEL_INDEX[rec.payload])
    if not rows:
        raise EmptyDatasetError(f"{entity_id} has no usable report context")
    return Dataset(X=np.vstack(rows), y=np.asarray(y, dtype=np.int64),
                   feature_names=feature_names_for(n_clusters))


# ---------------------------------------------------------------------------
# prediction service

def _cell_moments() -> tuple:
    """A moment in each (hour band, day of week) cell, band-major."""
    moments = {}
    for hour in range(7 * 24):
        t = hour * 3600.0
        moments.setdefault((hour_band(t), day_of_week(t)), t)
    return tuple(moments[band, dow] for band in range(len(BAND_NAMES))
                 for dow in range(len(DOW_NAMES)))


_CELL_MOMENTS = _cell_moments()


class AnswerTable:
    """Every reply a predict can get, per entity with a trained model.

    A feature row depends only on (cluster label, hour band, day of week),
    so an entity with n clusters has (n + 1) * 21 answers: the noise cell,
    then each cluster's, each band-major over the days. `fill` predicts
    them all from the model at learn time (the prediction cache of Clipper,
    Crankshaw et al., NSDI 2017, filled ahead of use); `answer` finds the
    nearest exemplar in plain Python and looks its cell up, so a table read
    `from_dict` answers without numpy.
    """

    def __init__(self):
        # entity_id -> (exemplars, exemplar labels, (label, probs) per cell)
        self._entities: dict[str, tuple] = {}

    def fill(self, entity_id: str, model, cluster_model) -> None:
        """Predict each cell of one entity one row at a time, as a request
        would: a batch need not round as a single row does."""
        n = cluster_model.n_clusters
        cells = []
        for cluster in range(-1, n):
            for t in _CELL_MOMENTS:
                probs = predict_proba(model, context_features(cluster, n, t))
                cells.append((LABELS[int(np.argmax(probs))],
                              tuple(float(p) for p in probs)))
        self._entities[entity_id] = (
            tuple((float(x), float(y)) for x, y in cluster_model.exemplars),
            tuple(int(c) for c in cluster_model.exemplar_labels),
            tuple(cells))

    def entity_ids(self) -> list[str]:
        return sorted(self._entities)

    def answer(self, entity_id: str, x: float, y: float,
               t: float) -> tuple[str, list]:
        """(class label, per-class probabilities) for one entity at
        location (x, y) and moment t."""
        if entity_id not in self._entities:
            raise NotFoundError(f"no trained model for {entity_id!r}")
        exemplars, labels, cells = self._entities[entity_id]
        cluster = nearest_exemplar(x, y, exemplars, labels)
        label, probs = cells[(cluster + 1) * len(_CELL_MOMENTS)
                             + hour_band(t) * len(DOW_NAMES) + day_of_week(t)]
        return label, list(probs)

    def to_dict(self) -> dict:
        return {"entities": {
            eid: {"exemplars": [list(e) for e in exemplars],
                  "exemplar_labels": list(labels),
                  "answers": [[label, list(probs)] for label, probs in cells]}
            for eid, (exemplars, labels, cells) in self._entities.items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "AnswerTable":
        table = cls()
        for eid, entry in doc["entities"].items():
            exemplars = tuple((float(x), float(y))
                              for x, y in entry["exemplars"])
            labels = tuple(int(c) for c in entry["exemplar_labels"])
            cells = tuple((label, tuple(float(p) for p in probs))
                          for label, probs in entry["answers"])
            n_clusters = len(cells) // len(_CELL_MOMENTS) - 1
            if (len(cells) % len(_CELL_MOMENTS) or n_clusters < 0
                    or len(labels) != len(exemplars)
                    or not all(0 <= c < n_clusters for c in labels)
                    or not all(math.isfinite(v) for e in exemplars for v in e)
                    or not all(len(probs) == len(LABELS)
                               and all(map(math.isfinite, probs))
                               and min(probs) >= 0
                               and abs(math.fsum(probs) - 1) <= 1e-9
                               # labelled at the first maximum, as in fill
                               and label == LABELS[probs.index(max(probs))]
                               for label, probs in cells)):
                raise ContractViolationError(
                    f"the answers of {eid!r} do not fit its clusters or "
                    "labels")
            table._entities[eid] = (exemplars, labels, cells)
        return table


def predict_request_payload(entity_id: str, x: float, y: float,
                            t: float) -> bytes:
    return canonical_json({"kind": "predict", "entity_id": entity_id,
                           "x": x, "y": y, "t": t})


def handle_prediction(envelope, request: dict, store: AckLedger,
                      models: AnswerTable, keys) -> tuple[str, list]:
    """Scoped prediction for one (location, moment) context.

    `request` is the envelope's payload, already parsed. The envelope must
    verify and may only name its own signer; the reply is (class label,
    per-class probabilities), read from the answer table once the request
    has passed every check.
    """
    if request.get("kind") != "predict":
        raise ContractViolationError("payload is not a prediction request")
    target = request["entity_id"]
    signer = verify_and_scope(envelope, keys, requested_entity=target)
    if not store.has_entity(signer):
        raise NotFoundError(f"unknown entity {signer!r}")
    context = [request[k] for k in ("x", "y", "t")]
    # type(), not isinstance(): a JSON true is a bool, not a number
    if not all(type(v) in (int, float) for v in context):
        raise ContractViolationError("prediction context is not numeric")
    try:
        x, y, t = (float(v) for v in context)
    except OverflowError as exc:
        raise ContractViolationError("prediction context is not numeric") \
            from exc
    if not all(math.isfinite(v) for v in (x, y, t)):
        raise ContractViolationError("prediction context is not finite")
    return models.answer(signer, x, y, t)


class SyncServer:
    """Wire-level entry point: sync batches and prediction requests."""

    def __init__(self, store: AckLedger, keys,
                 models: AnswerTable | None = None):
        self.store = store
        self.keys = keys
        self.models = models or AnswerTable()

    def receive(self, message: bytes) -> bytes:
        envelope, _ = decode_envelope(message)
        request = parse_json(envelope.payload)
        if not isinstance(request, dict):
            raise ContractViolationError("payload is not a JSON object")
        kind = request.get("kind")
        if kind == "sync":
            batch = SyncBatch.from_dict(request)
            verify_and_scope(envelope, self.keys,
                             requested_entity=batch.entity_id)
            if not self.store.has_entity(batch.entity_id):
                self.store.register_entity(batch.entity_id)
            new = ingest(self.store, batch)
            return canonical_json(
                {"ok": True, "batch_id": batch.batch_id, "new": new})
        if kind == "predict":
            label, probs = handle_prediction(envelope, request, self.store,
                                             self.models, self.keys)
            return canonical_json(
                {"ok": True, "entity_id": envelope.signer,
                 "class": label, "probs": probs})
        raise ContractViolationError(f"unknown request kind {kind!r}")
