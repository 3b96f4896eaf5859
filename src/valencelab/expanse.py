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
from dataclasses import dataclass

import numpy as np

from .agent.core import Record
from .errors import ContractViolationError, EmptyDatasetError, NotFoundError
from .learn.automl import predict_proba
from .simworld import LABELS, day_of_week, hour_band
from .syncsec import (SyncBatch, canonical_json, decode_envelope, parse_json,
                      verify_and_scope)

LABEL_INDEX = {name: k for k, name in enumerate(LABELS)}

DOW_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
BAND_NAMES = ("morning", "afternoon", "night")


class MemoryStore:
    """Per-entity append-only event log with a per-entity uuid index."""

    def __init__(self):
        self._events: dict[str, list[Record]] = {}
        self._dirty: set[str] = set()
        self._uuids: dict[str, set[str]] = {}
        self._demographics: dict[str, dict] = {}

    def register_entity(self, entity_id: str, gender: str = "undisclosed",
                        birthdate: str | None = None) -> None:
        self._events.setdefault(entity_id, [])
        self._demographics[entity_id] = {
            "gender": gender, "birthdate": birthdate}

    def entity_ids(self) -> list[str]:
        return sorted(self._events)

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._events

    def demographics(self, entity_id: str) -> dict:
        if entity_id not in self._events:
            raise NotFoundError(f"unknown entity {entity_id!r}")
        return self._demographics.get(
            entity_id, {"gender": "undisclosed", "birthdate": None})

    def add(self, entity_id: str, record: Record) -> bool:
        seen = self._uuids.setdefault(entity_id, set())
        if record.uuid in seen:
            return False
        seen.add(record.uuid)
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

    def total_records(self) -> int:
        return sum(len(seen) for seen in self._uuids.values())


def ingest(store: MemoryStore, batch: SyncBatch) -> int:
    """Insert only unseen uuids; the count returned is what was new."""
    return sum(1 for rec in batch.records if store.add(batch.entity_id, rec))


@dataclass(frozen=True)
class EntitySummary:
    entity_id: str
    class_counts: tuple
    n_reports: int
    has_demographics: bool
    gender: str


def aggregate_entity(store: MemoryStore, entity_id: str) -> EntitySummary:
    counts = [0, 0, 0]
    for rec in store.events(entity_id):
        if rec.kind == "report":
            counts[LABEL_INDEX[rec.payload]] += 1
    demo = store.demographics(entity_id)
    has_demo = demo["gender"] != "undisclosed" and demo["birthdate"] is not None
    return EntitySummary(entity_id=entity_id, class_counts=tuple(counts),
                         n_reports=sum(counts), has_demographics=has_demo,
                         gender=demo["gender"])


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


@dataclass(frozen=True)
class EligibilityRules:
    require_demographics: bool = True
    min_reports: int = 20
    min_classes: int = 2
    min_per_class: int = 2
    max_imbalance_degree: float = 25.0

    def __post_init__(self):
        if (self.min_reports < 0 or self.min_classes < 0
                or self.min_per_class < 0 or self.max_imbalance_degree < 0):
            raise ContractViolationError("rule thresholds must be >= 0")
        if self.min_classes > len(LABELS):
            raise ContractViolationError(
                f"min_classes must be <= {len(LABELS)}, the number of labels")


def check_eligibility(summary: EntitySummary,
                      rules: EligibilityRules) -> tuple[bool, str]:
    """Apply the funnel in order; the first failed stage is the reason."""
    if rules.require_demographics and not summary.has_demographics:
        return False, "demographics"
    if summary.n_reports < rules.min_reports:
        return False, "min_reports"
    usable = sum(1 for c in summary.class_counts if c >= rules.min_per_class)
    if usable < rules.min_classes:
        return False, "min_classes"
    if imbalance_degree(summary.class_counts) > rules.max_imbalance_degree:
        return False, "imbalance"
    return True, "eligible"


def eligibility_funnel(store: MemoryStore, rules: EligibilityRules):
    """Run every registered entity through the rules.

    Returns (rows, counts): one dict per entity plus `funnel_counts(rows)`.
    """
    rows = []
    for eid in store.entity_ids():
        summary = aggregate_entity(store, eid)
        eligible, reason = check_eligibility(summary, rules)
        degree = (imbalance_degree(summary.class_counts)
                  if summary.n_reports else float("nan"))
        rows.append({
            "entity_id": eid,
            "gender": summary.gender,
            "n_reports": summary.n_reports,
            "n_negative": summary.class_counts[0],
            "n_neutral": summary.class_counts[1],
            "n_positive": summary.class_counts[2],
            "imbalance_degree": degree,
            "eligible": eligible,
            "reason": reason,
        })
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

class ModelRegistry:
    """Per-entity trained artifacts: (estimator bundle, cluster model)."""

    def __init__(self):
        self._models: dict[str, tuple] = {}

    def register(self, entity_id: str, model, cluster_model) -> None:
        self._models[entity_id] = (model, cluster_model)

    def get(self, entity_id: str):
        if entity_id not in self._models:
            raise NotFoundError(f"no trained model for {entity_id!r}")
        return self._models[entity_id]

    def entity_ids(self) -> list[str]:
        return sorted(self._models)


def predict_request_payload(entity_id: str, x: float, y: float,
                            t: float) -> bytes:
    return canonical_json({"kind": "predict", "entity_id": entity_id,
                           "x": x, "y": y, "t": t})


def handle_prediction(envelope, request: dict, store: MemoryStore,
                      models: ModelRegistry, keys) -> tuple[str, list]:
    """Scoped prediction for one (location, moment) context.

    `request` is the envelope's payload, already parsed. The envelope must
    verify and may only name its own signer; the reply is (class label,
    per-class probabilities).
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
    model, cluster_model = models.get(signer)
    label = int(cluster_model.assign(np.array([[x, y]]))[0])
    row = context_features(label, cluster_model.n_clusters, t)
    probs = predict_proba(model, row)
    return LABELS[int(np.argmax(probs))], [float(p) for p in probs]


class SyncServer:
    """Wire-level entry point: sync batches and prediction requests."""

    def __init__(self, store: MemoryStore, keys, models: ModelRegistry | None = None):
        self.store = store
        self.keys = keys
        self.models = models or ModelRegistry()

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
