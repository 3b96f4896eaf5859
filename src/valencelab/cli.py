"""Command-line pipeline: simulate, drive agents, screen, tune, report.

Subcommands
-----------
simulate   write the cohort roster, the event log, and the fault plan
pipeline   full chain: simulate -> agents+sync -> funnel -> automl -> reports
learn      eligibility funnel + per-entity model tuning from stored artifacts
evaluate   model comparison statistics from models.csv
report     summary.md plus the duration-masked run hash
serve      TCP server answering sync batches and prediction requests
predict    one scoped prediction, in-process or against a running server

All stages are deterministic for a fixed (config, seed) except wall-clock
durations, which are reported but excluded from the run hash.

Exit codes: 0 success, 2 configuration problems, 3 pipeline/data problems,
4 authorization failures.
"""

from __future__ import annotations

import argparse
import csv
import heapq
import io
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from importlib import resources
from pathlib import Path
from typing import ClassVar

import numpy as np

from .agent import (HOMEOSTASIS_INTERVAL_S, Record, SensingAgent,
                    analyze_sentiment, dedupe_store, feed_tick,
                    homeostasis_check, ingest_report, on_system_event)
from .digest import sha256
from .errors import (AuthError, ConfigurationError, ContractViolationError,
                     EmptyDatasetError, NoStructureError, NotFoundError,
                     PipelineError, UnsupportedModelError)
from .evalstat import ConfusionMatrix, mcc_multiclass, u_test_verdict
from .expanse import (AckLedger, EligibilityRules, MemoryStore,
                      ModelRegistry, SyncServer, build_dataset,
                      eligibility_funnel, funnel_counts,
                      predict_request_payload)
from .learn import (MODEL_KINDS, AutomlConfig, ClusterModel, automl_entity,
                    autodiscover_cluster_params, derive_seed,
                    fit_cluster_model, model_from_dict, model_to_dict)
from .learn.bayesopt import DESIGN_SIZE
from .simworld import (SECONDS_PER_DAY, Cohort, CohortSpec, EntityProfile,
                       FaultPlan, SimClock, build_cohort, events_to_jsonl,
                       load_fault_plan, parse_kv_config, run_cohort,
                       typed_fields)
from .syncsec import (SYNC_BASE_INTERVAL_MIN, FaultyTransport,
                      LoopbackTransport, SocketServer, SocketTransport,
                      SyncClient, derive_keypair, encode_envelope,
                      public_keys, sign)

log = logging.getLogger("valencelab.cli")

# each reported metric: its model-row column and its title in stats.md
REPORT_METRICS = {"f1": ("cv_f1", "weighted F1"), "mcc": ("cv_mcc", "MCC")}
METRICS = (*REPORT_METRICS, "both")


# ---------------------------------------------------------------------------
# experiment configuration


MIN_SAMPLES = 5         # the clustering density parameter of every entity


@dataclass
class ExperimentConfig:
    """Everything one run needs; file values lose to explicit CLI flags.
    The drive window, the sync schedule and batch size, the CV split cap
    and MIN_SAMPLES are constants, which no file or flag sets."""

    step_s: ClassVar[float] = 900.0     # drive window and revive cadence
    seed: int = 7
    out: str = "out"
    cohort: str = ""            # path to a cohort config; "" = packaged default
    fault_plan: str = ""        # path to a fault plan; "" = no faults
    models: tuple = MODEL_KINDS
    metric: str = "both"
    budget: int = 8             # tuning evaluations per (entity, kind)
    min_reports: int = 20
    min_classes: int = 2
    min_per_class: int = 2
    max_imbalance_degree: float = 25.0
    require_demographics: bool = True

    def __post_init__(self):
        if isinstance(self.models, str):
            self.models = tuple(
                m.strip() for m in self.models.split(",") if m.strip())
        unknown = [m for m in self.models if m not in MODEL_KINDS]
        if unknown:
            raise ConfigurationError(f"unknown model kinds: {unknown}")
        if not self.models:
            raise ConfigurationError("at least one model kind is required")
        if len(set(self.models)) != len(self.models):
            # a repeated kind would be tuned and counted twice per entity
            raise ConfigurationError(f"repeated model kinds: {self.models}")
        if self.metric not in METRICS:
            raise ConfigurationError(
                f"metric must be one of {METRICS}, got {self.metric!r}")
        # the tuner spends DESIGN_SIZE evaluations on its space-filling
        # design before modeling anything, so smaller budgets cannot run
        if self.budget < DESIGN_SIZE:
            raise ConfigurationError(f"budget must be >= {DESIGN_SIZE}")
        try:
            self.rules()
        except ContractViolationError as exc:
            raise ConfigurationError(str(exc)) from exc

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        return cls(**typed_fields(cls, mapping, "experiment"))

    def rules(self) -> EligibilityRules:
        return EligibilityRules(
            require_demographics=self.require_demographics,
            min_reports=self.min_reports,
            min_classes=self.min_classes,
            min_per_class=self.min_per_class,
            max_imbalance_degree=self.max_imbalance_degree)


def _input_file(path, what: str) -> Path:
    """The path of an input file the user named, if it is there."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"no {what} at {p}")
    return p


def load_experiment_config(path) -> ExperimentConfig:
    text = _input_file(path, "experiment config").read_text()
    return ExperimentConfig.from_mapping(parse_kv_config(text))


# ---------------------------------------------------------------------------
# stage 1: simulate


def simulate_stage(config: ExperimentConfig):
    """Build the cohort and its fault plan, and replay the whole horizon."""
    cohort_file = (
        _input_file(config.cohort, "cohort config") if config.cohort
        else resources.files("valencelab") / "data" / "default_cohort.cfg")
    spec = CohortSpec.from_mapping(
        parse_kv_config(cohort_file.read_text(encoding="utf-8")))
    cohort = build_cohort(spec, config.seed)
    plan = (load_fault_plan(_input_file(config.fault_plan, "fault plan"))
            if config.fault_plan else FaultPlan())
    unknown = sorted({f.entity_id for f in plan}
                     - {p.entity_id for p in cohort.profiles})
    if unknown:
        raise ConfigurationError(
            f"fault plan names entities outside the cohort: {unknown}")
    return cohort, run_cohort(cohort), plan


# ---------------------------------------------------------------------------
# stage 2: drive the device agents and sync everything to the store


# A drive forks one worker for each this many events, at most one per entity
# and per CPU; below it the one group of entities is driven in process. Fork,
# result transfer and merge cost about 0.1 s, which a drive of a few hundred
# milliseconds does not earn back. Two callers also need their small drives
# in process: the serve benchmark's set-up records agent batches by patching
# syncsec.make_batch in the calling process, so a forked drive would leave
# its recording empty; and the benchmark's tests count agent.feed_tick calls
# in a traced tiny learn set-up, which a worker's spans would not reach.
DRIVE_EVENTS_PER_WORKER = 2000


@dataclass
class DriveResult:
    mstore: MemoryStore
    keys: dict                # entity_id -> raw public key bytes
    private_keys: dict
    transport: FaultyTransport
    agents: dict              # battery: agents[eid].energy_spent
    recoveries: list          # (entity_id, crash_t, revive_t), by revive_t
    sentiment_counts: dict    # text-message sentiment class tallies


def drive_agents(cohort: Cohort, events, plan: FaultPlan,
                 config: ExperimentConfig) -> DriveResult:
    """Replay one timeline through every entity's agent and sync client, in
    windows of ExperimentConfig.step_s; of the config, only the seed (for
    the entities' keys) is read.

    Entities share no mutable state while they are driven, so round-robin
    groups of them are driven apart, each against a store and transport of
    its own, and merged here in group order: one group in process below
    DRIVE_EVENTS_PER_WORKER events per worker, else a forked worker each.
    The store, the agents and the recoveries do not depend on the count.
    """
    keys = {}
    private_keys = {}
    # derived here: private keys do not pickle, and a worker inherits them
    for prof in cohort.profiles:
        private_keys[prof.entity_id], keys[prof.entity_id] = derive_keypair(
            config.seed, prof.entity_id)
    mstore = _registered_store(cohort.profiles)
    transport = FaultyTransport(LoopbackTransport(SyncServer(mstore, keys)),
                                plan)
    ids = [p.entity_id for p in cohort.profiles]
    workers = max(1, _workers(
        min(len(ids), len(events) // DRIVE_EVENTS_PER_WORKER)))
    agents, recoveries = {}, []
    sentiment_counts = {"negative": 0, "neutral": 0, "positive": 0}
    # the inputs reach a worker by fork; only entity ids are pickled
    inherited = (plan, keys, events, private_keys,
                 cohort.spec.days * SECONDS_PER_DAY)
    groups = [(ids[i::workers],) for i in range(workers)]
    for stored, group_agents, group_recoveries, outcomes, tallies in \
            _in_order(_drive_group, groups, workers, inherited):
        for eid, records in stored.items():
            for rec in records:
                mstore.add(eid, rec)
        agents.update(group_agents)
        recoveries += group_recoveries
        transport.outcomes += outcomes
        for cls, n in tallies.items():
            sentiment_counts[cls] += n
    recoveries.sort(key=lambda r: (r[2], r[0], r[1]))
    return DriveResult(
        mstore=mstore, keys=keys, private_keys=private_keys,
        transport=transport, agents={eid: agents[eid] for eid in ids},
        recoveries=recoveries, sentiment_counts=sentiment_counts)


def _drive_group(plan: FaultPlan, keys, events, private_keys,
                 horizon: float, ids):
    """Windowed replay of the entities `ids` against a store and transport
    of their own: their events and lifecycle faults in time order, periodic
    checks (feed, revive, homeostasis) at every ExperimentConfig.step_s
    boundary, sync attempts on each client's own schedule.

    Returns each entity's stored records, the agents, the recoveries, the
    transport's outcomes and the sentiment tallies."""
    group = set(ids)
    store = MemoryStore()
    transport = FaultyTransport(LoopbackTransport(SyncServer(store, keys)),
                                plan)
    agents = {eid: SensingAgent(eid) for eid in ids}
    clients = {eid: SyncClient(store=agents[eid].store,
                               private_key=private_keys[eid],
                               transport=transport) for eid in ids}
    next_sync = dict.fromkeys(ids, SYNC_BASE_INTERVAL_MIN * 60.0)

    agent_faults = [f for f in plan if f.entity_id in group
                    and f.kind in ("crash", "reboot")]
    # merge is stable: a fault comes before an event at the same instant,
    # so a crash at t kills the event at t
    timeline = heapq.merge(agent_faults,
                           [e for e in events if e.entity_id in group],
                           key=lambda item: item.t)
    item = next(timeline, None)
    recoveries = []
    crash_pending: dict[str, list[float]] = {}
    sentiment_counts = {"negative": 0, "neutral": 0, "positive": 0}
    order = sorted(agents)

    step_s = ExperimentConfig.step_s
    for w in range(math.ceil(horizon / step_s)):
        t_end = min((w + 1) * step_s, horizon)

        while item is not None and item.t < t_end:
            agent = agents[item.entity_id]
            if item.kind == "crash":
                if agent.status.state == "running":
                    crash_pending.setdefault(
                        item.entity_id, []).append(item.t)
                    on_system_event(agent, "crash")
            elif item.kind == "reboot":
                on_system_event(agent, "boot", now=item.t)
                for t_c in crash_pending.pop(item.entity_id, []):
                    recoveries.append((item.entity_id, t_c, item.t))
            elif agent.status.state != "running":
                pass                # device is down; the moment is lost
            elif item.kind == "report":
                ingest_report(agent, item.payload, item.t,
                              (item.x, item.y), uuid=item.uuid)
            else:
                if item.kind == "text":
                    _, _, cls = analyze_sentiment(item.payload)
                    sentiment_counts[cls] += 1
                dedupe_store(agent.store, Record(
                    item.uuid, item.kind, item.t, item.x, item.y,
                    item.payload))
            item = next(timeline, None)

        # boundary work: sensing feed, revival, periodic self-checks
        clock = SimClock(now=t_end)
        for eid in order:
            agent = agents[eid]
            feed_tick(agent, clock)
            if agent.status.state == "crashed":
                on_system_event(agent, "revive_tick", now=t_end)
                for t_c in crash_pending.pop(eid, []):
                    recoveries.append((eid, t_c, t_end))
            elif (t_end - agent.status.last_homeostasis
                  >= HOMEOSTASIS_INTERVAL_S):
                homeostasis_check(agent, t_end)

        # sync attempts due in this window (local ingest above happens
        # first; cross-window ordering stays exact)
        for eid in order:
            client = clients[eid]
            while next_sync[eid] <= t_end:
                t_s = next_sync[eid]
                if agents[eid].status.state == "running":
                    transport.advance_to(t_s, eid)
                    client.attempt(t_s)
                next_sync[eid] = t_s + client.interval_min * 60.0

    # quiesce: every committed record must land exactly once
    for eid in order:
        transport.advance_to(horizon, eid)
        for _ in range(10000):
            if clients[eid].attempt(horizon) == "idle":
                break
        else:
            raise PipelineError(f"sync for {eid} refused to quiesce")

    stored = {eid: store.events(eid) for eid in store.entity_ids()}
    return stored, agents, recoveries, transport.outcomes, sentiment_counts


# ---------------------------------------------------------------------------
# stage 3: eligibility funnel


def funnel_stage(mstore: MemoryStore, config: ExperimentConfig):
    return eligibility_funnel(mstore, config.rules())


# ---------------------------------------------------------------------------
# stage 4: per-entity clustering + model tuning


def _workers(n_tasks: int) -> int:
    """Worker processes for independent tasks: at most one per task and
    one per CPU."""
    return min(n_tasks, len(os.sched_getaffinity(0)))


def _in_order(fn, tasks, workers: int, inherited=()):
    """Yield fn(*inherited, *task) for each task, in task order.

    With one worker or none the calls run in process. Otherwise they run in
    `workers` forks of this process, which start with its modules and state
    and with `inherited`, which is not pickled; only tasks and results are.
    No worker outlives the iteration: exhaust or close it."""
    if workers <= 1:
        for task in tasks:
            yield fn(*inherited, *task)
        return
    # imported on use: a process that never forks workers (a small drive,
    # serve, a one-worker learn) does not load the multiprocessing modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit, initargs=inherited)
    try:
        # map yields in task order and drops each result once yielded
        yield from pool.map(partial(_call_inherited, fn), tasks)
    finally:
        # on an error, tasks not yet started are dropped; running ones
        # finish before the error reaches the caller
        pool.shutdown(cancel_futures=True)


_inherited: tuple = ()


def _inherit(*inherited) -> None:
    """A worker's initializer: keeps what it inherited by fork."""
    global _inherited
    _inherited = inherited


def _call_inherited(fn, task):
    return fn(*_inherited, *task)


def _tune_entity(X, y, automl_cfg, seed, feature_names):
    # pickles by name for the pool, and looks `automl_entity` up when called,
    # so a worker runs the same function as the in-process path
    return automl_entity(X, y, automl_cfg, seed=seed,
                         feature_names=feature_names)


def learn_stage(mstore: MemoryStore, funnel_rows, config: ExperimentConfig):
    """Cluster, featurize, and tune every eligible entity.

    Clustering and dataset assembly run here, in entity order; then the
    entities are tuned in forked worker processes, or in process when there
    is one worker. Tuning is seeded per entity, so the outputs do not depend
    on the worker count.

    Returns (model_rows, registry, registry_doc); rows carry both metrics
    regardless of the report metric setting.
    """
    eligible = [r["entity_id"] for r in funnel_rows if r["eligible"]]
    registry = ModelRegistry()
    model_rows = []
    registry_doc = {"seed": config.seed, "entities": {}}
    automl_cfg = AutomlConfig(budget=config.budget, kinds=tuple(config.models))
    clustered, tasks = [], []
    for eid in eligible:
        reports = [r for r in mstore.events(eid) if r.kind == "report"]
        points = np.array([[r.x, r.y] for r in reports])
        mcs, ms = autodiscover_cluster_params(
            points, min_samples_grid=(MIN_SAMPLES,))
        cmodel = fit_cluster_model(points, mcs, ms)
        ds = build_dataset(mstore, eid, cmodel)
        clustered.append((eid, len(reports), cmodel, mcs, ms))
        tasks.append((ds.X, ds.y, automl_cfg, derive_seed(config.seed, eid),
                      ds.feature_names))
    # the tuning results come first, so zip exhausts them
    for models, (eid, n_reports, cmodel, mcs, ms) in zip(
            _in_order(_tune_entity, tasks, _workers(len(eligible))),
            clustered):
        best_kind = max(config.models,
                        key=lambda k: (models[k].cv_score,
                                       MODEL_KINDS.index(k)))
        registry.register(eid, models[best_kind], cmodel)
        kind_scores = {}
        for kind in config.models:
            m = models[kind]
            mcc = mcc_multiclass(ConfusionMatrix(np.asarray(m.cv_confusion)))
            model_rows.append({
                "entity_id": eid, "kind": kind,
                "cv_f1": float(m.cv_score), "cv_mcc": float(mcc),
                "duration_s": float(m.duration_s),
                "cv_splits": int(m.cv_splits),
                "n_reports": n_reports,
                "n_clusters": int(cmodel.n_clusters),
                "min_cluster_size": int(mcs), "min_samples": int(ms),
            })
            kind_scores[kind] = {"cv_f1": float(m.cv_score),
                                 "cv_mcc": float(mcc)}
        registry_doc["entities"][eid] = {
            "best_kind": best_kind,
            "model": model_to_dict(models[best_kind]),
            "cluster": cmodel.to_dict(),
            "kinds": kind_scores,
        }
        log.info("tuned %s: best %s cv_f1=%.3f", eid, best_kind,
                 models[best_kind].cv_score)
    return model_rows, registry, registry_doc


# ---------------------------------------------------------------------------
# stage 5: comparison statistics


def _metric_by_kind(model_rows, metric_key: str) -> dict:
    out: dict[str, list] = {}
    for row in model_rows:
        out.setdefault(row["kind"], []).append(float(row[metric_key]))
    return out


def _quartile_rows(by_kind: dict) -> list:
    rows = []
    for kind in sorted(by_kind):
        v = np.asarray(by_kind[kind], dtype=np.float64)
        q = np.percentile(v, [0, 25, 50, 75, 100])
        rows.append({
            "kind": kind, "min": q[0], "q1": q[1], "median": q[2],
            "q3": q[3], "max": q[4], "mean": float(v.mean()), "n": len(v)})
    return rows


def _stats_table(by_kind: dict, metric_name: str) -> str:
    kinds = sorted(by_kind, key=lambda k: -float(np.mean(by_kind[k])))
    lines = [f"## Pairwise Mann-Whitney U on per-entity {metric_name}", "",
             "| comparison | U | p | verdict |",
             "|---|---|---|---|"]
    for i in range(len(kinds)):
        for j in range(i + 1, len(kinds)):
            a, b = kinds[i], kinds[j]
            r = u_test_verdict(by_kind[a], by_kind[b])
            lines.append(f"| {a} vs {b} | {r['U']:.1f} | {r['p']:.3e} "
                         f"| {r['verdict']} |")
    return "\n".join(lines)


def evaluate_stage(model_rows, config: ExperimentConfig):
    """Returns (stats markdown, f1 quartile rows, mcc quartile rows); the
    rows of a metric that the config does not report are None."""
    if not model_rows:
        raise PipelineError("no tuned models to evaluate")
    blocks = ["# Model comparison", ""]
    boxes = dict.fromkeys(REPORT_METRICS)
    for metric, (column, title) in REPORT_METRICS.items():
        if config.metric in (metric, "both"):
            by_kind = _metric_by_kind(model_rows, column)
            blocks += [_stats_table(by_kind, title), ""]
            boxes[metric] = _quartile_rows(by_kind)
    return ("\n".join(blocks), *boxes.values())


# ---------------------------------------------------------------------------
# stage 6: summary + run hash


def run_hash(funnel_rows, model_rows, stats_text: str) -> str:
    """Deterministic digest of the run outputs; durations are masked because
    wall-clock is the one legitimately machine-dependent output.

    Values are hashed in their CSV text form so the digest is identical
    whether rows come from memory or from re-parsed artifacts."""
    funnel = [{k: _fmt(v) for k, v in row.items()} for row in funnel_rows]
    masked = [{k: _fmt(v) for k, v in row.items() if k != "duration_s"}
              for row in model_rows]
    doc = json.dumps({"funnel": funnel, "models": masked,
                      "stats": stats_text}, sort_keys=True)
    return sha256(doc.encode()).hex()


def report_stage(funnel_rows, counts, model_rows, config: ExperimentConfig,
                 stats_text: str) -> tuple[str, str]:
    """Returns (summary markdown, run hash)."""
    by_f1 = _metric_by_kind(model_rows, "cv_f1")
    by_mcc = _metric_by_kind(model_rows, "cv_mcc")
    by_dur = _metric_by_kind(model_rows, "duration_s")
    kinds = sorted(by_f1, key=lambda k: -float(np.mean(by_f1[k])))
    lines = [
        "# Run summary", "",
        f"- seed: {config.seed}",
        f"- funnel: {counts['total']} -> {counts['with_demographics']} "
        f"-> {counts['eligible']}",
        f"- tuned entities: {counts['eligible']}",
        f"- tuning budget: {config.budget} evaluations per model kind", "",
        "| model | mean F1 | mean MCC | total tuning wall (s) |",
        "|---|---|---|---|",
    ]
    for k in kinds:
        lines.append(f"| {k} | {np.mean(by_f1[k]):.4f} "
                     f"| {np.mean(by_mcc[k]):.4f} "
                     f"| {np.sum(by_dur[k]):.1f} |")
    lines += ["",
              "Durations are wall-clock and machine-dependent; they are "
              "excluded from the run hash.", ""]
    digest = run_hash(funnel_rows, model_rows, stats_text)
    return "\n".join(lines), digest


# ---------------------------------------------------------------------------
# artifact IO


# each CSV artifact's columns in file order, with the parser of their text
FUNNEL_COLUMNS = {
    "entity_id": str, "gender": str, "n_reports": int, "n_negative": int,
    "n_neutral": int, "n_positive": int, "imbalance_degree": float,
    "eligible": lambda text: text == "true", "reason": str}
MODEL_COLUMNS = {
    "entity_id": str, "kind": str, "cv_f1": float, "cv_mcc": float,
    "duration_s": float, "cv_splits": int, "n_reports": int,
    "n_clusters": int, "min_cluster_size": int, "min_samples": int}
BOX_FIELDS = ("kind", "min", "q1", "median", "q3", "max", "mean", "n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.6f}"
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in columns])
    path.write_text(buf.getvalue())


def _artifact(path: Path, producer: str) -> Path:
    """The path of an artifact an earlier command wrote, if it is there."""
    if not path.is_file():
        raise PipelineError(f"missing artifact {path}; run {producer}")
    return path


@contextmanager
def _parsing(path: Path):
    """Raises what goes wrong parsing the artifact at `path` inside as a
    PipelineError that names it: bad JSON or text, a missing key or column,
    a value or a JSON container of the wrong type, a broken contract such
    as an unknown gender or hyperparameter, an unknown model kind."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError, csv.Error,
            ContractViolationError, UnsupportedModelError) as exc:
        raise PipelineError(f"malformed artifact {path}: {exc!r}") from exc


def _read_rows(path: Path, columns: dict) -> list:
    with open(_artifact(path, "earlier stages"), newline="") as fh, \
            _parsing(path):
        return [{k: parse(r[k]) for k, parse in columns.items()}
                for r in csv.DictReader(fh)]


def _roundtrip(rows, columns: dict) -> list:
    """Normalize rows through their CSV text form so downstream numbers are
    identical whether they come from memory or from re-read artifacts."""
    return [{k: parse(_fmt(r[k])) for k, parse in columns.items()}
            for r in rows]


def _store_to_jsonl(mstore: MemoryStore) -> str:
    lines = []
    for eid in mstore.entity_ids():
        for rec in mstore.events(eid):
            doc = {"entity_id": eid}
            doc.update(rec.to_dict())
            lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _registered_store(profiles) -> MemoryStore:
    """An empty store that knows every entity and its demographics."""
    mstore = MemoryStore()
    for prof in profiles:
        mstore.register_entity(
            prof.entity_id, prof.gender,
            prof.birthdate.isoformat() if prof.birthdate else None)
    return mstore


def _write_world(out: Path, cohort: Cohort, events, plan: FaultPlan) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "cohort.jsonl").write_text(cohort.to_jsonl())
    (out / "events.jsonl").write_text(events_to_jsonl(events))
    (out / "faults.txt").write_text(plan.to_text())


def _write_learn(out: Path, funnel_rows, model_rows, registry_doc) -> None:
    _write_csv(out / "funnel.csv", FUNNEL_COLUMNS, funnel_rows)
    _write_csv(out / "models.csv", MODEL_COLUMNS, model_rows)
    (out / "models.json").write_text(
        json.dumps(registry_doc, sort_keys=True, indent=1))


def _write_stats(out: Path, stats_text: str, boxes) -> None:
    """stats.md, and a box plot for each metric with quartile rows."""
    (out / "stats.md").write_text(stats_text)
    for metric, rows in zip(REPORT_METRICS, boxes):
        if rows is not None:
            _write_csv(out / f"boxplot_{metric}.csv", BOX_FIELDS, rows)


def _write_report(out: Path, summary_text: str, digest: str) -> None:
    (out / "summary.md").write_text(summary_text)
    (out / "run_hash.txt").write_text(digest + "\n")


def _load_cohort_file(out: Path) -> list:
    path = _artifact(out / "cohort.jsonl", "simulate first")
    with _parsing(path):
        return [EntityProfile.from_dict(json.loads(line))
                for line in path.read_text().splitlines() if line.strip()]


def _rebuild_store(out: Path) -> MemoryStore:
    mstore = _registered_store(_load_cohort_file(out))
    path = _artifact(out / "store.jsonl", "pipeline first")
    with _parsing(path):
        for line in path.read_text().splitlines():
            if line.strip():
                doc = json.loads(line)
                eid = doc.pop("entity_id")
                mstore.add(eid, Record.from_dict(doc))
    return mstore


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class RunResult:
    config: ExperimentConfig
    cohort: Cohort
    drive: DriveResult
    funnel_rows: list
    funnel_counts: dict
    model_rows: list
    registry: ModelRegistry
    registry_doc: dict
    summary_text: str
    digest: str
    out_dir: Path


def run_experiment(config: ExperimentConfig) -> RunResult:
    """The pipeline subcommand: every stage chained in memory, artifacts
    written at the end."""
    t0 = time.perf_counter()
    cohort, events, plan = simulate_stage(config)
    log.info("simulated %d events for %d entities",
             len(events), len(cohort.profiles))
    drive = drive_agents(cohort, events, plan, config)
    log.info("server holds %d records", drive.mstore.total_records())
    funnel_rows, counts = funnel_stage(drive.mstore, config)
    funnel_rows = _roundtrip(funnel_rows, FUNNEL_COLUMNS)
    log.info("funnel: %(total)d -> %(with_demographics)d -> %(eligible)d",
             counts)
    model_rows, registry, registry_doc = learn_stage(
        drive.mstore, funnel_rows, config)
    model_rows = _roundtrip(model_rows, MODEL_COLUMNS)
    stats_text, *boxes = evaluate_stage(model_rows, config)
    summary_text, digest = report_stage(
        funnel_rows, counts, model_rows, config, stats_text)
    log.info("pipeline finished in %.1fs, hash %s",
             time.perf_counter() - t0, digest[:12])

    out = Path(config.out)
    _write_world(out, cohort, events, plan)
    (out / "store.jsonl").write_text(_store_to_jsonl(drive.mstore))
    _write_learn(out, funnel_rows, model_rows, registry_doc)
    _write_stats(out, stats_text, boxes)
    _write_report(out, summary_text, digest)

    return RunResult(
        config=config, cohort=cohort, drive=drive, funnel_rows=funnel_rows,
        funnel_counts=counts, model_rows=model_rows, registry=registry,
        registry_doc=registry_doc, summary_text=summary_text, digest=digest,
        out_dir=out)


# ---------------------------------------------------------------------------
# serving helpers


def _registry_from_doc(doc: dict) -> ModelRegistry:
    registry = ModelRegistry()
    for eid, entry in doc["entities"].items():
        registry.register(eid, model_from_dict(entry["model"]),
                          ClusterModel.from_dict(entry["cluster"]))
    return registry


def _models_doc(out: Path) -> tuple[dict, int]:
    """models.json, and the seed that the entities' keys derive from."""
    path = _artifact(out / "models.json", "learn")
    with _parsing(path):
        doc = json.loads(path.read_text())
        return doc, int(doc["seed"])


def _server_from_artifacts(out: Path):
    """(SyncServer, seed) rebuilt from cohort.jsonl + models.json. The
    server acks syncs into a uuid ledger: serving never reads a record
    back, so it keeps none."""
    doc, seed = _models_doc(out)
    with _parsing(out / "models.json"):
        registry = _registry_from_doc(doc)
    ids = [p.entity_id for p in _load_cohort_file(out)]
    ledger = AckLedger()
    for eid in ids:
        ledger.register_entity(eid)
    return SyncServer(ledger, public_keys(seed, ids), registry), seed


def _predict_once(transport, seed: int, entity: str, as_entity: str,
                  x: float, y: float, t: float) -> dict:
    sk, _ = derive_keypair(seed, as_entity)
    payload = predict_request_payload(entity, x, y, t)
    envelope = sign(sk, payload, as_entity)
    reply = transport.send(encode_envelope(envelope), as_entity)
    if reply is None:
        raise PipelineError("no reply from server")
    doc = json.loads(reply)
    if not doc.get("ok"):
        if doc.get("error") == "auth":
            raise AuthError(doc.get("kind", "reject"),
                            "server refused the request")
        raise PipelineError(f"server error: {doc}")
    return doc


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config: ExperimentConfig, args) -> int:
    cohort, events, plan = simulate_stage(config)
    out = Path(config.out)
    _write_world(out, cohort, events, plan)
    print(f"simulated {len(events)} events for {len(cohort.profiles)} "
          f"entities into {out}")
    return 0


def cmd_pipeline(config: ExperimentConfig, args) -> int:
    result = run_experiment(config)
    c = result.funnel_counts
    print(f"funnel: {c['total']} -> {c['with_demographics']} "
          f"-> {c['eligible']}")
    print(f"outputs in {result.out_dir}, run hash {result.digest}")
    return 0


def cmd_learn(config: ExperimentConfig, args) -> int:
    out = Path(config.out)
    mstore = _rebuild_store(out)
    funnel_rows, counts = funnel_stage(mstore, config)
    model_rows, _, registry_doc = learn_stage(mstore, funnel_rows, config)
    _write_learn(out, funnel_rows, model_rows, registry_doc)
    print(f"tuned {counts['eligible']} entities into {out}")
    return 0


def cmd_evaluate(config: ExperimentConfig, args) -> int:
    out = Path(config.out)
    model_rows = _read_rows(out / "models.csv", MODEL_COLUMNS)
    stats_text, *boxes = evaluate_stage(model_rows, config)
    _write_stats(out, stats_text, boxes)
    print(f"comparison statistics written to {out / 'stats.md'}")
    return 0


def cmd_report(config: ExperimentConfig, args) -> int:
    out = Path(config.out)
    funnel_rows = _read_rows(out / "funnel.csv", FUNNEL_COLUMNS)
    model_rows = _read_rows(out / "models.csv", MODEL_COLUMNS)
    counts = funnel_counts(funnel_rows)
    stats_text, _, _ = evaluate_stage(model_rows, config)
    summary_text, digest = report_stage(
        funnel_rows, counts, model_rows, config, stats_text)
    _write_report(out, summary_text, digest)
    print(f"summary written to {out / 'summary.md'}, run hash {digest}")
    return 0


def _check_port(port: int, lowest: int) -> None:
    # getaddrinfo would take 70000 as 70000 mod 65536, and bind refuses it
    # only with an OverflowError
    if not lowest <= port <= 65535:
        raise ConfigurationError(
            f"--port must be in {lowest}..65535, not {port}")


def cmd_serve(config: ExperimentConfig, args) -> int:
    _check_port(args.port, 0)
    if args.max_seconds is not None and not 0 <= args.max_seconds < math.inf:
        raise ConfigurationError(
            f"--max-seconds must be finite and >= 0, not {args.max_seconds}")
    handler, _ = _server_from_artifacts(Path(config.out))
    try:
        server = SocketServer(handler, host=args.host, port=args.port)
    except OSError as exc:      # the address is in use or not ours
        raise PipelineError(
            f"cannot serve on {args.host}:{args.port}: {exc}") from exc
    server.start()
    print(f"serving on {server.host}:{server.port}", flush=True)
    try:
        if args.max_seconds is None:
            while True:
                time.sleep(0.5)
        else:
            time.sleep(args.max_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_predict(config: ExperimentConfig, args) -> int:
    if args.host is not None:
        if args.port is None:
            raise ConfigurationError("--port is required with --host")
        _check_port(args.port, 1)
        transport = SocketTransport(args.host, args.port)
        _, seed = _models_doc(Path(config.out))
    else:
        handler, seed = _server_from_artifacts(Path(config.out))
        transport = LoopbackTransport(handler)
    try:
        doc = _predict_once(transport, seed, args.entity,
                            args.as_entity or args.entity,
                            args.x, args.y, args.t)
    except OSError as exc:      # only the socket transport does IO
        raise PipelineError(
            f"cannot reach {args.host}:{args.port}: {exc}") from exc
    print(json.dumps(doc, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_command(sub, name: str, run) -> argparse.ArgumentParser:
    """A subcommand that runs `run(config, args)`, with the common flags;
    each of those flags sets the ExperimentConfig field of its name."""
    parser = sub.add_parser(name)
    parser.set_defaults(run=run)
    parser.add_argument("--config", default=None,
                        help="experiment config file (key = value lines)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--cohort", default=None,
                        help="cohort config file; omit for the default")
    parser.add_argument("--fault-plan", default=None,
                        help="fault plan file; omit for a clean run")
    parser.add_argument("--models", default=None,
                        help="comma-separated kinds "
                             f"(subset of {','.join(MODEL_KINDS)})")
    parser.add_argument("--metric", choices=METRICS, default=None)
    parser.add_argument("--budget", type=int, default=None,
                        help="tuning evaluations per model kind")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valencelab",
        description="Deterministic mobile-sensing valence pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in (("simulate", cmd_simulate), ("pipeline", cmd_pipeline),
                      ("learn", cmd_learn), ("evaluate", cmd_evaluate),
                      ("report", cmd_report)):
        _add_command(sub, name, run)
    serve = _add_command(sub, "serve", cmd_serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="stop after this long (default: run forever)")
    predict = _add_command(sub, "predict", cmd_predict)
    predict.add_argument("--entity", required=True,
                         help="entity whose model answers")
    predict.add_argument("--as-entity", default=None,
                         help="signing identity (defaults to --entity)")
    predict.add_argument("--x", type=float, required=True)
    predict.add_argument("--y", type=float, required=True)
    predict.add_argument("--t", type=float, required=True)
    predict.add_argument("--host", default=None,
                         help="remote server; omit to answer in-process")
    predict.add_argument("--port", type=int, default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's settings, or the defaults, under the flags given."""
    config = (load_experiment_config(args.config)
              if args.config else ExperimentConfig())
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name, None) is not None}
    return replace(config, **given)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.run(config_from_args(args), args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AuthError as exc:
        print(f"authorization error: {exc}", file=sys.stderr)
        return 4
    except (PipelineError, NotFoundError, NoStructureError,
            EmptyDatasetError, ContractViolationError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
