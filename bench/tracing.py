"""Spans around calls into valencelab's public functions.

`install(tracer)` replaces each traced function at the name its caller looks
up (for example `valencelab.cli.feed_tick`, which `drive_agents` calls, or
`SyncServer.receive`) with a wrapper that records a span: name, start, end
and parent span. Spans stay in memory until `Tracer.dump`. The program's own
files are not touched; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

KINDS = ("dummy", "logreg", "gbt", "mlp")

# Stage spans whose sum should account for a pipeline phase's wall time.
CLI_STAGES = ("simulate_stage", "drive_agents", "funnel_stage",
              "learn_stage", "evaluate_stage", "report_stage")


class Tracer:
    """In-memory span store plus counters taken from return values."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent])
            sid = len(self.spans) - 1
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def dump(self, path) -> None:
        doc = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def merge_file(self, path) -> None:
        """Append spans and counts written by another process's tracer."""
        with open(path) as fh:
            doc = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent in doc["spans"]:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1])
        for key, n in doc["counts"].items():
            self.counts[key] += n


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if on_result is not None:
            on_result(tracer, result)
        return result
    return traced


# -- counters read from return values ----------------------------------------


def _count_events(tracer, result):
    tracer.count("simworld.events", len(result[1]))


def _count_transport(tracer, drive):
    for _, outcome in drive.transport.outcomes:
        tracer.count(f"syncsec.transport.{outcome}")


def _count_model_rows(tracer, result):
    for row in result[0]:
        tracer.count(f"learn.{row['kind']}.wall_s", row["duration_s"])


def _count_status(key, status):
    def on_result(tracer, result):
        if result[0] == status:
            tracer.count(key)
    return on_result


def _count_attempt(tracer, outcome):
    tracer.count(f"syncsec.attempt.{outcome}")


def _count_batch(tracer, batch):
    if batch is not None:
        tracer.count("syncsec.records_sent", len(batch.records))


def _count_new(tracer, new):
    tracer.count("expanse.ingest.new", new)


def _traced_bayes_optimize(tracer, fn):
    """The objective runs inside its own span, so the tuner's self time
    (GP fits and acquisition) is the bayes_optimize span minus it."""
    @functools.wraps(fn)
    def traced(space, objective, budget, *args, **kwargs):
        def timed_objective(params):
            with tracer.span("learn.cv_objective"):
                return objective(params)
        with tracer.span("learn.bayes_optimize"):
            return fn(space, timed_objective, budget, *args, **kwargs)
    return traced


def _sites():
    """(owner, attribute, span name, counter) for every traced call."""
    from valencelab import cli, expanse, syncsec
    from valencelab.learn import automl, bayesopt, cluster
    from valencelab.learn.baseline import StratifiedBaseline
    from valencelab.learn.boost import GradientBoostedTrees
    from valencelab.learn.linear import SoftmaxRegression
    from valencelab.learn.mlp import MLPClassifier

    stage_counters = {"simulate_stage": _count_events,
                      "drive_agents": _count_transport,
                      "learn_stage": _count_model_rows}
    sites = [(cli, stage, f"cli.{stage}", stage_counters.get(stage))
             for stage in CLI_STAGES]
    sites += [
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "feed_tick", "agent.feed_tick", None),
        (cli, "homeostasis_check", "agent.homeostasis_check", None),
        (cli, "ingest_report", "agent.ingest_report",
         _count_status("agent.ingest_report.superseded", "superseded")),
        (cli, "dedupe_store", "agent.dedupe_store",
         _count_status("agent.dedupe_store.forgotten", "forgotten")),
        (cli, "analyze_sentiment", "agent.analyze_sentiment", None),
        (cli, "on_system_event", "agent.on_system_event", None),
        (syncsec.SyncClient, "attempt", "syncsec.attempt", _count_attempt),
        (syncsec, "make_batch", "syncsec.make_batch", _count_batch),
        (syncsec, "handle_ack", "syncsec.handle_ack", None),
        (syncsec, "sign", "syncsec.sign", None),
        (expanse, "verify_and_scope", "syncsec.verify_and_scope", None),
        (expanse, "decode_envelope", "syncsec.decode_envelope", None),
        (expanse.SyncServer, "receive", "expanse.receive", None),
        (expanse, "ingest", "expanse.ingest", _count_new),
        (expanse, "handle_prediction", "expanse.handle_prediction", None),
        (expanse, "predict_proba", "learn.predict_proba", None),
        (cli, "build_dataset", "expanse.build_dataset", None),
        (cli, "autodiscover_cluster_params",
         "learn.autodiscover_cluster_params", None),
        (cli, "fit_cluster_model", "learn.fit_cluster_model", None),
        (cli, "automl_entity", "learn.automl_entity", None),
        (bayesopt.GaussianProcess, "fit", "learn.gp_fit", None),
        (cluster.ClusterModel, "assign", "learn.cluster_assign", None),
        (StratifiedBaseline, "fit", "learn.dummy.fit", None),
        (SoftmaxRegression, "fit", "learn.logreg.fit", None),
        (GradientBoostedTrees, "fit", "learn.gbt.fit", None),
        (MLPClassifier, "fit", "learn.mlp.fit", None),
        (automl, "confusion", "evalstat.confusion", None),
        (cli, "u_test_verdict", "evalstat.u_test_verdict", None),
    ]
    return sites, automl


def install(tracer: Tracer):
    """Wrap every traced call; returns the originals for `uninstall`."""
    sites, automl = _sites()
    originals = []
    for owner, attr, name, on_result in sites:
        fn = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, name, fn, on_result))
    fn = automl.bayes_optimize
    originals.append((automl, "bayes_optimize", fn))
    automl.bayes_optimize = _traced_bayes_optimize(tracer, fn)
    return originals


def uninstall(originals) -> None:
    for owner, attr, fn in reversed(originals):
        setattr(owner, attr, fn)


# -- per-layer metrics ---------------------------------------------------------


def _child_time(spans, parent_name, child_name):
    """Seconds that child_name spans spend inside parent_name spans."""
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    return sum(end - start for n, start, end, p in spans
               if n == child_name and p in parents)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, as plain numbers, from one traced pass."""
    spans, counts = tracer.spans, tracer.counts
    durations = defaultdict(list)
    for name, start, end, _ in spans:
        durations[name].append(end - start)
    m = {}

    def busy(name, calls=True):
        if calls:
            m[f"{name}.calls"] = len(durations[name])
        m[f"{name}.s"] = sum(durations[name])

    for stage in CLI_STAGES:
        busy(f"cli.{stage}", calls=False)
    m["simworld.events"] = counts["simworld.events"]

    for name in ("agent.feed_tick", "agent.homeostasis_check",
                 "agent.ingest_report", "agent.dedupe_store",
                 "agent.analyze_sentiment"):
        busy(name)
    m["agent.ingest_report.superseded"] = counts["agent.ingest_report.superseded"]
    m["agent.dedupe_store.forgotten"] = counts["agent.dedupe_store.forgotten"]
    m["agent.on_system_event.calls"] = len(durations["agent.on_system_event"])
    m["agent.lost_events"] = (m["simworld.events"]
                              - m["agent.ingest_report.calls"]
                              - m["agent.dedupe_store.calls"])

    busy("syncsec.attempt")
    for outcome in ("ok", "no_connectivity", "idle"):
        m[f"syncsec.attempt.{outcome}"] = counts[f"syncsec.attempt.{outcome}"]
    busy("syncsec.make_batch", calls=False)
    busy("syncsec.handle_ack", calls=False)
    busy("syncsec.sign")
    busy("syncsec.verify_and_scope")
    busy("syncsec.decode_envelope", calls=False)
    for outcome in ("delivered", "dropped", "duplicated"):
        m[f"syncsec.transport.{outcome}"] = \
            counts[f"syncsec.transport.{outcome}"]
    m["syncsec.records_sent"] = counts["syncsec.records_sent"]

    busy("expanse.receive")
    busy("expanse.ingest", calls=False)
    m["expanse.ingest.new"] = counts["expanse.ingest.new"]
    m["expanse.ingest.useful_ratio"] = (
        m["expanse.ingest.new"] / m["syncsec.records_sent"]
        if m["syncsec.records_sent"] else 0.0)
    busy("expanse.build_dataset", calls=False)
    busy("expanse.handle_prediction")

    busy("learn.autodiscover_cluster_params")
    busy("learn.fit_cluster_model", calls=False)
    busy("learn.automl_entity", calls=False)
    busy("learn.bayes_optimize", calls=False)
    m["learn.bayes_optimize.self_s"] = m["learn.bayes_optimize.s"] - \
        _child_time(spans, "learn.bayes_optimize", "learn.cv_objective")
    busy("learn.gp_fit")
    fits = 0
    for kind in KINDS:
        busy(f"learn.{kind}.fit")
        fits += m[f"learn.{kind}.fit.calls"]
        m[f"learn.{kind}.wall_s"] = counts[f"learn.{kind}.wall_s"]
    entities = len(durations["learn.automl_entity"])
    m["learn.fits_per_entity"] = fits / entities if entities else 0.0
    m["learn.gbt_over_mlp"] = (m["learn.gbt.wall_s"] / m["learn.mlp.wall_s"]
                               if m["learn.mlp.wall_s"] else 0.0)
    busy("learn.predict_proba")
    busy("learn.cluster_assign", calls=False)

    busy("evalstat.u_test_verdict", calls=False)
    m["evalstat.confusion.calls"] = len(durations["evalstat.confusion"])
    return m


def stage_coverage(tracer: Tracer, phase_name: str) -> float:
    """Share of the phase_name span covered by its direct cli stage spans."""
    phases = {i: end - start for i, (n, start, end, _) in
              enumerate(tracer.spans) if n == phase_name}
    covered = sum(end - start for n, start, end, p in tracer.spans
                  if p in phases and n.startswith("cli.")
                  and n[4:] in CLI_STAGES)
    total = sum(phases.values())
    return covered / total if total else 0.0
