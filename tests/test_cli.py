"""End-to-end harness: config parsing, artifacts, staging, exit codes."""

import gc
import hashlib
import json
import math
import multiprocessing
import os
import select
import shutil
import socket
import subprocess
import sys
import time
from collections import Counter
from concurrent import futures
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from valencelab import cli, expanse, syncsec
from valencelab.agent import Record
from valencelab.cli import (FUNNEL_COLUMNS, ExperimentConfig, _read_rows,
                            _rebuild_store, _server_from_artifacts,
                            drive_agents, load_experiment_config, main,
                            run_experiment)
from valencelab.errors import (ConfigurationError, ContractViolationError,
                               PipelineError)
from valencelab.expanse import MemoryStore, SyncServer, funnel_counts
from valencelab.learn import automl
from valencelab.simworld import (CohortSpec, Fault, FaultPlan, build_cohort,
                                 make_crash_plan, make_delivery_fault_plan,
                                 make_net_flap_plan, run_cohort)
from valencelab.syncsec import (SocketServer, SyncBatch, derive_keypair,
                                encode_envelope, sign)

SMALL_COHORT = """\
n_entities = 6
n_no_demographics = 1
n_low_rate = 1
n_single_class = 1
n_skewed = 1
n_interaction = 1
n_band_only = 1
days = 12
"""

ARTIFACTS = ("cohort.jsonl", "events.jsonl", "faults.txt", "store.jsonl",
             "funnel.csv", "models.csv", "models.json", "answers.json",
             "stats.md", "boxplot_f1.csv", "boxplot_mcc.csv", "summary.md",
             "run_hash.txt")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cohort_path = root / "cohort_small.cfg"
    cohort_path.write_text(SMALL_COHORT)
    config = ExperimentConfig(seed=7, out=str(root / "out"),
                              cohort=str(cohort_path), budget=5)
    return run_experiment(config), cohort_path


# -- configuration ---------------------------------------------------------------


def test_config_validation():
    assert ExperimentConfig(models="gbt, mlp").models == ("gbt", "mlp")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(models="gbt,forest")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(models="")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(budget=4)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(models="gbt,gbt,dummy")
    # the drive window is fixed: readable, but no field to set
    names = {f.name for f in fields(ExperimentConfig)}
    assert names.isdisjoint({"step_s", "sync_base_interval_min",
                             "sync_max_records", "cv_max_splits",
                             "min_samples", "metric", "min_reports",
                             "min_classes", "min_per_class",
                             "max_imbalance_degree", "require_demographics"})
    assert ExperimentConfig().step_s == ExperimentConfig.step_s == 900.0
    with pytest.raises(TypeError):
        ExperimentConfig(step_s=450.0)


def test_config_from_mapping_and_file(tmp_path):
    got = ExperimentConfig.from_mapping({
        "seed": "11", "budget": "6", "models": "dummy,logreg",
        "out": "elsewhere"})
    assert (got.seed, got.budget) == (11, 6)
    assert got.models == ("dummy", "logreg")
    assert got.out == "elsewhere"
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_mapping({"budget": "lots"})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_mapping({"n_trees": "9"})
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 3\nbudget = 8\n")
    assert load_experiment_config(path).seed == 3
    with pytest.raises(ConfigurationError):
        load_experiment_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize("key, value", [
    ("days", "inf"), ("days", "nan"), ("days", "-inf")])
def test_non_finite_cohort_numbers_fail_at_load(key, value):
    # an infinite horizon would simulate until killed
    with pytest.raises(ConfigurationError,
                       match=f"bad value for '{key}': '{value}'"):
        CohortSpec.from_mapping({key: value})


@pytest.mark.parametrize("line", [
    "seed = inf", "seed = Infinity", "budget = nan", "budget = -inf"])
def test_non_finite_experiment_numbers_fail_at_load(tmp_path, line):
    path = tmp_path / "exp.cfg"
    path.write_text(line + "\n")
    key, value = (part.strip() for part in line.split("="))
    with pytest.raises(ConfigurationError,
                       match=f"bad value for '{key}': '{value}'"):
        load_experiment_config(path)


def test_exit_code_2_for_a_nan_setting(tmp_path, capsys):
    cohort_path = tmp_path / "cohort_small.cfg"
    cohort_path.write_text(SMALL_COHORT)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("budget = nan\n")
    rc = main(["pipeline", "--out", str(tmp_path / "o"), "--config",
               str(config_path), "--cohort", str(cohort_path)])
    assert rc == 2
    assert "bad value for 'budget': 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "step_s = 900", "sync_base_interval_min = 15", "sync_max_records = 200",
    "cv_max_splits = 3", "min_samples = 5", "metric = both",
    "min_reports = 20", "min_classes = 2", "min_per_class = 2",
    "max_imbalance_degree = 25.0", "require_demographics = true"])
def test_exit_code_2_for_a_fixed_value_in_a_config_file(tmp_path, capsys,
                                                        line):
    # these values are constants of the program, not settings
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(line + "\n")
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == 2
    key = line.split(" = ")[0]
    assert f"unknown experiment key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", [
    "report_rate", "low_report_rate", "text_rate", "sensor_rate",
    "place_spread", "min_place_separation", "peak_prob", "skew_prob"])
def test_exit_code_2_for_a_fixed_value_in_a_cohort_file(tmp_path, capsys,
                                                        key):
    # rates, place geometry and sharpness are constants of simworld
    cohort_path = tmp_path / "cohort.cfg"
    cohort_path.write_text(SMALL_COHORT + f"{key} = 1.0\n")
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--cohort", str(cohort_path)])
    assert rc == 2
    assert f"unknown cohort key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, text, message", [
    ("--cohort", SMALL_COHORT + "days = 3\n",
     "config lines 8 and 9 both set 'days'"),
    ("--config", "seed = 3\nbudget = 8\n# again\nseed = 4\n",
     "config lines 1 and 4 both set 'seed'")], ids=["cohort", "experiment"])
def test_exit_code_2_for_a_key_named_twice(tmp_path, capsys, flag, text,
                                           message):
    # a second value would silently win over the first
    path = tmp_path / "named_twice.cfg"
    path.write_text(text)
    rc = main(["simulate", "--out", str(tmp_path / "o"), flag, str(path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_code_2_for_the_metric_flag(tmp_path, capsys):
    # both metrics are always reported; the flag is gone
    with pytest.raises(SystemExit) as exc:
        main(["report", "--out", str(tmp_path), "--metric", "f1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --metric f1" in capsys.readouterr().err


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "exp.cfg"
    path.write_text(example)
    config = load_experiment_config(path)
    assert (config.seed, config.budget) == (7, 8)
    assert config.models == ("dummy", "logreg", "gbt", "mlp")


@pytest.mark.parametrize("key, value", [("days", "1e300"), ("days", "3651")])
def test_absurd_finite_cohort_numbers_fail_at_load(key, value):
    # a finite but absurd horizon would simulate until killed
    with pytest.raises(ConfigurationError, match=f"{key} must be in"):
        CohortSpec.from_mapping({key: value})


# -- pipeline artifacts ----------------------------------------------------------


def test_pipeline_writes_every_artifact(small_run):
    result, _ = small_run
    for name in ARTIFACTS:
        assert (result.out_dir / name).is_file(), name
    digest = (result.out_dir / "run_hash.txt").read_text().strip()
    assert digest == result.digest and len(digest) == 64


def test_small_cohort_funnel(small_run):
    result, _ = small_run
    assert result.funnel_counts == {"total": 6, "with_demographics": 5,
                                    "eligible": 2}
    rows = _read_rows(result.out_dir / "funnel.csv", FUNNEL_COLUMNS)
    reasons = {r["entity_id"]: r["reason"] for r in rows}
    assert sorted(reasons.values()) == sorted(
        ["demographics", "min_reports", "min_classes", "imbalance",
         "eligible", "eligible"])
    assert "funnel: 6 -> 5 -> 2" in result.summary_text


@pytest.mark.parametrize("run", ["small_run"])
def test_report_recounts_the_funnel_the_pipeline_counted(run, request,
                                                         tmp_path, capsys):
    result, _ = request.getfixturevalue(run)
    rows = _read_rows(result.out_dir / "funnel.csv", FUNNEL_COLUMNS)
    assert funnel_counts(rows) == result.funnel_counts
    out = tmp_path / "report"
    shutil.copytree(result.out_dir, out)
    (out / "summary.md").unlink()
    # the seed and budget come from the run's artifacts, not from flags
    assert main(["report", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "summary.md").read_text() == result.summary_text


def test_model_rows_cover_every_eligible_entity(small_run):
    result, _ = small_run
    eligible = {r["entity_id"] for r in result.funnel_rows if r["eligible"]}
    assert {r["entity_id"] for r in result.model_rows} == eligible
    per_entity = {}
    for row in result.model_rows:
        per_entity.setdefault(row["entity_id"], []).append(row["kind"])
        assert 0.0 <= row["cv_f1"] <= 1.0
        assert -1.0 <= row["cv_mcc"] <= 1.0
        assert row["cv_splits"] >= 2
    assert all(sorted(kinds) == ["dummy", "gbt", "logreg", "mlp"]
               for kinds in per_entity.values())
    doc = json.loads((result.out_dir / "models.json").read_text())
    assert set(doc["entities"]) == eligible
    for entry in doc["entities"].values():
        assert entry["best_kind"] in ("dummy", "logreg", "gbt", "mlp")


def test_simulate_writes_the_pipeline_world(small_run, tmp_path, capsys):
    result, cohort_path = small_run
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--cohort", str(cohort_path),
                 "--seed", "7"]) == 0
    capsys.readouterr()
    world = ("cohort.jsonl", "events.jsonl", "faults.txt")
    assert sorted(p.name for p in out.iterdir()) == sorted(world)
    for name in world:
        assert (out / name).read_bytes() == \
            (result.out_dir / name).read_bytes(), name


def test_store_artifact_rebuilds_identically(small_run):
    result, _ = small_run
    rebuilt = _rebuild_store(result.out_dir)
    live = result.drive.mstore
    assert rebuilt.entity_ids() == live.entity_ids()
    assert rebuilt.total_records() == live.total_records()
    eid = live.entity_ids()[0]
    assert rebuilt.events(eid) == live.events(eid)
    assert rebuilt.demographics(eid) == live.demographics(eid)


def test_rerun_reproduces_the_hash(small_run, tmp_path):
    result, cohort_path = small_run
    config = ExperimentConfig(seed=7, out=str(tmp_path / "out2"),
                              cohort=str(cohort_path), budget=5)
    again = run_experiment(config)
    assert again.digest == result.digest
    assert again.funnel_rows == result.funnel_rows
    # durations are wall clock and may differ; everything else must match
    strip = lambda rows: [{k: v for k, v in r.items() if k != "duration_s"}
                          for r in rows]
    assert strip(again.model_rows) == strip(result.model_rows)


def test_staged_commands_match_pipeline_hash(small_run, tmp_path, capsys):
    result, cohort_path = small_run
    out2 = tmp_path / "staged"
    shutil.copytree(result.out_dir, out2)
    for name in ("funnel.csv", "models.csv", "models.json", "stats.md",
                 "summary.md", "run_hash.txt"):
        (out2 / name).unlink()
    common = ["--out", str(out2), "--cohort", str(cohort_path),
              "--seed", "7", "--budget", "5"]
    assert main(["learn"] + common) == 0
    assert main(["evaluate"] + common) == 0
    assert main(["report"] + common) == 0
    capsys.readouterr()
    assert (out2 / "run_hash.txt").read_text().strip() == result.digest


# -- drive -----------------------------------------------------------------------


def _stored_uuids(drive) -> set:
    return {r.uuid for eid in drive.mstore.entity_ids()
            for r in drive.mstore.events(eid)}


def test_crash_at_an_event_instant_loses_that_event():
    spec = CohortSpec(n_entities=2, n_no_demographics=0, n_low_rate=0,
                      n_single_class=0, n_skewed=0, n_interaction=1,
                      n_band_only=1, days=1.0)
    config = ExperimentConfig(seed=3, out="unused")
    cohort = build_cohort(spec, config.seed)
    events = run_cohort(cohort)
    stored = _stored_uuids(drive_agents(cohort, events, FaultPlan(), config))
    # a stored report inside a window, so the device stays down after it
    ev = next(e for e in events if e.kind == "report" and e.uuid in stored
              and e.t > config.step_s and e.t % config.step_s)
    revive = math.ceil(ev.t / config.step_s) * config.step_s
    crashed = drive_agents(
        cohort, events, FaultPlan([Fault(ev.t, ev.entity_id, "crash")]),
        config)
    lost = {e.uuid for e in events
            if e.entity_id == ev.entity_id and ev.t <= e.t < revive}
    assert ev.uuid in lost
    assert stored - _stored_uuids(crashed) == lost & stored
    assert crashed.recoveries == [(ev.entity_id, ev.t, revive)]


# -- tuning in worker processes --------------------------------------------------


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(cli.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


@pytest.mark.parametrize("n_cpus, n_entities, workers", [
    (1, 6, 1), (2, 6, 2), (16, 2, 2), (4, 3, 3), (16, 0, 0)])
def test_worker_count_is_bounded_by_cpus_and_entities(
        monkeypatch, n_cpus, n_entities, workers):
    _cpus(monkeypatch, n_cpus)
    assert cli._workers(n_entities) == workers


def test_learn_stage_output_does_not_depend_on_worker_count(
        small_run, monkeypatch):
    result, _ = small_run
    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            pools.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    outputs = []
    for n_cpus in (1, 2):
        _cpus(monkeypatch, n_cpus)
        rows, registry, doc = cli.learn_stage(
            result.drive.mstore, result.funnel_rows, result.config)
        for row in rows:
            row["duration_s"] = None
        for entry in doc["entities"].values():
            entry["model"]["duration_s"] = None
        outputs.append((rows, registry.entity_ids(), doc))
    # one CPU tunes in process; two CPUs fork one worker per entity
    assert pools == [2]
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == 2


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_tuning_error_reaches_the_caller(small_run, tmp_path, monkeypatch,
                                         capsys, n_cpus):
    result, cohort_path = small_run
    _cpus(monkeypatch, n_cpus)
    # the tuner proposes a name outside the kind's space; a forked worker
    # inherits the patch
    monkeypatch.setattr(automl, "bayes_optimize", lambda *a, **kw:
                        SimpleNamespace(best_params={"bogus": 1.0}))
    with pytest.raises(ContractViolationError, match="bogus"):
        cli.learn_stage(result.drive.mstore, result.funnel_rows,
                        result.config)
    out = tmp_path / "staged"
    shutil.copytree(result.out_dir, out)
    assert main(["learn", "--out", str(out), "--cohort", str(cohort_path),
                 "--seed", "7", "--budget", "5"]) == 3
    assert "unknown hyperparameters ['bogus']" in capsys.readouterr().err


# -- driving in worker processes ------------------------------------------------


def _fault_plans(cohort) -> dict:
    """One plan per kind of fault for a small world, seeded by 5."""
    ids = [p.entity_id for p in cohort.profiles]
    horizon = cohort.spec.days * 86400.0
    crashes = make_crash_plan(ids, 8, horizon, seed=5)
    # a reboot before the revive tick ends two of the outages early
    reboots = [Fault(f.t + 60.0, f.entity_id, "reboot")
               for f in list(crashes)[:2]]
    return {"crash": FaultPlan(list(crashes) + reboots),
            "delivery": make_delivery_fault_plan(ids, 6, 6, horizon, 5),
            "net_flap": make_net_flap_plan(ids, 4, horizon, 5)}


def _faulty_world():
    """4 entities over 3 days with every kind of fault."""
    spec = CohortSpec(n_entities=4, n_no_demographics=0, n_low_rate=0,
                      n_single_class=0, n_skewed=0, n_interaction=2,
                      n_band_only=2, days=3.0)
    config = ExperimentConfig(seed=5, out="unused")
    cohort = build_cohort(spec, config.seed)
    plan = FaultPlan([f for plan in _fault_plans(cohort).values()
                      for f in plan])
    return cohort, run_cohort(cohort), plan, config


def _drive_outputs(drive) -> tuple:
    return (
        {eid: drive.mstore.events(eid) for eid in drive.mstore.entity_ids()},
        [(eid, a.store.pending, a.store.ever_synced, a.energy_spent)
         for eid, a in drive.agents.items()],
        drive.recoveries, Counter(drive.transport.outcomes),
        drive.sentiment_counts)


def test_drive_does_not_depend_on_worker_count(monkeypatch):
    cohort, events, plan, config = _faulty_world()
    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            pools.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "DRIVE_EVENTS_PER_WORKER", 1)
    outputs = []
    for n_cpus in (1, 2):
        _cpus(monkeypatch, n_cpus)
        outputs.append(_drive_outputs(
            drive_agents(cohort, events, plan, config)))
    # one CPU drives in process; two CPUs fork two groups of entities
    assert pools == [2]
    assert not multiprocessing.active_children()
    stored, agents, recoveries, outcomes, sentiment = outputs[0]
    assert len(stored) == 4 and all(stored.values())
    assert len(recoveries) == 8
    assert {"dropped", "duplicated"} <= {o for _, o in outcomes}
    assert sum(sentiment.values()) > 0
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fault", ["crash", "delivery", "net_flap"])
def test_stored_records_do_not_depend_on_the_sync_cadence(monkeypatch,
                                                           fault):
    """Debounce, dedupe and crash loss decide what an agent commits before
    any sync, and the quiesce at the horizon drains every committed
    record, so syncing every 15 or every 60 minutes stores the same."""
    cohort, events, _, config = _faulty_world()
    plan = _fault_plans(cohort)[fault]
    stored, sends = [], []
    for minutes in (15.0, 60.0):
        monkeypatch.setattr(syncsec, "SYNC_BASE_INTERVAL_MIN", minutes)
        monkeypatch.setattr(cli, "SYNC_BASE_INTERVAL_MIN", minutes)
        drive = drive_agents(cohort, events, plan, config)
        stored.append({eid: [r.to_dict() for r in drive.mstore.events(eid)]
                       for eid in drive.mstore.entity_ids()})
        sends.append(len(drive.transport.outcomes))
    assert sends[1] < sends[0]          # the slower cadence took effect
    assert sum(map(len, stored[0].values())) > 0
    assert stored[0] == stored[1]


def test_drive_error_in_a_worker_reaches_the_caller(monkeypatch):
    cohort, events, plan, config = _faulty_world()
    monkeypatch.setattr(cli, "DRIVE_EVENTS_PER_WORKER", 1)
    _cpus(monkeypatch, 2)

    def broken_feed(agent, clock):
        raise PipelineError(f"no feed for {agent.entity_id}")

    # a forked worker inherits the patch; the parent never calls it
    monkeypatch.setattr(cli, "feed_tick", broken_feed)
    with pytest.raises(PipelineError, match="no feed for e00"):
        drive_agents(cohort, events, plan, config)
    assert not multiprocessing.active_children()


def test_drive_error_in_the_merge_leaves_no_worker(monkeypatch):
    cohort, events, plan, config = _faulty_world()
    monkeypatch.setattr(cli, "DRIVE_EVENTS_PER_WORKER", 1)
    _cpus(monkeypatch, 2)

    class FullStore(MemoryStore):
        def add(self, entity_id, record):
            raise PipelineError(f"no room for {entity_id}")

    # only the parent's store refuses: the workers build stores of their own
    monkeypatch.setattr(cli, "_registered_store",
                        lambda profiles: FullStore())
    with pytest.raises(PipelineError, match="no room for e00"):
        drive_agents(cohort, events, plan, config)
    assert not multiprocessing.active_children()


def test_learn_stage_without_eligible_entities_starts_no_pool(
        small_run, monkeypatch):
    result, _ = small_run
    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            pools.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    _cpus(monkeypatch, 2)
    rows = [{**row, "eligible": False} for row in result.funnel_rows]
    model_rows, registry, doc = cli.learn_stage(
        result.drive.mstore, rows, result.config)
    assert model_rows == [] and registry.entity_ids() == []
    assert doc["entities"] == {}
    assert pools == []
    assert not multiprocessing.active_children()


def test_seed_7_pipeline_keeps_its_hash_and_store(default_run):
    result, _ = default_run
    # run_hash does not cover store.jsonl, so its bytes are pinned apart
    assert result.digest == ("b26fffbe838e3a920f50b929c5209f5a"
                             "150a93aa4778a794a7c401a164cc4bdc")
    store = (result.out_dir / "store.jsonl").read_bytes()
    assert hashlib.sha256(store).hexdigest() == (
        "5912a53c5900d63b71aa032d3fd0891ce45877ba8ef1836cdab77f0c672727bb")


# -- serving and exit codes ------------------------------------------------------


def _some_modeled_entity(result) -> str:
    doc = json.loads((result.out_dir / "models.json").read_text())
    return sorted(doc["entities"])[0]


def test_predict_in_process(small_run, capsys):
    result, _ = small_run
    eid = _some_modeled_entity(result)
    rc = main(["predict", "--out", str(result.out_dir), "--entity", eid,
               "--x", "0.0", "--y", "0.0", "--t", "21600"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["ok"] is True and doc["entity_id"] == eid
    assert doc["class"] in ("negative", "neutral", "positive")
    assert len(doc["probs"]) == 3


def test_predict_takes_a_negative_exponent_after_an_equals_sign(small_run,
                                                                capsys):
    """argparse reads `--x -1e3` as a flag, not a value; `--x=-1e3` is the
    form that the README and the flags' help give."""
    result, _ = small_run
    eid = _some_modeled_entity(result)
    rc = main(["predict", "--out", str(result.out_dir), "--entity", eid,
               "--x=-1e3", "--y=-2.5e2", "--t=86400"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (doc["class"], doc["probs"]) \
        == result.registry.answer(eid, -1e3, -2.5e2, 86400.0)


def test_predict_remote_over_socket(small_run, capsys):
    from valencelab.cli import _server_from_artifacts
    result, _ = small_run
    eid = _some_modeled_entity(result)
    handler, _ = _server_from_artifacts(result.out_dir)
    with SocketServer(handler) as srv:
        rc = main(["predict", "--out", str(result.out_dir), "--entity", eid,
                   "--host", srv.host, "--port", str(srv.port),
                   "--x", "1.0", "--y", "-1.0", "--t", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["class"] in ("negative", "neutral", "positive")


def _signed_sync(entity_id: str, records) -> bytes:
    batch = SyncBatch(batch_id=3, entity_id=entity_id, records=records,
                      created_at=0.0)
    env = sign(derive_keypair(7, entity_id)[0], batch.to_payload(), entity_id)
    return encode_envelope(env, batch.batch_id)


def test_served_ledger_acks_as_the_store_does(small_run):
    result, _ = small_run
    eid = _some_modeled_entity(result)
    records = tuple(result.drive.mstore.events(eid)[:5])
    # one uuid twice in a batch counts once
    message = _signed_sync(eid, records + records[:2])
    handler, _ = _server_from_artifacts(result.out_dir)
    reference = SyncServer(MemoryStore(), handler.keys)
    reference.store.register_entity(eid)
    ack = json.loads(handler.receive(message))
    assert ack == json.loads(reference.receive(message))
    assert ack == {"ok": True, "batch_id": 3, "new": 5}
    assert json.loads(handler.receive(message))["new"] == 0
    assert handler.store.total_records() == 5
    # past three doublings of the entity's ledger, checked against a plain
    # set after every batch; each batch also repeats one uuid of every
    # batch before it, and the first five records
    acked = {r.uuid for r in records}
    n_batches, size = 8 * expanse.BUCKET_KEYS // 100 + 5, 100
    for i in range(n_batches):
        fresh = tuple(replace(records[0], uuid=f"{eid}:more-{i}-{j}")
                      for j in range(size))
        again = tuple(replace(records[0], uuid=f"{eid}:more-{k}-{k % size}")
                      for k in range(i))
        message = _signed_sync(eid, fresh + again + records)
        ack = json.loads(handler.receive(message))
        assert ack == json.loads(reference.receive(message))
        assert ack["new"] == size
        acked.update(r.uuid for r in fresh)
        assert handler.store.total_records() == len(acked)
        assert all(r.uuid in handler.store._uuids[eid]
                   for r in fresh + again + records)
    assert handler.store.total_records() == 5 + n_batches * size
    assert handler.store.total_records() == reference.store.total_records()
    assert len(handler.store._uuids[eid]._buckets) >= 8
    ledger = handler.store
    assert not isinstance(ledger, MemoryStore)
    assert not hasattr(ledger, "events")
    # nothing the ledger holds is a record, or holds one
    todo, seen = [ledger], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, Record)
        todo.extend(gc.get_referents(obj))


def test_serve_command_starts_and_stops(small_run, capsys):
    result, _ = small_run
    rc = main(["serve", "--out", str(result.out_dir), "--max-seconds", "0.2"])
    assert rc == 0
    assert "serving on 127.0.0.1:" in capsys.readouterr().out


# `valencelab serve` in a fresh interpreter that, once serving stops,
# prints which numpy and hashlib modules it holds and whether numpy ran
_SERVE_AND_REPORT = """
import json, signal, sys

def stop(signum, frame):
    raise KeyboardInterrupt

signal.signal(signal.SIGTERM, stop)
from valencelab.cli import main
rc = main(sys.argv[1:])
print(json.dumps({
    "rc": rc, "numpy": type(sys.modules.get("numpy")).__name__,
    "loaded": sorted(m for m in sys.modules if m.startswith("numpy.")
                     or m in ("hashlib", "_hashlib"))}))
"""


def test_serve_answers_and_acks_without_running_numpy(small_run):
    """A served predict and enough syncs to split a ledger's buckets run
    no numpy and no hashlib; numpy's entry in sys.modules is the lazy one,
    never executed."""
    result, _ = small_run
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVE_AND_REPORT, "serve",
         "--out", str(result.out_dir), "--max-seconds", "120"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else ""
        assert line.startswith("serving on 127.0.0.1:"), line
        transport = syncsec.SocketTransport(
            "127.0.0.1", int(line.rsplit(":", 1)[1]), timeout_s=5.0)
        eid = _some_modeled_entity(result)
        doc = cli._predict_once(transport, 7, eid, eid, 1.0, -1.0, 4e4)
        label, probs = result.registry.answer(eid, 1.0, -1.0, 4e4)
        assert (doc["class"], doc["probs"]) == (label, probs)
        record = result.drive.mstore.events(eid)[0]
        size = syncsec.MAX_BATCH_RECORDS
        for i in range(4 * expanse.BUCKET_KEYS // size + 2):
            batch = tuple(replace(record, uuid=f"{eid}:fresh-{i}-{j}")
                          for j in range(size))
            ack = json.loads(transport.send(_signed_sync(eid, batch), eid))
            assert ack == {"ok": True, "batch_id": 3, "new": size}
        # the first batch again, its keys since split across buckets
        batch = tuple(replace(record, uuid=f"{eid}:fresh-0-{j}")
                      for j in range(size))
        ack = json.loads(transport.send(_signed_sync(eid, batch), eid))
        assert ack["new"] == 0
        proc.terminate()
        out, _ = proc.communicate(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    report = json.loads(out.strip().splitlines()[-1])
    assert report == {"rc": 0, "numpy": "_LazyModule", "loaded": []}


def test_predict_without_a_model_says_so_in_process_and_remote(small_run,
                                                               capsys):
    result, _ = small_run
    eid = next(e for e in result.drive.mstore.entity_ids()
               if e not in result.registry.entity_ids())
    args = ["predict", "--out", str(result.out_dir), "--entity", eid,
            "--x", "0.0", "--y", "0.0", "--t", "0"]
    message = f"pipeline error: no trained model for {eid!r}"
    assert main(args) == 3
    assert message in capsys.readouterr().err
    handler, _ = _server_from_artifacts(result.out_dir)
    with SocketServer(handler) as srv:
        rc = main(args + ["--host", srv.host, "--port", str(srv.port)])
    assert rc == 3
    assert message in capsys.readouterr().err


def test_serve_exits_on_sigterm_with_an_idle_client_connected(small_run):
    """The benchmark stops `valencelab serve` with SIGTERM and kills it
    after 10 s; a client that connected and sent nothing must not hold it
    past that, and the launcher still reports its peak RSS."""
    result, _ = small_run
    launcher = Path(__file__).resolve().parents[1] / "bench" / \
        "serve_launcher.py"
    proc = subprocess.Popen(
        [sys.executable, str(launcher), "--", "serve",
         "--out", str(result.out_dir), "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else ""
        assert line.startswith("serving on 127.0.0.1:"), line
        port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5.0):
            time.sleep(0.2)         # the server is now waiting on it
            started = time.monotonic()
            proc.terminate()
            out, _ = proc.communicate(timeout=10.0)
        assert time.monotonic() - started < 10.0
        assert proc.returncode == 0
        assert "peak_rss_kb " in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_exit_code_2_for_bad_configuration(tmp_path, capsys):
    rc = main(["pipeline", "--out", str(tmp_path / "o"),
               "--cohort", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--port", "70000"], ["--port", "-5"], ["--max-seconds", "-1"],
    ["--max-seconds", "nan"], ["--max-seconds", "inf"]],
    ids=["port_70000", "port_-5", "seconds_-1", "seconds_nan",
         "seconds_inf"])
def test_exit_code_2_for_an_out_of_range_serve_flag(small_run, capsys,
                                                    flags):
    """Refused before any socket opens, naming the flag."""
    result, _ = small_run
    rc = main(["serve", "--out", str(result.out_dir), *flags])
    assert rc == 2
    assert f"configuration error: {flags[0]} " in capsys.readouterr().err


@pytest.mark.parametrize("port", ["70000", "0", "-1"])
def test_exit_code_2_for_an_out_of_range_predict_port(small_run, capsys,
                                                      port):
    # 70000 would otherwise reach port 4464
    result, _ = small_run
    rc = main(["predict", "--out", str(result.out_dir),
               "--entity", _some_modeled_entity(result),
               "--host", "127.0.0.1", "--port", port,
               "--x", "0.0", "--y", "0.0", "--t", "0"])
    assert rc == 2
    assert "configuration error: --port " in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--x", "nan"), ("--y", "-inf"), ("--t", "inf"), ("--t", "1e400")])
def test_exit_code_2_for_a_non_finite_predict_context(small_run, capsys,
                                                      flag, value):
    """Refused before a request is signed: JSON has no token for it."""
    result, _ = small_run
    context = {"--x": "0.0", "--y": "0.0", "--t": "0", flag: value}
    rc = main(["predict", "--out", str(result.out_dir),
               "--entity", _some_modeled_entity(result),
               *(f"{k}={v}" for k, v in context.items())])
    assert rc == 2
    assert f"configuration error: {flag} must be finite" \
        in capsys.readouterr().err


def test_exit_code_2_for_fault_plan_outside_the_cohort(tmp_path, capsys):
    cohort_path = tmp_path / "cohort_small.cfg"
    cohort_path.write_text(SMALL_COHORT)
    plan_path = tmp_path / "faults.txt"
    plan_path.write_text("100.0 e999 crash\n200.0 e998 net_down\n")
    rc = main(["pipeline", "--out", str(tmp_path / "o"),
               "--cohort", str(cohort_path), "--fault-plan", str(plan_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "['e998', 'e999']" in err


@pytest.mark.parametrize("text, message", [
    ("10.0 e001 explode\n", "line 1: unknown fault kind 'explode'"),
    ("# net faults\n10.0 e001 net_up\n",
     "e001: net_up without prior net_down"),
    ("10.0 e001 crash\nnan e002 crash\n", "line 2: bad time 'nan'"),
    ("1e400 e001 crash\n", "line 1: bad time '1e400'")])
def test_exit_code_2_for_a_bad_fault_plan_line(tmp_path, capsys, text,
                                               message):
    cohort_path = tmp_path / "cohort_small.cfg"
    cohort_path.write_text(SMALL_COHORT)
    plan_path = tmp_path / "faults.txt"
    plan_path.write_text(text)
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--cohort", str(cohort_path), "--fault-plan", str(plan_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: fault plan" in err
    assert message in err


def test_exit_code_3_for_missing_artifacts(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path / "empty")])
    assert rc == 3
    assert "pipeline error" in capsys.readouterr().err


def _without_column(name: str):
    def drop(text: str) -> str:
        rows = [line.split(",") for line in text.splitlines()]
        i = rows[0].index(name)
        return "".join(",".join(r[:i] + r[i + 1:]) + "\n" for r in rows)
    return drop


def _first_line_with(**fields):
    def edit(text: str) -> str:
        first, rest = text.split("\n", 1)
        return json.dumps(dict(json.loads(first), **fields)) + "\n" + rest
    return edit


def _first_answers_with(**fields):
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc["entities"][sorted(doc["entities"])[0]].update(fields)
        return json.dumps(doc)
    return edit


def _first_cell_probs(probs):
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc["entities"][sorted(doc["entities"])[0]]["answers"][0][1] = probs
        return json.dumps(doc)
    return edit


@pytest.mark.parametrize("command, artifact, corrupt", [
    ("evaluate", "models.csv", _without_column("cv_mcc")),
    ("learn", "cohort.jsonl", lambda text: "{garbled\n" + text),
    ("report", "funnel.csv", _without_column("gender")),
    ("predict", "answers.json", lambda text: text[:len(text) // 2]),
    ("learn", "store.jsonl", lambda text: "5\n" + text),
    ("predict", "answers.json",
     lambda text: json.dumps(dict(json.loads(text), entities=[]))),
    ("learn", "store.jsonl", _first_line_with(t="x")),
    ("learn", "cohort.jsonl", _first_line_with(gender="robot")),
    ("serve", "answers.json", None),
    ("predict", "answers.json", None),
    ("serve", "answers.json", _first_answers_with(
        exemplars=[[0.0, 0.0]], exemplar_labels=[99])),
    ("predict", "answers.json",
     lambda text: json.dumps(dict(json.loads(text), seed="x"))),
    ("serve", "cohort.jsonl", _first_line_with(entity_id=7)),
    ("predict", "answers.json", _first_cell_probs([math.nan, 1.0, 2.0])),
    ("serve", "cohort.jsonl", _first_line_with(gender="robot")),
    ("learn", "cohort.jsonl", _first_line_with(birthdate="soon")),
    ("report", "answers.json",
     lambda text: json.dumps(dict(json.loads(text), budget=2))),
], ids=["evaluate", "learn", "report", "predict",
        "store-line-not-an-object", "entities-a-list", "record-t-a-string",
        "unknown-gender", "serve-answers-missing", "predict-answers-missing",
        "serve-answers-label-past-clusters", "predict-seed-not-a-number",
        "serve-entity-id-not-a-string", "predict-answers-probs-nan",
        "serve-unknown-gender", "learn-birthdate-not-iso",
        "report-budget-below-the-design"])
def test_exit_code_3_for_a_malformed_artifact(small_run, tmp_path, capsys,
                                              command, artifact, corrupt):
    """Exit 3, naming the artifact; None deletes it."""
    result, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(result.out_dir, out)
    path = out / artifact
    if corrupt is None:
        path.unlink()
    else:
        path.write_text(corrupt(path.read_text()))
    flags = {"predict": ["--entity", _some_modeled_entity(result),
                         "--x", "0.0", "--y", "0.0", "--t", "0"],
             "serve": ["--max-seconds", "0"]}
    rc = main([command, "--out", str(out)] + flags.get(command, []))
    assert rc == 3
    problem = "missing" if corrupt is None else "malformed"
    assert f"{problem} artifact {path}" in capsys.readouterr().err


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_exit_code_3_for_a_predict_nobody_answers(small_run, capsys):
    result, _ = small_run
    port = _closed_port()
    rc = main(["predict", "--out", str(result.out_dir),
               "--entity", _some_modeled_entity(result),
               "--host", "127.0.0.1", "--port", str(port),
               "--x", "0.0", "--y", "0.0", "--t", "0"])
    assert rc == 3
    assert f"cannot reach 127.0.0.1:{port}" in capsys.readouterr().err


def test_exit_code_3_for_serving_on_a_port_in_use(small_run, capsys):
    result, _ = small_run
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        rc = main(["serve", "--out", str(result.out_dir),
                   "--port", str(port), "--max-seconds", "0"])
    assert rc == 3
    assert f"cannot serve on 127.0.0.1:{port}" in capsys.readouterr().err


def test_exit_code_4_for_cross_entity_prediction(small_run, capsys):
    result, _ = small_run
    doc = json.loads((result.out_dir / "models.json").read_text())
    target = sorted(doc["entities"])[0]
    other = next(eid for eid in result.drive.mstore.entity_ids()
                 if eid != target)
    rc = main(["predict", "--out", str(result.out_dir), "--entity", target,
               "--as-entity", other,
               "--x", "0.0", "--y", "0.0", "--t", "0"])
    assert rc == 4
    assert "authorization error" in capsys.readouterr().err
