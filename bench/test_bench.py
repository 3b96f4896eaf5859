"""Tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=1, trace=0, cwd=ROOT, seconds=0.5):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_untraced_run_is_correct_and_matches_its_pins(workload, seed):
    provenance, line = result(bench(workload, seed))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == names("end_to_end")
    assert line["metrics"]["success_rate"]["value"] == 1.0
    assert all(v["value"] > 0 for v in line["metrics"].values())
    pins = json.loads((HERE / "pins.json").read_text())[workload]["tiny"]
    want = dict(pins.get("any", {}), **pins[str(seed)])
    assert {k: provenance["digests"][k] for k in want} == want
    for key in ("git_commit", "python", "numpy", "cryptography", "nproc",
                "sizes", "seed"):
        assert key in provenance


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result(bench(workload, seed=3, trace=1))
    second = result(bench(workload, seed=3, trace=1))
    for provenance, line in (first, second):
        assert line["correct"]
        assert set(line["metrics"]) == names("per_layer")
        assert "tracing_overhead_s" in provenance
    counts = [{k: v["value"] for k, v in line["metrics"].items()
               if v["unit"] == "count"} for _, line in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["agent.feed_tick.calls"] > 0
    # the stage spans account for the phase they time
    assert first[1]["metrics"]["bench.stage_coverage"]["value"] > 0.95


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("drive", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracing_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from valencelab import cli, syncsec
    before = (cli.feed_tick, syncsec.SyncClient.attempt)
    originals = tracing.install(tracing.Tracer())
    assert cli.feed_tick is not before[0]
    tracing.uninstall(originals)
    assert (cli.feed_tick, syncsec.SyncClient.attempt) == before
