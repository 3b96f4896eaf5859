"""The benchmark's pinned learn digests, checked in tier-1.

`bench/pins.json` pins the run hash and a digest of `models.json` (with
durations masked) after the learn workload's funnel, learn, evaluate and
report stages. The tiny size tunes only the logreg design; the full size
tunes GBT and MLP through the design and GP steps. A tuner or fit change
that moves a chosen hyperparameter, a weight or a score fails here, not
only in a benchmark run. The bench files are imported and read, never
changed.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_learn_matches_the_pinned_run_hash_and_models(workloads, size,
                                                      tmp_path):
    pins = json.loads((BENCH / "pins.json").read_text())["learn"][size]
    pinned = dict(pins["any"], **pins["1"])
    config, mstore, archetypes = workloads.learn_setup(
        tmp_path, 1, workloads.SIZES[size])
    checks = workloads.Checks()
    digests = workloads.check_learn(checks, pinned,
                                    workloads.learn_phase(config, mstore),
                                    config, archetypes)
    assert checks.failures == []
    assert digests == {"run_hash": pinned["run_hash"],
                       "models": pinned["models"]}
