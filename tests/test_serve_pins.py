"""The benchmark's pinned serve digests, checked in tier-1.

`bench/pins.json` pins a digest of `models.json` (with durations masked)
after the serve workload's set-up, and a digest of the replies its request
mix expects at seed 1. The set-up runs the whole pipeline on a small cohort
and then starts `valencelab serve` through `bench/serve_launcher.py`, so a
pipeline, fit or CLI change that moves a model, a prediction or the way the
server starts fails here, not only in a benchmark run. The bench files are
imported and read, never changed.
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
def test_serve_matches_the_pinned_models_and_replies(workloads, size,
                                                     tmp_path):
    pins = json.loads((BENCH / "pins.json").read_text())["serve"][size]
    pinned = dict(pins["any"], **pins["1"])
    result, requests, _, server = workloads.serve_setup(
        tmp_path, 1, workloads.SIZES[size])
    server.stop()
    assert server.rss_mb is not None
    assert workloads._models_digest(result.registry_doc) == pinned["models"]
    replies = workloads._digest([r.expected.decode() for r in requests])
    assert replies == pinned["replies"]
