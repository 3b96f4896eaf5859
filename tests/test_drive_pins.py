"""The benchmark's pinned drive store digests, checked in tier-1.

`bench/pins.json` pins a digest of the server store after the drive
workload's tiny run (packaged cohort, a quarter day, criterion 9's fault
density) at seeds 1 and 2. A drive, agent or transport change that moves,
drops or duplicates a stored record fails here, not only in a benchmark
run. The bench files are imported and read, never changed.
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


@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_drive_matches_the_pinned_store(workloads, seed, tmp_path):
    pins = json.loads((BENCH / "pins.json").read_text())
    pinned = pins["drive"]["tiny"][str(seed)]
    config = workloads.drive_setup(tmp_path, seed, workloads.SIZES["tiny"])
    checks = workloads.Checks()
    digest = workloads.check_drive(checks, pinned,
                                   workloads.drive_phase(config), config)
    assert checks.failures == []
    assert digest == pinned["store"]
