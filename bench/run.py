"""Benchmark entry point for valencelab.

    python3 bench/run.py --workload drive|learn|serve --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run it from a checkout's root; it imports the package from that checkout's
`src/` and nothing else. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured untraced; with `--trace 1` they
are the per-layer ones from a traced pass. The line before it carries the
run's provenance. Both, plus the spans of a traced run, are also written
under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SPEC = ROOT / "BENCHMARK.json"


def with_units(values: dict, section: str) -> dict:
    """values keyed by the metrics of one BENCHMARK.json section, each
    given the unit listed there; a missing or unlisted metric is an error."""
    units = {m["name"]: m["unit"]
             for m in json.loads(SPEC.read_text())[section]}
    if set(values) != set(units):
        raise RuntimeError(
            f"{section} metrics differ from {SPEC.name}: missing "
            f"{sorted(set(units) - set(values))}, unlisted "
            f"{sorted(set(values) - set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "valencelab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import cryptography
    import numpy
    return {"git_commit": _git_commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cryptography": cryptography.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("drive", "learn", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "valencelab" / "__init__.py").is_file():
        print(f"no valencelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import valencelab
    if Path(valencelab.__file__).resolve().parent != \
            (SRC / "valencelab").resolve():
        print(f"valencelab imported from {valencelab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    name = f"{args.workload}-{args.size}-seed{args.seed}"
    run_dir = OUT / f"{name}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.size, run_dir)
        if args.trace:
            shutil.move(run_dir / "spans.json", OUT / f"{name}-spans.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = result["checks"]
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = with_units(result["layers"], "per_layer")
    else:
        metrics = with_units(result["metrics"], "end_to_end")
    provenance = dict(environment(), workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, size=args.size,
                      end_to_end=result["metrics"], **result["provenance"])
    line = {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures), "metrics": metrics}
    (OUT / f"{name}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": line}, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
