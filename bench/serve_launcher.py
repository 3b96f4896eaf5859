"""Start `valencelab serve` in this process, traced or not.

    python3 bench/serve_launcher.py [--spans FILE] -- serve --out DIR ...

Everything after `--` goes to `valencelab.cli.main` unchanged. With
`--spans`, the same timing wrappers as the benchmark's traced run are
installed first, and the spans are written to FILE when the server shuts
down. SIGTERM stops the server cleanly. The last line printed is the
process's peak resident set, `peak_rss_kb N`.
"""

from __future__ import annotations

import argparse
import resource
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM). ru_maxrss, of this
    process or read by the parent with wait4, also counts the parent's
    resident set at the fork that started this process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _interrupt(signum, frame):
    # `valencelab serve` shuts down on KeyboardInterrupt. SIGINT itself may
    # be ignored when the benchmark runs in the background.
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    signal.signal(signal.SIGTERM, _interrupt)
    sys.path.insert(0, str(SRC))
    from valencelab import cli

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
        print(f"peak_rss_kb {peak_rss_kb()}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
