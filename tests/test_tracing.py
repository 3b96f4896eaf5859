"""The benchmark's tracer still finds every name it wraps.

`bench/tracing.py` replaces functions at the names their callers look up
(`valencelab.cli.feed_tick`, `SyncServer.receive`, ...). A change that moves
or deletes one of those names makes `install` fail here, not only in a
traced benchmark pass.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_site():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    originals = tracing.install(tracing.Tracer())
    try:
        wrapped = [(owner, attr, fn) for owner, attr, fn in originals
                   if _current(owner, attr) is not fn]
    finally:
        tracing.uninstall(originals)
    assert originals
    assert len(wrapped) == len(originals)
    assert all(_current(owner, attr) is fn for owner, attr, fn in originals)
