"""Deferred imports: a module that runs on its first attribute access.

`valencelab serve` answers from a table and never needs numpy, so every
module that computes with numpy binds `np` through `lazy_import`: numpy
runs only once something reads an attribute of it (the lazy loading of
Scientific Python's SPEC 1).
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module `name`: the loaded one if it is in `sys.modules`, else a
    stand-in there that loads it on its first attribute access.

    The stand-in has no lock on Python 3.10 and 3.11, so the first access
    must come from one thread: the main thread touches numpy before any
    other (the pipeline in `simulate_stage`; serve never touches it).
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
