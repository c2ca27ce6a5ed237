"""The benchmark's span targets must all exist in the package.

``perfbench/tracing.py`` wraps hyperac functions by name and only records
the ones it cannot find, so a refactor that renames or drops one would
silently lose a per-layer span.  Here it is installed with a tracer whose
``wrap`` returns each function unchanged: nothing is really wrapped.
"""

import importlib.util
from pathlib import Path

from hyperac.schemes import SCHEMES

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _PassThrough:
    def __init__(self):
        self.missing = []

    def wrap(self, fn, name, after=None, starts_run=False):
        return fn


def test_every_trace_target_exists():
    tracing = _load_tracing()
    tracer = _PassThrough()
    tracing.install(tracer)
    assert tracer.missing == []


def test_traced_rhs_kinds_are_the_scheme_table():
    assert set(_load_tracing().RHS_KINDS) == set(SCHEMES)
