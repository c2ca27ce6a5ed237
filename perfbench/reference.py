"""Times in reference seconds: wall time scaled by the speed the machine gives right then.

On a shared host the speed a process gets drifts by up to a factor of two,
in phases of seconds to minutes (other tenants on the same physical cores),
and the wall time of a pass drifts with it.  ``kernel_s`` times a fixed piece
of work of the kinds a pass does: a Python loop, small numpy array updates,
banded solves and CSV-style number formatting.  None of it uses hyperac, so
a change to hyperac leaves it alone.  A time measured next to a kernel run is
scaled to reference seconds, the time the same work takes when the kernel
takes ``NOMINAL_S``:  ``t * NOMINAL_S / kernel``.

``OpClock`` does this for a pass: it runs the kernel before every timed
piece of the pass (a member run, a shooting call, a CSV write) and once after
the pass, and scales each piece by the median of the kernel times nearest to
it.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# the kernel's median time on the machine the benchmark was built on (2-core
# Intel Xeon VM at 2.1 GHz): any fixed value would do, and this one keeps
# reference seconds close to wall seconds there
NOMINAL_S = 0.025

_N = 400
_BAND = np.vstack([np.full(_N, -0.1), np.full(_N, 1.2), np.full(_N, -0.1)])


def kernel_s() -> float:
    """Wall time of one run of the reference kernel, about 25 ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += (i * i) % 7
    u = np.linspace(0.0, 1.0, _N)
    for _ in range(400):
        d = np.diff(u, prepend=u[0])
        u = u - 0.1 * d * np.minimum(np.abs(d), 0.5) + 0.01 * np.sin(u)
    for _ in range(80):
        u = solve_banded((1, 1), _BAND, u)
    text = "\n".join(f"{k},{x!r}" for k, x in enumerate(u.tolist()))
    elapsed = time.perf_counter() - t0
    if acc < 0 or not text:  # keeps the work from looking unused
        raise AssertionError("reference kernel")
    return elapsed


def scaled(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured where the kernel took ``kernel_seconds``, in reference seconds."""
    return seconds * NOMINAL_S / kernel_seconds


class OpClock:
    """Times the pieces of a pass, each right after a kernel run.

    ``tracing.install(clock, tracing.OP_TARGETS)`` wraps the pieces.  A
    wrapped call made inside another (a writer called by a writer) is part
    of the outer piece's time.
    """

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.kernel_s: list[float] = []  # one before each operation, one after the pass
        self.missing: list[str] = []
        self._depth = 0

    def wrap(self, fn, name: str, after=None, starts_run: bool = False):
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if clock._depth:
                return fn(*args, **kwargs)
            clock.kernel_s.append(kernel_s())
            clock._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.op_s.append(time.perf_counter() - t0)
                clock._depth -= 1

        return timed

    def finish(self) -> None:
        """Run the kernel once after the pass; call it after the pass's clock stopped."""
        self.kernel_s.append(kernel_s())

    def work_s(self, wall_s: float) -> float:
        """The pass's wall time less the kernel runs inside it."""
        return wall_s - sum(self.kernel_s[:-1])

    def reference_s(self, wall_s: float) -> float:
        """The pass's wall time, kernels left out, in reference seconds.

        Piece ``i`` is scaled by the median of the kernel times from the one
        before the previous piece to the one after the next, up to four runs,
        so that one kernel run slowed by a short burst does not skew it; the
        time between pieces by the median of all of them.
        """
        k = self.kernel_s
        ops = sum(
            scaled(t, statistics.median(k[max(0, i - 1) : i + 3]))
            for i, t in enumerate(self.op_s)
        )
        rest = self.work_s(wall_s) - sum(self.op_s)
        return ops + scaled(rest, statistics.median(k))
