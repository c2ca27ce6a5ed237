"""Span tracing of hyperac's public entry points, installed from outside the package.

``install`` replaces each traced function or method with a wrapper that
records one span per call: name, start, end, parent span and member-run id
(one id per outermost ``timestepping.run`` call).  Spans stay in memory;
``Tracer.dump`` writes them out once the pass is over and ``layer_metrics``
turns them into the per-layer numbers.  Nothing in ``src/`` is changed:
module-level names are rebound in every hyperac module that imported them,
so calls made inside the package go through the wrappers too.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "diagnostics", "grid", "model", "scenarios", "schemes", "timestepping")

RHS_KINDS = (
    "kinetic_first_order",
    "kinetic_second_order",
    "gk_pseudo_kinetic",
    "onefield_direct",
    "onefield_alternative",
    "parabolic_reference",
)

# every bandwidth-2 solve on an interleaved vector of length 2N touches at
# least the (5, 2N) band, the right-hand side and the solution, 8 bytes each
_SOLVE_VECTORS_PER_ROW = 5 + 1 + 1


class Tracer:
    """In-memory span store shared by all wrappers of one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run_id: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.snapshot_peaks = [0, 0]  # most snapshots one run held, and their bytes
        self.shooting_args: list[str] = []  # repr of each call's arguments
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run = -1
        self._runs = 0

    def wrap(self, fn, name: str, after=None, starts_run: bool = False):
        """Return ``fn`` wrapped to record a span; ``after(tracer, idx, args, kwargs, out)``
        runs once the span has ended, for counts taken where the work happens."""
        names, start, end, parent, run_id, stack = (
            self.names, self.start, self.end, self.parent, self.run_id, self._stack
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_run = starts_run and tracer._run < 0
            if outer_run:
                tracer._runs += 1
                tracer._run = tracer._runs
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            run_id.append(tracer._run)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if outer_run:
                    tracer._run = -1
            if after is not None:
                after(tracer, idx, args, kwargs, out)
            return out

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as a compressed ``.npz`` (names indexed into ``span_names``)."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            span_names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            run_id=np.array(self.run_id, dtype=np.int64),
        )


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op against a bare one, fastest repeat."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def _outermost(tracer: Tracer, idx: int) -> bool:
    """True when no ancestor of span ``idx`` carries the same name."""
    name = tracer.names[idx]
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.names[p] == name:
            return False
        p = tracer.parent[p]
    return True


def _after_run(tracer, idx, args, kwargs, out):
    snaps = getattr(out, "snapshots", None) or ()
    held = len(snaps)
    nbytes = sum(st.a.nbytes + st.b.nbytes for _t, st in snaps)
    peaks = tracer.snapshot_peaks
    peaks[0] = max(peaks[0], held)
    peaks[1] = max(peaks[1], nbytes)


def _after_solve(tracer, idx, args, kwargs, out):
    tracer.counters["solve.bytes"] += _SOLVE_VECTORS_PER_ROW * args[1].size * 8


def _after_shooting(tracer, idx, args, kwargs, out):
    tracer.shooting_args.append(repr((args, sorted(kwargs.items()))))


def _csv_after(path_arg: int, rows_of):
    """Hook for a CSV writer: rows from ``rows_of(args)``, bytes at the outermost span."""

    def after(tracer, idx, args, kwargs, out):
        path = args[path_arg]
        rows = rows_of(args)
        if rows is None:  # an iterator was consumed by the writer: count the file
            with open(path, "rb") as handle:
                rows = sum(1 for _ in handle) - 1
        tracer.counters["csv.rows"] += rows
        if _outermost(tracer, idx):
            tracer.counters["csv.bytes"] += os.path.getsize(path)

    return after


def _sized_rows(args):
    rows = args[2]
    return len(rows) if hasattr(rows, "__len__") else None


# (module, attribute, span name, after-hook, starts a member run)
TARGETS = [
    ("timestepping", "run", "timestepping.run", _after_run, True),
    ("timestepping", "ImexWorkspace.build", "timestepping.ImexWorkspace.build", None, False),
    ("timestepping", "ImexWorkspace.solve", "timestepping.ImexWorkspace.solve", _after_solve, False),
    ("timestepping", "ImexWorkspace.residual", "timestepping.ImexWorkspace.residual", None, False),
    ("timestepping", "imex_step", "timestepping.imex_step", None, False),
    ("timestepping", "explicit_step", "timestepping.explicit_step", None, False),
    ("timestepping", "_check_finite", "timestepping.check_finite", None, False),
    ("schemes", "prepare_state_for_scheme", "schemes.prepare_state_for_scheme", None, False),
    *[("schemes", f"rhs_{k}", f"schemes.rhs.{k}", None, False) for k in RHS_KINDS],
    ("model", "hyperbolic_front_speed_shooting", "model.shooting", _after_shooting, False),
    ("model", "solve_ivp", "model.solve_ivp", None, False),
    ("scenarios", "run_speed_table", "scenarios.run_speed_table", None, False),
    ("scenarios", "run_order_comparison", "scenarios.run_order_comparison", None, False),
    ("scenarios", "_write_rows", "scenarios.csv", _csv_after(0, _sized_rows), False),
    ("scenarios", "write_snapshots_csv", "scenarios.csv", _csv_after(0, lambda a: 0), False),
    ("diagnostics", "DiagnosticsRecord.to_csv", "scenarios.csv",
     _csv_after(1, lambda a: a[0].times.size), False),
    ("grid", "Grid.to_csv", "scenarios.csv", _csv_after(1, lambda a: a[0].n_cells), False),
    ("scenarios", "initial_riemann", "scenarios.initial", None, False),
    ("scenarios", "initial_random", "scenarios.initial", None, False),
    ("scenarios", "initial_exact_front", "scenarios.initial", None, False),
    ("scenarios", "Scenario.initial_state", "scenarios.initial", None, False),
    ("scenarios", "parse_config_text", "scenarios.config", None, False),
    ("scenarios", "Scenario.from_dict", "scenarios.config", None, False),
    ("cli", "_scenario_from_args", "scenarios.config", None, False),
    ("diagnostics", "detect_stabilization", "diagnostics.post_run", None, False),
    ("diagnostics", "front_position_and_monotonicity", "diagnostics.post_run", None, False),
    ("diagnostics", "g_profile", "diagnostics.post_run", None, False),
    ("diagnostics", "relative_speed_error", "diagnostics.post_run", None, False),
    ("grid", "build_uniform_grid", "grid.build", None, False),
    ("grid", "build_graded_grid", "grid.build", None, False),
    ("cli", "cli_main", "cli.cli_main", None, False),
]


# The pieces an untraced pass is timed in (``reference.OpClock``): member
# runs, shooting calls and CSV writers, 17 to 30 calls a pass.
OP_TARGETS = [
    (module, attr, span, None, False)
    for module, attr, span, _after, _starts in TARGETS
    if span in ("timestepping.run", "model.shooting", "scenarios.csv")
]


def install(tracer, targets=TARGETS) -> None:
    """Wrap every entry point in ``targets`` that exists; record the ones that do not.

    ``tracer`` is a ``Tracer`` or anything else with its ``wrap`` and ``missing``.
    """
    modules = [importlib.import_module("hyperac")] + [
        importlib.import_module(f"hyperac.{m}") for m in MODULES
    ]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    for mod_name, attr, span, after, starts_run in targets:
        module = by_name[mod_name]
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            raw = vars(cls).get(member) if cls is not None else None
            if raw is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(cls, member, classmethod(tracer.wrap(raw.__func__, span, after, starts_run)))
            else:
                setattr(cls, member, tracer.wrap(raw, span, after, starts_run))
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.wrap(fn, span, after, starts_run)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "timestepping.ImexWorkspace.solve.us": "us",
    "timestepping.ImexWorkspace.solve.calls": "count",
    "timestepping.ImexWorkspace.solve.bytes_computed": "B",
    "timestepping.ImexWorkspace.residual.us": "us",
    "timestepping.ImexWorkspace.build.calls": "count",
    "timestepping.ImexWorkspace.build.s": "s",
    "timestepping.ImexWorkspace.build.per_run": "1",
    "timestepping.imex_step.self_us": "us",
    "timestepping.explicit_step.self_us": "us",
    "timestepping.check_finite.per_step": "1",
    "timestepping.run.self_s": "s",
    "schemes.rhs.kinetic_second_order.us": "us",
    "schemes.rhs.evals_per_step": "1",
    "schemes.prepare_state_for_scheme.s": "s",
    "model.shooting.calls": "count",
    "model.shooting.s_per_call": "s",
    "model.shooting.orbit_solves_per_call": "1",
    "model.shooting.distinct_ratio": "1",
    "scenarios.csv.s": "s",
    "scenarios.csv.rows": "count",
    "scenarios.csv.bytes": "B",
    "scenarios.csv.mb_per_s": "MB/s",
    "scenarios.snapshots.held": "count",
    "scenarios.snapshots.bytes_computed": "B",
    "scenarios.initial.s": "s",
    "scenarios.config.s": "s",
    "diagnostics.post_run.s": "s",
    "grid.build.s": "s",
    "cli.cli_main.self_s": "s",
    "trace.overhead_frac": "1",
    "trace.overhead_est_frac": "1",
    "trace.unaccounted_frac": "1",
    "check.max_abs_diff": "1",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work in this workload."""
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Self time is a span's duration minus the time its direct children cover
    (children nest inside their parent).  Category totals (``.s``) add only
    spans with no ancestor of the same name, so a writer that calls another
    writer is not counted twice.  ``trace.overhead_est_frac`` is the span
    count times the calibrated cost of one wrapper, over the pass's wall time
    less that cost: a steadier figure than ``trace.overhead_frac``, which
    compares traced with untraced passes and, like ``check.max_abs_diff``,
    is added by the caller.
    """
    names = np.array(tracer.names, dtype=object)
    dur = np.array(tracer.end) - np.array(tracer.start)
    parent = np.array(tracer.parent, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    masks: dict[str, np.ndarray] = {}

    def mask(name: str) -> np.ndarray:
        if name not in masks:
            masks[name] = names == name
        return masks[name]

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def total(name: str) -> float:
        return float(dur[mask(name)].sum())

    def outer_total(name: str) -> float:
        idx = np.nonzero(mask(name))[0]
        return float(sum(dur[i] for i in idx if _outermost(tracer, i)))

    def mean_us(name: str, values=dur) -> float:
        return _ratio(values[mask(name)].sum() * 1e6, calls(name))

    steps = calls("timestepping.imex_step") + calls("timestepping.explicit_step")
    explicit_steps = calls("timestepping.explicit_step")
    rhs_calls = sum(calls(f"schemes.rhs.{k}") for k in RHS_KINDS)
    runs = calls("timestepping.run")
    shots = calls("model.shooting")
    csv_s = outer_total("scenarios.csv")
    roots = float(dur[~has_parent].sum())
    c = tracer.counters
    cost = span_cost_s()
    return {
        "timestepping.ImexWorkspace.solve.us": mean_us("timestepping.ImexWorkspace.solve"),
        "timestepping.ImexWorkspace.solve.calls": calls("timestepping.ImexWorkspace.solve"),
        "timestepping.ImexWorkspace.solve.bytes_computed": int(c["solve.bytes"]),
        "timestepping.ImexWorkspace.residual.us": mean_us("timestepping.ImexWorkspace.residual"),
        "timestepping.ImexWorkspace.build.calls": calls("timestepping.ImexWorkspace.build"),
        "timestepping.ImexWorkspace.build.s": total("timestepping.ImexWorkspace.build"),
        "timestepping.ImexWorkspace.build.per_run": _ratio(
            calls("timestepping.ImexWorkspace.build"), runs
        ),
        "timestepping.imex_step.self_us": mean_us("timestepping.imex_step", self_time),
        "timestepping.explicit_step.self_us": mean_us("timestepping.explicit_step", self_time),
        "timestepping.check_finite.per_step": _ratio(calls("timestepping.check_finite"), steps),
        "timestepping.run.self_s": float(self_time[mask("timestepping.run")].sum()),
        "schemes.rhs.kinetic_second_order.us": mean_us("schemes.rhs.kinetic_second_order"),
        "schemes.rhs.evals_per_step": _ratio(rhs_calls, explicit_steps),
        "schemes.prepare_state_for_scheme.s": total("schemes.prepare_state_for_scheme"),
        "model.shooting.calls": shots,
        "model.shooting.s_per_call": _ratio(total("model.shooting"), shots),
        "model.shooting.orbit_solves_per_call": _ratio(calls("model.solve_ivp"), shots),
        "model.shooting.distinct_ratio": _ratio(
            len(set(tracer.shooting_args)), shots
        ),
        "scenarios.csv.s": csv_s,
        "scenarios.csv.rows": int(c["csv.rows"]),
        "scenarios.csv.bytes": int(c["csv.bytes"]),
        "scenarios.csv.mb_per_s": _ratio(c["csv.bytes"] / 1e6, csv_s),
        "scenarios.snapshots.held": tracer.snapshot_peaks[0],
        "scenarios.snapshots.bytes_computed": tracer.snapshot_peaks[1],
        "scenarios.initial.s": outer_total("scenarios.initial"),
        "scenarios.config.s": outer_total("scenarios.config"),
        "diagnostics.post_run.s": outer_total("diagnostics.post_run"),
        "grid.build.s": outer_total("grid.build"),
        "cli.cli_main.self_s": float(self_time[mask("cli.cli_main")].sum()),
        "trace.overhead_est_frac": _ratio(len(names) * cost, wall_s - len(names) * cost),
        "trace.unaccounted_frac": _ratio(wall_s - roots, wall_s),
    }
