"""The benchmark's workloads: inputs made from a seed, one timed pass, and the output check.

Each workload is built on a user-facing entry point of hyperac:

* ``speed-table``: ``run_speed_table`` with its three default cases and five
  dx values (N = 50 ... 800) on the dt rows 1e-1 and 1e-2 (the 1e-3 row alone
  takes minutes).  IMEX only, over a 16x range of N; three shooting calls.
* ``order2-table``: ``run_order_comparison(2)``: eight explicit-Euler MUSCL
  runs at N = 400 plus eight shooting calls, and no IMEX call at all.
* ``random-snapshots``: repeated ``cli_main(["run", cfg, "--out-dir", d])``
  on generated config files with piecewise-random data, dense snapshots and
  CSV output; no shooting call.

The seed permutes the order of the driver members and picks each random
config's data seed from a fixed pool, so every pass it can produce has golden
outputs recorded in ``golden.json`` by ``golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("speed-table", "order2-table", "random-snapshots")
_METHOD = {"speed-table": "speed_table", "order2-table": "order_table", "random-snapshots": "random"}

SIZES = {
    "full": {
        "table_dts": (0.1, 0.01),
        "table_dxs": (1.0, 0.5, 0.25, 0.125, 0.0625),
        "table_T": None,  # the cases' own measurement times
        "order_taus": (1.0, 4.0),
        "order_alphas": (0.6, 0.7, 0.8, 0.9),
        "random_taus": (1.0, 5.0, 10.0),
        "random_n": 600,
        "random_T": 10.0,
        "random_pool": 16,
    },
    # for the smoke test: every code path, a few seconds per pass
    "tiny": {
        "table_dts": (0.1,),
        "table_dxs": (1.0, 0.5),
        "table_T": 2.0,
        "order_taus": (1.0,),
        "order_alphas": (0.6,),
        "random_taus": (1.0,),
        "random_n": 60,
        "random_T": 1.0,
        "random_pool": 2,
    },
}

RANDOM_VARIANTS = ("decay", "overlapping")
RANDOM_ALPHA = 0.6
RANDOM_DT = 0.01
RANDOM_SAMPLE_EVERY = 10
TABLE_LENGTH = 50.0  # the tables run on (0, 2 l) with l = 25
ORDER_N, ORDER_T, ORDER_DT = 400, 40.0, 0.01

# outputs agree when |got - want| <= TOL * max(1, |want|): roundoff, not a model change
TOL = 1e-9


def _steps(T: float, dt: float) -> int:
    return max(1, int(round(T / dt)))


class Pass:
    """One workload pass: the generated inputs, the timed call and the checked outputs.

    ``ops`` lists the operations the pass attempts (a member ``run()``, a
    shooting call or a ``cli_main`` invocation); ``outputs`` maps each op to
    the values checked against the golden file.
    """

    def __init__(self, workload: str, seed: int, size: str, tmp: Path) -> None:
        self.workload = workload
        self.size = SIZES[size]
        self.tmp = Path(tmp)
        self.rng = random.Random(f"{workload}:{seed}")
        self.ops: list[str] = []
        self.cell_steps = 0
        self.error: str | None = None
        getattr(self, "_plan_" + _METHOD[workload])()

    # ---- inputs -------------------------------------------------------------

    def _shuffled(self, values) -> list:
        values = list(values)
        self.rng.shuffle(values)
        return values

    def _plan_speed_table(self) -> None:
        from hyperac.scenarios import SPEED_TABLE_CASES

        z = self.size
        labels = self._shuffled(SPEED_TABLE_CASES)
        self.cases = {}
        for label in labels:
            tau, alpha, T = SPEED_TABLE_CASES[label][:3]
            self.cases[label] = (tau, alpha, z["table_T"] or T)
        self.dts = self._shuffled(z["table_dts"])
        self.dxs = self._shuffled(z["table_dxs"])
        self.ops = [f"shoot|{c}" for c in self.cases]
        for dt in self.dts:
            for label, (_tau, _alpha, T) in self.cases.items():
                for dx in self.dxs:
                    self.ops.append(f"run|{label}|{dt!r}|{dx!r}")
                    self.cell_steps += int(round(TABLE_LENGTH / dx)) * _steps(T, dt)

    def _plan_order_table(self) -> None:
        z = self.size
        self.taus = self._shuffled(z["order_taus"])
        self.alphas = self._shuffled(z["order_alphas"])
        for tau in self.taus:
            for alpha in self.alphas:
                self.ops += [f"run|{tau!r}|{alpha!r}", f"shoot|{tau!r}|{alpha!r}"]
                self.cell_steps += ORDER_N * _steps(ORDER_T, ORDER_DT)

    def _plan_random(self) -> None:
        z = self.size
        configs = [
            (tau, variant, self.rng.randint(1, z["random_pool"]))
            for tau in z["random_taus"]
            for variant in RANDOM_VARIANTS
        ]
        self.use_configs(self._shuffled(configs))

    def use_configs(self, configs: list[tuple[float, str, int]]) -> None:
        """Write the config files of the given (tau, variant, data seed) runs."""
        z = self.size
        self.configs = configs
        self.ops, self.cell_steps = [], 0
        for k, (tau, variant, data_seed) in enumerate(configs):
            path = self.tmp / f"cfg{k}.cfg"
            path.write_text(random_config(tau, variant, data_seed, z), encoding="utf-8")
            self.ops.append(random_key(tau, variant, data_seed))
            self.cell_steps += z["random_n"] * _steps(z["random_T"], RANDOM_DT)

    # ---- the timed pass -----------------------------------------------------

    def execute(self) -> None:
        """Run the pass; an exception fails every op and is kept in ``error``."""
        try:
            getattr(self, "_run_" + _METHOD[self.workload])()
        except Exception as err:  # the benchmark reports it as failed work
            self.error = f"{type(err).__name__}: {err}"

    def _run_speed_table(self) -> None:
        from hyperac import scenarios

        self.rows = scenarios.run_speed_table(
            dx_list=self.dxs, dt_list=self.dts, cases=self.cases, out_dir=self.tmp / "out"
        )

    def _run_order_table(self) -> None:
        from hyperac import scenarios

        self.rows = scenarios.run_order_comparison(
            2, taus=self.taus, alphas=self.alphas, out_dir=self.tmp / "out"
        )

    def _run_random(self) -> None:
        from hyperac import cli

        self.exit_codes = []
        for k in range(len(self.configs)):
            argv = ["run", str(self.tmp / f"cfg{k}.cfg"), "--out-dir", str(self.tmp / f"out{k}")]
            with contextlib.redirect_stdout(io.StringIO()):
                self.exit_codes.append(cli.cli_main(argv))

    # ---- outputs and the check ----------------------------------------------

    def outputs(self) -> dict[str, dict[str, float]]:
        """Checked values per op, read back from the pass's results and files."""
        return getattr(self, "_outputs_" + _METHOD[self.workload])()

    def _outputs_speed_table(self) -> dict:
        out: dict[str, dict] = {}
        for r in self.rows:
            out[f"run|{r['case']}|{r['dt']!r}|{r['dx']!r}"] = {"speed": r["speed"]}
            out[f"shoot|{r['case']}"] = {"c_ref": r["c_ref"]}
        out[_table_op(self.ops)].update(_csv_rows(self.tmp / "out"))
        return out

    def _outputs_order_table(self) -> dict:
        out: dict[str, dict] = {}
        for r in self.rows:
            out[f"run|{r['tau']!r}|{r['alpha']!r}"] = {"speed": r["speed"]}
            out[f"shoot|{r['tau']!r}|{r['alpha']!r}"] = {"c_ref": r["c_ref"]}
        out[_table_op(self.ops)].update(_csv_rows(self.tmp / "out"))
        return out

    def _outputs_random(self) -> dict:
        out = {}
        n = self.size["random_n"]
        for k, op in enumerate(self.ops):
            if self.exit_codes[k] != 0:
                continue
            d = self.tmp / f"out{k}"
            diag_last = _last_lines(d / "diagnostics.csv", 1)[0]
            final = np.array([float(line.split(",")[2]) for line in _last_lines(d / "snapshots.csv", n)])
            values = {"speed": float(diag_last.split(",")[1]), "crossings": _crossings(final)}
            values.update(_csv_rows(d))
            out[op] = values
        return out

    def check(self, golden: dict) -> tuple[int, float, list[str]]:
        """Compare with the golden outputs: (failed ops, largest difference, messages)."""
        if self.error is not None:
            return len(self.ops), 0.0, [f"pass raised {self.error}"]
        want_all = golden[self.workload]
        try:
            got_all = self.outputs()
        except (OSError, ValueError, IndexError, KeyError) as err:
            return len(self.ops), 0.0, [f"outputs unreadable: {type(err).__name__}: {err}"]
        failed, max_diff, notes = 0, 0.0, []
        for op in self.ops:
            got, want = got_all.get(op), want_all.get(op)
            if got is None or want is None or set(got) != set(want):
                failed += 1
                notes.append(f"{op}: outputs {sorted(got or {})} against golden {sorted(want or {})}")
                continue
            bad = False
            for key, w in want.items():
                diff = abs(got[key] - w)
                max_diff = max(max_diff, diff)
                if diff > TOL * max(1.0, abs(w)):
                    bad = True
                    notes.append(f"{op} {key}: {got[key]!r} against golden {w!r}")
            failed += bad
        return failed, max_diff, notes


def random_key(tau: float, variant: str, data_seed: int) -> str:
    return f"cli|{tau!r}|{variant}|{data_seed}"


def random_config(tau: float, variant: str, data_seed: int, z: dict) -> str:
    """Config file of one random-snapshots run: random data on (0, 25) inside (-25, 50)."""
    return "\n".join(
        [
            "domain.xmin = -25",
            "domain.xmax = 50",
            f"grid.n = {z['random_n']}",
            f"params.tau = {tau!r}",
            f"params.alpha = {RANDOM_ALPHA!r}",
            f"time.T = {z['random_T']!r}",
            f"time.dt = {RANDOM_DT!r}",
            f"time.sample_every = {RANDOM_SAMPLE_EVERY}",
            "init.kind = random",
            "init.ell = 25",
            f"init.seed = {data_seed}",
            f"init.variant = {variant}",
            "",
        ]
    )


def _table_op(ops: list[str]) -> str:
    """The op charged with the driver's table files: the same one for every seed."""
    return min(ops)


def _last_lines(path: Path, count: int) -> list[str]:
    return path.read_text().splitlines()[-count:]


def _csv_rows(directory: Path) -> dict[str, int]:
    """Data rows (lines after the header) of every CSV file in a directory."""
    return {
        f"rows:{p.name}": p.read_text().count("\n") - 1 for p in sorted(directory.glob("*.csv"))
    }


def _crossings(u: np.ndarray) -> int:
    """Sign changes of u - alpha over the grid, cells exactly at alpha skipped."""
    signs = np.sign(u - RANDOM_ALPHA)
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(np.diff(signs)))
