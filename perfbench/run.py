"""hyperac benchmark: run one workload for a fixed time and check its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload random-snapshots --seed 1 --seconds 38 --trace 0

Workloads: speed-table, order2-table, random-snapshots (see workloads.py).
Every pass runs in a fresh interpreter (worker.py) with BLAS/OpenMP pinned to
one thread, so set-up time and peak memory are those of a real start.
Passes repeat while the next one is expected to end within ``--seconds``.
``--trace 0`` reports the end-to-end metrics, medians over the run's passes:
``setup_s``, ``wall_s`` and ``cell_steps_per_s`` in reference seconds (see
reference.py: each time is scaled by the speed a fixed kernel measures next
to it, because other tenants of a shared host change the speed a process
gets by up to a factor of two, for minutes at a time), and ``peak_rss_mb``.
The unscaled wall times are printed too.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics (medians over the traced
passes, unscaled), with the tracing overhead taken from the fastest pass of
each kind.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Inputs and outputs live in a temporary directory under
``perfbench/out/`` that is removed at the end; the spans of the last traced
pass are kept there as ``spans-<workload>-seed<seed>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import LAYER_UNITS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5  # extra set-up-only starts top the passes up to this many samples
WORKER_TIMEOUT_S = 170
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerFailed(RuntimeError):
    """A pass process crashed or timed out: the benchmark cannot report."""


def _spawn(args, tmp: Path, env: dict, traced: bool = False, setup_only: bool = False) -> dict:
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=tmp))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--golden", str(args.golden),
        "--tmp", str(pass_dir),
    ]
    if traced:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"pass exceeded {WORKER_TIMEOUT_S} s") from err
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerFailed(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _context(args, before: tuple, after: tuple, linear_algebra: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        **linear_algebra,
        "threads": {v: "1" for v in THREAD_VARIABLES},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_before": before,
        "loadavg_after": after,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hyperac benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--golden", type=Path, default=HERE / "golden.json",
                        help="recorded outputs to check against (see golden.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperac" / "__init__.py").is_file():
        print(f"error: no hyperac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.golden.is_file():
        print(f"error: golden outputs {args.golden} not found", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARIABLES})
    env["TMPDIR"] = str(tmp)
    load_before = os.getloadavg()
    passes: list[dict] = []  # in the order they ran; each knows whether it was traced
    try:
        t0 = time.monotonic()
        longest = 0.0

        def needed() -> bool:  # every run has an untraced pass, a traced run a traced one too
            kinds = {p["traced"] for p in passes}
            return False not in kinds or (bool(args.trace) and True not in kinds)

        # beyond those, start a pass only if one as long as the longest so far ends in time
        while needed() or time.monotonic() - t0 + longest <= args.seconds:
            # a traced run alternates untraced and traced passes, untraced first
            traced = bool(args.trace) and len(passes) % 2 == 1
            started = time.monotonic()
            passes.append({**_spawn(args, tmp, env, traced=traced), "traced": traced})
            longest = max(longest, time.monotonic() - started)
        untraced = [p for p in passes if not p["traced"]]
        traced_passes = [p for p in passes if p["traced"]]
        setups = list(untraced)  # set-up samples
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(_spawn(args, tmp, env, setup_only=True))
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    load_after = os.getloadavg()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    max_diff = max(p["max_abs_diff"] for p in passes)
    if args.trace:
        units = LAYER_UNITS
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced_passes)
            for name in traced_passes[0]["layers"]
        }
        metrics["trace.overhead_frac"] = (
            min(p["wall_s"] for p in traced_passes) / min(p["work_s"] for p in untraced) - 1.0
        )
        metrics["check.max_abs_diff"] = max_diff
    else:
        units = END_TO_END_UNITS
        wall = statistics.median(p["wall_ref_s"] for p in untraced)
        metrics = {
            "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
            "wall_s": wall,
            "cell_steps_per_s": untraced[0]["cell_steps"] / wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }

    context = _context(args, load_before, load_after, untraced[0]["linear_algebra"])
    print("context " + json.dumps(context))
    print(
        f"passes: {len(untraced)} untraced, {len(traced_passes)} traced; "
        f"set-up samples: {len(setups)}; pass walls (T: traced): "
        + ", ".join(
            f"{p['wall_s' if p['traced'] else 'work_s']:.3f}{'T' if p['traced'] else ''}"
            for p in passes
        )
    )
    if not args.trace:
        print(
            "untraced passes in reference seconds: "
            + ", ".join(f"{p['wall_ref_s']:.3f}" for p in untraced)
            + f"; pieces timed per pass: {untraced[0]['pieces_timed']}"
            + "; median kernel ms per pass: "
            + ", ".join(f"{1e3 * p['kernel_s']:.1f}" for p in untraced)
        )
        work = statistics.median(p["work_s"] for p in untraced)
        setup = statistics.median(p["setup_s"] for p in setups)
        print(f"median wall seconds (not scaled): pass {work:.4f}, set-up {setup:.4f}")
    missing = sorted({m for p in traced_passes for m in p["missing"]})
    if missing:
        print("trace: entry points not found: " + ", ".join(missing))
    for note in sorted({n for p in passes for n in p["notes"]}):
        print("check: " + note)
    rows = [(name, metrics[name], units[name]) for name in units]
    rows.append(("failed_frac", failed / attempted, "1"))
    if not args.trace:
        rows.append(("check.max_abs_diff", max_diff, "1"))
    for name, value, unit in rows:
        print(f"  {name:<50} {value:>16.9g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
