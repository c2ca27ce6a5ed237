"""One benchmark pass in a fresh interpreter; prints its result as one JSON line.

``run.py`` starts this script with its own ``time.monotonic()`` reading at
spawn time, so ``setup_s`` covers interpreter start-up, ``import hyperac``
and building the generated inputs.  The pass is timed from its first call
into hyperac to its end; the output check runs after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _linear_algebra() -> dict[str, str]:
    """BLAS/LAPACK builds numpy and scipy report."""
    import numpy
    import scipy

    out = {}
    for lib in (numpy, scipy):
        deps = lib.show_config(mode="dicts")["Build Dependencies"]
        for part in ("blas", "lapack"):
            info = deps.get(part, {})
            out[f"{lib.__name__}_{part}"] = (
                info.get("openblas configuration")
                or f"{info.get('name', '?')} {info.get('version', '?')}"
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--golden", required=True)
    parser.add_argument("--tmp", required=True, help="directory for inputs and outputs")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() when it started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced pass's spans to this .npz file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first run call: a set-up time sample")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hyperac  # noqa: F401  (the import is part of set-up)
    import reference
    import tracing
    import workloads

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        clock = reference.OpClock()
        tracing.install(clock, tracing.OP_TARGETS)
    work = workloads.Pass(args.workload, args.seed, args.size, Path(args.tmp))
    setup = time.monotonic() - args.spawned_at
    kernel = statistics.median(reference.kernel_s() for _ in range(3))
    result = {"setup_s": setup, "setup_ref_s": reference.scaled(setup, kernel)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    t0 = time.perf_counter()
    work.execute()
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    golden = json.loads(Path(args.golden).read_text(encoding="utf-8"))
    failed, max_diff, notes = work.check(golden)
    result.update(
        wall_s=wall,
        cell_steps=work.cell_steps,
        peak_rss_mb=peak_rss_mb,
        attempted=len(work.ops),
        failed=failed,
        max_abs_diff=max_diff,
        notes=notes[:20],
    )
    if not args.trace:
        clock.finish()
        result.update(
            work_s=clock.work_s(wall),
            wall_ref_s=clock.reference_s(wall),
            pieces_timed=len(clock.op_s),
            kernel_s=statistics.median(clock.kernel_s),
            linear_algebra=_linear_algebra(),
        )
    else:
        result["layers"] = tracing.layer_metrics(tracer, wall)
        result["missing"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
