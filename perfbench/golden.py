"""Record the outputs every benchmark pass is checked against.

    python3 perfbench/golden.py                      # writes perfbench/golden.json
    python3 perfbench/golden.py --size tiny --out F  # the smoke test's copy

The table workloads produce the same outputs for every seed (the seed only
reorders their members), so one pass each covers them.  For
random-snapshots every (tau, variant, data seed) in the pool is run once.
Re-record only when a change is meant to alter numerical output, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _outputs(workload: str, size: str, configs=None) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=HERE / "out"))
    try:
        work = workloads.Pass(workload, 0, size, tmp)
        if configs is not None:
            work.use_configs(configs)
        work.execute()
        if work.error is not None:
            raise RuntimeError(f"{workload}: {work.error}")
        return work.outputs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def record(size: str) -> dict:
    z = workloads.SIZES[size]
    golden = {w: _outputs(w, size) for w in ("speed-table", "order2-table")}
    golden["random-snapshots"] = {}
    for tau in z["random_taus"]:
        for variant in workloads.RANDOM_VARIANTS:
            for data_seed in range(1, z["random_pool"] + 1):
                golden["random-snapshots"].update(
                    _outputs("random-snapshots", size, [(tau, variant, data_seed)])
                )
    return golden


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "golden.json")
    args = parser.parse_args(argv)
    (HERE / "out").mkdir(exist_ok=True)
    args.out.write_text(json.dumps(record(args.size), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
