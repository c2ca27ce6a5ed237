"""Smoke test of the benchmark at tiny sizes; about a minute on two cores.

    python3 perfbench/smoke.py

For every workload and both trace modes it checks that the
last output line is the result object, that every declared metric is
emitted with its declared unit, and that the outputs match freshly recorded
tiny goldens.  It then corrupts one golden value per workload and checks
that the pass counts a failed operation, and finally that the benchmark
refuses to run (non-zero exit, no result) without the hyperac sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _bench(cwd: Path, workload: str, trace: int, golden_path: Path) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--golden", str(golden_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    (HERE / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=HERE / "out"))
    try:
        tiny = golden.record("tiny")
        good = tmp / "golden.json"
        good.write_text(json.dumps(tiny))

        for name in workloads.WORKLOADS:  # also those BENCHMARK.json leaves out
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                code, lines = _bench(ROOT, name, trace, good)
                if code != 0:
                    problems.append(f"{name} trace={trace}: exit code {code}")
                    continue
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
                if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                    problems.append(f"{name} trace={trace}: not correct: {lines[-3:]}")
                metrics = result["metrics"]
                if set(metrics) != {m["name"] for m in declared}:
                    problems.append(f"{name} trace={trace}: metric names differ from BENCHMARK.json")
                for m in declared:
                    got = metrics.get(m["name"], {})
                    if got.get("unit") != m["unit"]:
                        problems.append(f"{name} {m['name']}: unit {got.get('unit')!r}")
                    value = got.get("value")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append(f"{name} {m['name']}: value {value!r}")

            # corrupt one golden value the pass will check
            op = min(workloads.Pass(name, SEED, "tiny", tmp).ops)
            bad = json.loads(good.read_text())
            key = next(k for k, v in bad[name][op].items() if isinstance(v, float))
            bad[name][op][key] *= 1.0 + 1e-6
            bad_path = tmp / f"bad-{name}.json"
            bad_path.write_text(json.dumps(bad))
            code, lines = _bench(ROOT, name, 0, bad_path)
            result = json.loads(lines[-1]) if code == 0 else {"failed": 0, "attempted": 0}
            if not (result.get("correct") is False and 1 <= result["failed"] < result["attempted"]):
                problems.append(f"{name}: corrupted golden {op} {key} not counted as a failure")

        # a directory with only BENCHMARK.json and the benchmark's files
        bare = tmp / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(HERE / "golden.json", bare / "perfbench")
        code, lines = _bench(bare, workloads.WORKLOADS[0], 0, bare / "perfbench" / "golden.json")
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("the benchmark ran without the hyperac sources")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
