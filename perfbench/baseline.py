"""Run the benchmark over several seeds and summarise it: medians, quartiles, spread.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1-3 --out perfbench/baseline.json

Each run is the command declared in BENCHMARK.json, run for the declared
``run_seconds``.  For every metric the summary gives its values, their median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, printed next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    context = json.loads(next(line for line in lines if line.startswith("context "))[8:])
    return json.loads(lines[-1]), context


def _summary(values: list[float], unit: str) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "unit": unit,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10")
    parser.add_argument("--traced-seeds", default="", help="traced seeds, e.g. 1-3")
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        entry = report["workloads"][workload] = {}
        for trace, key, seeds in ((0, "end_to_end", args.seeds), (1, "per_layer", args.traced_seeds)):
            if not seeds:
                continue
            runs = []
            for seed in _seeds(seeds):
                result, context = _run(spec, workload, seed, trace)
                runs.append(result)
                report.setdefault("context", context)
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            entry[f"{key}_failed"] = sum(r["failed"] for r in runs)
            entry[f"{key}_attempted"] = sum(r["attempted"] for r in runs)
            entry[key] = {
                name: _summary([r["metrics"][name]["value"] for r in runs], m["unit"])
                for name, m in runs[0]["metrics"].items()
            }
        for name, s in entry.get("end_to_end", {}).items():
            print(f"  {workload:<17} {name:<17} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}")
        for name in ("trace.overhead_frac", "trace.unaccounted_frac"):
            if name in entry.get("per_layer", {}):
                print(f"  {workload:<17} {name:<24} median {entry['per_layer'][name]['median']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
