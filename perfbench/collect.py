"""Run the benchmark over several seeds and write one BENCH_<label>.json.

    python3 perfbench/collect.py --label seed

For every workload in BENCHMARK.json: seeds 1-10 with --trace 0 and seeds
1-2 with --trace 1, each for BENCHMARK.json's run_seconds, each one fresh
`run.py` process, run one after another.  The file keeps every run's result line and, per metric, the median,
the quartiles and the interquartile spread as a share of the median, which
is the figure the end-to-end bounds in BENCHMARK.json are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = {0: range(1, 11), 1: range(1, 3)}  # per --trace value


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else 0.0,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        entry = report["workloads"][workload] = {}
        for trace, seeds in SEEDS.items():
            runs = []
            for seed in seeds:
                done = subprocess.run(
                    [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
                )
                result = json.loads(done.stdout.strip().splitlines()[-1])
                result["seed"] = seed
                runs.append(result)
                print(f"{workload} trace={trace} seed={seed} correct={result['correct']}",
                      file=sys.stderr, flush=True)
            entry[f"trace{trace}"] = {"summary": summarise(runs), "runs": runs}
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
