"""A/B the benchmark between two checkouts, in alternating pairs of runs.

    python3 tools/ab.py PARENT CHANGE [--workloads sweep scripts info]
        [--seeds 11 12 13 14 15 16 17 18 19 20] [--seconds 30]

For each workload and seed, runs ``perfbench/run.py --trace 0`` once in each
checkout (from its root, so each imports its own ``src/``).  The first pair
runs PARENT first, the next CHANGE first, and so on, so a drift of the
machine's speed during the session falls on both sides alike.  Then prints,
per workload and end-to-end metric of CHANGE's ``BENCHMARK.json``:

* each side's median and quartiles over the pairs;
* the change in the medians, against the metric's bound;
* in how many pairs CHANGE was better, and in how many the two were equal;
* the same for the uncalibrated figure of each timed metric (the harness's
  ``uncalibrated:`` note: process CPU time not rescaled by speed.py), since
  the per-run speed scale can turn a small difference around;

then every ``peak_rss_mb`` reading with the resident MB it is on top of (the
harness's note) and the run's attempted calls, since a longer run can reach
a higher peak, and the failed calls.  Each run's JSON goes to stderr as
it ends.  Stdlib only; nothing is written into either checkout but what the
harness itself writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

RSS_NOTE = re.compile(r"peak_rss_mb is on top of ([0-9.]+) MB")
RAW_NOTE = re.compile(r"uncalibrated: (.*); median speed scale")


def one_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """Metrics, failed calls and the RSS baseline of one harness run."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    base = RSS_NOTE.search(done.stdout)
    raw = RAW_NOTE.search(done.stdout)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": dict((k, float(v)) for k, v in (f.split() for f in raw.group(1).split(", "))) if raw else {},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "rss_base": float(base.group(1)) if base else None,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(label: str, a: list[float], b: list[float], higher: bool, bound: str) -> None:
    """One line: both sides' medians and quartiles, the change, and the wins."""
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    change = (bm - am) / am if am else 0.0
    print(f"  {label:16} parent {am:.6g} [{a1:.6g}, {a3:.6g}]  change {bm:.6g} "
          f"[{b1:.6g}, {b3:.6g}]  {change:+.1%}{bound}  better {wins}/{len(a)}, equal {ties}")


def report(workload: str, pairs: list[tuple[dict, dict]], metrics: list[dict]) -> None:
    print(f"== {workload}: {len(pairs)} pairs")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        compare(name, [p["metrics"][name] for p, _ in pairs], [c["metrics"][name] for _, c in pairs],
                higher, f" (bound {m['bound']:.0%})")
        if all(name in side["raw"] for pair in pairs for side in pair):
            compare("  uncalibrated", [p["raw"][name] for p, _ in pairs],
                    [c["raw"][name] for _, c in pairs], higher, "")
    for side, k in (("parent", 0), ("change", 1)):
        readings = " ".join(f"{pair[k]['metrics']['peak_rss_mb']:.4g}/{pair[k]['rss_base']:.5g}"
                            f"/{pair[k]['attempted']}" for pair in pairs)
        print(f"  peak_rss_mb/on-top-of MB/attempted calls, {side}: {readings}")
    for side, k in (("parent", 0), ("change", 1)):
        failed = sum(pair[k]["failed"] for pair in pairs)
        attempted = sum(pair[k]["attempted"] for pair in pairs)
        print(f"  failed calls, {side}: {failed} of {attempted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", nargs="+", default=["sweep", "scripts", "info"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(11, 21)))
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                sides[side] = one_run(root, workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: {json.dumps(sides[side])}",
                      file=sys.stderr, flush=True)
            pairs.append((sides["parent"], sides["change"]))
        report(workload, pairs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
