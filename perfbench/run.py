"""Benchmark harness for the brieskorn CLI: stdlib only, closed loop.

    python3 perfbench/run.py --workload {sweep,scripts,info} --seed N \
        --seconds S --trace {0,1}

One client, no threads: `brieskorn.cli.main` runs in this process with its
stdout captured, and the next call starts only after the previous one has
returned and its output has been checked.  The workload's list of calls (one
round, fixed by the seed) repeats until S seconds have passed.

Times are process CPU time rescaled to reference speed (speed.py).
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics from the traced ones.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import speed
import workloads as wl
from spans import Tracer

ROOT = os.path.dirname(wl.HERE)
WORK_DIR = os.path.dirname(wl.SCRIPT_FILE)
SETUP_REPEATS = 11

# what a user waits for between starting the CLI and its first call,
# bracketed by calibration samples
SETUP_CODE = """\
import json, sys, time
sys.path[:0] = sys.argv[1:3]
import speed
samples = speed.kernel_ns()
t0 = time.process_time_ns()
import brieskorn.cli
from brieskorn import report
report.load_claims()
t1 = time.process_time_ns()
print(json.dumps([t1 - t0, samples + speed.kernel_ns()]))
"""


@dataclass
class Round:
    raw_ns: list[int]
    scales: list[float]  # per call, see speed.py
    members: int
    failures: list[str]
    stdout_bytes: int

    @property
    def times_ns(self) -> list[float]:
        return [ns * f for ns, f in zip(self.raw_ns, self.scales)]

    @property
    def wall_s(self) -> float:
        return sum(self.times_ns) / 1e9

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_ns) / 1e9


def measure_setup() -> tuple[float, float]:
    """(calibrated, raw) median over fresh interpreters; the first run only
    warms the bytecode cache and is dropped."""
    cal, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, os.path.join(ROOT, "src"), wl.HERE],
            capture_output=True, text=True, timeout=60, check=True,
        )
        ns, samples = json.loads(done.stdout)
        cal.append(ns * speed.scale(samples) / 1e9)
        raw.append(ns / 1e9)
    return statistics.median(cal[1:]), statistics.median(raw[1:])


def run_round(cli, calls, check, tracer=None) -> Round:
    rnd = Round([], [], 0, [], 0)
    for k, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = k
        # each call starts with empty young generations, as in a fresh
        # process, so which call pays for a collection does not depend on
        # the order of calls
        gc.collect()
        samples = speed.kernel_ns()
        rc, out, ns = wl.invoke(cli, call.argv)
        samples += speed.kernel_ns()
        error, members = check(call, rc, out)
        rnd.raw_ns.append(ns)
        rnd.scales.append(speed.scale(samples))
        rnd.stdout_bytes += len(out.encode("utf-8"))
        if error is None:
            rnd.members += members
        else:
            rnd.failures.append(f"{' '.join(call.argv)}: {error}")
    return rnd


def more_rounds(start: float, done: int, seconds: float) -> bool:
    """Whole rounds only; stop once another would end more than half a
    round past the deadline."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(cli, calls, check, seconds: float, setup: tuple[float, float]):
    rounds = []
    # the interpreter, the harness, its digests and the call list are
    # resident by now; peak_rss_mb is what the calls add on top of them
    rss_before = max_rss_mb()
    start = time.perf_counter()
    while more_rounds(start, len(rounds), seconds):
        rounds.append(run_round(cli, calls, check))
    times_ms = [ns / 1e6 for r in rounds for ns in r.times_ns]
    metrics = {
        "setup_s": (setup[0], "s"),
        "items_per_s": (statistics.median(r.members / r.wall_s for r in rounds), "1/s"),
        "call_ms_p50": (statistics.median(times_ms), "ms"),
        "call_ms_p90": (statistics.quantiles(times_ms, n=10)[8], "ms"),
        "peak_rss_mb": (max_rss_mb() - rss_before, "MB"),
    }
    raw_ms = [ns / 1e6 for r in rounds for ns in r.raw_ns]
    notes = [
        f"{len(rounds)} rounds of {len(calls)} calls, {rounds[0].members} members per round",
        f"call_ms_p90 has {len(times_ms)} samples, {len(times_ms) // 10} beyond it",
        "uncalibrated: setup_s {:.6g}, items_per_s {:.6g}, call_ms_p50 {:.6g}, "
        "call_ms_p90 {:.6g}; median speed scale {:.4g}".format(
            setup[1], statistics.median(r.members / r.raw_wall_s for r in rounds),
            statistics.median(raw_ms), statistics.quantiles(raw_ms, n=10)[8],
            statistics.median(f for r in rounds for f in r.scales)),
        f"peak_rss_mb is on top of {rss_before:.6g} MB resident before the first call",
    ]
    return rounds, metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rnd: Round) -> dict[str, tuple[float, str]]:
    totals = tracer.layer_totals(rnd.scales)
    lay, funcs, sizes = totals["layers"], totals["funcs"], tracer.sizes
    out: dict[str, tuple[float, str]] = {}
    for layer in ("seifert", "plumbing.build", "plumbing.det", "plumbing.inertia",
                  "wu", "report", "kirby.replay", "casson"):
        out[f"{layer}.calls"] = (lay[layer]["calls"], "count")
        out[f"{layer}.self_ms"] = (lay[layer]["self_ms"], "ms")
    invariant_calls = (lay["plumbing.det"]["calls"] + lay["plumbing.inertia"]["calls"]
                       + funcs["wu.wu_class"])
    scripts = funcs["kirby.script_generator"]
    applied = lay["kirby.moves"]["calls"]
    out.update({
        "plumbing.vertices": (sizes.get("vertices", 0), "count"),
        "report.invariant_calls_per_member": (_ratio(invariant_calls, rnd.members), "ratio"),
        "kirby.generate.self_ms": (lay["kirby.generate"]["self_ms"], "ms"),
        "kirby.replays_per_script": (_ratio(lay["kirby.replay"]["calls"], scripts), "ratio"),
        "kirby.moves.applied": (applied, "count"),
        "kirby.moves.self_ms": (lay["kirby.moves"]["self_ms"], "ms"),
        "kirby.move_useful_ratio": (_ratio(sizes.get("emitted_moves", 0), applied), "ratio"),
        "kirby.json.self_ms": (lay["kirby.json"]["self_ms"], "ms"),
        "casson.lattice_points": (sizes.get("lattice_points", 0), "count"),
        "cli.self_ms": (lay["cli"]["self_ms"], "ms"),
        "cli.stdout_bytes": (rnd.stdout_bytes, "bytes"),
    })
    return out


def traced(cli, calls, check, seconds: float, spans_path: str):
    """Alternate untraced and traced rounds over the same calls.

    Counts come from the traced rounds and must agree exactly between them
    (a run with one traced round, as on `scripts`, checks this only against
    other runs of the same seed); times are medians over traced rounds.
    """
    plain, per_round, failures = [], [], []
    start = time.perf_counter()
    while more_rounds(start, len(per_round), seconds):
        plain.append(run_round(cli, calls, check))
        tracer = Tracer()
        tracer.install()
        try:
            rnd = run_round(cli, calls, check, tracer)
        finally:
            if not tracer.restore():
                failures.append("a traced name was not restored")
        if not per_round:
            tracer.write(spans_path)
        per_round.append((rnd, layer_metrics(tracer, rnd)))
    rounds = plain + [rnd for rnd, _ in per_round]
    metrics = {}
    for name, (_, unit) in per_round[0][1].items():
        values = [m[name][0] for _, m in per_round]
        if unit == "ms":
            metrics[name] = (statistics.median(values), unit)
        elif len(set(values)) == 1:
            metrics[name] = (values[0], unit)
        else:
            failures.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = (values[0], unit)
    # each call against itself in the untraced round just before
    ratios = [t / p for r, (rnd, _) in zip(plain, per_round)
              for p, t in zip(r.times_ns, rnd.times_ns)]
    metrics["trace_overhead_frac"] = (statistics.median(ratios) - 1, "ratio")
    notes = [f"{len(plain)} untraced and {len(per_round)} traced rounds of {len(calls)} calls",
             f"spans of the first traced round written to {spans_path}"]
    return rounds, metrics, notes, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "scripts", "info"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        cli = wl.import_cli(ROOT)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    check = wl.Checker(wl.load_digests())
    calls = wl.calls_for(args.workload, args.seed)

    setup = measure_setup() if args.trace == 0 else None
    from brieskorn import report

    report.load_claims()  # the in-process mirror of what setup_s times
    # modules, digests and the call list stay alive all run; keep them out
    # of the collections that the measured calls trigger
    gc.collect()
    gc.freeze()

    extra_failures = []
    if args.trace == 0:
        rounds, metrics, notes = end_to_end(cli, calls, check, args.seconds, setup)
    else:
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        rounds, metrics, notes, extra_failures = traced(cli, calls, check, args.seconds, spans_path)

    attempted = sum(len(r.raw_ns) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    failed = len(failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    if args.workload == "sweep" and args.trace == 0:
        print("  on sweep the 12 calls are whole-family batch jobs of unequal size, so "
              "call_ms_p50/p90 describe that mix and mostly track items_per_s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    for failure in (failures + extra_failures)[:20]:
        print(f"  FAIL {failure}")
    print(json.dumps({
        "correct": failed == 0 and not extra_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
