"""The three workloads: seeded inputs and the check of every call's output.

A workload is a list of CLI calls, one *round*; the harness repeats rounds.
The seed fixes the round: the order of calls everywhere, the exact n of each
script ladder point, and the `info` triples.  `sweep` and `scripts` outputs
are compared with SHA-256 digests recorded from the seed commit in
``digests.json``; `info` outputs go through the independent oracles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from math import gcd

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
SCRIPT_FILE = os.path.join(".perfbench_work", "script.json")

SWEEP_FAMILIES = (
    "thm1-even2", "thm1-even3", "thm2-single13", "thm2-single25",
    "thm2-2a", "thm2-3a", "thm2-2b", "thm2-3b", "thm2-2c", "thm2-3c",
    "al-2", "al-3",
)
SINGLE_FAMILIES = ("thm2-single13", "thm2-single25")
# p = 2 families reduce by blow-downs alone (sparse matrices); p = 3
# families need slides, which make the matrix dense
SCRIPT_GROUPS = (
    ("thm1-even2", "thm2-2a", "thm2-2b", "thm2-2c"),
    ("thm1-even3", "thm2-3a", "thm2-3b", "thm2-3c"),
)
SCRIPT_FAMILIES = SCRIPT_GROUPS[0] + SCRIPT_GROUPS[1]
# the points spread the cost (about n^3.3 on p = 3 families) so that most
# calls are cheap and a few reach n = 100.  With an odd number of points the
# median call falls inside the cluster of the middle point, not between two.
SCRIPT_LADDER = (2, 4, 7, 10, 15, 21, 28, 36, 46, 60, 99)

# info, long-chain stratum: Sigma(p, q, pqk +- 1) has about k + 3 vertices
CHAIN_SHAPES = ((2, 3), (2, 5), (3, 4), (2, 7), (3, 5))
CHAIN_ITEMS, CHAIN_V = 24, (20, 420)
# info, lattice-heavy stratum: (p-1)(q-1)(r-1) lattice points on small trees
LATTICE_ITEMS, LATTICE_POINTS, LATTICE_MAX_V = 16, (200_000, 1_000_000), 200
LATTICE_ANCHOR = (3, 298, 2087)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    key: str
    kind: str  # "sweep", "gen", "replay" or "info"


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def script_ns(seed: int) -> list[tuple[str, int]]:
    """n = point + 1 for a seeded half of each group at each point, and n =
    point for the other half, so every seed's round costs about the same."""
    rng = random.Random(f"scripts:{seed}")
    members = [(fam, 1) for fam in SINGLE_FAMILIES]
    for point in SCRIPT_LADDER:
        for group in SCRIPT_GROUPS:
            bumped = rng.sample(group, len(group) // 2)
            members += [(fam, point + (fam in bumped)) for fam in group]
    rng.shuffle(members)
    return members


def _chain_triple(rng: random.Random, v_target: int) -> tuple[int, int, int]:
    p, q = rng.choice(CHAIN_SHAPES)
    r = p * q * max(1, v_target - 3) + rng.choice((1, -1))
    return (p, q, r)


def _lattice_triple(rng: random.Random, points: int) -> tuple[int, int, int]:
    while True:
        p = rng.choice((3, 4, 5, 7, 8, 9, 11, 13))
        q = rng.randrange(p + 1, 90)
        r = points // ((p - 1) * (q - 1)) + 1
        if r <= q or gcd(p, q) > 1:
            continue
        while gcd(r, p) > 1 or gcd(r, q) > 1:
            r += 1
        if oracles.plumbing_vertices(p, q, r) <= LATTICE_MAX_V:
            return (p, q, r)


def info_triples(seed: int) -> list[tuple[int, int, int]]:
    """Stratified draw: item i of a stratum lands in the i-th equal slice of
    its size range, so every seed gets the same spread of costs."""
    rng = random.Random(f"info:{seed}")
    lo, hi = CHAIN_V
    triples = [
        _chain_triple(rng, lo + (hi - lo) * i // CHAIN_ITEMS + rng.randrange((hi - lo) // CHAIN_ITEMS))
        for i in range(CHAIN_ITEMS)
    ]
    lo, hi = LATTICE_POINTS
    triples += [
        _lattice_triple(rng, lo + (hi - lo) * i // LATTICE_ITEMS + rng.randrange((hi - lo) // LATTICE_ITEMS))
        for i in range(LATTICE_ITEMS)
    ]
    triples.append(LATTICE_ANCHOR)
    rng.shuffle(triples)
    return triples


def calls_for(workload: str, seed: int) -> list[Call]:
    if workload == "sweep":
        fams = list(SWEEP_FAMILIES)
        random.Random(f"sweep:{seed}").shuffle(fams)
        return [Call(("family", fam, "1", "100", "--csv"), fam, "sweep") for fam in fams]
    if workload == "scripts":
        calls = []
        for fam, n in script_ns(seed):
            key = f"{fam}:{n}"
            calls.append(Call(("gen-script", fam, str(n), "-o", SCRIPT_FILE), key, "gen"))
            calls.append(Call(("replay", SCRIPT_FILE, "--trace"), key, "replay"))
        return calls
    if workload == "info":
        return [
            Call(("info", *map(str, t), "--json", "--casson"), ",".join(map(str, t)), "info")
            for t in info_triples(seed)
        ]
    raise KeyError(workload)


def import_cli(root: str):
    """Import `brieskorn.cli` from ``<root>/src``, and from nowhere else.

    Raises ImportError when the checkout has no package source, so the
    harness never measures an installed copy by mistake.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "brieskorn", "__init__.py")):
        raise ImportError(f"no package source under {src}")
    sys.path.insert(0, src)
    import brieskorn.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"brieskorn imported from {cli.__file__}, not {src}")
    return cli


def invoke(cli, argv) -> tuple[object, str, int]:
    """Run ``cli.main(argv)`` in-process: (exit code, stdout, CPU ns).

    Only the call itself is timed, in process CPU time (see speed.py).  `cli.main` is looked up at each call so
    that the traced pass's wrapper is the one that runs.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.process_time_ns()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed call, not a crash
            rc = f"exception {exc!r}"
        t1 = time.process_time_ns()
    return rc, out.getvalue(), t1 - t0


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks one call's exit code and output; returns (error, members).

    An `info` output that passed the oracles is remembered by digest, so a
    repeat of the same call is checked byte for byte against it.
    """

    def __init__(self, digests: dict):
        self.digests = digests
        self.info_ok: dict[str, str] = {}

    def __call__(self, call: Call, rc, stdout: str) -> tuple[str | None, int]:
        if rc != 0:
            return f"exit code {rc}", 0
        if call.kind == "sweep":
            if sha256(stdout) != self.digests["sweep"][call.key]:
                return "stdout digest", 0
            return None, stdout.count("\n") - 1
        if call.kind == "gen":
            want = self.digests["scripts"][call.key]
            if sha256(stdout) != want["gen_stdout"]:
                return "stdout digest", 0
            with open(SCRIPT_FILE, "rb") as fh:
                if sha256(fh.read()) != want["script_file"]:
                    return "script file digest", 0
            return None, 0
        if call.kind == "replay":
            if sha256(stdout) != self.digests["scripts"][call.key]["replay_stdout"]:
                return "stdout digest", 0
            return None, 1
        digest = sha256(stdout)
        known = self.info_ok.get(call.key)
        if known is not None:
            return (None, 1) if digest == known else ("output changed between calls", 0)
        try:
            error = oracles.check_info(tuple(int(x) for x in call.key.split(",")), json.loads(stdout))
        except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
            error = f"malformed output: {exc!r}"
        if error is None:
            self.info_ok[call.key] = digest
            return None, 1
        return error, 0
