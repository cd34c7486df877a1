"""Check that two checkouts print the same thing for the same CLI calls.

    python3 tools/same_output.py PARENT CHANGE

Runs one fixed corpus of calls through each checkout's ``brieskorn.cli.main``,
in a fresh ``python -I`` child with that checkout's ``src/`` first on
``sys.path`` and a new temporary directory as its working directory.  Then
compares the two sides call by call: exit code, stdout, stderr, and the bytes
of every file the call wrote.  Prints the number of calls and of differing
calls and the first few that differ; exits 1 if any differ, else 0.

The corpus:

* ``family``: all 12 families, n = 1..100, as text, ``--csv`` and ``--json``;
* ``info``: the triples of ``tests/golden/info.jsonl`` (read from CHANGE),
  300 seeded random pairwise coprime triples and S^3 as (1,1,1), (1,2,3)
  and (1, 10^20, 10^30 + 1), each
  with no flag, ``--json``, ``--casson`` and both;
* the four size-cap refusals (``family``, ``info``, ``info --casson``,
  ``gen-script``), invalid triples and other usage errors;
* ``gen-script``, then ``replay`` with and without ``--trace``, for every
  scripted family at n = 1..30 (n = 1 and 2 for the singletons);
* hand-written scripts, replayed with and without ``--trace``: linked
  blow-ups onto a forest and into a cycle, a 3-cycle link, zero moves, empty
  links, final mismatches, illegal steps and unreadable files.

An uncaught exception is compared by its type and message, not its
traceback, whose paths name the checkout.  Stdlib only; nothing is written
into either checkout.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from math import gcd

FAMILIES = [
    "thm1-even2", "thm1-even3", "thm2-single13", "thm2-single25", "thm2-2a", "thm2-3a",
    "thm2-2b", "thm2-3b", "thm2-2c", "thm2-3c", "al-2", "al-3",
]
SCRIPTED = [f for f in FAMILIES if not f.startswith("al-")]
INFO_FLAGS = [[], ["--json"], ["--casson"], ["--json", "--casson"]]
SHOW = 5

# Runs inside each child: argv[1] is the checkout's src/, stdin the corpus,
# argv[2] the file the results go to.  The working directory is a new
# temporary directory.
CHILD = r"""
import io, json, os, sys
src, out_path = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
from brieskorn.cli import main
import brieskorn
assert os.path.dirname(os.path.dirname(os.path.abspath(brieskorn.__file__))) == os.path.abspath(src)
corpus = json.load(sys.stdin)
for name, text in corpus["files"].items():
    with open(name, "wb") as fh:
        fh.write(text.encode("latin-1"))

def snapshot():
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(".")}

results = []
real_out, real_err = sys.stdout, sys.stderr
for argv in corpus["calls"]:
    before = snapshot()
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            code = 0
        elif not isinstance(code, int):
            print(code, file=err)
            code = 1
    except BaseException as exc:
        print(f"uncaught {type(exc).__name__}: {exc}", file=err)
        code = 1
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    after = snapshot()
    files = {}
    for name in sorted(after):
        if before.get(name) != after[name]:
            with open(name, "rb") as fh:
                files[name] = fh.read().decode("latin-1")
    results.append([code, out.getvalue(), err.getvalue(), files])
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def _link(labels, matrix):
    return {"labels": labels, "matrix": matrix}


def _script(name, initial, moves, expect):
    return json.dumps({"name": name, "initial": initial, "moves": moves, "expect": expect})


FOREST = _link(["a", "b"], [[-2, 1], [1, -2]])
CHAIN3 = _link(["a", "b", "c"], [[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
CYCLE3 = _link(["p", "x", "y"], [[-1, 1, 1], [1, -2, 1], [1, 1, -3]])
EMPTY = _link([], [])

HAND_SCRIPTS = {
    "linked-forest.json": _script(
        "linked-forest", FOREST, [{"op": "blowup", "sign": -1, "linking": [1, 0], "label": "c"}],
        _link(["a", "b", "c"], [[-2, 1, 1], [1, -2, 0], [1, 0, -1]])),
    "linked-cycle.json": _script(
        "linked-cycle", CHAIN3, [{"op": "blowup", "sign": 1, "linking": [1, 0, 1], "label": "d"}],
        _link(["a", "b", "c", "d"], [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, 1]])),
    "cycle-blowdown.json": _script(
        "cycle-blowdown", CYCLE3, [{"op": "blowdown", "component": "p"}],
        _link(["x", "y"], [[-1, 2], [2, -2]])),
    "slide.json": _script(
        "slide", _link(["x", "y"], [[-2, 1], [1, -3]]),
        [{"op": "slide", "moving": "x", "over": "y", "sign": 1}],
        _link(["x", "y"], [[-3, -2], [-2, -3]])),
    "zero-forest.json": _script("zero-forest", FOREST, [], FOREST),
    "zero-cycle.json": _script("zero-cycle", CYCLE3, [], CYCLE3),
    "zero-empty.json": _script("zero-empty", EMPTY, [], EMPTY),
    "mismatch-matrix.json": _script(
        "mismatch-matrix", FOREST, [], _link(["a", "b"], [[-2, 1], [1, -3]])),
    "mismatch-labels.json": _script("mismatch-labels", FOREST, [], _link(["b", "a"], [[-2, 1], [1, -2]])),
    "mismatch-after-move.json": _script(
        "mismatch-after-move", FOREST, [{"op": "blowup", "sign": -1, "linking": [1, 0], "label": "c"}],
        FOREST),
    "illegal-blowdown.json": _script(
        "illegal-blowdown", FOREST, [{"op": "blowdown", "component": "a"}], _link(["b"], [[-2]])),
    "illegal-slide.json": _script(
        "illegal-slide", FOREST, [{"op": "slide", "moving": "a", "over": "a", "sign": 1}], FOREST),
    "illegal-label.json": _script(
        "illegal-label", FOREST, [{"op": "blowdown", "component": "z"}], FOREST),
    "bad-json.json": "{",
    "bad-utf8.json": "\xff\xfe",
    "bad-op.json": _script("bad-op", FOREST, [{"op": "twist"}], FOREST),
}


def _random_triples(rng: random.Random, count: int) -> list[list[int]]:
    """Sorted pairwise coprime triples with at most 5*10^4 lattice points."""
    triples = []
    while len(triples) < count:
        p, q, r = sorted(rng.randint(2, hi) for hi in (30, 200, 5000))
        if (gcd(p, q) == gcd(p, r) == gcd(q, r) == 1 and p < q < r
                and (p - 1) * (q - 1) * (r - 1) <= 50_000):
            triples.append([p, q, r])
    return triples


def corpus(change: str) -> dict:
    calls = []
    for fam in FAMILIES:
        for fmt in ([], ["--csv"], ["--json"]):
            calls.append(["family", fam, "1", "100", *fmt])
    with open(os.path.join(change, "tests", "golden", "info.jsonl"), encoding="utf-8") as fh:
        golden = [json.loads(line)["triple"] for line in fh if line.strip()]
    s3 = [t for t in ([1, 1, 1], [1, 2, 3], [1, 10**20, 10**30 + 1]) if t not in golden]
    for triple in golden + _random_triples(random.Random(1), 300) + s3:
        for flags in INFO_FLAGS:
            calls.append(["info", *map(str, triple), *flags])
    calls += [
        ["family", "thm1-even2", "100000", "100000"],
        ["info", "2", "3", "600001"],
        ["info", "7", "11", "833335", "--casson"],
        ["info", "3787324501", "4869338171", "5781183222", "--casson"],
        ["gen-script", "thm1-even2", "1996", "-o", "over-cap.json"],
        ["info", "2", "4", "7"],
        ["info", "6", "10", "15"],
        ["info", "0", "2", "3"],
        ["info", "-1", "2", "3"],
        ["info", "3", "2", "5"],
        ["info", "2", "3", "x"],
        ["info", "2", "3"],
        ["info", "--help"],
        ["family", "nosuch", "1", "3"],
        ["family", "al-2", "5", "1"],
        ["family", "al-2", "1", "3", "--csv", "--json"],
        ["gen-script", "al-2", "1", "-o", "al.json"],
        ["gen-script", "nosuch", "1", "-o", "nosuch.json"],
        ["gen-script", "thm1-even2", "1"],
        ["replay", "missing.json"],
        ["nosuch"],
        [],
    ]
    for fam in SCRIPTED:
        for n in (1, 2) if "single" in fam else range(1, 31):  # n = 2: a singleton's refusal
            name = f"{fam}-{n}.json"
            calls += [["gen-script", fam, str(n), "-o", name], ["replay", name], ["replay", name, "--trace"]]
    for name in HAND_SCRIPTS:
        calls += [["replay", name], ["replay", name, "--trace"]]
    return {"files": HAND_SCRIPTS, "calls": calls}


def run_side(root: str, work: dict) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.path.join(tmp, "work")
        os.mkdir(cwd)
        out = os.path.join(tmp, "results.json")
        subprocess.run(
            [sys.executable, "-I", "-c", CHILD, os.path.join(os.path.abspath(root), "src"), out],
            cwd=cwd, input=json.dumps(work), text=True, check=True,
        )
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            k = next((k for k, (c, d) in enumerate(zip(x, y)) if c != d), min(len(x), len(y)))
            lo = max(0, k - 40)
            return f"line {i + 1} col {k + 1}: {x[lo:k + 40]!r} != {y[lo:k + 40]!r}"
    if len(la) == len(lb):
        return "line endings differ"
    return f"{len(la)} lines != {len(lb)} lines"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = args
    work = corpus(change)
    sides = [run_side(root, work) for root in (parent, change)]
    differing = []
    for argv_, a, b in zip(work["calls"], *sides):
        if a == b:
            continue
        why = []
        for label, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                why.append(f"{label} {x} != {y}" if label == "exit code" else f"{label} {_first_difference(x, y)}")
        for name in sorted(set(a[3]) | set(b[3])):
            if a[3].get(name) != b[3].get(name):
                why.append(f"file {name} differs")
        differing.append((argv_, why))
    print(f"{len(work['calls'])} calls, {len(differing)} differing")
    for argv_, why in differing[:SHOW]:
        print(f"  brieskorn {' '.join(argv_)}: {'; '.join(why)}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
