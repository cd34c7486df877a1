"""Where `import brieskorn.cli` spends its time, module by module.

    python3 tools/importtime.py [--runs 11]

Runs ``python -I -X importtime`` on ``import brieskorn.cli`` in fresh
interpreters (one extra first run only warms the bytecode cache and is
dropped) and prints, for every module that import loads, the median self and
cumulative import time in microseconds, as a tree: each module above the
modules it imports.  Modules the interpreter loaded before (``site`` and
what it imports) are not part of the tree.  This is the by-layer view of the
benchmark's ``setup_s``, which times the same import plus
``report.load_claims()``, with one difference: ``setup_s`` starts its clock
only after ``perfbench/speed.py`` has imported ``statistics``, and with it
``fractions``, ``decimal`` and ``random``.  Those subtrees of the tree cost a
user's process but not ``setup_s``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def one_run(src: str) -> list[tuple[str, int, int, int]]:
    """(module, depth, self_us, cumulative_us) for the import of brieskorn.cli."""
    code = f"import sys; sys.path.insert(0, {src!r}); import brieskorn.cli"
    done = subprocess.run(
        [sys.executable, "-I", "-X", "importtime", "-c", code],
        capture_output=True, text=True, check=True,
    )
    block = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, field = line[len("import time:"):].split("|")
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        block.append((name, depth, int(self_us), int(cum_us)))
        if depth == 0:  # a top-level import ends here; children are listed first
            if name == "brieskorn.cli":
                return block
            block = []
    raise RuntimeError("no import of brieskorn.cli in the -X importtime output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11)
    args = parser.parse_args(argv)
    runs = [one_run(SRC) for _ in range(args.runs + 1)][1:]
    self_us: dict[str, list[int]] = {}
    cum_us: dict[str, list[int]] = {}
    for run in runs:
        for name, _, s, c in run:
            self_us.setdefault(name, []).append(s)
            cum_us.setdefault(name, []).append(c)
    print(f"import brieskorn.cli: median of {args.runs} runs (python -I -X importtime), us")
    print(f"{'self':>8} {'cumul':>8}  module")
    for name, depth, _, _ in reversed(runs[0]):
        print(f"{statistics.median(self_us[name]):8.0f} {statistics.median(cum_us[name]):8.0f}  "
              f"{'  ' * depth}{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
