"""Record ``digests.json``: SHA-256 of every output the fixed workloads check.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark was defined against the seed commit):

    python3 perfbench/record_digests.py

It covers every `sweep` call and every (family, n) any seed can draw for
`scripts`: the stdout of `gen-script`, the script file it writes, and the
stdout of `replay --trace`.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl

ROOT = os.path.dirname(wl.HERE)


def main() -> int:
    os.chdir(ROOT)
    os.makedirs(os.path.dirname(wl.SCRIPT_FILE), exist_ok=True)
    cli = wl.import_cli(ROOT)
    out = {"sweep": {}, "scripts": {}}
    for fam in wl.SWEEP_FAMILIES:
        rc, stdout, _ = wl.invoke(cli, ("family", fam, "1", "100", "--csv"))
        if rc != 0:
            raise SystemExit(f"family {fam}: exit code {rc}")
        out["sweep"][fam] = wl.sha256(stdout)
    members = [(fam, 1) for fam in wl.SINGLE_FAMILIES] + [
        (fam, point + j)
        for fam in wl.SCRIPT_FAMILIES
        for point in wl.SCRIPT_LADDER
        for j in (0, 1)
    ]
    for fam, n in members:
        rc, gen_out, _ = wl.invoke(cli, ("gen-script", fam, str(n), "-o", wl.SCRIPT_FILE))
        with open(wl.SCRIPT_FILE, "rb") as fh:
            script = fh.read()
        rc2, replay_out, _ = wl.invoke(cli, ("replay", wl.SCRIPT_FILE, "--trace"))
        if rc != 0 or rc2 != 0:
            raise SystemExit(f"{fam} n={n}: exit codes {rc}, {rc2}")
        out["scripts"][f"{fam}:{n}"] = {
            "gen_stdout": wl.sha256(gen_out),
            "script_file": wl.sha256(script),
            "replay_stdout": wl.sha256(replay_out),
        }
    with open(wl.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out['sweep'])} sweep and {len(out['scripts'])} script digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
