"""Byte-for-byte gates on CLI stdout.

`family <id> 1 100 --csv` must hash to the SHA-256 digests that the
benchmark recorded in ``perfbench/digests.json`` (read here, never written),
and `info <p> <q> <r> --json` must reproduce ``tests/golden/info.jsonl`` line
for line.
"""

import hashlib
import json
from pathlib import Path

import pytest

from brieskorn import FAMILIES
from brieskorn.cli import main

ROOT = Path(__file__).resolve().parent.parent
SWEEP_DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())["sweep"]
INFO_LINES = (ROOT / "tests" / "golden" / "info.jsonl").read_text().splitlines(keepends=True)


def test_digests_cover_every_family():
    assert sorted(SWEEP_DIGESTS) == sorted(FAMILIES)


@pytest.mark.parametrize("family_id", sorted(SWEEP_DIGESTS))
def test_family_csv_digest(family_id, capsys):
    assert main(["family", family_id, "1", "100", "--csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SWEEP_DIGESTS[family_id]


@pytest.mark.parametrize(
    "line", INFO_LINES, ids=lambda line: ",".join(map(str, json.loads(line)["triple"]))
)
def test_info_json(line, capsys):
    p, q, r = json.loads(line)["triple"]
    assert main(["info", str(p), str(q), str(r), "--json"]) == 0
    assert capsys.readouterr().out == line
