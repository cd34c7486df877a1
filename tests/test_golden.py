"""Byte-for-byte gates on CLI stdout.

`family <id> 1 100 --csv`, and `gen-script <id> <n>` followed by
`replay ... --trace` for every recorded n <= 30, must hash to the SHA-256
digests that the benchmark recorded in ``perfbench/digests.json`` (read here,
never written); `info <p> <q> <r> --json` must reproduce
``tests/golden/info.jsonl`` line for line.
"""

import hashlib
import json
from pathlib import Path

import pytest

from brieskorn import FAMILIES
from brieskorn.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())
SWEEP_DIGESTS = DIGESTS["sweep"]
# the script path the digests were recorded with; it is part of gen-script's stdout
SCRIPT_FILE = ".perfbench_work/script.json"
SCRIPT_KEYS = sorted(k for k in DIGESTS["scripts"] if int(k.split(":")[1]) <= 30)
INFO_LINES = (ROOT / "tests" / "golden" / "info.jsonl").read_text().splitlines(keepends=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_digests_cover_every_family():
    assert sorted(SWEEP_DIGESTS) == sorted(FAMILIES)


@pytest.mark.parametrize("family_id", sorted(SWEEP_DIGESTS))
def test_family_csv_digest(family_id, capsys):
    assert main(["family", family_id, "1", "100", "--csv"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == SWEEP_DIGESTS[family_id]


@pytest.mark.parametrize("key", SCRIPT_KEYS)
def test_script_digests(key, tmp_path, monkeypatch, capsys):
    family_id, n = key.split(":")
    want = DIGESTS["scripts"][key]
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".perfbench_work").mkdir()
    assert main(["gen-script", family_id, n, "-o", SCRIPT_FILE]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == want["gen_stdout"]
    assert sha256((tmp_path / SCRIPT_FILE).read_bytes()) == want["script_file"]
    assert main(["replay", SCRIPT_FILE, "--trace"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == want["replay_stdout"]


@pytest.mark.parametrize(
    "line", INFO_LINES, ids=lambda line: ",".join(map(str, json.loads(line)["triple"]))
)
def test_info_json(line, capsys):
    p, q, r = json.loads(line)["triple"]
    assert main(["info", str(p), str(q), str(r), "--json"]) == 0
    assert capsys.readouterr().out == line
