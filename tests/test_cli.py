"""CLI behaviour: commands, formats, and the exact exit-code contract."""

import json
import subprocess
import sys

import pytest

from brieskorn.cli import main
from brieskorn.report import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "info", "2", "7", "19")
        assert code == 0
        assert "signature: -6" in out
        assert "mubar: 0" in out

    def test_sigma_2_3_7_obstructed(self, capsys):
        code, out, _ = run(capsys, "info", "2", "3", "7")
        assert code == 0
        assert "mubar: 1" in out
        assert "obstructs_integral_ball: true" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "info", "2", "3", "13", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["signature"] == -5
        assert obj["mubar"] == 0
        assert obj["casson"] == -2

    def test_invalid_triple_exit_2(self, capsys):
        code, _, err = run(capsys, "info", "2", "4", "6")
        assert code == 2
        assert "gcd" in err

    def test_degenerate_triple(self, capsys):
        code, out, _ = run(capsys, "info", "1", "1", "1")
        assert code == 0
        assert "S^3" in out


class TestFamily:
    def test_csv_columns_exact(self, capsys):
        code, out, _ = run(capsys, "family", "thm1-even2", "1", "10", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        assert lines[1].startswith("thm1-even2,1,2,7,19,6,")

    def test_json_rows_round_trip(self, capsys):
        from brieskorn.report import report_from_json

        code, out, _ = run(capsys, "family", "thm1-even3", "1", "4", "--json")
        assert code == 0
        rows = [report_from_json(line) for line in out.strip().splitlines()]
        assert [r.n for r in rows] == [1, 2, 3, 4]
        assert all(r.passed for r in rows)

    def test_al_family_odd_rows_only(self, capsys):
        code, out, _ = run(capsys, "family", "al-2", "1", "9", "--csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [int(r.split(",")[1]) for r in rows] == [1, 3, 5, 7, 9]
        assert all(int(r.split(",")[10]) != 0 for r in rows)  # mubar column

    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run(capsys, "family", "nosuch", "1", "2")
        assert code == 2

    def test_claim_failure_exit_1(self, capsys, monkeypatch):
        import copy

        import brieskorn.report as report_mod

        rigged = copy.deepcopy(report_mod.load_claims())
        for claim in rigged["families"]["thm2-2a"]["claims"]:
            if claim["name"] == "mubar":
                claim["test"] = {"type": "eq", "value": 7}
        monkeypatch.setattr(report_mod, "load_claims", lambda: rigged)
        code, out, _ = run(capsys, "family", "thm2-2a", "1", "3")
        assert code == 1
        assert "FAIL" in out and "expected 7" in out

    def test_sweep_all_families_under_60s(self, capsys):
        import time

        from brieskorn import FAMILIES

        t0 = time.monotonic()
        for fam in sorted(FAMILIES):
            code, _, _ = run(capsys, "family", fam, "1", "100", "--csv")
            assert code == 0
        assert time.monotonic() - t0 < 60.0

    def test_text_mode_mentions_variant_listing(self, capsys):
        code, out, _ = run(capsys, "family", "thm2-2c", "1", "2")
        assert code == 0
        assert "note:" in out and "Sigma(2,7,44)" in out


class TestReplay:
    def test_generated_script_replays(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen-script", "thm1-even2", "3", "-o", str(tmp_path / "s.json")
        )
        assert code == 0
        code, out, _ = run(capsys, "replay", str(tmp_path / "s.json"))
        assert code == 0
        assert "replay ok" in out

    def test_trace_is_json_lines(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        run(capsys, "gen-script", "thm2-single13", "1", "-o", str(path))
        code, out, _ = run(capsys, "replay", str(path), "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        step_objs = [json.loads(line) for line in lines if line.startswith("{")]
        assert step_objs
        for i, obj in enumerate(step_objs, start=1):
            assert list(obj) == ["step", "op", "det", "legal"]
            assert obj["step"] == i
            assert obj["legal"] is True
            assert abs(obj["det"]) == 1

    def test_perturbed_expect_exit_1(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        run(capsys, "gen-script", "thm1-even3", "2", "-o", str(path))
        obj = json.loads(path.read_text())
        obj["expect"]["matrix"][0][0] += 1
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "replay", str(path))
        assert code == 1
        assert "mismatch" in err

    def test_illegal_step_exit_1(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        script = {
            "name": "bad",
            "initial": {"labels": ["a"], "matrix": [[-2]]},
            "moves": [{"op": "blowdown", "component": "a"}],
            "expect": {"labels": [], "matrix": []},
            "annotations": [],
        }
        path.write_text(json.dumps(script))
        code, _, err = run(capsys, "replay", str(path))
        assert code == 1

    def test_truncated_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"name": "x", "initial"')
        code, _, err = run(capsys, "replay", str(path))
        assert code == 3

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "replay", "/nonexistent/path.json")
        assert code == 3

    def test_non_utf8_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b'\xff\xfe{"name": "x"}')
        code, _, err = run(capsys, "replay", str(path))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deeply_nested_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "replay", str(path))
        assert code == 3
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1

    def test_huge_integer_literal_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"name": ' + "9" * 5000 + "}")
        code, _, err = run(capsys, "replay", str(path))
        assert code == 3
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1


class TestGenScript:
    def test_unsupported_family_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-script", "al-2", "1", "-o", str(tmp_path / "x"))
        assert code == 2

    def test_inadmissible_n_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen-script", "thm1-even2", "0", "-o", str(tmp_path / "x")
        )
        assert code == 2


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "brieskorn.cli", "info", "2", "3", "7", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mubar"] == 1

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "brieskorn.cli", "family", "thm1-even2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
