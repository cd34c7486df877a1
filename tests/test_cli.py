"""CLI behaviour: commands, formats, and the exact exit-code contract."""

import argparse
import contextlib
import copy
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn
import brieskorn.report as report_mod
from brieskorn import cli
from brieskorn.cli import main
from brieskorn.errors import ScriptFormatError, UnsupportedFamily
from brieskorn.kirby import FramedLink, script_from_json, script_generator
from brieskorn.plumbing import IntMatrix, brieskorn_plumbing, star_exceeds
from brieskorn.report import CSV_HEADER, triple_summary
from brieskorn.seifert import validate_triple


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


class TestInfoVertexCap:
    def test_cap_boundary(self, capsys, monkeypatch):
        builds = []
        build = report_mod.brieskorn_plumbing
        monkeypatch.setattr(report_mod, "brieskorn_plumbing", lambda t: builds.append(t) or build(t))
        vertices = brieskorn_plumbing(validate_triple(2, 3, 31)).vertex_count
        monkeypatch.setattr(report_mod, "MAX_INFO_VERTICES", vertices)
        code, out, err = run(capsys, "info", "2", "3", "31", "--json")
        assert code == 0 and err == "" and len(builds) == 1
        assert len(json.loads(out)["plumbing"]["weights"]) == vertices
        monkeypatch.setattr(report_mod, "MAX_INFO_VERTICES", vertices - 1)
        code, out, err = run(capsys, "info", "2", "3", "31", "--json")
        assert code == 2 and out == "" and len(builds) == 1
        assert err == (
            f"error: Sigma(2,3,31) has more than {vertices - 1} plumbing vertices, "
            "the cap for info\n"
        )

    def test_documented_cap(self, capsys):
        # Sigma(2,3,6n+1) has n + 3 vertices: the README's example sits at the cap
        at_cap = validate_triple(2, 3, 599983)
        assert not star_exceeds(at_cap, report_mod.MAX_INFO_VERTICES)
        assert star_exceeds(at_cap, report_mod.MAX_INFO_VERTICES - 1)
        assert star_exceeds(validate_triple(2, 3, 599989), report_mod.MAX_INFO_VERTICES)
        code, out, err = run(capsys, "info", "2", "3", "599989")
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_library_call_refused_before_building(self, monkeypatch):
        def build(t):
            raise AssertionError(f"{t} built above the cap")

        monkeypatch.setattr(report_mod, "brieskorn_plumbing", build)
        with pytest.raises(UnsupportedFamily, match="plumbing vertices, the cap for info$"):
            triple_summary(validate_triple(2, 3, 599989), with_casson=False)

    @pytest.mark.parametrize(
        "triple",
        [
            ("2", "3", "6000000001"),
            ("3787324501", "4869338171", "5781183222"),
            ("2", "3", "6" + "0" * 38 + "1"),
            (
                "6388450390790556548189020906751708896823",
                "6908469657620774915364963883356997097837",
                "8345840256347086790396283776985898924194",
            ),
        ],
    )
    def test_huge_triples_end_within_a_second(self, capsys, triple):
        start = time.perf_counter()
        code, out, err = run(capsys, "info", *triple)
        assert time.perf_counter() - start < 1
        assert code in (0, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and out.startswith(f"triple: Sigma({','.join(triple)})")


class TestInfoCassonCap:
    # the triple from the earlier report of `info --casson` never ending:
    # 458 plumbing vertices, about 10**29 lattice points
    HUGE = ("3787324501", "4869338171", "5781183222")

    def test_cap_boundary(self, capsys, monkeypatch):
        counts = []
        count = report_mod.casson_brieskorn
        monkeypatch.setattr(report_mod, "casson_brieskorn", lambda t: counts.append(t) or count(t))
        points = 1 * 4 * 6  # Sigma(2,5,7)
        monkeypatch.setattr(report_mod, "MAX_CASSON_POINTS", points)
        code, out, err = run(capsys, "info", "2", "5", "7", "--casson", "--json")
        assert code == 0 and err == "" and len(counts) == 1
        assert json.loads(out)["casson"] == count(validate_triple(2, 5, 7))
        monkeypatch.setattr(report_mod, "MAX_CASSON_POINTS", points - 1)
        code, out, err = run(capsys, "info", "2", "5", "7", "--casson")
        assert (code, out, len(counts)) == (2, "", 1)
        assert err == f"error: Sigma(2,5,7) has more than {points - 1} lattice points, the cap for --casson\n"
        # without --casson this triple is not counted, so nothing is refused
        code, out, err = run(capsys, "info", "2", "5", "7")
        assert code == 0 and "casson: skipped" in out and len(counts) == 1

    def test_documented_cap(self):
        # the largest automatic count, Sigma(2,3,599983) at the vertex cap
        # (see TestInfoVertexCap), and the largest benchmark `info` count,
        # Sigma(3,298,2087), stay below the cap
        assert 1 * 2 * (599983 - 1) < report_mod.MAX_CASSON_POINTS
        assert 2 * 297 * 2086 < report_mod.MAX_CASSON_POINTS

    def test_huge_count_refused_within_a_second(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "info", *self.HUGE, "--casson")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: Sigma({','.join(self.HUGE)}) has more than ")
        assert err.count("\n") == 1

    def test_library_call_refused_before_counting(self, monkeypatch):
        def count(t):
            raise AssertionError(f"{t} counted above the cap")

        monkeypatch.setattr(report_mod, "casson_brieskorn", count)
        with pytest.raises(UnsupportedFamily, match="lattice points, the cap for --casson$"):
            triple_summary(validate_triple(*map(int, self.HUGE)), with_casson=True)


JSON_INTS = st.integers() | st.integers(-(10**80), 10**80) | st.sampled_from([0, -1, 2**63, -(2**64)])
JSON_LISTS = st.recursive(
    st.lists(JSON_INTS, max_size=6), lambda inner: st.lists(inner, min_size=1, max_size=4), max_leaves=24
)
SUMMARY_VALUES = st.recursive(
    JSON_INTS | st.booleans() | st.none() | JSON_LISTS,
    lambda inner: st.dictionaries(st.text(max_size=6), inner, max_size=6),
    max_leaves=30,
)


class TestInfoJson:
    @settings(max_examples=300, deadline=None)
    @given(SUMMARY_VALUES)
    def test_emitter_equals_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value)

    @pytest.mark.parametrize("where", [lambda x: {"a": x}, lambda x: {"a": [1, x]}, lambda x: {"a": [[x]]}])
    def test_too_long_int_raises_the_same_error(self, where):
        value = where(10 ** (sys.get_int_max_str_digits() + 1))
        with pytest.raises(ValueError) as expected:
            json.dumps(value)
        with pytest.raises(ValueError) as got:
            cli._json(value)
        assert str(got.value) == str(expected.value)

    def test_long_chain_summary(self):
        summary = triple_summary(validate_triple(3, 5, 6104), with_casson=False)
        assert len(summary["plumbing"]["weights"]) == 424
        assert cli._json(summary) == json.dumps(summary)


class TestFamily:
    def test_csv_columns_exact(self, capsys):
        code, out, _ = run(capsys, "family", "thm1-even2", "1", "10", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        assert lines[1].startswith("thm1-even2,1,2,7,19,6,")

    def test_json_rows_round_trip(self, capsys):
        code, out, _ = run(capsys, "family", "thm1-even3", "1", "4", "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        assert all(r["pass"] and all(c["pass"] for c in r["claims_checked"]) for r in rows)
        assert all(r["script_replayed"] is None for r in rows)

    def test_al_family_odd_rows_only(self, capsys):
        code, out, _ = run(capsys, "family", "al-2", "1", "9", "--csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [int(r.split(",")[1]) for r in rows] == [1, 3, 5, 7, 9]
        assert all(int(r.split(",")[10]) != 0 for r in rows)  # mubar column
        # from an even or non-positive n the sweep starts at the next odd n >= 1
        for lo, first in (("4", 5), ("-4", 1)):
            code, out, _ = run(capsys, "family", "al-2", lo, "9", "--csv")
            assert code == 0
            assert [int(r.split(",")[1]) for r in out.strip().splitlines()[1:]] == list(range(first, 10, 2))

    def test_unknown_family_exit_2(self, capsys):
        code, out, err = run(capsys, "family", "nosuch", "1", "2")
        assert (code, out) == (2, "")
        assert err == f"error: unknown family 'nosuch'; the families are {', '.join(brieskorn.FAMILIES)}\n"
        code, out, err = run(capsys, "family", "nosuch", "1", "2", "--csv")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("fmt", [[], ["--csv"], ["--json"]])
    def test_each_row_is_written_before_the_next_report_is_built(self, fmt, monkeypatch):
        import brieskorn.report as report_mod

        out = io.StringIO()
        written = []
        build = report_mod.build_report

        def recording(*args, **kwargs):
            written.append(len(out.getvalue()))
            return build(*args, **kwargs)

        monkeypatch.setattr(report_mod, "build_report", recording)
        with contextlib.redirect_stdout(out):
            assert main(["family", "thm2-2a", "1", "4", *fmt]) == 0
        assert len(written) == 4
        assert all(a < b for a, b in zip(written, written[1:]))

    @pytest.mark.parametrize("fmt", [[], ["--csv"], ["--json"]])
    def test_vertex_cap_boundary(self, capsys, monkeypatch, fmt):
        # thm1-even2 member n has n + 5 vertices; members 1..3 fit under 8
        code, expected, _ = run(capsys, "family", "thm1-even2", "1", "3", *fmt)
        assert code == 0
        if not fmt:
            expected = expected[: expected.index("checked ")]
        builds = []
        build = report_mod.brieskorn_plumbing
        monkeypatch.setattr(report_mod, "brieskorn_plumbing", lambda t: builds.append(t) or build(t))
        monkeypatch.setattr(report_mod, "MAX_INFO_VERTICES", 8)
        code, out, err = run(capsys, "family", "thm1-even2", "1", "5", *fmt)
        assert (code, out) == (2, expected)
        assert err == "error: thm1-even2 n=4: more than 8 plumbing vertices, the cap for family\n"
        assert [t.components for t in builds] == [(2, 7, 19), (2, 11, 31), (2, 15, 43)]

    def test_documented_vertex_cap(self, capsys):
        spec = brieskorn.FAMILIES["thm1-even2"]
        at_cap = spec.triple_of(report_mod.MAX_INFO_VERTICES - 5)
        assert not star_exceeds(at_cap, report_mod.MAX_INFO_VERTICES)
        assert star_exceeds(at_cap, report_mod.MAX_INFO_VERTICES - 1)
        start = time.perf_counter()
        code, out, err = run(capsys, "family", "thm1-even2", "100000", "100000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: thm1-even2 n=100000: more than 100000 plumbing vertices, the cap for family\n"

    @pytest.mark.parametrize("fam, lo, fmt", [("thm2-single13", "1", []), ("thm2-single25", "2", ["--csv"])])
    def test_single_member_sweep_skips_inadmissible_n(self, capsys, fam, lo, fmt):
        # only admissible n are visited, so a range of 10**18 costs nothing
        expected = run(capsys, "family", fam, lo, lo, *fmt)
        start = time.perf_counter()
        got = run(capsys, "family", fam, lo, str(10**18), *fmt)
        assert time.perf_counter() - start < 1
        assert got == expected

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

    def test_labels_object_exit_3(self, tmp_path, capsys):
        # a JSON object is not a label list, even though iterating it yields "a"
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "labels",
            "initial": {"labels": {"a": 1}, "matrix": [[-1]]},
            "moves": [],
            "expect": {"labels": ["a"], "matrix": [[-1]]},
        }))
        code, _, err = run(capsys, "replay", str(path))
        assert code == 3
        assert "labels must be a list" in err

    def test_integer_labels_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "labels",
            "initial": {"labels": [1], "matrix": [[-1]]},
            "moves": [{"op": "blowdown", "component": 1}],
            "expect": {"labels": [], "matrix": []},
        }))
        code, _, err = run(capsys, "replay", str(path))
        assert code == 3
        assert "string label" in err

    def test_matrix_object_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "m",
            "initial": {"labels": [], "matrix": {}},
            "moves": [],
            "expect": {"labels": [], "matrix": []},
        }))
        code, _, err = run(capsys, "replay", str(path))
        assert code == 3
        assert "list of lists" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("name", ["a", 1], "name must be a string"),
            # a string is not a list of annotations, though iterating it yields strings
            ("annotations", "abc", "annotations must be a list of strings"),
            ("annotations", ["ok", 1], "annotations must be a list of strings"),
            ("annotations", {"a": "b"}, "annotations must be a list of strings"),
        ],
    )
    def test_non_string_name_or_annotations_exit_3(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "s.json"
        script = {
            "name": "s",
            "initial": {"labels": [], "matrix": []},
            "moves": [],
            "expect": {"labels": [], "matrix": []},
        }
        path.write_text(json.dumps({**script, field: value}))
        code, out, err = run(capsys, "replay", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_number_too_long_to_print_exit_1(self, tmp_path, capsys):
        # a legal blow-down squares a 4000-digit linking number: the replay
        # succeeds, but its determinant and final entry exceed the digits
        # str() will render
        x = int("9" * 4000)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "big",
            "initial": {"labels": ["a", "b"], "matrix": [[-1, x], [x, 0]]},
            "moves": [{"op": "blowdown", "component": "a"}],
            "expect": {"labels": ["b"], "matrix": [[0]]},
        }))
        code, _, err = run(capsys, "replay", str(path), "--trace")
        assert code == 1
        assert err.startswith("replay failed: ") and err.count("\n") == 1

    def test_zero_move_trace_has_no_blank_line(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        empty = {"labels": [], "matrix": []}
        path.write_text(json.dumps({"name": "x", "initial": empty, "moves": [], "expect": empty}))
        assert run(capsys, "replay", str(path), "--trace") == (0, "replay ok: x (0 moves)\n", "")
        assert run(capsys, "replay", str(path)) == (0, "replay ok: x (0 moves)\n", "")


SCRIPT_KEYS = (
    "name", "initial", "moves", "expect", "annotations", "labels", "matrix",
    "op", "component", "moving", "over", "sign", "linking", "label",
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["blowdown", "slide", "blowup", "a"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCRIPT_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=24,
)
BASE_SCRIPTS = [
    script_generator(fam, 1).to_json_obj() for fam in ("thm1-even2", "thm2-3a", "thm2-single13")
]


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_scripts(draw):
    """A generated script with one field mutated: a value of another type,
    ragged rows, a bool or float entry, a label dropped or duplicated, or a
    key deleted."""
    obj = copy.deepcopy(draw(st.sampled_from(BASE_SCRIPTS)))
    paths = list(_paths(obj))[1:]
    kind = draw(st.sampled_from(["swap", "entry", "ragged", "drop_label", "dup_label", "delete"]))
    if kind in ("ragged", "entry"):
        paths = [p for p in paths if len(p) >= 2 and p[-2] == "matrix"]
    elif kind in ("drop_label", "dup_label"):
        paths = [p for p in paths if p[-1] == "labels" and len(obj[p[0]]["labels"]) >= 2]
    path = draw(st.sampled_from(paths))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]]
    if kind == "swap":
        parent[path[-1]] = draw(json_values)
    elif kind == "entry":
        target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from([True, False, 1.0, -1.5, None, "1"]))
    elif kind == "ragged":
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(0)
    elif kind == "drop_label":
        del target[draw(st.integers(0, len(target) - 1))]
    elif kind == "dup_label":
        target[1] = target[0]
    else:
        del parent[path[-1]]
    return json.dumps(obj)


@st.composite
def link_inputs(draw):
    """(labels, rows) as a script's JSON carries them: a labeled symmetric
    integer matrix with up to three defects, each a non-integer entry (bools,
    floats such as 1.0), an asymmetric entry, a ragged or missing row, a
    duplicate, non-string or missing label, or an extra label."""
    n = draw(st.integers(0, 4))
    values = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    rows = [[values[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    labels = [f"c{i}" for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["entry", "asym", "ragged", "row", "dup", "label", "count"]))
        if kind == "count":
            labels.append("extra") if draw(st.booleans()) or not labels else labels.pop()
            continue
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if kind == "entry" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from([True, False, 1.0, 0.0, -1.5, None, "1"])
            )
        elif kind == "asym" and row:
            j = draw(st.integers(0, len(row) - 1))
            if isinstance(row[j], int):
                row[j] += draw(st.sampled_from([1, -1]))
        elif kind == "ragged":
            row.append(0) if draw(st.booleans()) or not row else row.pop()
        elif kind == "row":
            del rows[i]
        elif kind == "dup" and len(labels) >= 2:
            labels[1] = labels[0]
        elif kind == "label" and labels:
            labels[draw(st.integers(0, len(labels) - 1))] = draw(
                st.sampled_from([0, 1.5, None, b"c0", ["c0"], "\u00e9"])
            )
    return labels, rows


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "script.json"


def replay_exit(path, text):
    """Exit code of `replay --trace` on text; the parser raises nothing but
    ScriptFormatError, and nothing may raise."""
    try:
        script_from_json(text)
    except ScriptFormatError:
        pass
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["replay", str(path), "--trace"])
    assert "Traceback" not in err.getvalue()
    return code


class TestReplayFuzz:
    @settings(deadline=None, max_examples=300)
    @given(json_values)
    def test_random_json_values(self, fuzz_file, value):
        assert replay_exit(fuzz_file, json.dumps(value)) in (0, 1, 3)

    @settings(deadline=None, max_examples=400)
    @given(mutated_scripts())
    def test_mutated_scripts(self, fuzz_file, text):
        assert replay_exit(fuzz_file, text) in (0, 1, 3)

    @settings(deadline=None, max_examples=400)
    @given(link_inputs())
    def test_parser_accepts_what_the_dense_constructor_accepts(self, inputs):
        # the parser builds sparse rows in one checked pass; with JSON string
        # labels it must accept and build exactly what the checked dense
        # route does
        labels, rows = inputs
        try:
            dense = IntMatrix.from_rows(rows)
        except ValueError:
            dense = None
        distinct = all(isinstance(x, str) for x in labels) and len(set(labels)) == len(labels)
        want = None
        if dense is not None and distinct and len(labels) == dense.n:
            want = FramedLink(tuple(labels), dense)
        try:
            got = FramedLink.from_json_obj({"labels": labels, "matrix": rows})
        except (TypeError, ValueError):
            got = None
        assert got == want
        if want is not None:
            assert hash(got) == hash(want)
            assert got.matrix == IntMatrix.from_rows(rows)

    def test_unmutated_bases_replay(self, fuzz_file):
        for obj in BASE_SCRIPTS:
            assert replay_exit(fuzz_file, json.dumps(obj)) == 0


class TestGenScript:
    def test_huge_n_refused_before_building(self, tmp_path, capsys):
        out_file = tmp_path / "huge.json"
        start = time.perf_counter()
        code, out, err = run(capsys, "gen-script", "thm2-3b", "1000000", "-o", str(out_file))
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen-script", "nosuch", "1", "-o", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown family 'nosuch'; scripts exist for thm1-even2, ")
        assert err.count("\n") == 1 and not (tmp_path / "x").exists()

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

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        src = str(Path(brieskorn.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "before = set(sys.modules)\n"
            "import brieskorn.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_startup_loads_no_argparse(self, tmp_path):
        # -S: a site preload (a .pth file) must not be what keeps these out
        src = str(Path(brieskorn.__file__).resolve().parent.parent)
        script = str(tmp_path / "s.json")
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "SLOW = {'argparse', 'gettext', 'locale', 'importlib.resources', 'typing'}\n"
            "import brieskorn.cli\n"
            "loaded = [sorted(SLOW & set(sys.modules))]\n"
            "# lazy imports would hide layers from the tracer and move memory into the calls\n"
            "assert {'brieskorn.kirby', 'brieskorn.casson', 'fractions'} <= set(sys.modules)\n"
            "for argv in (['info', '2', '3', '7', '--casson'], ['family', 'thm1-even2', '1', '2', '--csv'],\n"
            f"             ['gen-script', 'thm1-even2', '1', '-o', {script!r}], ['replay', {script!r}, '--trace']):\n"
            "    assert brieskorn.cli.main(argv) == 0\n"
            "    loaded.append(sorted(SLOW & set(sys.modules)))\n"
            "print(loaded, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[[], [], [], [], []]\n"

    def test_closed_stdout_exits_1_without_traceback(self):
        # about 200 KB of rows, far more than a pipe buffers: read one line and
        # close the pipe, as `| head -1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "brieskorn.cli", "family", "thm1-even2", "1", "2000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline().startswith("thm1-even2 n=1 ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, "")

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "brieskorn.cli", "family", "thm1-even2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse spec the CLI was parsed with; `cli._parse` must accept and
    refuse what it does, with the same exit codes and fields."""
    parser = argparse.ArgumentParser(prog="brieskorn")
    sub = parser.add_subparsers(dest="command", required=True)
    p_info = sub.add_parser("info")
    for name in ("p", "q", "r"):
        p_info.add_argument(name, type=int)
    p_info.add_argument("--json", action="store_true")
    p_info.add_argument("--casson", action="store_true")
    p_family = sub.add_parser("family")
    p_family.add_argument("id")
    p_family.add_argument("n_from", type=int)
    p_family.add_argument("n_to", type=int)
    fmt = p_family.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p_replay = sub.add_parser("replay")
    p_replay.add_argument("file")
    p_replay.add_argument("--trace", action="store_true")
    p_gen = sub.add_parser("gen-script")
    p_gen.add_argument("id")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("-o", "--output", required=True)
    return parser


ORACLE = argparse_oracle()


def parsed(parse, argv):
    """(exit code or "accepted", fields, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return "accepted", fields, out.getvalue(), err.getvalue()


def check_against_oracle(argv):
    want, want_fields, _, _ = parsed(ORACLE.parse_args, argv)
    got, fields, out, err = parsed(cli._parse, argv)
    if want == "accepted" and any(type(v) is list for v in want_fields.values()):
        # argparse 3.11 strips "--" out of every positional's strings, so a
        # literal "--" after the first one becomes [] where an int belongs,
        # and the command fails with a traceback; the parser refuses it
        want, want_fields = 2, None
    assert (got, fields) == (want, want_fields), argv
    if got == 0:
        assert (out, err) == (cli._COMMANDS + "\n", "")
    elif got == 2:
        usage, error = err.splitlines()
        assert out == "" and usage.startswith("usage: brieskorn ") and error.startswith("brieskorn: error: ")
    return got


ARGV_TOKENS = (
    st.sampled_from([
        "info", "family", "replay", "gen-script", "thm1-even2", "f.json", "", "-", "--", "x", "1.5",
        "-h", "--help", "--he", "-hh", "-hx", "-ho", "-hoF", "-h=", "--help=x", "--=x",
        "--json", "--js", "--json=1", "--casson", "--cas", "--csv", "--c", "--trace", "--tr",
        "-o", "-oF", "-o=F", "-o=", "--output", "--output=F", "--out=F", "--out", "--outputs",
        "--bogus", "-x", "-1", "-1.5", "-.5", "-1e3", "-1 2", "-x y", " 7", "1_000", "+3", "9" * 4301,
    ])
    | st.integers(-50, 50).map(str)
    | st.text(alphabet="-=hojcastr1. \n", max_size=6)
)


class TestArgvOracle:
    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(ARGV_TOKENS, max_size=1),
        st.sampled_from(["info", "family", "replay", "gen-script", "inf", "--", "-h", "x"]),
        st.lists(ARGV_TOKENS, max_size=7),
    )
    def test_parser_matches_argparse(self, before, command, after):
        check_against_oracle(before + [command] + after)

    @pytest.mark.parametrize("argv, code", [
        # accepted: options anywhere after the command, repeats, prefixes,
        # -o F / -oF / --output=F, "--", negative numbers as positionals
        (["info", "--json", "2", "--cas", "3", "--json", "7"], "accepted"),
        (["info", "-1", "2", "3"], "accepted"),
        (["info", "--", "-1", "-2", "-3"], "accepted"),
        (["info", "1", "2", "3", "--"], "accepted"),
        (["family", "thm1-even2", "1", "2", "--c"], "accepted"),
        (["gen-script", "-o", "F", "thm1-even2", "1"], "accepted"),
        (["gen-script", "thm1-even2", "-oF", "1"], "accepted"),
        (["gen-script", "thm1-even2", "1", "--output=F"], "accepted"),
        (["gen-script", "thm1-even2", "1", "--out=F", "-o", "G"], "accepted"),
        (["replay", "-h", "--bogus"], 0),
        (["--help"], 0),
        # refused
        ([], 2), (["--json"], 2), (["nope"], 2), (["--", "info", "1", "2", "3"], 2),
        (["info", "1", "2"], 2), (["info", "1", "2", "3", "4"], 2),
        (["info", "1", "2", "3", "--bogus"], 2), (["info", "1", "2", "x"], 2),
        (["info", "1", "2", "9" * 4301], 2), (["info", "1", "2", "3", "--json=1"], 2),
        (["info", "1", "2", "3", "--json", "--"], 2), (["info", "x", "-h"], 2),
        (["family", "thm1-even2", "1", "2", "--csv", "--json"], 2),
        (["gen-script", "thm1-even2", "1"], 2), (["gen-script", "thm1-even2", "1", "-o"], 2),
        (["gen-script", "thm1-even2", "1", "-o", "--", "F"], 2),
        (["replay", "f", "--=x"], 2),
    ])
    def test_documented_cases(self, argv, code):
        assert check_against_oracle(argv) == code

    def test_argparse_list_field_is_refused(self):
        assert parsed(ORACLE.parse_args, ["info", "1", "--", "--", "3"])[1]["q"] == []
        assert check_against_oracle(["info", "1", "--", "--", "3"]) == 2

    def test_help_is_the_commands_block(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Commands:"
        # the block names every command with its positionals and options
        for line, (command, (_, positionals, options)) in zip(lines[1:], cli._GRAMMAR.items(), strict=True):
            assert line.split()[0] == command
            assert line.count("<") == len(positionals) + ("-o" in options)
            assert all(option in line for option in options if option != "--output")
