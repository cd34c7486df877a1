"""Verification reports: claim evaluation, serialization round trips."""

import json
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn.report as report_mod
from brieskorn import FAMILIES, brieskorn_plumbing, build_report, family_sweep
from brieskorn.cli import main as cli_main
from brieskorn.errors import UnknownFamily
from brieskorn.plumbing import graph_invariants
from brieskorn.report import (
    CSV_HEADER,
    ClaimCheck,
    VerificationReport,
    family_notes,
    load_claims,
    triple_summary,
)
from brieskorn.seifert import validate_triple


class TestClaimsTable:
    def test_covers_every_family(self):
        claims = load_claims()["families"]
        assert set(claims) == set(FAMILIES)

    def test_every_family_checks_unimodularity_and_definiteness(self):
        for fam, entry in load_claims()["families"].items():
            names = {c["name"] for c in entry["claims"]}
            assert "unimodular" in names, fam
            assert "negative_definite" in names, fam


class TestBuildReport:
    def test_thm1_even2_passes(self):
        rep = build_report("thm1-even2", 2)
        assert rep.triple == (2, 11, 31)
        assert rep.vertex_count == 7
        assert rep.signature == -7
        assert rep.wu_square == -15
        assert rep.mubar == 1
        assert rep.obstructed
        assert rep.passed
        names = [c.name for c in rep.claims_checked]
        assert names == [
            "unimodular",
            "negative_definite",
            "vertex_count",
            "signature",
            "wu_square",
            "mubar",
        ]

    def test_parity_selects_claims(self):
        odd = build_report("thm1-even2", 3)
        even = build_report("thm1-even2", 4)
        odd_wu = next(c for c in odd.claims_checked if c.name == "wu_square")
        even_wu = next(c for c in even.claims_checked if c.name == "wu_square")
        assert odd_wu.expected == -8 and even_wu.expected == -17

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            build_report("nosuch", 1)


class TestSweep:
    def test_al_family_yields_odd_rows_only(self):
        reports = list(family_sweep("al-2", 1, 9))
        assert [rep.n for rep in reports] == [1, 3, 5, 7, 9]
        assert all(rep.mubar != 0 and rep.passed for rep in reports)

    def test_singleton_sweep_single_row(self):
        reports = list(family_sweep("thm2-single25", 1, 100))
        assert len(reports) == 1 and reports[0].n == 1

    def test_empty_sweep(self):
        assert list(family_sweep("al-2", 2, 2)) == []


class TestSerialization:
    def test_json_round_trip(self):
        rep = build_report("thm1-even3", 4)
        obj = json.loads(rep.to_json())
        obj["triple"] = tuple(obj["triple"])
        obj["claims_checked"] = tuple(
            ClaimCheck(c["name"], c["expected"], c["actual"], c["pass"]) for c in obj["claims_checked"]
        )
        assert VerificationReport(**{f: obj[f] for f in rep._fields}) == rep
        assert obj["script_replayed"] is None and obj["pass"] is rep.passed is True

    def test_json_key_order_stable(self):
        rep = build_report("thm2-2a", 1)
        keys = list(json.loads(rep.to_json()))
        assert keys == [
            "family",
            "n",
            "triple",
            "vertex_count",
            "determinant",
            "negative_definite",
            "signature",
            "wu_square",
            "mubar",
            "obstructed",
            "claims_checked",
            "script_replayed",
            "pass",
        ]

    def test_csv_round_trip(self):
        rep = build_report("thm1-even2", 5)
        row = rep.to_csv_row()
        cells = row.split(",")
        header = CSV_HEADER.split(",")
        assert len(cells) == len(header)
        parsed = dict(zip(header, cells))
        assert parsed["family"] == rep.family
        assert int(parsed["n"]) == rep.n
        assert (int(parsed["p"]), int(parsed["q"]), int(parsed["r"])) == rep.triple
        assert int(parsed["vertices"]) == rep.vertex_count
        assert int(parsed["det"]) == rep.determinant
        assert (parsed["neg_def"] == "true") == rep.negative_definite
        assert int(parsed["signature"]) == rep.signature
        assert int(parsed["wu_square"]) == rep.wu_square
        assert int(parsed["mubar"]) == rep.mubar
        assert (parsed["pass"] == "true") == rep.passed


class TestNotes:
    def test_variant_listing_flags(self):
        assert family_notes("thm2-2c", 1)
        assert family_notes("thm2-3b", 1)
        assert not family_notes("thm2-2b", 1)
        assert not family_notes("thm2-2c", 2)


class TestTripleSummary:
    def test_degenerate(self):
        obj = triple_summary(validate_triple(2, 3, 1), with_casson=False)
        assert obj["degenerate"] is True
        assert obj["mubar"] == 0
        assert obj["casson"] == 0  # Sigma(1,2,3) = S^3: the empty lattice count

    @pytest.mark.parametrize("with_casson", [False, True])
    @pytest.mark.parametrize("triple", [(1, 1, 1), (1, 2, 3), (1, 10**20, 10**30 + 1)])
    def test_s3_takes_the_general_route(self, triple, with_casson, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(report_mod, "brieskorn_plumbing", lambda t: built.append(t))
        obj = triple_summary(validate_triple(*triple), with_casson=with_casson)
        assert obj == {
            "triple": list(triple),
            "degenerate": True,
            "seifert": None,
            "plumbing": {"weights": [], "edges": []},
            "determinant": 1,
            "signature": 0,
            "negative_definite": True,
            "wu_class": [],
            "wu_square": 0,
            "mubar": 0,
            "obstructed": False,
            "casson": 0,
        }
        assert cli_main(["info", *map(str, triple), *["--casson"] * with_casson]) == 0
        assert capsys.readouterr().out.endswith("\ncasson: 0\n")
        assert built == []

    def test_casson_auto_for_cheap_shape(self):
        obj = triple_summary(validate_triple(2, 3, 13), with_casson=False)
        assert obj["casson"] == -2
        obj2 = triple_summary(validate_triple(2, 7, 19), with_casson=False)
        assert obj2["casson"] is None

    def test_casson_forced(self):
        obj = triple_summary(validate_triple(2, 3, 5), with_casson=True)
        assert obj["casson"] == -1


@st.composite
def coprime_triples(draw):
    """Pairwise coprime (p, q, r) in [2, 200] x [2, 200] x [2, 5000].

    Each component steps up from its drawn value, wrapping within its range,
    to the next value coprime to the components before it, so no draw is
    thrown away.
    """
    triple = []
    for lo, hi in ((2, 200), (2, 200), (2, 5000)):
        x = draw(st.integers(lo, hi))
        while any(gcd(x, y) != 1 for y in triple):
            x = lo if x == hi else x + 1
        triple.append(x)
    return triple


def assert_euler_cross_check(triple):
    """Neumann-Raymond: negative definite iff e < 0, |det| = a1*a2*a3*|e|."""
    graph = brieskorn_plumbing(triple)
    _, _, inv, _ = report_mod._member(triple)
    assert inv == graph_invariants(graph)
    _, s = graph.origin
    e = s.euler_number
    (a1, _), (a2, _), (a3, _) = s.legs
    assert inv.negative_definite == (e < 0)
    assert abs(inv.det) == a1 * a2 * a3 * abs(e)


class TestSeifertCrossCheck:
    def test_every_family_member_to_100(self):
        for fam in FAMILIES.values():
            for n in range(1, 101):
                if fam.admissible(n):
                    assert_euler_cross_check(fam.triple_of(n))

    @settings(deadline=None, max_examples=200)
    @given(coprime_triples())
    def test_random_coprime_triples(self, triple):
        assert_euler_cross_check(validate_triple(*triple))

    def test_disagreement_is_caught(self, monkeypatch):
        def doubled(graph):
            inv = graph_invariants(graph)
            return inv._replace(det=2 * inv.det)

        monkeypatch.setattr(report_mod, "graph_invariants", doubled)
        with pytest.raises(AssertionError, match="det"):
            triple_summary(validate_triple(2, 3, 7), with_casson=False)
        with pytest.raises(AssertionError, match="det"):
            build_report("thm1-even2", 1)
