"""Verification reports: computed invariants checked against the claim table.

The expected values per family live in data/claims.json, not in code, so a
disagreement between computation and expectation is a data diff.  A report
carries every computed invariant and the claim-by-claim comparison.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from functools import lru_cache

from .casson import casson_brieskorn
from .errors import UnsupportedFamily
from .plumbing import (
    PlumbingGraph,
    brieskorn_plumbing,
    graph_invariants,
    star_exceeds,
)
from .seifert import BrieskornTriple, family_spec
from .wu import mubar_of

CSV_HEADER = "family,n,p,q,r,vertices,det,neg_def,signature,wu_square,mubar,pass"

#: Largest plumbing `info` builds and prints, and largest member `family`
#: checks, counted by `star_exceeds` before anything is built.
#: Sigma(2,3,599983) has exactly this many vertices; its `info` takes about
#: 1 s and 64 MB.
MAX_INFO_VERTICES = 100_000

#: Most lattice points `info --casson` counts, (p-1)(q-1)(r-1), checked
#: before counting.  The count runs at 4-6 million points/s (Python 3.11,
#: 2 shared cores): Sigma(7,11,833334), just below the cap, takes about 9 s.
MAX_CASSON_POINTS = 50_000_000


class ClaimCheck(namedtuple("ClaimCheck", "name expected actual passed")):
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


class VerificationReport(namedtuple(
    "VerificationReport",
    "family n triple vertex_count determinant negative_definite signature wu_square mubar "
    "obstructed claims_checked",
)):
    """One family member's invariants, ``triple`` as (p, q, r), and its
    ``claims_checked`` as a tuple of ClaimCheck."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims_checked)

    def to_json_obj(self) -> dict:
        obj = self._asdict()
        obj["triple"] = list(self.triple)
        obj["claims_checked"] = [c.to_json_obj() for c in self.claims_checked]
        obj["script_replayed"] = None  # kept so the key order stays fixed
        obj["pass"] = self.passed
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def to_csv_row(self) -> str:
        p, q, r = self.triple
        cells = [
            self.family,
            self.n,
            p,
            q,
            r,
            self.vertex_count,
            self.determinant,
            fmt_bool(self.negative_definite),
            self.signature,
            self.wu_square,
            self.mubar,
            fmt_bool(self.passed),
        ]
        return ",".join(str(c) for c in cells)


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


@lru_cache(maxsize=1)
def load_claims() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data", "claims.json"), encoding="utf-8") as fh:
        return json.load(fh)


def family_notes(family_id: str, n: int) -> list[str]:
    """Informational flags attached to specific family members."""
    entry = load_claims()["families"].get(family_id, {})
    return [note["note"] for note in entry.get("notes", []) if note.get("n") == n]


def _claim_applies(claim: dict, n: int) -> bool:
    parity = claim.get("parity", "all")
    if parity == "even":
        return n % 2 == 0
    if parity == "odd":
        return n % 2 == 1
    return True


def _evaluate(claim: dict, n: int, actual) -> tuple[object, bool]:
    """(expected value as printed, whether ``actual`` meets it)."""
    test = claim["test"]
    kind = test["type"]
    if kind == "affine":
        expected = test["a"] * n + test["b"]
        return expected, actual == expected
    if kind == "eq":
        return test["value"], actual == test["value"]
    if kind == "abs_eq":
        return f"|x| = {test['value']}", abs(actual) == test["value"]
    if kind == "nonzero":
        return "!= 0", actual != 0
    raise ValueError(f"unknown claim test {kind!r}")


def build_report(family_id: str, n: int) -> VerificationReport:
    """Invariants of family member n, by `_member` as for `info`, checked
    against the claim table.

    A member above `MAX_INFO_VERTICES` raises UnsupportedFamily before its
    plumbing is built.
    """
    triple = family_spec(family_id).triple_of(n)
    if star_exceeds(triple, MAX_INFO_VERTICES):
        raise UnsupportedFamily(
            f"{family_id} n={n}: more than {MAX_INFO_VERTICES} plumbing vertices, "
            "the cap for family"
        )
    _, graph, inv, mu = _member(triple)
    computed = {
        "vertex_count": graph.vertex_count,
        "determinant": inv.det,
        "negative_definite": inv.negative_definite,
        "signature": mu.signature,
        "wu_square": mu.wu_square,
        "mubar": mu.mubar,
    }
    checks = []
    for claim in load_claims()["families"][family_id]["claims"]:
        if not _claim_applies(claim, n):
            continue
        actual = computed[claim["target"]]
        expected, passed = _evaluate(claim, n, actual)
        checks.append(ClaimCheck(claim["name"], expected, actual, passed))
    return VerificationReport(
        family_id, n, triple.components, **computed,
        obstructed=mu.obstructed, claims_checked=tuple(checks),
    )


def _member(t: BrieskornTriple):
    """(Seifert data, plumbing, `graph_invariants` record, `mubar_of` result)
    of a triple; S^3 has no Seifert data and the empty plumbing.

    The record is cross-checked against the Seifert side: with
    e = b + sum beta_i/alpha_i, the star plumbing is negative definite iff
    e < 0, and |det| = alpha_1*alpha_2*alpha_3*|e| (Neumann-Raymond 1978).
    """
    if t.is_degenerate:
        s, graph = None, PlumbingGraph((), ())
    else:
        graph = brieskorn_plumbing(t)
        _, s = graph.origin
    inv = graph_invariants(graph)
    if s is not None:
        e = s.euler_number
        (a1, _), (a2, _), (a3, _) = s.legs
        assert inv.negative_definite == (e < 0), "definiteness disagrees with e"
        assert abs(inv.det) == a1 * a2 * a3 * abs(e), "|det| disagrees with e"
    return s, graph, inv, mubar_of(graph, inv)


def family_sweep(family_id: str, n_from: int, n_to: int):
    """One report per admissible n in [n_from, n_to], each built on demand.

    An unknown family raises UnknownFamily here, before any report exists.
    """
    members = family_spec(family_id).admissible_range(n_from, n_to)
    return (build_report(family_id, n) for n in members)


def triple_summary(t: BrieskornTriple, with_casson: bool) -> dict:
    """Everything the `info` command prints, as one deterministic dict.

    Raises UnsupportedFamily above `MAX_INFO_VERTICES`, or with ``with_casson``
    above `MAX_CASSON_POINTS`, before anything is built or counted."""
    if not t.is_degenerate and star_exceeds(t, MAX_INFO_VERTICES):
        raise UnsupportedFamily(
            f"{t} has more than {MAX_INFO_VERTICES} plumbing vertices, the cap for info"
        )
    if with_casson and (t.p - 1) * (t.q - 1) * (t.r - 1) > MAX_CASSON_POINTS:
        raise UnsupportedFamily(
            f"{t} has more than {MAX_CASSON_POINTS} lattice points, the cap for --casson"
        )
    s, graph, inv, mu = _member(t)
    return {
        "triple": list(t.components),
        "degenerate": t.is_degenerate,
        "seifert": None if s is None else {"b": s.b, "legs": [list(leg) for leg in s.legs]},
        "plumbing": graph.to_json_obj(),
        "determinant": inv.det,
        "signature": mu.signature,
        "negative_definite": inv.negative_definite,
        "wu_class": list(inv.wu),
        "wu_square": mu.wu_square,
        "mubar": mu.mubar,
        "obstructed": mu.obstructed,
        "casson": casson_brieskorn(t) if (with_casson or _is_cheap_casson(t)) else None,
    }


def _is_cheap_casson(t: BrieskornTriple) -> bool:
    """S^3, whose lattice count is empty, or the Sigma(2,3,6n+1) shape, where
    it is trivially cheap."""
    return t.p == 1 or (t.p == 2 and t.q == 3 and t.r % 6 == 1)
