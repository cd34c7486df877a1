"""Verification reports: computed invariants checked against the claim table.

The expected values per family live in data/claims.json, not in code, so a
disagreement between computation and expectation is a data diff.  A report
carries every computed invariant, the claim-by-claim comparison, and an
optional script-replay result.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from . import kirby
from .casson import casson_brieskorn
from .errors import BrieskornError
from .plumbing import Invariants, PlumbingGraph, brieskorn_plumbing, graph_invariants
from .seifert import FAMILIES, BrieskornTriple, UnknownFamily
from .wu import characteristic_numbers, mubar_of

CSV_HEADER = "family,n,p,q,r,vertices,det,neg_def,signature,wu_square,mubar,pass"


class ClaimCheck(NamedTuple):
    name: str
    expected: object
    actual: object
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


class VerificationReport(NamedTuple):
    family: str
    n: int
    triple: tuple[int, int, int]
    vertex_count: int
    determinant: int
    negative_definite: bool
    signature: int
    wu_square: int
    mubar: int
    obstructed: bool
    claims_checked: tuple[ClaimCheck, ...]
    script_replayed: tuple[str, bool] | None = None

    @property
    def passed(self) -> bool:
        ok = all(c.passed for c in self.claims_checked)
        if self.script_replayed is not None:
            ok = ok and self.script_replayed[1]
        return ok

    def to_json_obj(self) -> dict:
        obj = {
            "family": self.family,
            "n": self.n,
            "triple": list(self.triple),
            "vertex_count": self.vertex_count,
            "determinant": self.determinant,
            "negative_definite": self.negative_definite,
            "signature": self.signature,
            "wu_square": self.wu_square,
            "mubar": self.mubar,
            "obstructed": self.obstructed,
            "claims_checked": [c.to_json_obj() for c in self.claims_checked],
            "script_replayed": (
                None
                if self.script_replayed is None
                else {"name": self.script_replayed[0], "pass": self.script_replayed[1]}
            ),
            "pass": self.passed,
        }
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
            _csv_bool(self.negative_definite),
            self.signature,
            self.wu_square,
            self.mubar,
            _csv_bool(self.passed),
        ]
        return ",".join(str(c) for c in cells)


def _csv_bool(b: bool) -> str:
    return "true" if b else "false"


def report_from_json(text: str) -> VerificationReport:
    obj = json.loads(text)
    return VerificationReport(
        family=obj["family"],
        n=obj["n"],
        triple=tuple(obj["triple"]),
        vertex_count=obj["vertex_count"],
        determinant=obj["determinant"],
        negative_definite=obj["negative_definite"],
        signature=obj["signature"],
        wu_square=obj["wu_square"],
        mubar=obj["mubar"],
        obstructed=obj["obstructed"],
        claims_checked=tuple(
            ClaimCheck(c["name"], c["expected"], c["actual"], c["pass"])
            for c in obj["claims_checked"]
        ),
        script_replayed=(
            None
            if obj.get("script_replayed") is None
            else (obj["script_replayed"]["name"], obj["script_replayed"]["pass"])
        ),
    )


@lru_cache(maxsize=1)
def load_claims() -> dict:
    text = resources.files("brieskorn.data").joinpath("claims.json").read_text()
    return json.loads(text)


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


def _expected_of(claim: dict, n: int):
    test = claim["test"]
    kind = test["type"]
    if kind == "affine":
        return test["a"] * n + test["b"]
    if kind == "eq":
        return test["value"]
    if kind == "abs_eq":
        return f"|x| = {test['value']}"
    if kind == "nonzero":
        return "!= 0"
    raise ValueError(f"unknown claim test {kind!r}")


def _check(claim: dict, n: int, actual) -> bool:
    test = claim["test"]
    kind = test["type"]
    if kind == "affine":
        return actual == test["a"] * n + test["b"]
    if kind == "eq":
        return actual == test["value"]
    if kind == "abs_eq":
        return abs(actual) == test["value"]
    if kind == "nonzero":
        return actual != 0
    raise ValueError(f"unknown claim test {kind!r}")


def build_report(family_id: str, n: int, replay_script: bool = False) -> VerificationReport:
    """Compute all invariants of family member n and check the claim table."""
    spec = FAMILIES.get(family_id)
    if spec is None:
        raise UnknownFamily(family_id)
    triple = spec.triple_of(n)
    graph = brieskorn_plumbing(triple)
    inv = _seifert_checked_invariants(graph)
    # not via wu.mubar_of, so that a failure of the unimodularity or
    # definiteness claims is reported instead of raised
    sig, w2, mu_value = characteristic_numbers(graph, inv)
    computed = {
        "vertex_count": graph.vertex_count,
        "determinant": inv.det,
        "negative_definite": inv.negative_definite,
        "signature": sig,
        "wu_square": w2,
        "mubar": mu_value,
    }
    checks = []
    for claim in load_claims()["families"][family_id]["claims"]:
        if not _claim_applies(claim, n):
            continue
        actual = computed[claim["target"]]
        checks.append(
            ClaimCheck(claim["name"], _expected_of(claim, n), actual, _check(claim, n, actual))
        )
    replayed = None
    if replay_script:
        if family_id in kirby.SCRIPTED_FAMILIES:
            script = kirby.script_generator(family_id, n)
            try:
                kirby.replay(script)
                replayed = (script.name, True)
            except BrieskornError:
                replayed = (script.name, False)
        else:
            replayed = (f"{family_id}:n={n}", False)
    return VerificationReport(
        family=family_id,
        n=n,
        triple=triple.components,
        vertex_count=graph.vertex_count,
        determinant=inv.det,
        negative_definite=inv.negative_definite,
        signature=sig,
        wu_square=w2,
        mubar=mu_value,
        obstructed=mu_value != 0,
        claims_checked=tuple(checks),
        script_replayed=replayed,
    )


def _seifert_checked_invariants(graph: PlumbingGraph) -> Invariants:
    """`graph_invariants`, cross-checked against the Seifert side.

    With e = b + sum beta_i/alpha_i, the star plumbing is negative definite
    iff e < 0, and |det| = alpha_1*alpha_2*alpha_3*|e| (Neumann-Raymond 1978).
    """
    inv = graph_invariants(graph)
    _, s = graph.origin
    e = s.euler_number
    (a1, _), (a2, _), (a3, _) = s.legs
    assert inv.negative_definite == (e < 0), "definiteness disagrees with e"
    assert abs(inv.det) == a1 * a2 * a3 * abs(e), "|det| disagrees with e"
    return inv


def family_sweep(family_id: str, n_from: int, n_to: int, replay_script: bool = False):
    """One report per admissible n in [n_from, n_to], each built on demand.

    An unknown family raises UnknownFamily here, before any report exists.
    """
    spec = FAMILIES.get(family_id)
    if spec is None:
        raise UnknownFamily(family_id)
    return (
        build_report(family_id, n, replay_script=replay_script)
        for n in range(n_from, n_to + 1)
        if spec.admissible(n)
    )


def triple_summary(t: BrieskornTriple, with_casson: bool) -> dict:
    """Everything the `info` command prints, as one deterministic dict."""
    if t.is_degenerate:
        obj = {
            "triple": list(t.components),
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
            "casson": 0,  # S^3; the empty lattice count costs nothing
        }
        return obj
    graph = brieskorn_plumbing(t)
    _, s = graph.origin
    inv = _seifert_checked_invariants(graph)
    mu = mubar_of(graph, inv)
    obj = {
        "triple": list(t.components),
        "degenerate": False,
        "seifert": {"b": s.b, "legs": [list(leg) for leg in s.legs]},
        "plumbing": graph.to_json_obj(),
        "determinant": inv.det,
        "signature": mu.signature,
        "negative_definite": inv.negative_definite,
        "wu_class": list(inv.wu),
        "wu_square": mu.wu_square,
        "mubar": mu.mubar,
        "obstructed": mu.obstructed,
    }
    obj["casson"] = (
        casson_brieskorn(t) if (with_casson or _is_cheap_casson(t)) else None
    )
    return obj


def _is_cheap_casson(t: BrieskornTriple) -> bool:
    """The Sigma(2,3,6n+1) shape, where the lattice count is trivially cheap."""
    return t.p == 2 and t.q == 3 and t.r % 6 == 1
