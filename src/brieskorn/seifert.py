"""Brieskorn triples, built-in parametrized families, and Seifert invariants.

A triple (p, q, r) of pairwise coprime positive integers names the Brieskorn
homology sphere Sigma(p,q,r), oriented as the link of the singularity, i.e. as
the boundary of its negative-definite plumbing.  With that orientation the
normalized Seifert invariants (b; (a1,b1), (a2,b2), (a3,b3)) are the unique
solution of

    b*a1*a2*a3 + b1*a2*a3 + b2*a1*a3 + b3*a1*a2 = -1,   0 < bi < ai.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import (
    DegenerateTriple,
    InadmissibleN,
    NonPositive,
    NotPairwiseCoprime,
    UnknownFamily,
)


class BrieskornTriple(namedtuple("BrieskornTriple", "p q r")):
    """Pairwise coprime positive triple, stored sorted ascending."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int):
        if not (1 <= p <= q <= r):
            raise ValueError("components must be positive and sorted ascending")
        return tuple.__new__(cls, (p, q, r))

    @property
    def components(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    @property
    def is_degenerate(self) -> bool:
        """True when a component equals 1, i.e. the triple denotes S^3."""
        return self.p == 1

    def __str__(self) -> str:
        return f"Sigma({self.p},{self.q},{self.r})"


class SeifertData(namedtuple("SeifertData", "b legs")):
    """Central weight b plus the three normalized exceptional-fiber pairs
    (alpha_i, beta_i), as a tuple of three int pairs."""

    __slots__ = ()

    def __new__(cls, b: int, legs):
        self = tuple.__new__(cls, (b, legs))
        for a, beta in legs:
            if not (0 < beta < a):
                raise ValueError(f"leg ({a},{beta}) violates 0 < beta < alpha")
        if self.defect() != -1:
            raise ValueError("Seifert equation not satisfied")
        return self

    def defect(self) -> int:
        """b*a1*a2*a3 + sum_i beta_i * (product of the other alphas)."""
        a1, a2, a3 = (leg[0] for leg in self.legs)
        prod = a1 * a2 * a3
        return self.b * prod + sum(beta * (prod // a) for a, beta in self.legs)

    @property
    def euler_number(self) -> Fraction:
        """b + sum beta_i/alpha_i; equals -1/(a1*a2*a3) exactly."""
        return Fraction(self.b) + sum(
            (Fraction(beta, a) for a, beta in self.legs), Fraction(0)
        )


def validate_triple(p: int, q: int, r: int) -> BrieskornTriple:
    """Check positivity and pairwise coprimality; return the sorted triple."""
    comps = (p, q, r)
    for c in comps:
        if not isinstance(c, int) or isinstance(c, bool):
            raise NonPositive(f"component {c!r} is not an integer")
        if c < 1:
            raise NonPositive(f"component {c} < 1")
    a, b, c = sorted(comps)
    for x, y in ((a, b), (a, c), (b, c)):
        g = gcd(x, y)
        if g > 1:
            raise NotPairwiseCoprime(f"gcd({x},{y}) = {g}")
    return BrieskornTriple(a, b, c)


def seifert_invariants(t: BrieskornTriple) -> SeifertData:
    """Normalized Seifert invariants of a non-degenerate triple.

    beta_i is pinned mod alpha_i by the defining equation (the product of the
    other two alphas is invertible mod alpha_i), and b is then forced.
    """
    if t.is_degenerate:
        raise DegenerateTriple(f"{t} has a unit component (S^3)")
    alphas = t.components
    prod = alphas[0] * alphas[1] * alphas[2]
    legs = []
    for a in alphas:
        others = prod // a
        beta = (-pow(others, -1, a)) % a
        legs.append((a, beta))
    num = -1 - sum(beta * (prod // a) for a, beta in legs)
    assert num % prod == 0
    return SeifertData(num // prod, tuple(legs))


class FamilySpec(namedtuple("FamilySpec", "id triple_coeffs parity n_exact", defaults=("all", None))):
    """One built-in family: affine triple formulas plus the admissible n set.

    ``triple_coeffs`` holds three (a, b) pairs meaning component = a*n + b.
    ``parity`` restricts n ("all" or "odd"); ``n_exact`` pins single-member
    families to one n value, or is None.
    """

    __slots__ = ()

    def admissible_range(self, lo: int, hi: int) -> range:
        """The admissible n in [lo, hi], in increasing order."""
        if self.n_exact is not None:
            return range(self.n_exact, self.n_exact + (lo <= self.n_exact <= hi))
        lo = max(lo, 1)
        if self.parity == "odd":
            return range(lo | 1, hi + 1, 2)
        return range(lo, hi + 1)

    def admissible(self, n: int) -> bool:
        return n in self.admissible_range(n, n)

    def triple_of(self, n: int) -> BrieskornTriple:
        if not self.admissible(n):
            raise InadmissibleN(f"n={n} not admissible for family {self.id}")
        p, q, r = (a * n + b for a, b in self.triple_coeffs)
        return validate_triple(p, q, r)


FAMILIES: dict[str, FamilySpec] = {
    spec.id: spec
    for spec in (
        FamilySpec("thm1-even2", ((0, 2), (4, 3), (12, 7))),
        FamilySpec("thm1-even3", ((0, 3), (3, 2), (12, 7))),
        FamilySpec("thm2-single13", ((0, 2), (0, 3), (0, 13)), n_exact=1),
        FamilySpec("thm2-single25", ((0, 2), (0, 3), (0, 25)), n_exact=1),
        FamilySpec("thm2-2a", ((0, 2), (4, 1), (4, 3))),
        FamilySpec("thm2-3a", ((0, 3), (3, 1), (3, 2))),
        FamilySpec("thm2-2b", ((0, 2), (4, 1), (20, 7))),
        FamilySpec("thm2-3b", ((0, 3), (3, 1), (21, 8))),
        FamilySpec("thm2-2c", ((0, 2), (4, 3), (20, 13))),
        FamilySpec("thm2-3c", ((0, 3), (3, 2), (21, 13))),
        FamilySpec("al-2", ((0, 2), (4, 1), (12, 5)), parity="odd"),
        FamilySpec("al-3", ((0, 3), (3, 1), (12, 5)), parity="odd"),
    )
}


def family_spec(family_id: str) -> FamilySpec:
    """The built-in family ``family_id``; UnknownFamily names the known ids."""
    spec = FAMILIES.get(family_id)
    if spec is None:
        raise UnknownFamily(f"unknown family {family_id!r}; the families are {', '.join(FAMILIES)}")
    return spec


def family(family_id: str, n: int) -> BrieskornTriple:
    """Triple of the built-in family ``family_id`` at parameter n."""
    return family_spec(family_id).triple_of(n)
