"""Spherical Wu class and the Neumann-Siebenmann invariant mu-bar.

For a plumbing with unimodular intersection matrix A the spherical Wu class
is the unique vector w with coordinates in {0, 1} satisfying

    A w = diag(A)  (mod 2),

i.e. the characteristic-vector condition w.x = x.x (mod 2) for all x.  With w
lifted to an integer 0/1 vector,

    mubar = (signature(A) - w^T A w) / 8,

an integer by van der Blij's lemma.  mubar != 0 obstructs bounding an
integral homology ball.

w comes from the GF(2) half of `plumbing.tree_invariants`, the same
leaf-first pass that gives det and the signature, so `wu_class` takes
forest-shaped matrices only, as every plumbing's intersection matrix is.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import EvenDeterminant, NotNegativeDefinite, NotUnimodular
from .plumbing import (
    IntMatrix,
    Invariants,
    PlumbingGraph,
    _forest_invariants,
    graph_invariants,
)


class WuClass(namedtuple("WuClass", "coords")):
    """0/1 coordinates of the spherical Wu class, one per vertex."""

    __slots__ = ()

    def __new__(cls, coords):
        if any(c not in (0, 1) for c in coords):
            raise ValueError("Wu coordinates must be 0 or 1")
        return tuple.__new__(cls, (coords,))


class MubarResult(namedtuple("MubarResult", "signature wu_square mubar obstructed")):
    __slots__ = ()


def wu_class(m: IntMatrix) -> WuClass:
    """Unique {0,1} solution of A w = diag(A) mod 2.  Requires det(A) odd.

    Found by `tree_invariants`, so m must be forest-shaped, as every
    plumbing's intersection matrix is; any other matrix raises ValueError.
    """
    coords = _forest_invariants(m).wu
    if coords is None:
        raise EvenDeterminant("intersection form is singular over GF(2)")
    return WuClass(coords)


def wu_square(m: IntMatrix, w: WuClass) -> int:
    """w^T A w over the integers, with w lifted as a 0/1 vector."""
    support = [i for i, c in enumerate(w.coords) if c]
    total = 0
    for i in support:
        row = m.entries[i]
        for j in support:
            total += row[j]
    return total


def mubar_of(g: PlumbingGraph, inv: Invariants) -> MubarResult:
    """`mubar` for a plumbing whose invariant record is already at hand.

    wu_square is the weight sum over the Wu support plus 2 per edge inside
    it; |det| = 1 makes the Wu class exist.
    """
    if inv.det not in (1, -1):
        raise NotUnimodular(f"|det| = {abs(inv.det)}")
    if not inv.negative_definite:
        raise NotNegativeDefinite("plumbing form is not negative definite")
    w = inv.wu
    sig = inv.n_plus - inv.n_minus
    w2 = sum(x for x, c in zip(g.weights, w) if c)
    w2 += 2 * sum(w[i] & w[j] for i, j in g.edges)
    assert (sig - w2) % 8 == 0, "van der Blij violated: implementation bug"
    mu = (sig - w2) // 8
    return MubarResult(signature=sig, wu_square=w2, mubar=mu, obstructed=mu != 0)


def mubar(g: PlumbingGraph) -> MubarResult:
    """Neumann-Siebenmann invariant of a negative-definite unimodular plumbing.

    (signature - wu_square)/8 with everything computed in the plumbing basis.
    Refuses indefinite or non-unimodular input instead of extrapolating.
    """
    return mubar_of(g, graph_invariants(g))
