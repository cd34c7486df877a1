"""Casson-invariant cross-check, independent of all plumbing code.

Two routes to the Casson invariant of Sigma(2,3,6n+1):

* Brieskorn side: the lattice-point signature of the Milnor fiber.  Count
  triples (i,j,k), 0 < i < p, 0 < j < q, 0 < k < r, according to where
  i/p + j/q + k/r lands mod 2: in (0,1) it counts +1, in (1,2) it counts -1.
  The Casson invariant is that signature divided by 8.
* Surgery side: lambda(S^3_{1/m}(K)) = (m/2) * Alex''_K(1) applied to the
  twist knot K_n with Alexander polynomial n*t - (2n+1) + n*t^(-1), so the
  value is m*n.

The two must agree up to one global sign fixed once for all n.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotDivisibleBy8
from .seifert import BrieskornTriple


class TwistKnotFamily(namedtuple("TwistKnotFamily", "n")):
    """Twist knot K_n; K_0 is the unknot, K_2 the stevedore knot."""

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 0:
            raise ValueError("twist-knot parameter must be >= 0")
        return tuple.__new__(cls, (n,))

    @property
    def alexander(self) -> tuple[tuple[int, int], ...]:
        """Laurent coefficients of Alex(t) as (exponent, coefficient) pairs.

        The n = 0 case degenerates to the constant -1, the unknot polynomial
        up to the usual unit ambiguity.
        """
        n = self.n
        if n == 0:
            return ((0, -1),)
        return ((1, n), (0, -(2 * n + 1)), (-1, n))

    def alexander_second_derivative_at_one(self) -> int:
        """d^2/dt^2 of the Laurent polynomial, evaluated at t = 1."""
        return sum(c * e * (e - 1) for e, c in self.alexander)


class LatticeSignature(namedtuple("LatticeSignature", "sigma_plus sigma_minus sigma_zero")):
    __slots__ = ()

    @property
    def sigma(self) -> int:
        return self.sigma_plus - self.sigma_minus


def milnor_fiber_signature(t: BrieskornTriple) -> LatticeSignature:
    """Exact lattice-point count; Theta(pqr) time, integer arithmetic only.

    i/p + j/q + k/r = N/(pqr) with N = i*qr + j*pr + k*pq, so the class mod 2
    is read off N mod 2pqr.  Degenerate triples have an empty index range and
    return zero counts (S^3).
    """
    p, q, r = t.components
    pqr = p * q * r
    two_pqr = 2 * pqr
    plus = minus = zero = 0
    for i in range(1, p):
        base_i = i * q * r
        for j in range(1, q):
            base_ij = base_i + j * p * r
            for k in range(1, r):
                n_val = (base_ij + k * p * q) % two_pqr
                if 0 < n_val < pqr:
                    plus += 1
                elif n_val == 0 or n_val == pqr:
                    zero += 1
                else:
                    minus += 1
    return LatticeSignature(plus, minus, zero)


def casson_brieskorn(t: BrieskornTriple) -> int:
    """Casson invariant via the Milnor-fiber signature divided by 8."""
    sig = milnor_fiber_signature(t).sigma
    if sig % 8 != 0:
        raise NotDivisibleBy8(f"lattice signature {sig} for {t}")
    return sig // 8


def casson_surgery_twist(n: int, m: int) -> int:
    """Casson invariant of 1/m surgery on the twist knot K_n: (m/2)*Alex''(1)."""
    if m not in (1, -1):
        raise ValueError("only integral 1/m surgery with m = +-1 is supported")
    dd = TwistKnotFamily(n).alexander_second_derivative_at_one()
    assert dd % 2 == 0
    return m * dd // 2
