"""Casson cross-check: lattice-point signature vs the surgery formula."""

from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brieskorn import (
    FAMILIES,
    TwistKnotFamily,
    brieskorn_plumbing,
    casson_brieskorn,
    casson_surgery_twist,
    milnor_fiber_signature,
    mubar,
    validate_triple,
)


class TestTwistKnots:
    def test_alexander_convention(self):
        assert TwistKnotFamily(0).alexander == ((0, -1),)
        assert TwistKnotFamily(1).alexander == ((1, 1), (0, -3), (-1, 1))
        assert TwistKnotFamily(2).alexander == ((1, 2), (0, -5), (-1, 2))  # stevedore

    def test_alexander_at_one_is_unit(self):
        for n in range(0, 20):
            assert abs(sum(c for _, c in TwistKnotFamily(n).alexander)) == 1

    def test_palindromic(self):
        for n in range(0, 20):
            coeffs = dict((e, c) for e, c in TwistKnotFamily(n).alexander)
            assert all(coeffs.get(-e) == c for e, c in coeffs.items())

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            TwistKnotFamily(-1)


class TestLatticeSignature:
    def test_degenerate_empty_range(self):
        s = milnor_fiber_signature(validate_triple(2, 3, 1))
        assert (s.sigma_plus, s.sigma_minus, s.sigma_zero) == (0, 0, 0)

    def test_sigma_2_3_5_all_eight_points_negative(self):
        # the 8 points (1,j,k) all have 1/2 + j/3 + k/5 in (1, 2)
        s = milnor_fiber_signature(validate_triple(2, 3, 5))
        assert (s.sigma_plus, s.sigma_minus, s.sigma_zero) == (0, 8, 0)
        assert s.sigma == -8

    def test_sigma_2_3_7(self):
        s = milnor_fiber_signature(validate_triple(2, 3, 7))
        assert sum(s) == 1 * 2 * 6
        assert s.sigma == -8

    def test_count_conservation_and_no_zeros(self):
        for triple in [(2, 3, 11), (2, 5, 7), (3, 4, 5), (2, 7, 19)]:
            t = validate_triple(*triple)
            s = milnor_fiber_signature(t)
            assert sum(s) == (t.p - 1) * (t.q - 1) * (t.r - 1)
            assert s.sigma_zero == 0

    def test_no_zeros_across_cheap_sweep(self):
        # Sigma(2,3,6n+1) up to n=100 plus every family's first member
        triples = [(2, 3, 6 * n + 1) for n in range(1, 101)]
        triples += [
            FAMILIES[f].triple_of(1).components for f in sorted(FAMILIES)
        ]
        for triple in triples:
            t = validate_triple(*triple)
            s = milnor_fiber_signature(t)
            assert s.sigma_zero == 0
            assert sum(s) == (t.p - 1) * (t.q - 1) * (t.r - 1)


class TestCasson:
    def test_brieskorn_values(self):
        assert casson_brieskorn(validate_triple(2, 3, 5)) == -1
        assert casson_brieskorn(validate_triple(2, 3, 7)) == -1
        assert casson_brieskorn(validate_triple(2, 3, 1)) == 0

    def test_surgery_values(self):
        assert casson_surgery_twist(0, 1) == 0
        assert abs(casson_surgery_twist(1, 1)) == 1
        assert abs(casson_surgery_twist(2, 1)) == 2
        assert casson_surgery_twist(3, -1) == -casson_surgery_twist(3, 1)

    def test_surgery_rejects_bad_m(self):
        with pytest.raises(ValueError):
            casson_surgery_twist(1, 2)

    def test_global_sign_cross_check(self):
        """One sign s makes lambda(Sigma(2,3,6n+1)) = s * surgery value, all n."""
        pairs = []
        for n in range(0, 11):
            lam = casson_brieskorn(validate_triple(2, 3, 6 * n + 1))
            pairs.append((lam, casson_surgery_twist(n, 1)))
        working = [
            s for s in (1, -1) if all(lam == s * sur for lam, sur in pairs)
        ]
        assert working == [-1]  # frozen: the conventions differ by one mirror
        assert all(abs(lam) == n for n, (lam, _) in enumerate(pairs))


@st.composite
def small_lattice_triples(draw, max_points=50_000):
    """Pairwise coprime 2 <= p < q < r with (p-1)(q-1)(r-1) <= max_points.

    q and r step up from their drawn values to the next value coprime to the
    components before them; the few steps that overshoot the bound are
    filtered out.
    """
    p = draw(st.integers(2, 36))
    q = draw(st.integers(p + 1, isqrt(max_points // (p - 1))))
    while gcd(p, q) != 1:
        q += 1
    r = draw(st.integers(q + 1, max(q + 1, max_points // ((p - 1) * (q - 1)) + 1)))
    while gcd(p, r) != 1 or gcd(q, r) != 1:
        r += 1
    assume((p - 1) * (q - 1) * (r - 1) <= max_points)
    return validate_triple(p, q, r)


def assert_rokhlin(t):
    assert (mubar(brieskorn_plumbing(t)).mubar - casson_brieskorn(t)) % 2 == 0, t


class TestRokhlin:
    """mu-bar = lambda (mod 2) for Brieskorn spheres.

    The plumbing side (tree kernel, Wu class) and the Milnor-fiber side
    (lattice count) share no code, so each checks the other.
    """

    @settings(deadline=None, max_examples=200)
    @given(small_lattice_triples())
    @example(validate_triple(2, 3, 5))
    def test_random_triples(self, t):
        assert_rokhlin(t)

    def test_family_members(self):
        for spec in FAMILIES.values():
            for n in range(1, 11):
                if spec.admissible(n):
                    assert_rokhlin(spec.triple_of(n))
