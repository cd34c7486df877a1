"""Wu class solver against exhaustive search; mu-bar values and obstruction."""

import random

import pytest

from brieskorn import (
    FAMILIES,
    IntMatrix,
    MubarResult,
    brieskorn_plumbing,
    intersection_matrix,
    mubar,
    validate_triple,
    wu_class,
    wu_square,
)
from brieskorn.errors import EvenDeterminant, NotNegativeDefinite, NotUnimodular
from brieskorn.plumbing import Invariants, PlumbingGraph
from brieskorn.wu import mubar_of
from dense_oracle import _gf2_wu


def characteristic_vectors(m: IntMatrix):
    """Exhaustive {0,1}^n oracle for A w = diag(A) mod 2 (n <= 20)."""
    n = m.n
    rows = []
    diag = 0
    for i in range(n):
        mask = 0
        for j in range(n):
            if m.entries[i][j] & 1:
                mask |= 1 << j
        rows.append(mask)
        if m.entries[i][i] & 1:
            diag |= 1 << i
    hits = []
    for w in range(1 << n):
        ok = True
        for i in range(n):
            if (bin(rows[i] & w).count("1") & 1) != (diag >> i & 1):
                ok = False
                break
        if ok:
            hits.append(tuple(w >> j & 1 for j in range(n)))
    return hits


E8 = intersection_matrix(
    PlumbingGraph(
        (-2,) * 8, ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7))
    )
)


class TestWuClass:
    def test_e8_all_even_gives_zero(self):
        assert wu_class(E8).coords == (0,) * 8
        assert characteristic_vectors(E8) == [(0,) * 8]

    def test_sigma_2_3_7(self):
        m = intersection_matrix(brieskorn_plumbing(validate_triple(2, 3, 7)))
        # frozen from the exhaustive oracle over all 2^4 candidates
        assert characteristic_vectors(m) == [(0, 1, 1, 1)]
        assert wu_class(m).coords == (0, 1, 1, 1)

    def test_single_minus_one(self):
        assert wu_class(IntMatrix.from_rows([[-1]])).coords == (1,)

    def test_even_determinant_rejected(self):
        with pytest.raises(EvenDeterminant):
            wu_class(IntMatrix.from_rows([[2]]))
        with pytest.raises(EvenDeterminant):
            wu_class(IntMatrix.from_rows([[1, 0], [0, 2]]))

    def test_characteristic_property_enumeration(self):
        # w.x = x.x mod 2 for every 0/1 vector x, small plumbings
        for triple in [(2, 3, 5), (2, 3, 7), (2, 7, 19), (3, 5, 19)]:
            m = intersection_matrix(brieskorn_plumbing(validate_triple(*triple)))
            n = m.n
            w = wu_class(m).coords
            for x_bits in range(1 << n):
                x = [x_bits >> j & 1 for j in range(n)]
                wax = sum(
                    w[i] * m.entries[i][j] * x[j] for i in range(n) for j in range(n)
                )
                xax = sum(
                    x[i] * m.entries[i][j] * x[j] for i in range(n) for j in range(n)
                )
                assert (wax - xax) % 2 == 0

    def test_characteristic_property_sampled_large(self):
        rng = random.Random(5)
        m = intersection_matrix(brieskorn_plumbing(FAMILIES["thm1-even2"].triple_of(20)))
        n = m.n
        w = wu_class(m).coords
        for _ in range(200):
            x = [rng.randint(0, 1) for _ in range(n)]
            wax = sum(w[i] * m.entries[i][j] * x[j] for i in range(n) for j in range(n))
            xax = sum(x[i] * m.entries[i][j] * x[j] for i in range(n) for j in range(n))
            assert (wax - xax) % 2 == 0

    def test_uniqueness_small_unimodular(self):
        rng = random.Random(99)
        found = 0
        from brieskorn.plumbing import determinant

        while found < 25:
            n = rng.randint(1, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            m = IntMatrix.from_rows(rows)
            if abs(determinant(m)) != 1:
                continue
            found += 1
            hits = characteristic_vectors(m)
            assert len(hits) == 1
            # every unimodular draw of this seed is forest-shaped
            assert hits[0] == wu_class(m).coords == _gf2_wu(m)


class TestVanDerBlij:
    def test_signature_congruent_wu_square_mod_8(self):
        from brieskorn.plumbing import signature

        for fam in FAMILIES.values():
            for n in range(1, 25):
                if not fam.admissible(n):
                    continue
                m = intersection_matrix(brieskorn_plumbing(fam.triple_of(n)))
                w = wu_class(m)
                assert (signature(m) - wu_square(m, w)) % 8 == 0


class TestMubar:
    def test_sigma_2_11_31_even_n(self):
        g = brieskorn_plumbing(FAMILIES["thm1-even2"].triple_of(2))
        assert g.origin[0].components == (2, 11, 31)
        assert mubar(g).mubar == 1

    def test_sigma_2_7_19_odd_n(self):
        r = mubar(brieskorn_plumbing(validate_triple(2, 7, 19)))
        assert r == MubarResult(signature=-6, wu_square=-6, mubar=0, obstructed=False)

    def test_sigma_2_3_7(self):
        r = mubar(brieskorn_plumbing(validate_triple(2, 3, 7)))
        assert (r.signature, r.wu_square, r.mubar) == (-4, -12, 1)
        assert r.obstructed

    def test_refuses_non_unimodular(self):
        g = PlumbingGraph((-2, -2), ((0, 1),))  # det 3
        with pytest.raises(NotUnimodular):
            mubar(g)

    def test_refuses_indefinite(self):
        g = PlumbingGraph((1, -3), ((0, 1),))  # det -4 -> not unimodular first
        with pytest.raises(NotUnimodular):
            mubar(g)
        g2 = PlumbingGraph((2, 1), ((0, 1),))  # det 1 but positive definite
        from brieskorn.plumbing import determinant as det

        assert abs(det(intersection_matrix(g2))) == 1
        with pytest.raises(NotNegativeDefinite):
            mubar(g2)

    def test_empty_graph_is_s3(self):
        r = mubar(PlumbingGraph((), ()))
        assert r == MubarResult(0, 0, 0, False)


class TestObstruction:
    @pytest.mark.parametrize(
        "mu,expected", [(1, True), (0, False), (-1, True), (5, True)]
    )
    def test_predicate(self, mu, expected):
        # one vertex of weight -1 - 8*mu in the Wu support: signature -1,
        # w.w = -1 - 8*mu, so (signature - w.w)/8 = mu
        g = PlumbingGraph((-1 - 8 * mu,), ())
        r = mubar_of(g, Invariants(det=-1, n_plus=0, n_minus=1, n_zero=0, wu=(1,)))
        assert r.mubar == mu and r.obstructed is expected
