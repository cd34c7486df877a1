"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
All comparisons are exact integer equalities; the only tolerances are the
wall-clock budgets stated per criterion.
"""

import contextlib
import random
import time

from brieskorn import (
    FAMILIES,
    blow_down,
    brieskorn_plumbing,
    casson_brieskorn,
    casson_surgery_twist,
    determinant,
    graph_to_seifert,
    intersection_matrix,
    is_negative_definite,
    replay,
    script_generator,
    seifert_invariants,
    signature,
    slide,
    star_plumbing,
    validate_triple,
    wu_class,
    wu_square,
)
from brieskorn.kirby import FramedLink, IntMatrix
from dense_oracle import _gf2_wu, _sylvester_inertia


@contextlib.contextmanager
def criterion(num, name, limit_s=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.monotonic() - t0
    budget = "" if limit_s is None else f"; budget {limit_s}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s{budget})")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_1_thm1_invariant_sweep():
    with criterion(1, "thm1 invariant sweep n=1..100", limit_s=5.0):
        for fam_id in ("thm1-even2", "thm1-even3"):
            fam = FAMILIES[fam_id]
            for n in range(1, 101):
                g = brieskorn_plumbing(fam.triple_of(n))
                m = intersection_matrix(g)
                assert _sylvester_inertia(m) == (0, g.vertex_count, 0), (fam_id, n)
                assert _gf2_wu(m) == wu_class(m).coords, (fam_id, n)
                assert g.vertex_count == n + 5
                assert is_negative_definite(m)
                assert abs(determinant(m)) == 1
                assert signature(m) == -n - 5
                w2 = wu_square(m, wu_class(m))
                expected_w2 = -n - 13 if n % 2 == 0 else -n - 5
                assert w2 == expected_w2, (fam_id, n, w2)
                mu = (-n - 5 - w2) // 8
                assert mu == (1 if n % 2 == 0 else 0)


def test_criterion_2_al_family_regression():
    with criterion(2, "al-2/al-3 mubar nonzero for odd n<=99", limit_s=5.0):
        values = set()
        for fam_id in ("al-2", "al-3"):
            fam = FAMILIES[fam_id]
            for n in range(1, 100, 2):
                g = brieskorn_plumbing(fam.triple_of(n))
                m = intersection_matrix(g)
                assert _sylvester_inertia(m) == (0, g.vertex_count, 0), (fam_id, n)
                assert _gf2_wu(m) == wu_class(m).coords, (fam_id, n)
                assert abs(determinant(m)) == 1 and is_negative_definite(m)
                mu = (signature(m) - wu_square(m, wu_class(m))) // 8
                assert mu != 0, (fam_id, n)
                values.add(mu)
        print(f"  finding: mubar values over both families, odd n<=99: {sorted(values)}")


def test_criterion_3_thm2_consistency():
    with criterion(3, "thm2 families unimodular/neg-definite/mubar=0", limit_s=10.0):
        fams = ["thm2-2a", "thm2-3a", "thm2-2b", "thm2-3b", "thm2-2c", "thm2-3c"]
        members = [(f, n) for f in fams for n in range(1, 101)]
        members += [("thm2-single13", 1), ("thm2-single25", 1)]
        for fam_id, n in members:
            g = brieskorn_plumbing(FAMILIES[fam_id].triple_of(n))
            m = intersection_matrix(g)
            assert _sylvester_inertia(m) == (0, g.vertex_count, 0), (fam_id, n)
            assert _gf2_wu(m) == wu_class(m).coords, (fam_id, n)
            assert abs(determinant(m)) == 1, (fam_id, n)
            assert is_negative_definite(m), (fam_id, n)
            mu = (signature(m) - wu_square(m, wu_class(m))) // 8
            assert mu == 0, (fam_id, n, mu)


def _wu_corpus():
    graphs = []
    for fam in FAMILIES.values():
        for n in range(1, 51):
            if not fam.admissible(n):
                continue
            g = brieskorn_plumbing(fam.triple_of(n))
            if g.vertex_count <= 12:
                graphs.append(g)
    for triple in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5), (2, 5, 27)]:
        graphs.append(brieskorn_plumbing(validate_triple(*triple)))
    return graphs


def test_criterion_4_wu_oracle_equivalence():
    with criterion(4, "exhaustive Wu search == GF(2) solver on <=12 vertices"):
        graphs = _wu_corpus()
        assert len(graphs) >= 30
        for g in graphs:
            m = intersection_matrix(g)
            n = m.n
            assert n <= 12
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
            hits = [
                w
                for w in range(1 << n)
                if all(((rows[i] & w).bit_count() & 1) == (diag >> i & 1) for i in range(n))
            ]
            assert len(hits) == 1
            solver = wu_class(m).coords
            assert hits[0] == sum(c << i for i, c in enumerate(solver))


def _random_symmetric(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    return rows


def test_criterion_5_kirby_engine_algebra():
    with criterion(5, "blow-down det identity + slide invariance, 1000 randoms each"):
        rng = random.Random(0xB1E5)
        for _ in range(1000):
            n = rng.randint(1, 8)
            rows = _random_symmetric(rng, n)
            c = rng.randrange(n)
            eps = rng.choice([1, -1])
            rows[c][c] = eps
            link = FramedLink(
                tuple(f"c{i}" for i in range(n)), IntMatrix.from_rows(rows)
            )
            assert determinant(link.matrix) == eps * determinant(
                blow_down(link, f"c{c}").matrix
            )
        for _ in range(1000):
            n = rng.randint(2, 8)
            link = FramedLink(
                tuple(f"c{i}" for i in range(n)),
                IntMatrix.from_rows(_random_symmetric(rng, n)),
            )
            i, j = rng.sample(range(n), 2)
            after = slide(link, f"c{i}", f"c{j}", rng.choice([1, -1]))
            assert determinant(after.matrix) == determinant(link.matrix)


def test_criterion_6_script_replay():
    with criterion(6, "script replay thm1 n=1..50 and singletons", limit_s=10.0):
        for fam_id in ("thm1-even2", "thm1-even3"):
            for n in range(1, 51):
                trace = replay(script_generator(fam_id, n))
                assert trace.final.labels == ("K", "m")
                assert trace.final.matrix.entries == ((0, 1), (1, -1))
                assert all(abs(step.det) == 1 for step in trace.steps)
        for fam_id in ("thm2-single13", "thm2-single25"):
            trace = replay(script_generator(fam_id, 1))
            assert trace.final.labels == ("K",)
            assert trace.final.matrix.entries == ((1,),)
            assert all(abs(step.det) == 1 for step in trace.steps)


def test_criterion_7_casson_cross_check():
    with criterion(7, "casson lattice count == global sign * surgery formula", limit_s=20.0):
        pairs = []
        for n in range(0, 11):
            lam = casson_brieskorn(validate_triple(2, 3, 6 * n + 1))
            assert abs(lam) == n
            pairs.append((n, lam, casson_surgery_twist(n, 1)))
        working = [
            s for s in (1, -1) if all(lam == s * sur for _, lam, sur in pairs)
        ]
        assert len(working) == 1 and working[0] == -1


def test_criterion_8_round_trip():
    with criterion(8, "graph_to_seifert o star_plumbing = id, n=1..100"):
        for fam in FAMILIES.values():
            for n in range(1, 101):
                if not fam.admissible(n):
                    continue
                s = seifert_invariants(fam.triple_of(n))
                assert graph_to_seifert(star_plumbing(s)) == s
