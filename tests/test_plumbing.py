"""Continued fractions, star plumbings, and the exact linear algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brieskorn import (
    FAMILIES,
    IntMatrix,
    PlumbingGraph,
    brieskorn_plumbing,
    determinant,
    graph_to_seifert,
    hj_expand,
    intersection_matrix,
    is_negative_definite,
    seifert_invariants,
    signature,
    star_plumbing,
    validate_triple,
)
from brieskorn.errors import (
    EvenDeterminant,
    InvalidFraction,
    NotNegativeDefinite,
    NotStarShaped,
    NotPairwiseCoprime,
    NotUnimodular,
    SingularMatrix,
)
from brieskorn.plumbing import (
    _bareiss_determinant,
    _forest_structure,
    graph_invariants,
    inertia,
    star_exceeds,
    tree_invariants,
)
from brieskorn.wu import WuClass, mubar, wu_class, wu_square
from dense_oracle import _gf2_wu, _sylvester_inertia


def cf_fold(cs):
    """Independent reconstruction oracle: fold [c1..ck] to a Fraction."""
    x = Fraction(cs[-1])
    for c in reversed(cs[:-1]):
        x = c - 1 / x
    return x


def cofactor_det(rows):
    """Naive cofactor-expansion determinant oracle, for dimension <= 8."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


E8_WEIGHTS = (-2, -2, -2, -2, -2, -2, -2, -2)
E8_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7))


class TestHJExpand:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (2, 1, [2]),
            (7, 2, [4, 2]),
            (5, 4, [2, 2, 2, 2]),  # the E8 leg
            (19, 4, [5, 4]),
            (13, 2, [7, 2]),
        ],
    )
    def test_examples(self, a, b, expected):
        cs = hj_expand(a, b)
        assert cs == expected
        assert cf_fold(cs) == Fraction(a, b)

    def test_invalid(self):
        with pytest.raises(InvalidFraction):
            hj_expand(4, 4)
        with pytest.raises(InvalidFraction):
            hj_expand(6, 4)
        with pytest.raises(InvalidFraction):
            hj_expand(5, 0)

    @given(st.integers(2, 500), st.integers(1, 499))
    def test_reconstruction(self, a, b):
        from math import gcd

        b = b % a
        if b == 0 or gcd(a, b) != 1:
            return
        cs = hj_expand(a, b)
        assert all(c >= 2 for c in cs)
        assert cf_fold(cs) == Fraction(a, b)


class TestStarPlumbing:
    def test_e8_from_poincare_sphere(self):
        g = star_plumbing(seifert_invariants(validate_triple(2, 3, 5)))
        assert g.weights == E8_WEIGHTS
        assert g.edges == E8_EDGES

    def test_sigma_2_7_19(self):
        g = brieskorn_plumbing(validate_triple(2, 7, 19))
        assert g.weights == (-1, -2, -4, -2, -5, -4)
        assert g.vertex_count == 6

    def test_family_vertex_count(self):
        for fam_id in ("thm1-even2", "thm1-even3"):
            for n in range(1, 101):
                g = brieskorn_plumbing(FAMILIES[fam_id].triple_of(n))
                assert g.vertex_count == n + 5

    @given(st.integers(2, 60), st.integers(2, 60), st.integers(2, 400), st.integers(0, 600))
    def test_vertex_cap_without_building(self, p, q, r, cap):
        try:
            t = validate_triple(p, q, r)
        except NotPairwiseCoprime:
            return
        if t.is_degenerate:
            return
        vertices = star_plumbing(seifert_invariants(t)).vertex_count
        assert vertices <= p + q + r - 2
        assert not star_exceeds(t, vertices) and star_exceeds(t, vertices - 1)
        assert star_exceeds(t, cap) == (vertices > cap)


class TestIntersectionMatrix:
    def test_single_vertex(self):
        m = intersection_matrix(PlumbingGraph((-1,), ()))
        assert m.entries == ((-1,),)

    def test_chain(self):
        m = intersection_matrix(PlumbingGraph((-1, -2), ((0, 1),)))
        assert m.entries == ((-1, 1), (1, -2))

    def test_e8_determinant_one(self):
        m = intersection_matrix(PlumbingGraph(E8_WEIGHTS, E8_EDGES))
        assert cofactor_det(m.rows()) == 1
        assert determinant(m) == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            IntMatrix(((0, 1), (2, 0)))

    def test_constructor_rejects_non_integers(self):
        # the Kirby moves trust their input matrix, so every public way in checks
        for bad in (((-1.0, 0.5), (0.5, -2.0)), ((True,),), (("1",),)):
            with pytest.raises(ValueError, match="not an integer"):
                IntMatrix(bad)


class TestDeterminant:
    def test_trivial(self):
        assert determinant(IntMatrix.from_rows([[-1]])) == -1
        assert determinant(IntMatrix.from_rows([])) == 1

    def test_sigma_2_7_19_sign(self):
        m = intersection_matrix(brieskorn_plumbing(validate_triple(2, 7, 19)))
        assert determinant(m) == 1  # (-1)^6 * 1 for a negative-definite form

    def test_matches_cofactor_oracle_on_randoms(self):
        rng = random.Random(20240817)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-9, 9)
            m = IntMatrix.from_rows(rows)
            assert determinant(m) == cofactor_det(rows)

    def test_forest_path_agrees_with_bareiss(self):
        # random weighted trees exercise the linear-time recursion
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(9, 16)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(-9, 9)
            for v in range(1, n):
                u = rng.randrange(v)
                w = rng.choice([x for x in range(-3, 4) if x])
                rows[u][v] = rows[v][u] = w
            m = IntMatrix.from_rows(rows)
            assert determinant(m) == _bareiss_determinant(m)
        # zero pivots below the root at vertices 11 and 9 cut vertices 10
        # and 8: det = det(A_8) * (-1) * (-1)
        m = chain([-2] * 9 + [0, -3, 0])
        assert determinant(m) == _bareiss_determinant(m) == 9


class TestSignature:
    def test_examples(self):
        assert signature(IntMatrix.from_rows([[-1]])) == -1
        assert is_negative_definite(IntMatrix.from_rows([[-1]]))
        assert signature(IntMatrix.from_rows([[1, 0], [0, -1]])) == 0
        assert not is_negative_definite(IntMatrix.from_rows([[1, 0], [0, -1]]))

    def test_sigma_2_7_19(self):
        m = intersection_matrix(brieskorn_plumbing(validate_triple(2, 7, 19)))
        assert signature(m) == -6
        assert is_negative_definite(m)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            signature(IntMatrix.from_rows([[0]]))
        with pytest.raises(SingularMatrix):
            signature(IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_hyperbolic_pair(self):
        assert signature(IntMatrix.from_rows([[0, 1], [1, 0]])) == 0
        assert signature(IntMatrix.from_rows([[0, 1], [1, -1]])) == 0
        assert signature(IntMatrix.from_rows([[0, 2], [2, 0]])) == 0

    def test_inertia_against_eigen_count_on_randoms(self):
        # compare the inertia with Descartes on the characteristic polynomial
        # computed exactly by Leverrier-Faddeev: the dense oracle on random
        # symmetric matrices, the tree kernel on random forests whose small
        # weights give zero pivots below the root
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 5)
            dense = [[0] * n for _ in range(n)]
            forest = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    dense[i][j] = dense[j][i] = rng.randint(-4, 4)
                forest[i][i] = rng.randint(-2, 2)
                if i:
                    u = rng.randrange(i)
                    forest[u][i] = forest[i][u] = rng.choice((1, -1, 2))
            for rows, count in ((dense, _sylvester_inertia), (forest, inertia)):
                n_pos, n_neg, n_zero = count(IntMatrix.from_rows(rows))
                assert n_pos + n_neg + n_zero == n
                coeffs = charpoly(rows)
                assert n_zero == trailing_zeros(coeffs)
                assert n_pos == sign_changes(coeffs)

    def test_family_forms_negative_definite_unimodular(self):
        for fam in FAMILIES.values():
            for n in range(1, 30):
                if not fam.admissible(n):
                    continue
                m = intersection_matrix(brieskorn_plumbing(fam.triple_of(n)))
                assert is_negative_definite(m)
                assert abs(determinant(m)) == 1
                assert signature(m) == -m.n


def charpoly(rows):
    """Exact characteristic polynomial coefficients [1, c1, ..., cn]."""
    n = len(rows)
    coeffs = [Fraction(1)]
    a = [[Fraction(x) for x in row] for row in rows]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        ck = -tr / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [
            [sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def trailing_zeros(coeffs):
    count = 0
    for c in reversed(coeffs):
        if c == 0:
            count += 1
        else:
            break
    return count


def sign_changes(coeffs):
    # Descartes count on p(x): all real roots, so changes = positive roots
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def chain(weights, edge=1):
    n = len(weights)
    rows = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        rows[i][i] = w
        if i:
            rows[i - 1][i] = rows[i][i - 1] = edge
    return IntMatrix.from_rows(rows)


@st.composite
def weighted_forests(draw):
    """Random forest-shaped matrices: weights -6..3, edge values +-1/+-2."""
    n = draw(st.integers(0, 16))
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = draw(st.integers(-6, 3))
        parent = draw(st.none() | st.integers(0, v - 1)) if v else None
        if parent is not None:
            rows[v][parent] = rows[parent][v] = draw(st.sampled_from((1, -1, 2, -2)))
    perm = draw(st.permutations(range(n)))
    return IntMatrix.from_rows([[rows[i][j] for j in perm] for i in perm])


@st.composite
def plumbing_trees(draw):
    n = draw(st.integers(1, 14))
    weights = tuple(draw(st.integers(-6, 3)) for _ in range(n))
    edges = tuple((draw(st.integers(0, v - 1)), v) for v in range(1, n))
    return PlumbingGraph(weights, edges)


def is_tree(n, edges):
    """Union-find: every end in range, no self-loop, no cycle, n - 1 edges."""
    tree_of = list(range(n))

    def find(x):
        while tree_of[x] != x:
            x = tree_of[x]
        return x

    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or find(i) == find(j):
            return False
        tree_of[find(i)] = find(j)
    return len(edges) == max(n - 1, 0)


@st.composite
def edge_lists(draw):
    """(n, edges): trees in shuffled order and orientation, trees with one
    defect (duplicate edge, self-loop, out-of-range end, a cycle that leaves
    a vertex isolated), and arbitrary pair lists."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["tree", "duplicate", "loop", "range", "cycle", "any"]))
    if kind == "any":
        end = st.integers(-1, n)
        return n, draw(st.lists(st.tuples(end, end), max_size=n + 1))
    spanned = n - 1 if kind == "cycle" else n  # "cycle" leaves vertex n - 1 out
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, spanned)]
    if kind == "duplicate" and edges:
        edges.append(draw(st.sampled_from(edges)))
    elif kind == "loop" and n:
        v = draw(st.integers(0, n - 1))
        edges.append((v, v))
    elif kind == "cycle" and spanned >= 3:
        v = draw(st.integers(2, spanned - 1))
        parent = edges[v - 1][0]
        edges.append((draw(st.sampled_from([u for u in range(v) if u != parent])), v))
    perm = draw(st.permutations(range(n)))
    edges = [(perm[i], perm[j]) if draw(st.booleans()) else (perm[j], perm[i]) for i, j in edges]
    if kind == "range" and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = (edges[0][0], draw(st.sampled_from((-1, n))))
    return n, draw(st.permutations(edges))


class TestTreeValidation:
    @settings(deadline=None, max_examples=400)
    @given(edge_lists(), st.data())
    def test_accepts_exactly_the_trees(self, case, data):
        n, edges = case
        weights = tuple(data.draw(st.lists(st.integers(-6, 3), min_size=n, max_size=n)))
        if not is_tree(n, edges):
            with pytest.raises(ValueError):
                PlumbingGraph(weights, tuple(edges))
            return
        g = PlumbingGraph(weights, tuple(edges))
        adj = [[] for _ in range(n)]
        for i, j in g.edges:
            adj[i].append((j, 1))
            adj[j].append((i, 1))
        assert graph_invariants(g) == tree_invariants(weights, adj)
        assert g.degrees() == [len(a) for a in adj]


class TestTreeKernel:
    """`tree_invariants` against the dense routines in `dense_oracle`."""

    @settings(deadline=None, max_examples=300)
    @given(weighted_forests())
    @example(chain([-2] * 9))  # A_9: det 10, even
    @example(chain([0] * 9))  # singular, zero pivots everywhere
    @example(chain([-2] * 9 + [0]))  # zero pivot at a leaf below the root
    @example(chain([1] * 10, edge=2))  # even edges: a diagonal form mod 2
    # vertex 2 has two zero-pivot children: uncut, every ancestor is 0/0
    @example(intersection_matrix(PlumbingGraph((-2, -2, -1, 0, 0), ((0, 1), (1, 2), (2, 3), (2, 4)))))
    @example(chain([-3, 1, 0], edge=2))  # a zero pivot under an edge of weight 2
    @example(intersection_matrix(PlumbingGraph((5, 0, -1), ((0, 1), (0, 2)))))  # a root's zero child
    # the cut vertex 1 has D = 0 (three zero children) and a parent above it
    @example(intersection_matrix(PlumbingGraph((-1, 3, 0, 0, 0), ((0, 1), (1, 2), (1, 3), (1, 4)))))
    def test_matches_general_routines(self, m):
        diag = [m.entries[i][i] for i in range(m.n)]
        adj = [[(j, x) for j, x in enumerate(row) if x and j != i] for i, row in enumerate(m.entries)]
        inv = tree_invariants(diag, adj)
        assert inv.det == _bareiss_determinant(m)
        assert (inv.n_plus, inv.n_minus, inv.n_zero) == _sylvester_inertia(m)
        assert inv.wu == _gf2_wu(m)
        # the public routines take the kernel on every forest; same answers
        assert _forest_structure(m) is not None
        assert determinant(m) == inv.det
        assert inertia(m) == (inv.n_plus, inv.n_minus, inv.n_zero)
        assert is_negative_definite(m) == inv.negative_definite
        if inv.n_zero:
            with pytest.raises(SingularMatrix):
                signature(m)
        else:
            assert signature(m) == inv.n_plus - inv.n_minus
        if inv.wu is None:
            with pytest.raises(EvenDeterminant):
                wu_class(m)
        else:
            assert wu_class(m).coords == inv.wu

    def test_cycle_takes_general_path(self):
        m = chain([-2] * 9).rows()
        m[0][8] = m[8][0] = 1  # close the chain into a 9-cycle
        m = IntMatrix.from_rows(m)
        assert _forest_structure(m) is None
        assert determinant(m) == _bareiss_determinant(m)
        for forest_only in (inertia, wu_class, signature, is_negative_definite):
            with pytest.raises(ValueError, match="not forest-shaped"):
                forest_only(m)

    @settings(deadline=None, max_examples=200)
    @given(plumbing_trees())
    @example(star_plumbing(seifert_invariants(validate_triple(2, 3, 5))))  # E8
    def test_mubar_refusals_and_value(self, g):
        m = intersection_matrix(g)
        det = _bareiss_determinant(m)
        n_plus, _, n_zero = _sylvester_inertia(m)
        if det not in (1, -1):
            with pytest.raises(NotUnimodular):
                mubar(g)
        elif n_plus or n_zero:
            with pytest.raises(NotNegativeDefinite):
                mubar(g)
        else:
            result = mubar(g)
            assert result.signature == -g.vertex_count
            assert result.wu_square == wu_square(m, WuClass(_gf2_wu(m)))


class TestGraphToSeifert:
    def test_round_trip_examples(self):
        s = seifert_invariants(validate_triple(2, 7, 19))
        assert graph_to_seifert(star_plumbing(s)) == s

    def test_e8_reads_back_poincare_data(self):
        g = PlumbingGraph(E8_WEIGHTS, E8_EDGES)
        s = graph_to_seifert(g)
        assert s.b == -2
        assert s.legs == ((2, 1), (3, 2), (5, 4))

    def test_path_graph_rejected(self):
        g = PlumbingGraph((-2, -2, -2), ((0, 1), (1, 2)))
        with pytest.raises(NotStarShaped):
            graph_to_seifert(g)

    def test_leg_weight_minus_one_rejected(self):
        g = PlumbingGraph((-2, -1, -2, -2), ((0, 1), (0, 2), (0, 3)))
        with pytest.raises(NotStarShaped):
            graph_to_seifert(g)

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 100))
    def test_round_trip_families(self, fam_id, n):
        fam = FAMILIES[fam_id]
        if not fam.admissible(n):
            return
        s = seifert_invariants(fam.triple_of(n))
        assert graph_to_seifert(star_plumbing(s)) == s


class TestSerialization:
    def test_json_fields(self):
        g = brieskorn_plumbing(validate_triple(2, 3, 7))
        obj = g.to_json_obj()
        assert list(obj) == ["weights", "edges"]
        assert obj["weights"] == [-1, -2, -3, -7]
        assert obj["edges"] == [[0, 1], [0, 2], [0, 3]]

    def test_tree_invariant_enforced(self):
        with pytest.raises(ValueError):
            PlumbingGraph((-1, -2, -3), ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(ValueError):
            PlumbingGraph((-1, -2), ())
