"""Star-shaped plumbing trees and exact integer linear algebra.

The canonical plumbing of Sigma(p,q,r) is a star: one central vertex of
weight b and one leg per exceptional fiber, the leg for (alpha, beta) carrying
weights -c1, ..., -ck where alpha/beta = c1 - 1/(c2 - 1/(... - 1/ck)) is the
negative (Hirzebruch-Jung) continued fraction, all ci >= 2.

Everything here is exact; no floating point.  Two engines do the linear
algebra.  On forests, which include every plumbing, the tree kernel
(`tree_invariants`, one leaf-first integer pass from the weights and edges)
gives every determinant, the inertia and the spherical Wu class together.
A zero pivot below a root is cut off there (D. P. Jacobs and V. Trevisan,
Linear Algebra Appl. 434 (2011) 81-88), so the pass is exact on every
forest.  `inertia` and `wu.wu_class` take forest-shaped matrices only;
`determinant` passes the others, the linking matrices of Kirby moves, to a
fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import gcd

from .errors import InvalidFraction, NotStarShaped, SingularMatrix
from .seifert import BrieskornTriple, SeifertData, seifert_invariants


class IntMatrix(namedtuple("IntMatrix", "entries")):
    """Symmetric matrix of exact (arbitrary-precision) integers; ``entries``
    is a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, entries):
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix is not square")
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError(f"matrix entry {x!r} is not an integer")
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("matrix is not symmetric")
        return tuple.__new__(cls, (entries,))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


class PlumbingGraph(namedtuple("PlumbingGraph", "weights edges origin adj")):
    """Weighted tree with ``edges`` as (i, j) vertex pairs; ``origin``
    optionally records the triple it encodes, as a (BrieskornTriple,
    SeifertData) pair.

    ``adj[v]`` lists ``(u, 1)`` for each neighbour u of v, the form
    `tree_invariants` takes; it is built once, when the tree is validated.
    Equality and hash see only the weights and edges, and the repr leaves
    out ``adj``.
    """

    __slots__ = ()

    def __new__(cls, weights, edges, origin=None):
        n = len(weights)
        adj = [[] for _ in range(n)]
        pair = [(v, 1) for v in range(n)]  # one per vertex, shared by its neighbours
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i},{j})")
            adj[i].append(pair[j])
            adj[j].append(pair[i])
        if n:
            seen = [True] + [False] * (n - 1)
            stack = [0]
            while stack:
                for k, _ in adj[stack.pop()]:
                    if not seen[k]:
                        seen[k] = True
                        stack.append(k)
            if len(edges) != n - 1 or not all(seen):
                raise ValueError("plumbing graph must be a tree")
        return tuple.__new__(cls, (weights, edges, origin, tuple(map(tuple, adj))))

    def __getnewargs__(self):
        return self[:3]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:2] == other[:2]

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:2])

    def __repr__(self):
        return f"PlumbingGraph(weights={self.weights!r}, edges={self.edges!r}, origin={self.origin!r})"

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def to_json_obj(self) -> dict:
        """Wire format: {"weights": [...], "edges": [[i, j], ...]}."""
        return {
            "weights": list(self.weights),
            "edges": [[i, j] for i, j in self.edges],
        }


def hj_expand(a: int, b: int) -> list[int]:
    """Negative continued fraction a/b = [c1, ..., ck], all ci >= 2.

    Requires 0 < b < a and gcd(a, b) = 1.
    """
    if not (0 < b < a):
        raise InvalidFraction(f"need 0 < {b} < {a}")
    if gcd(a, b) != 1:
        raise InvalidFraction(f"gcd({a},{b}) != 1")
    out = []
    while b > 0:
        c = -((-a) // b)  # ceiling of a/b
        out.append(c)
        a, b = b, c * b - a
    return out


def star_exceeds(t: BrieskornTriple, cap: int) -> bool:
    """Whether `brieskorn_plumbing(t)` has more than ``cap`` vertices, found
    without building it.  The legs are (p, .), (q, .), (r, .) and a leg
    (alpha, beta) has at most alpha - 1 vertices, so most triples pass on
    p + q + r - 2 alone, before their Seifert data is solved.  The others
    count `hj_expand`'s steps and stop one past the cap: O(cap) steps however
    long the legs are."""
    if t.p + t.q + t.r - 2 <= cap:
        return False
    vertices = 1
    for a, b in seifert_invariants(t).legs:
        while b and vertices <= cap:
            a, b = b, -(-a // b) * b - a
            vertices += 1
    return vertices > cap


def hj_evaluate(cs) -> tuple[int, int]:
    """Fold [c1, ..., ck] back to (a, b) with a/b = c1 - 1/(c2 - ...)."""
    num, den = 1, 0
    for c in reversed(cs):
        num, den = c * num - den, num
    return num, den


def star_plumbing(s: SeifertData) -> PlumbingGraph:
    """Canonical star plumbing: center b, then legs outward in leg order."""
    return _star(s, None)


def brieskorn_plumbing(t: BrieskornTriple) -> PlumbingGraph:
    """star_plumbing of the triple's Seifert data, with origin attached."""
    s = seifert_invariants(t)
    return _star(s, (t, s))


def _star(s: SeifertData, origin) -> PlumbingGraph:
    weights = [s.b]
    edges = []
    for a, beta in s.legs:
        prev = 0
        for c in hj_expand(a, beta):
            weights.append(-c)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return PlumbingGraph(tuple(weights), tuple(edges), origin)


def intersection_matrix(g: PlumbingGraph) -> IntMatrix:
    n = g.vertex_count
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(g.weights):
        m[i][i] = w
    for i, j in g.edges:
        m[i][j] = m[j][i] = 1
    return IntMatrix.from_rows(m)


def graph_to_seifert(g: PlumbingGraph) -> SeifertData:
    """Invert star_plumbing: read (b; (alpha_i, beta_i)) off a 3-legged star."""
    deg = g.degrees()
    centers = [i for i, d in enumerate(deg) if d >= 3]
    if len(centers) != 1 or deg[centers[0]] != 3:
        raise NotStarShaped("need exactly one vertex of degree 3")
    center = centers[0]
    legs = []
    for chain in _star_legs(g, center):
        cs = []
        for v in chain:
            if g.weights[v] > -2:
                raise NotStarShaped(f"leg weight {g.weights[v]} > -2")
            cs.append(-g.weights[v])
        legs.append(hj_evaluate(cs))
    legs.sort()
    return SeifertData(g.weights[center], tuple(legs))


def _star_legs(g: PlumbingGraph, center: int) -> list[list[int]]:
    """The legs at ``center``, each from the center outward, by first vertex.

    Every vertex but the center must have degree at most 2: this is the star
    case of the plumbing calculus (W. Neumann, LNM 788, 1980).
    """
    legs = []
    for start, _ in sorted(g.adj[center]):
        chain = [center, start]
        while len(g.adj[chain[-1]]) == 2:
            (a, _), (b, _) = g.adj[chain[-1]]
            chain.append(b if a == chain[-2] else a)
        legs.append(chain[1:])
    return legs


# ---------------------------------------------------------------------------
# exact linear algebra


def _forest_structure(m: IntMatrix):
    """(diagonal, weighted adjacency) of a forest-shaped matrix, else None.

    ``adj[i]`` lists ``(j, m[i][j])`` for the nonzero off-diagonal entries of
    row i.
    """
    n = m.n
    rows = m.entries
    adj = _forest_adjacency(n, (
        (i, j, row[j]) for i, row in enumerate(rows) for j in compress(range(i + 1, n), row[i + 1 :])
    ))
    return None if adj is None else ([row[i] for i, row in enumerate(rows)], adj)


def _forest_adjacency(n: int, edges):
    """Adjacency lists of the weighted edges (i, j, a) on n vertices, or None at
    the first edge that closes a cycle (union-find: it joins one tree)."""
    adj = [[] for _ in range(n)]
    tree_of = list(range(n))

    def find(x: int) -> int:
        while tree_of[x] != x:
            tree_of[x] = tree_of[tree_of[x]]
            x = tree_of[x]
        return x

    for i, j, a in edges:
        ti, tj = find(i), find(j)
        if ti == tj:
            return None
        tree_of[ti] = tj
        adj[i].append((j, a))
        adj[j].append((i, a))
    return adj


def _eliminate(diag, adj):
    """Leaf-first elimination of a forest: yields (v, parent, edge, D, E).

    Each tree is rooted at its lowest vertex (parent -1) and every vertex
    comes after all of its children.  D is the determinant of the subtree at
    v and E that of the subtree with v deleted; with children c and edge
    values a_c,
        D(v) = w_v * prod D(c) - sum_c a_c^2 * E(c) * prod_{c' != c} D(c')
        E(v) = prod D(c)
    so D/E = w_v - sum_c a_c^2 * E(c)/D(c) is the pivot of v.

    A vertex whose E is 0 (a child has D = 0) is cut: it is not folded into
    its parent, which then sees neither it nor its subtree.  With the zero
    child c and edge value a, the block [[0, a], [a, x]] of c and v has
    inertia (1, 1) and Schur complement b^2 * 0/(-a^2) = 0 on v's parent
    edge b, whatever x is (Jacobs-Trevisan).  So D stays the determinant of
    the subtree at v less the subtrees of its cut children.
    """
    n = len(diag)
    d = list(diag)
    e = [1] * n
    parent = [-1] * n
    edge = [0] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for v in order:  # breadth first; grows while it is walked
            for u, a in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u], edge[u] = v, a
                    order.append(u)
        for v in reversed(order):
            p, dv, ev = parent[v], d[v], e[v]
            yield v, p, edge[v], dv, ev
            if p >= 0 and ev:
                d[p] = d[p] * dv - edge[v] ** 2 * ev * e[p]
                e[p] *= dv


class Invariants(namedtuple("Invariants", "det n_plus n_minus n_zero wu")):
    """det, inertia and spherical Wu class of a symmetric integer form.

    ``wu`` is the 0/1 solution of A w = diag(A) (mod 2); None iff det is even.
    A `collections.namedtuple` record, like every record in the package (see
    CONVENTIONS, "Records").
    """

    __slots__ = ()

    @property
    def negative_definite(self) -> bool:
        return self.n_plus == self.n_zero == 0


def tree_invariants(diag, adj) -> Invariants:
    """All of Invariants for a forest in one leaf-first integer pass.

    Inertia: the pivots D/E are the diagonal of a congruent matrix, so their
    signs count n_plus and n_minus (Sylvester); a zero D adds to n_zero.  A
    cut vertex (E = 0, see `_eliminate`) and one of its zero children form a
    block of inertia (1, 1): the vertex counts as one negative and that
    child's zero becomes a positive; its other zero children stay zero.
    det is the product of D over the roots and the cut vertices (Jacobs and
    Trevisan, Linear Algebra Appl. 434 (2011) 81-88).

    Wu class: the same order solves A w = diag(A) over GF(2).  The reduced
    right-hand side of a vertex always equals its reduced diagonal bit.  An
    odd vertex is w_v = 1 + a*w_parent, which flips its parent's bit.  An
    even vertex forces its parent to 0, and the parent's row then gives the
    even vertex (W. Neumann, LNM 788, 1980).
    """
    n = len(diag)
    det = 1
    n_plus = n_minus = n_zero = 0
    bit = [w & 1 for w in diag]
    pinned = [-1] * n  # the even child that forces a vertex to 0
    order = []
    solvable = True
    for v, p, a, dv, ev in _eliminate(diag, adj):
        a &= 1  # 0 at a root, so the uses of p = -1 below change nothing
        order.append((v, p, a))
        if ev == 0:  # cut: v and one zero child form a (1, 1) block
            det *= dv
            n_minus += 1
            n_plus += 1
            n_zero -= 1
        else:
            if p < 0:
                det *= dv
            if dv == 0:
                n_zero += 1
            elif (dv > 0) == (ev > 0):
                n_plus += 1
            else:
                n_minus += 1
        if pinned[v] >= 0:
            continue
        if bit[v]:
            bit[p] ^= a
        elif a and pinned[p] < 0:
            pinned[p] = v
        else:  # a zero row, or two rows equal to e_parent: singular mod 2
            solvable = False
    assert solvable == (det % 2 == 1), "GF(2) pass disagrees with det parity"
    wu = None
    if solvable:
        w = [0] * n
        for v, p, a in reversed(order):
            if pinned[v] >= 0:
                w[pinned[v]] = bit[v] ^ (a & w[p])
            elif bit[v]:
                w[v] = 1 ^ (a & w[p])
        wu = tuple(w)
    return Invariants(det, n_plus, n_minus, n_zero, wu)


def graph_invariants(g: PlumbingGraph) -> Invariants:
    """`tree_invariants` of the plumbing, read off its weights and adjacency."""
    return tree_invariants(g.weights, g.adj)


def _bareiss_determinant(m: IntMatrix) -> int:
    """Bareiss (fraction-free) elimination over arbitrary-precision ints."""
    n = m.n
    if n == 0:
        return 1
    a = m.rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def determinant(m: IntMatrix) -> int:
    """Exact determinant: the tree kernel (`tree_invariants`) on forest-shaped
    matrices, Bareiss on the others (the linking matrices `kirby.replay` meets)."""
    forest = _forest_structure(m)
    return _bareiss_determinant(m) if forest is None else tree_invariants(*forest).det


def _forest_invariants(m: IntMatrix) -> Invariants:
    """`tree_invariants` of a forest-shaped matrix; ValueError for any other."""
    forest = _forest_structure(m)
    if forest is None:
        raise ValueError("matrix is not forest-shaped")
    return tree_invariants(*forest)


def inertia(m: IntMatrix) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a forest-shaped matrix, by `tree_invariants`."""
    inv = _forest_invariants(m)
    return inv.n_plus, inv.n_minus, inv.n_zero


def signature(m: IntMatrix) -> int:
    """n_plus - n_minus of a forest-shaped matrix, as `inertia`; raises
    SingularMatrix when det = 0."""
    n_pos, n_neg, n_zero = inertia(m)
    if n_zero:
        raise SingularMatrix("matrix is singular")
    return n_pos - n_neg


def is_negative_definite(m: IntMatrix) -> bool:
    n_pos, n_neg, n_zero = inertia(m)
    return n_pos == 0 and n_zero == 0
