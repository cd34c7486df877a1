"""Dense reference routines that the tests check the tree kernel against.

`brieskorn.plumbing.tree_invariants` finds the inertia and the spherical Wu
class of a forest-shaped form in one leaf-first integer pass.  These two
routines work on any symmetric integer matrix by a different method each:
symmetric elimination over the rationals (Sylvester's law of inertia) and
dense elimination over GF(2).  They are test oracles, not package code.
"""

from __future__ import annotations

from fractions import Fraction

from brieskorn.plumbing import IntMatrix


def _sylvester_inertia(m: IntMatrix) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) by symmetric elimination over rationals.

    Sylvester's law: congruence preserves inertia, and each elimination step
    is a congruence.  Diagonal pivots are preferred low-degree-first (linear
    work on trees); a 2x2 hyperbolic block [[0,a],[a,0]] contributes (1,1,0).
    """
    n = m.n
    a: dict[int, dict[int, Fraction]] = {}
    for i in range(n):
        row = {}
        for j in range(n):
            if m.entries[i][j] != 0:
                row[j] = Fraction(m.entries[i][j])
        a[i] = row
    alive = set(range(n))
    n_pos = n_neg = n_zero = 0

    def set_sym(i: int, j: int, value: Fraction):
        if value:
            a[i][j] = value
            a[j][i] = value
        else:
            a[i].pop(j, None)
            a[j].pop(i, None)

    while alive:
        # prefer a diagonal pivot of minimal off-diagonal degree
        best = None
        for i in alive:
            if a[i].get(i):
                deg = sum(1 for j in a[i] if j != i and j in alive)
                if best is None or deg < best[0]:
                    best = (deg, i)
                    if deg <= 1:
                        break
        if best is not None:
            p = best[1]
            pivot = a[p][p]
            if pivot > 0:
                n_pos += 1
            else:
                n_neg += 1
            alive.discard(p)
            nbrs = [(i, a[p][i]) for i in list(a[p]) if i != p and i in alive]
            for x, (i, vpi) in enumerate(nbrs):
                for j, vpj in nbrs[x:]:
                    set_sym(i, j, a[i].get(j, Fraction(0)) - vpi * vpj / pivot)
                a[i].pop(p, None)
            continue
        # all live diagonals are zero: find a hyperbolic pair
        pair = None
        for i in sorted(alive):
            for j in sorted(a[i]):
                if j != i and j in alive:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            n_zero += len(alive)
            break
        i, j = pair
        v = a[i][j]
        n_pos += 1
        n_neg += 1
        alive.discard(i)
        alive.discard(j)
        # Schur complement of the block [[0, v], [v, 0]]
        nbrs = sorted(
            k for k in alive if i in a.get(k, {}) or j in a.get(k, {})
        )
        coeffs = {k: (a[k].get(i, Fraction(0)), a[k].get(j, Fraction(0))) for k in nbrs}
        for x, k in enumerate(nbrs):
            cki, ckj = coeffs[k]
            for l in nbrs[x:]:
                cli, clj = coeffs[l]
                delta = (cki * clj + ckj * cli) / v
                set_sym(k, l, a[k].get(l, Fraction(0)) - delta)
            a[k].pop(i, None)
            a[k].pop(j, None)
    return n_pos, n_neg, n_zero


def _gf2_wu(m: IntMatrix) -> tuple[int, ...] | None:
    """Dense GF(2) elimination; None when the form is singular mod 2.

    Rows are kept as bitmasks; pivoting picks the first row with a 1 in the
    current column, so the run is deterministic.
    """
    n = m.n
    rows = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if m.entries[i][j] & 1:
                mask |= 1 << j
        mask |= (m.entries[i][i] & 1) << n  # augmented column
        rows.append(mask)
    pivots = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, n):
            if rows[i] >> col & 1:
                sel = i
                break
        if sel is None:
            return None
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(n):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    w = [0] * n
    for i, col in enumerate(pivots):
        w[col] = rows[i] >> n & 1
    return tuple(w)
