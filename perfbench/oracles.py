"""Independent checks of `brieskorn info --json --casson` output.

Nothing here imports `brieskorn`: each fact is re-derived from the triple or
from the printed plumbing by a second route.

* Seifert equation b*a1*a2*a3 + sum beta_i*(a1*a2*a3/a_i) = -1, 0 < beta_i < a_i.
* |det| = 1 and negative definiteness, hence signature = -(vertex count).
* The printed Wu class is characteristic on the printed tree (A w = diag A
  mod 2), its square is w.A.w, and mubar = (signature - wu_square)/8.
* Casson by the closed form with Dedekind sums (Fintushel-Stern 1990,
  Neumann-Wahl 1990):
      lambda = -1/8 [1 - (1 - a^2 + p^2q^2 + q^2r^2 + p^2r^2)/(3a)
                     + 4 (s(qr,p) + s(pr,q) + s(pq,r))],   a = pqr.
* Rokhlin: mubar = lambda (mod 2).
"""

from __future__ import annotations

from fractions import Fraction


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for coprime h, k > 0, by reciprocity in Euclid-style steps.

    s(h, k) + s(k, h) = -1/4 + (h/k + k/h + 1/(hk))/12 and s(h, k) depends
    only on h mod k, so the recursion runs as fast as gcd.
    """
    total = Fraction(0)
    sign = 1
    h %= k
    while h != 0 and k != 1:
        total += sign * (Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k))
        sign = -sign
        h, k = k % h, h
    return total


def casson_closed_form(p: int, q: int, r: int) -> int:
    a = p * q * r
    bracket = (
        1
        - Fraction(1 - a * a + (p * q) ** 2 + (q * r) ** 2 + (p * r) ** 2, 3 * a)
        + 4 * (dedekind_sum(q * r, p) + dedekind_sum(p * r, q) + dedekind_sum(p * q, r))
    )
    value = -bracket / 8
    if value.denominator != 1:
        raise ArithmeticError(f"closed-form Casson of ({p},{q},{r}) is {value}")
    return int(value)


def seifert_legs(p: int, q: int, r: int) -> tuple[int, list[tuple[int, int]]]:
    """(b, [(alpha_i, beta_i)]) solving the normalised Seifert equation."""
    prod = p * q * r
    legs = [(a, (-pow(prod // a, -1, a)) % a) for a in (p, q, r)]
    num = -1 - sum(beta * (prod // a) for a, beta in legs)
    return num // prod, legs


def hj_length(a: int, b: int) -> int:
    """Length of the negative continued fraction a/b = c1 - 1/(c2 - ...)."""
    length = 0
    while b:
        c = -(-a // b)
        a, b = b, c * b - a
        length += 1
    return length


def plumbing_vertices(p: int, q: int, r: int) -> int:
    """Vertex count of the star plumbing of Sigma(p,q,r), p > 1."""
    _, legs = seifert_legs(p, q, r)
    return 1 + sum(hj_length(a, beta) for a, beta in legs)


def _neg_cf_value(cs: list[int]) -> Fraction:
    value = Fraction(cs[-1])
    for c in reversed(cs[:-1]):
        value = c - 1 / value
    return value


def check_info(triple: tuple[int, int, int], obj: dict) -> str | None:
    """None if `obj` (one parsed `info --json --casson` line) is right."""
    p, q, r = sorted(triple)
    if obj["triple"] != [p, q, r] or obj["degenerate"]:
        return "triple or degenerate flag"
    s = obj["seifert"]
    b, legs = s["b"], [tuple(leg) for leg in s["legs"]]
    prod = p * q * r
    if [a for a, _ in legs] != [p, q, r] or not all(0 < beta < a for a, beta in legs):
        return "seifert legs out of range"
    if b * prod + sum(beta * (prod // a) for a, beta in legs) != -1:
        return "seifert equation"

    weights = obj["plumbing"]["weights"]
    edges = obj["plumbing"]["edges"]
    n = len(weights)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    # the printed graph is the star of the printed Seifert data: centre b,
    # and each leg's weights are the negated continued fraction of a/beta
    if n < 4 or weights[0] != b or len(edges) != n - 1 or len(adj[0]) != 3:
        return "plumbing is not a 3-legged star"
    leg_values = []
    for start in adj[0]:
        chain, prev, cur = [], 0, start
        while True:
            chain.append(-weights[cur])
            nxt = [k for k in adj[cur] if k != prev]
            if len(nxt) > 1:
                return "plumbing leg branches"
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        leg_values.append(_neg_cf_value(chain))
    if sorted(leg_values) != sorted(Fraction(a, beta) for a, beta in legs):
        return "plumbing legs do not expand a/beta"

    if abs(obj["determinant"]) != 1 or obj["negative_definite"] is not True:
        return "not unimodular negative definite"
    sig = obj["signature"]
    if sig != -n:
        return "signature != -(vertex count)"

    w = obj["wu_class"]
    if len(w) != n or any(c not in (0, 1) for c in w):
        return "wu class shape"
    for i in range(n):
        if (weights[i] * w[i] + sum(w[j] for j in adj[i]) - weights[i]) % 2:
            return "wu class is not characteristic"
    w2 = sum(weights[i] for i in range(n) if w[i]) + 2 * sum(
        1 for i, j in edges if w[i] and w[j]
    )
    if obj["wu_square"] != w2:
        return "wu_square != w.A.w"
    if (sig - w2) % 8 or obj["mubar"] != (sig - w2) // 8:
        return "mubar != (signature - wu_square)/8"
    if obj["obstructed"] != (obj["mubar"] != 0):
        return "obstructed flag"

    casson = casson_closed_form(p, q, r)
    if obj["casson"] != casson:
        return f"casson {obj['casson']} != closed form {casson}"
    if (obj["mubar"] - casson) % 2:
        return "Rokhlin congruence mubar = casson mod 2"
    return None
