"""Framed-link Kirby calculus at the linking-matrix level.

A framed link is a list of labeled components plus a symmetric integer
matrix: diagonal entries are framings, off-diagonal entries linking numbers.
Three moves act on it:

* blow-down of a (+-1)-framed component c: delete c and apply the Schur
  step  m[j][k] -= eps * m[j][c] * m[c][k]  to the rest (eps = framing);
* handle slide of i over j with sign s: the congruence row/col i += s *
  row/col j, which adds s times j's class to i;
* blow-up: append a new component with prescribed sign and linking vector.

Move scripts (initial link, move list, expected final link) replay move by
move with per-step legality and determinant tracking.  Scripts for the
built-in Brieskorn families are generated by a deterministic cascade: blow
down whatever sits at framing -1, manufacturing new -1-framed components with
at most two handle slides when none is available, then hand the final curve
over to freshly blown-up components K (and m) that present the target surgery
description.

The engine certifies linking-matrix facts only; which isotopy class a
surviving component represents is recorded as an unverified annotation.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import compress
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import (
    DuplicateLabel,
    FinalMismatch,
    IllegalBlowdown,
    SameComponent,
    ScriptFormatError,
    StepIllegal,
    UnsupportedFamily,
)
from .plumbing import (
    IntMatrix,
    PlumbingGraph,
    _bareiss_determinant,
    _forest_adjacency,
    _star_legs,
    brieskorn_plumbing,
    determinant,
    star_exceeds,
    tree_invariants,
)
from .seifert import FAMILIES, family


class FramedLink:
    """Labeled components with a symmetric integer linking matrix, held as
    sparse rows: ``rows`` is keyed by the labels in order, and ``rows[a]``
    maps each b with m[a][b] != 0 (b = a for the framing) to that entry.
    Zeros are never stored, so equal links have equal rows.  Links are
    immutable; moves share the rows they leave alone, and the dense
    `matrix` is built on demand."""

    __slots__ = ("rows",)

    def __init__(self, labels, matrix: IntMatrix):
        self.rows = _sparse_rows(tuple(labels), matrix.entries)

    @classmethod
    def _of(cls, rows: dict) -> "FramedLink":
        link = object.__new__(cls)
        link.rows = rows
        return link

    @property
    def labels(self) -> tuple:
        return tuple(self.rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> IntMatrix:
        return IntMatrix(tuple(map(tuple, self._dense(0, int))))

    def _dense(self, zero, cell) -> list[list]:
        """Rows in label order: ``zero`` everywhere, ``cell(x)`` at each nonzero x."""
        pos = {a: k for k, a in enumerate(self.rows)}
        blank = [zero] * len(pos)
        out = []
        for r in self.rows.values():
            row = blank.copy()
            for b, x in r.items():
                row[pos[b]] = cell(x)
            out.append(row)
        return out

    def _row(self, label) -> dict:
        try:
            return self.rows[label]
        except KeyError:
            raise KeyError(f"no component {label!r}") from None

    def framing(self, label: str) -> int:
        return self._row(label).get(label, 0)

    def __eq__(self, other):
        if not isinstance(other, FramedLink):
            return NotImplemented
        return self.rows == other.rows and list(self.rows) == list(other.rows)

    def __hash__(self):
        return hash((self.labels, frozenset((a, b, x) for a, r in self.rows.items() for b, x in r.items())))

    def __repr__(self):
        return f"FramedLink(labels={self.labels!r}, matrix={self.matrix!r})"

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "matrix": self._dense(0, int)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FramedLink":
        """Inverse of `to_json_obj`; labels a list of strings, the matrix a
        list of lists of integers, else TypeError or ValueError."""
        labels, rows = obj["labels"], obj["matrix"]
        if not isinstance(labels, list):
            raise TypeError(f"labels must be a list, got {labels!r}")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise TypeError(f"matrix must be a list of lists, got {rows!r}")
        labels = tuple(_json_label(x) for x in labels)
        return cls._of(_sparse_rows(labels, rows))


def _sparse_rows(labels: tuple, matrix) -> dict:
    """Sparse rows keyed in label order, checked in the same pass: one distinct
    label per row, square, exact ints, symmetric (on the nonzeros, enough)."""
    n = len(matrix)
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError("the matrix needs one distinct label per row")
    rows = {}
    for a, row in zip(labels, matrix):
        if len(row) != n or set(map(type, row)) - {int}:
            raise ValueError(f"matrix row {a!r} is not a row of {n} integers")
        rows[a] = dict(zip(compress(labels, row), compress(row, row)))
    if any(rows[b].get(a) != x for a, row in rows.items() for b, x in row.items()):
        raise ValueError("matrix is not symmetric")
    return rows


def _json_label(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string label, got {v!r}")
    return v


class Blowdown(namedtuple("Blowdown", "component")):
    __slots__ = ()
    op = "blowdown"

    def to_json_obj(self) -> dict:
        return {"op": "blowdown", "component": self.component}

    def describe(self) -> str:
        return f"blowdown:{self.component}"


class Slide(namedtuple("Slide", "moving over sign")):
    __slots__ = ()
    op = "slide"

    def to_json_obj(self) -> dict:
        return {"op": "slide", "moving": self.moving, "over": self.over, "sign": self.sign}

    def describe(self) -> str:
        return f"slide:{self.moving}/{self.over}:{self.sign:+d}"


class Blowup(namedtuple("Blowup", "sign linking label")):
    """``linking`` is the new component's linking vector, one int per old component."""

    __slots__ = ()
    op = "blowup"

    def to_json_obj(self) -> dict:
        return {"op": "blowup", "sign": self.sign, "linking": list(self.linking), "label": self.label}

    def describe(self) -> str:
        return f"blowup:{self.label}:{self.sign:+d}"


KirbyMove = Blowdown | Slide | Blowup


class KirbyScript(namedtuple("KirbyScript", "name initial moves expect annotations", defaults=((),))):
    """``initial`` and ``expect`` are FramedLinks, ``moves`` a tuple of KirbyMove
    and ``annotations`` a tuple of strings."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "initial": self.initial.to_json_obj(),
            "moves": [mv.to_json_obj() for mv in self.moves],
            "expect": self.expect.to_json_obj(),
            "annotations": list(self.annotations),
        }


class TraceStep(namedtuple("TraceStep", "step op det legal")):
    """``op`` is the move's `describe` text."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {"step": self.step, "op": self.op, "det": self.det, "legal": self.legal}

    def to_json(self) -> str:
        """``json.dumps(self.to_json_obj())``, ValueError on too long an int included."""
        legal = "true" if self.legal else "false"
        return '{"step": %d, "op": %s, "det": %d, "legal": %s}' % (
            self.step, _encode_str(self.op), self.det, legal)


class ReplayTrace(namedtuple("ReplayTrace", "script steps final")):
    """``steps`` is a tuple of TraceStep and ``final`` the link after the last move."""

    __slots__ = ()

    def to_json_lines(self) -> str:
        return "\n".join([s.to_json() for s in self.steps])


# ---------------------------------------------------------------------------
# moves


def plumbing_to_link(g: PlumbingGraph) -> FramedLink:
    """One component per vertex: framing = weight, linking 1 per edge.

    Canonical star graphs are labeled v0 (center) then L<leg>-<position>;
    anything else falls back to v0..v{n-1}.
    """
    labels = [f"v{i}" for i in range(g.vertex_count)]
    deg = g.degrees()
    if g.vertex_count >= 4 and deg[0] == 3 and all(d <= 2 for d in deg[1:]):
        for leg, chain in enumerate(_star_legs(g, 0), 1):
            for pos, v in enumerate(chain, 1):
                labels[v] = f"L{leg}-{pos}"
    rows = {}
    for a, w, nbrs in zip(labels, g.weights, g.adj):
        row = rows[a] = {labels[u]: x for u, x in nbrs}
        if w:
            row[a] = w
    return FramedLink._of(rows)


def _check_sign(sign, move: str) -> None:
    # exact ints only: the moves store the sign in the rows as given
    if isinstance(sign, bool) or not isinstance(sign, int) or sign not in (1, -1):
        raise ValueError(f"{move} sign must be +1 or -1")


def blow_down(link: FramedLink, component: str) -> FramedLink:
    """Remove a (+-1)-framed component c by the Schur complement step; only
    the rows of c's neighbours change, in O(deg(c)^2) entries."""
    rc = link._row(component)
    eps = rc.get(component, 0)
    if eps not in (1, -1):
        raise IllegalBlowdown(f"{component} has framing {eps}, not +-1")
    rows = link.rows.copy()
    del rows[component]
    nbrs = [(b, x) for b, x in rc.items() if b != component]
    for j, a in nbrs:
        row = rows[j] = rows[j].copy()
        del row[component]
        a *= eps
        for k, y in nbrs:
            x = row.get(k, 0) - a * y
            if x:
                row[k] = x
            else:
                del row[k]
    return FramedLink._of(rows)


def _slid_framing(ri: dict, rj: dict, i, j, s: int) -> int:
    """Framing of i after sliding it over j with sign s."""
    return ri.get(i, 0) + 2 * s * ri.get(j, 0) + rj.get(j, 0)


def _slid_row(ri: dict, rj: dict, i, j, s: int) -> dict:
    """Row i after sliding i over j with sign s: row i + s * row j, then the framing."""
    row = ri.copy()
    for k, y in rj.items():
        row[k] = row.get(k, 0) + s * y
    row[i] = _slid_framing(ri, rj, i, j, s)
    return {k: x for k, x in row.items() if x}


def slide(link: FramedLink, moving: str, over: str, sign: int) -> FramedLink:
    """Congruence row/col(moving) += sign * row/col(over); det is preserved.
    Besides row i (moving), only the rows in the support of row j change."""
    if moving == over:
        raise SameComponent(moving)
    _check_sign(sign, "slide")
    ri, rj = link._row(moving), link._row(over)
    rows = link.rows.copy()
    new = rows[moving] = _slid_row(ri, rj, moving, over, sign)
    for k in rj:
        if k != moving:
            row = rows[k] = rows[k].copy()
            row.pop(moving, None)
            if k in new:
                row[moving] = new[k]
    return FramedLink._of(rows)


def blow_up(link: FramedLink, sign: int, linking, label: str) -> FramedLink:
    """Append a component with the given framing sign and linking vector."""
    _check_sign(sign, "blow-up")
    if label in link.rows:
        raise DuplicateLabel(label)
    for x in linking:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"linking number {x!r} is not an integer")
    linking = tuple(linking)
    if len(linking) != link.size:
        raise ValueError(
            f"linking vector length {len(linking)} != link size {link.size}"
        )
    rows = link.rows.copy()
    new = rows[label] = {label: sign}
    for a, x in zip(link.labels, linking):
        if x:
            new[a] = x
            rows[a] = {**rows[a], label: x}
    return FramedLink._of(rows)


def apply_move(link: FramedLink, move: KirbyMove) -> FramedLink:
    if isinstance(move, Blowdown):
        return blow_down(link, move.component)
    if isinstance(move, Slide):
        return slide(link, move.moving, move.over, move.sign)
    if isinstance(move, Blowup):
        return blow_up(link, move.sign, move.linking, move.label)
    raise TypeError(f"unknown move {move!r}")


def replay(script: KirbyScript) -> ReplayTrace:
    """Apply the moves in order, recording determinant and legality.

    Each trace step holds the move, the exact determinant after it, and a
    legality flag; of the links, only the final one is kept.  The
    determinant is computed from the initial link's rows (`_link_determinant`:
    the tree kernel on a forest, else Bareiss), and then follows each move by
    its identity: a blow-down of a component framed eps multiplies it by eps,
    a slide keeps it, an unlinked blow-up of sign s multiplies it by s; only a
    blow-up with a nonzero linking vector recomputes it, from the rows again.
    The tracked value is checked against `determinant` of the final dense
    matrix, the only one replay builds when every recompute meets a forest.

    Raises StepIllegal on the first illegal move (its trace step carries the
    pre-move determinant) and FinalMismatch when the final state differs
    from ``expect`` (labels in order, matrices entrywise).  Both exceptions
    carry the partial trace.
    """
    state = script.initial
    det = _link_determinant(state)
    steps: list[TraceStep] = []
    for idx, move in enumerate(script.moves):
        try:
            after = apply_move(state, move)
        except (IllegalBlowdown, SameComponent, DuplicateLabel, KeyError, ValueError) as exc:
            steps.append(TraceStep(idx + 1, move.describe(), det, False))
            raise StepIllegal(idx, str(exc), trace=tuple(steps)) from exc
        if isinstance(move, Blowdown):
            det *= state.framing(move.component)
        elif isinstance(move, Blowup):
            det = _link_determinant(after) if any(move.linking) else det * move.sign
        state = after
        steps.append(TraceStep(idx + 1, move.describe(), det, True))
    assert det == determinant(state.matrix), "tracked determinant disagrees with the final link"
    if state != script.expect:
        raise FinalMismatch(_diff_links(script.expect, state), trace=tuple(steps))
    return ReplayTrace(script, tuple(steps), state)


def _link_determinant(link: FramedLink) -> int:
    """det of the link's matrix: the tree kernel (`tree_invariants`) on its
    rows when they form a forest (every plumbing link does), else Bareiss."""
    pos = {a: k for k, a in enumerate(link.rows)}
    edges = ((pos[a], pos[b], x) for a, r in link.rows.items() for b, x in r.items() if pos[a] < pos[b])
    adj = _forest_adjacency(len(pos), edges)
    if adj is None:
        return _bareiss_determinant(link.matrix)
    return tree_invariants([r.get(a, 0) for a, r in link.rows.items()], adj).det


def _diff_links(expect: FramedLink, got: FramedLink) -> str:
    if expect.labels != got.labels:
        return f"labels differ: expected {list(expect.labels)}, got {list(got.labels)}"
    cells = [
        f"[{i}][{j}] expected {x}, got {y}"
        for i, rows in enumerate(zip(expect._dense(0, int), got._dense(0, int)))
        for j, (x, y) in enumerate(zip(*rows)) if x != y
    ]
    return "matrix differs: " + "; ".join(cells)


# ---------------------------------------------------------------------------
# script file format


def script_to_json(script: KirbyScript) -> str:
    """``json.dumps(script.to_json_obj(), indent=1)``, byte for byte; the
    matrices are written straight from the sparse rows."""
    return "{\n " + ",\n ".join([
        '"name": ' + _dumps_indent1(script.name, "\n "),
        '"initial": ' + _link_json(script.initial, "\n "),
        '"moves": ' + _dumps_indent1([mv.to_json_obj() for mv in script.moves], "\n "),
        '"expect": ' + _link_json(script.expect, "\n "),
        '"annotations": ' + _dumps_indent1(list(script.annotations), "\n "),
    ]) + "\n}"


def _link_json(link: FramedLink, pad: str) -> str:
    # `_dumps_indent1` of link.to_json_obj(); each matrix row is a list of
    # "0" cells with the nonzeros set, then joined
    keys, rows, cells = pad + " ", pad + "  ", pad + "   "
    matrix = "[" + rows + ("," + rows).join([
        "[" + cells + ("," + cells).join(r) + rows + "]" for r in link._dense("0", int.__repr__)
    ]) + keys + "]" if link.rows else "[]"
    labels = _dumps_indent1(list(link.labels), keys)
    return "{" + keys + '"labels": ' + labels + "," + keys + '"matrix": ' + matrix + pad + "}"


def _dumps_indent1(obj, pad: str) -> str:
    # json.dumps with an indent runs the stdlib's pure-Python encoder; this
    # joins the same text directly.  Scripts hold only dicts with str keys,
    # lists, str and int; anything else (and empty containers) goes to json.
    inner = pad + " "
    sep = "," + inner
    t = type(obj)
    if t is list and obj:
        return "[" + inner + sep.join([
            int.__repr__(x) if type(x) is int else _dumps_indent1(x, inner) for x in obj
        ]) + pad + "]"
    if t is dict and obj:
        return "{" + inner + sep.join([
            _encode_str(k) + ": " + _dumps_indent1(v, inner) for k, v in obj.items()
        ]) + pad + "}"
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    return json.dumps(obj)


def script_from_json(text: str) -> KirbyScript:
    """Parse the script wire format; raises ScriptFormatError on any defect.

    Labels, in a link and in a move, must be JSON strings; a link's matrix is
    a list of lists of integers (see `FramedLink.from_json_obj`).
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also int-digit limit, deep nesting
        raise ScriptFormatError(f"invalid JSON: {exc}") from exc

    def strict_int(v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ScriptFormatError(f"expected an integer, got {v!r}")
        return v

    try:
        moves = []
        for mv in obj["moves"]:
            op = mv["op"]
            if op == "blowdown":
                moves.append(Blowdown(_json_label(mv["component"])))
            elif op == "slide":
                moving, over = _json_label(mv["moving"]), _json_label(mv["over"])
                moves.append(Slide(moving, over, strict_int(mv["sign"])))
            elif op == "blowup":
                sign, linking = strict_int(mv["sign"]), tuple(map(strict_int, mv["linking"]))
                moves.append(Blowup(sign, linking, _json_label(mv["label"])))
            else:
                raise ScriptFormatError(f"unknown op {op!r}")
        name, annotations = obj["name"], obj.get("annotations", [])
        if not isinstance(name, str):
            raise ScriptFormatError(f"name must be a string, got {name!r}")
        if not isinstance(annotations, list) or not all(isinstance(s, str) for s in annotations):
            raise ScriptFormatError(f"annotations must be a list of strings, got {annotations!r}")
        return KirbyScript(
            name=name,
            initial=FramedLink.from_json_obj(obj["initial"]),
            moves=tuple(moves),
            expect=FramedLink.from_json_obj(obj["expect"]),
            annotations=tuple(annotations),
        )
    except ScriptFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScriptFormatError(f"malformed script object: {exc}") from exc


# ---------------------------------------------------------------------------
# script generation for the built-in families

#: families with a scripted reduction and their final surgery presentation:
#: "km" ends at labels (K, m) with matrix [[0,1],[1,-1]] (0-framed knot K plus
#: a (-1)-framed curve meeting it once); "single" ends at one (+1)-framed K.
SCRIPTED_FAMILIES = {
    "thm1-even2": "km",
    "thm1-even3": "km",
    "thm2-single13": "single",
    "thm2-single25": "single",
    "thm2-2a": "km",
    "thm2-3a": "km",
    "thm2-2b": "km",
    "thm2-3b": "km",
    "thm2-2c": "km",
    "thm2-3c": "km",
}

KM_TARGET = FramedLink._of({"K": {"m": 1}, "m": {"K": 1, "m": -1}})
SINGLE_TARGET = FramedLink._of({"K": {"K": 1}})


def _find_minus_one_slide(link: FramedLink):
    """First slide (or same-mover slide pair) that makes some framing -1.

    Only slides over a linked component count.  Rows and their supports are
    walked in label order, so generation is deterministic; the second slide
    of a pair is scored on the row the first one leaves (`_slid_row`).
    """
    rows = link.rows
    pos = {a: k for k, a in enumerate(rows)}

    def support(a, row):
        return sorted((b for b in row if b != a), key=pos.__getitem__)

    for i, ri in rows.items():
        for j in support(i, ri):
            for s in (1, -1):
                if _slid_framing(ri, rows[j], i, j, s) == -1:
                    return [Slide(i, j, s)]
    for i, ri in rows.items():
        for j in support(i, ri):
            for s1 in (1, -1):
                slid = _slid_row(ri, rows[j], i, j, s1)
                for k in support(i, slid):
                    for s2 in (1, -1):
                        if _slid_framing(slid, rows[k], i, k, s2) == -1:
                            return [Slide(i, j, s1), Slide(i, k, s2)]
    return None


def _cascade_moves(link: FramedLink):
    """Blow the link down to a single component; returns (moves, final link).

    Greedy loop: blow down the first (-1)-framed component; when none exists,
    apply the first slide combination manufacturing one.  Every supported
    family reduces this way (the -1 cascade consumes one chain vertex per
    step, which is the matrix-level form of the inductive reduction).
    """
    moves: list[KirbyMove] = []
    state = link
    while state.size > 1:
        target = next((a for a, r in state.rows.items() if r.get(a) == -1), None)
        if target is not None:
            moves.append(Blowdown(target))
            state = blow_down(state, target)
            continue
        slides = _find_minus_one_slide(state)
        if slides is None:
            raise UnsupportedFamily("cascade stalled: no -1-producing slide found")
        for mv in slides:
            state = slide(state, mv.moving, mv.over, mv.sign)
            moves.append(mv)
    return moves, state


def _endgame_moves(state: FramedLink, target_kind: str):
    """From a single (-1)-framed component to the target presentation.

    K is blown up, slid over the survivor so that it inherits its class, and
    the survivor is blown down; for the "km" target a (-1)-framed m is then
    blown up and K slides over it to become 0-framed.
    """
    (t,) = state.labels
    if state.framing(t) != -1:
        raise UnsupportedFamily(f"cascade ended at framing {state.framing(t)}, expected -1")
    moves: list[KirbyMove] = [
        Blowup(1, (0,), "K"),
        Slide("K", t, 1),
        Blowdown(t),
    ]
    if target_kind == "single":
        return moves, SINGLE_TARGET
    moves += [
        Blowup(-1, (0,), "m"),
        Slide("K", "m", -1),
    ]
    return moves, KM_TARGET


#: Largest plumbing link `script_generator` takes on: a script file holds the
#: initial link as a dense V x V matrix, 7 MB at V = 1,000 and 28 MB here.
MAX_SCRIPT_VERTICES = 2000


def script_generator(family_id: str, n: int) -> KirbyScript:
    """Blow-down script for a supported family member, verified on creation.

    The move list is: a short prelude opening the plumbing star, one chain
    blow-down per reduction stage (n-1 stages mirror the induction down to
    the base case), the base-case blow-downs, and the endgame that presents
    the final surgery curve(s).  Every move is applied once, through the
    same move functions `replay` uses; the result is not replayed here.
    Raises FinalMismatch if the moves do not end at ``expect``, and
    UnsupportedFamily above `MAX_SCRIPT_VERTICES`, before the plumbing is
    built.
    """
    kind = SCRIPTED_FAMILIES.get(family_id)
    if kind is None:
        if family_id in FAMILIES:
            raise UnsupportedFamily(f"no scripted reduction for family {family_id}")
        raise UnsupportedFamily(f"unknown family {family_id!r}; scripts exist for {', '.join(SCRIPTED_FAMILIES)}")
    triple = family(family_id, n)
    if star_exceeds(triple, MAX_SCRIPT_VERTICES):
        raise UnsupportedFamily(
            f"{family_id} n={n}: more than {MAX_SCRIPT_VERTICES} vertices, the cap for scripts"
        )
    graph = brieskorn_plumbing(triple)
    initial = plumbing_to_link(graph)
    moves, last = _cascade_moves(initial)
    tail, expect = _endgame_moves(last, kind)
    blowdowns = sum(1 for mv in moves if isinstance(mv, Blowdown))
    annotations = [
        f"{triple}: {graph.vertex_count}-vertex plumbing link blown down to "
        f"{'(K,m): 0-framed K with a (-1)-framed meridian-like curve' if kind == 'km' else 'a single (+1)-framed K'}",
        f"{blowdowns} cascade blow-downs; stages beyond the base case consume one chain vertex each",
        "isotopy classes of surviving curves are not certified at the linking-matrix level",
    ]
    # generation is self-checking: the cascade has applied its moves, so the
    # endgame is applied to its last state and must land on the target
    for mv in tail:
        last = apply_move(last, mv)
    if last != expect:
        raise FinalMismatch(_diff_links(expect, last))
    return KirbyScript(
        name=f"{family_id}:n={n}",
        initial=initial,
        moves=tuple(moves + tail),
        expect=expect,
        annotations=tuple(annotations),
    )
