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
from dataclasses import dataclass
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
    _star_legs,
    brieskorn_plumbing,
    determinant,
    intersection_matrix,
)
from .seifert import FAMILIES, family


@dataclass(frozen=True)
class FramedLink:
    """Labeled components with a symmetric integer linking matrix."""

    labels: tuple[str, ...]
    matrix: IntMatrix

    def __post_init__(self):
        if len(self.labels) != self.matrix.n:
            raise ValueError("label count must match matrix dimension")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no component {label!r}") from None

    def framing(self, label: str) -> int:
        i = self.index(label)
        return self.matrix.entries[i][i]

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "matrix": [list(r) for r in self.matrix.entries]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FramedLink":
        """Inverse of `to_json_obj`; labels a list of strings, the matrix a
        list of lists of integers, else TypeError or ValueError."""
        labels, rows = obj["labels"], obj["matrix"]
        if not isinstance(labels, list):
            raise TypeError(f"labels must be a list, got {labels!r}")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise TypeError(f"matrix must be a list of lists, got {rows!r}")
        return cls(tuple(_json_label(x) for x in labels), IntMatrix.from_rows(rows))


def _json_label(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string label, got {v!r}")
    return v


@dataclass(frozen=True)
class Blowdown:
    component: str
    op = "blowdown"

    def to_json_obj(self) -> dict:
        return {"op": "blowdown", "component": self.component}

    def describe(self) -> str:
        return f"blowdown:{self.component}"


@dataclass(frozen=True)
class Slide:
    moving: str
    over: str
    sign: int
    op = "slide"

    def to_json_obj(self) -> dict:
        return {"op": "slide", "moving": self.moving, "over": self.over, "sign": self.sign}

    def describe(self) -> str:
        return f"slide:{self.moving}/{self.over}:{self.sign:+d}"


@dataclass(frozen=True)
class Blowup:
    sign: int
    linking: tuple[int, ...]
    label: str
    op = "blowup"

    def to_json_obj(self) -> dict:
        return {"op": "blowup", "sign": self.sign, "linking": list(self.linking), "label": self.label}

    def describe(self) -> str:
        return f"blowup:{self.label}:{self.sign:+d}"


KirbyMove = Blowdown | Slide | Blowup


@dataclass(frozen=True)
class KirbyScript:
    name: str
    initial: FramedLink
    moves: tuple[KirbyMove, ...]
    expect: FramedLink
    annotations: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "initial": self.initial.to_json_obj(),
            "moves": [mv.to_json_obj() for mv in self.moves],
            "expect": self.expect.to_json_obj(),
            "annotations": list(self.annotations),
        }


@dataclass(frozen=True)
class TraceStep:
    step: int
    op: str
    det: int
    legal: bool

    def to_json_obj(self) -> dict:
        return {"step": self.step, "op": self.op, "det": self.det, "legal": self.legal}


@dataclass(frozen=True)
class ReplayTrace:
    script: KirbyScript
    steps: tuple[TraceStep, ...]
    final: FramedLink

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(s.to_json_obj()) for s in self.steps)


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
    return FramedLink(tuple(labels), intersection_matrix(g))


def _check_sign(sign, move: str) -> None:
    # exact ints only: the moves write the sign into unchecked matrices
    if isinstance(sign, bool) or not isinstance(sign, int) or sign not in (1, -1):
        raise ValueError(f"{move} sign must be +1 or -1")


def blow_down(link: FramedLink, component: str) -> FramedLink:
    """Remove a (+-1)-framed component by the Schur complement step.

    Rows that do not link the component only lose its column; the others are
    rebuilt.
    """
    c = link.index(component)
    m = link.matrix.entries
    eps = m[c][c]
    if eps not in (1, -1):
        raise IllegalBlowdown(f"{component} has framing {eps}, not +-1")
    col = m[c][:c] + m[c][c + 1 :]  # row c is column c
    rows = []
    for j, row in enumerate(m):
        if j == c:
            continue
        kept = row[:c] + row[c + 1 :]
        a = eps * row[c]
        rows.append(tuple([x - a * y for x, y in zip(kept, col)]) if a else kept)
    return FramedLink(link.labels[:c] + link.labels[c + 1 :], IntMatrix._unchecked(tuple(rows)))


def slide(link: FramedLink, moving: str, over: str, sign: int) -> FramedLink:
    """Congruence row/col(moving) += sign * row/col(over); det is preserved.

    Besides row i (moving), only the rows k with m[j][k] != 0 change, and
    only in column i.
    """
    if moving == over:
        raise SameComponent(moving)
    _check_sign(sign, "slide")
    i = link.index(moving)
    j = link.index(over)
    m = link.matrix.entries
    mi, mj = m[i], m[j]
    new_i = [x + sign * y for x, y in zip(mi, mj)]
    new_i[i] = mi[i] + 2 * sign * mi[j] + mj[j]
    rows = list(m)
    rows[i] = new_i = tuple(new_i)
    for k, y in enumerate(mj):
        if y and k != i:
            row = m[k]
            rows[k] = row[:i] + (new_i[k],) + row[i + 1 :]
    return FramedLink(link.labels, IntMatrix._unchecked(tuple(rows)))


def blow_up(link: FramedLink, sign: int, linking, label: str) -> FramedLink:
    """Append a component with the given framing sign and linking vector."""
    _check_sign(sign, "blow-up")
    if label in link.labels:
        raise DuplicateLabel(label)
    for x in linking:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"linking number {x!r} is not an integer")
    linking = tuple(linking)
    if len(linking) != link.size:
        raise ValueError(
            f"linking vector length {len(linking)} != link size {link.size}"
        )
    rows = [r + (x,) for r, x in zip(link.matrix.entries, linking)]
    rows.append(linking + (sign,))
    return FramedLink(link.labels + (label,), IntMatrix._unchecked(tuple(rows)))


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
    determinant is computed once, for the initial link, and then follows
    each move by its identity: a blow-down of a component framed eps
    multiplies it by eps, a slide keeps it, an unlinked blow-up of sign s
    multiplies it by s; only a blow-up with a nonzero linking vector
    recomputes it.  The tracked value is checked against the final matrix.

    Raises StepIllegal on the first illegal move (its trace step carries the
    pre-move determinant) and FinalMismatch when the final state differs
    from ``expect`` (labels in order, matrices entrywise).  Both exceptions
    carry the partial trace.
    """
    state = script.initial
    det = determinant(state.matrix)
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
            det = determinant(after.matrix) if any(move.linking) else det * move.sign
        state = after
        steps.append(TraceStep(idx + 1, move.describe(), det, True))
    assert det == determinant(state.matrix), "tracked determinant disagrees with the final link"
    if state != script.expect:
        raise FinalMismatch(_diff_links(script.expect, state), trace=tuple(steps))
    return ReplayTrace(script, tuple(steps), state)


def _diff_links(expect: FramedLink, got: FramedLink) -> str:
    if expect.labels != got.labels:
        return f"labels differ: expected {list(expect.labels)}, got {list(got.labels)}"
    cells = [
        f"[{i}][{j}] expected {expect.matrix.entries[i][j]}, got {got.matrix.entries[i][j]}"
        for i in range(expect.size)
        for j in range(expect.size)
        if expect.matrix.entries[i][j] != got.matrix.entries[i][j]
    ]
    return "matrix differs: " + "; ".join(cells)


# ---------------------------------------------------------------------------
# script file format


def script_to_json(script: KirbyScript) -> str:
    """``json.dumps(script.to_json_obj(), indent=1)``, byte for byte."""
    return _dumps_indent1(script.to_json_obj(), "\n")


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
                moves.append(
                    Slide(_json_label(mv["moving"]), _json_label(mv["over"]), strict_int(mv["sign"]))
                )
            elif op == "blowup":
                moves.append(
                    Blowup(
                        strict_int(mv["sign"]),
                        tuple(strict_int(x) for x in mv["linking"]),
                        _json_label(mv["label"]),
                    )
                )
            else:
                raise ScriptFormatError(f"unknown op {op!r}")
        return KirbyScript(
            name=str(obj["name"]),
            initial=FramedLink.from_json_obj(obj["initial"]),
            moves=tuple(moves),
            expect=FramedLink.from_json_obj(obj["expect"]),
            annotations=tuple(str(s) for s in obj.get("annotations", [])),
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

KM_TARGET = FramedLink(("K", "m"), IntMatrix.from_rows([[0, 1], [1, -1]]))
SINGLE_TARGET = FramedLink(("K",), IntMatrix.from_rows([[1]]))


def _find_minus_one_slide(link: FramedLink):
    """First slide (or same-mover slide pair) that makes some framing -1.

    Only slides over a linked component are considered; the search order is
    fixed by label positions, so generation is deterministic.
    """
    m = link.matrix.entries
    n = link.size
    for i in range(n):
        for j in range(n):
            if i == j or m[i][j] == 0:
                continue
            for s in (1, -1):
                if m[i][i] + 2 * s * m[i][j] + m[j][j] == -1:
                    return [Slide(link.labels[i], link.labels[j], s)]
    # the second slide is scored on the entries the first one leaves:
    # m'[i][k] = m[i][k] + s1*m[j][k] and m'[i][i] = m[i][i] + 2*s1*m[i][j] + m[j][j];
    # the other diagonal entries do not change
    for i in range(n):
        mi = m[i]
        for j in range(n):
            if i == j or mi[j] == 0:
                continue
            mj = m[j]
            for s1 in (1, -1):
                ii = mi[i] + 2 * s1 * mi[j] + mj[j]
                for k in range(n):
                    ik = mi[k] + s1 * mj[k]
                    if k == i or ik == 0:
                        continue
                    for s2 in (1, -1):
                        if ii + 2 * s2 * ik + m[k][k] == -1:
                            return [
                                Slide(link.labels[i], link.labels[j], s1),
                                Slide(link.labels[i], link.labels[k], s2),
                            ]
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
        target = next(
            (lab for k, lab in enumerate(state.labels) if state.matrix.entries[k][k] == -1),
            None,
        )
        if target is not None:
            mv: KirbyMove = Blowdown(target)
            state = blow_down(state, target)
            moves.append(mv)
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
    if state.matrix.entries[0][0] != -1:
        raise UnsupportedFamily(
            f"cascade ended at framing {state.matrix.entries[0][0]}, expected -1"
        )
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


def script_generator(family_id: str, n: int) -> KirbyScript:
    """Blow-down script for a supported family member, verified on creation.

    The move list is: a short prelude opening the plumbing star, one chain
    blow-down per reduction stage (n-1 stages mirror the induction down to
    the base case), the base-case blow-downs, and the endgame that presents
    the final surgery curve(s).  Every move is applied once, through the
    same move functions `replay` uses; the result is not replayed here.
    Raises FinalMismatch if the moves do not end at ``expect``.
    """
    kind = SCRIPTED_FAMILIES.get(family_id)
    if kind is None:
        if family_id in FAMILIES:
            raise UnsupportedFamily(f"no scripted reduction for family {family_id}")
        raise UnsupportedFamily(f"unknown family {family_id}")
    triple = family(family_id, n)
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
