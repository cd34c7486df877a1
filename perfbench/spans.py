"""Outside-in spans for the traced pass, installed by rebinding names.

The package imports functions by name (``from .plumbing import
determinant``), so one function can be bound in several module namespaces.
`Tracer.install` replaces every binding of each traced function, in every
loaded ``brieskorn`` module, by a wrapper that records a span; `restore`
puts the originals back and checks that none is left behind.  Nothing under
``src/`` is edited.

A span is ``[function index, parent span index, call id, start_ns, end_ns]``
on the process CPU-time clock; spans live in memory until the run writes
them out.  A layer's self time is
the sum over its spans of duration minus the durations of direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> functions whose spans it owns, as (module, name); time spent in
# untraced helpers counts as self time of the nearest traced caller
LAYERS = {
    "seifert": [("seifert", "seifert_invariants")],
    "plumbing.build": [("plumbing", "brieskorn_plumbing"), ("plumbing", "intersection_matrix")],
    "plumbing.det": [("plumbing", "determinant")],
    "plumbing.inertia": [("plumbing", "inertia")],
    "wu": [("wu", "wu_class"), ("wu", "wu_square"), ("wu", "mubar")],
    "report": [("report", "build_report"), ("report", "triple_summary")],
    "kirby.generate": [("kirby", "script_generator")],
    "kirby.replay": [("kirby", "replay")],
    "kirby.moves": [("kirby", "blow_down"), ("kirby", "slide"), ("kirby", "blow_up")],
    "kirby.json": [("kirby", "script_to_json"), ("kirby", "script_from_json")],
    "casson": [("casson", "casson_brieskorn")],
    "cli": [("cli", "main")],
}

FUNCS = [(layer, mod, name) for layer, funcs in LAYERS.items() for mod, name in funcs]


def _vertices(args, result):
    return result.vertex_count


def _lattice_points(args, result):
    p, q, r = args[0].components
    return (p - 1) * (q - 1) * (r - 1)


def _emitted_moves(args, result):
    return len(result.moves)


# sizes read off arguments or results of traced calls; summed per round
OBSERVERS = {
    ("plumbing", "brieskorn_plumbing"): ("vertices", _vertices),
    ("casson", "casson_brieskorn"): ("lattice_points", _lattice_points),
    ("kirby", "script_generator"): ("emitted_moves", _emitted_moves),
}


class Tracer:
    def __init__(self):
        self.spans: list[list[int]] = []
        self.sizes: dict[str, int] = {}
        self.call_id = 0
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, observer):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        clock = time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [fid, stack[-1] if stack else -1, self.call_id, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if observer is not None:
                key, size_of = observer
                sizes[key] = sizes.get(key, 0) + size_of(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "brieskorn" or name.startswith("brieskorn."))
        ]
        for fid, (_, mod, name) in enumerate(FUNCS):
            orig = getattr(sys.modules[f"brieskorn.{mod}"], name)
            wrapper = self._wrap(fid, orig, OBSERVERS.get((mod, name)))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, orig))

    def restore(self) -> bool:
        """Put every original back; True iff no wrapper is left bound."""
        for m, attr, orig in self._rebound:
            setattr(m, attr, orig)
        ok = all(getattr(m, attr) is orig for m, attr, orig in self._rebound)
        self._rebound.clear()
        return ok

    def layer_totals(self, scales: list[float]) -> dict[str, dict[str, float]]:
        """Per layer: span count and self time in ms, each span scaled by its
        call's speed factor; per function: span count."""
        child_ns = [0] * len(self.spans)
        for fid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        funcs = {f"{mod}.{name}": 0 for _, mod, name in FUNCS}
        for k, (fid, _, call, start, end) in enumerate(self.spans):
            layer, mod, name = FUNCS[fid]
            layers[layer]["calls"] += 1
            layers[layer]["self_ns"] += (end - start - child_ns[k]) * scales[call]
            funcs[f"{mod}.{name}"] += 1
        return {
            "layers": {
                layer: {"calls": v["calls"], "self_ms": v["self_ns"] / 1e6}
                for layer, v in layers.items()
            },
            "funcs": funcs,
        }

    def write(self, path: str) -> None:
        """One JSON array per span, after a header naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "fields": ["id", "parent", "call", "func", "start_ns", "end_ns"],
                "funcs": [f"{mod}.{name}" for _, mod, name in FUNCS],
            }) + "\n")
            for k, (fid, parent, call, start, end) in enumerate(self.spans):
                fh.write(f"[{k},{parent},{call},{fid},{start},{end}]\n")
