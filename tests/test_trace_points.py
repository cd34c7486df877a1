"""The traced benchmark pass finds every function it attributes time to.

`perfbench/spans.py` rebinds ``brieskorn.<module>.<name>`` for each entry of
its LAYERS and OBSERVERS tables; a renamed or inlined function would silently
drop out of the per-layer numbers.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
import pathlib
import sys

import brieskorn.kirby as kirby

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_brieskorn_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    names = [pair for funcs in spans.LAYERS.values() for pair in funcs] + list(spans.OBSERVERS)
    assert names
    for mod, name in names:
        module = importlib.import_module(f"brieskorn.{mod}")
        assert callable(getattr(module, name, None)), f"brieskorn.{mod}.{name}"


def test_moves_go_through_the_rebindable_names(monkeypatch):
    # replay and the generator look the moves up as module globals, so the
    # tracer's rebinding sees every application
    spans = load_spans(monkeypatch)
    calls = []
    for mod, name in spans.LAYERS["kirby.moves"]:
        assert mod == "kirby"
        orig = getattr(kirby, name)

        def traced(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(kirby, name, traced)
    script = kirby.script_generator("thm1-even3", 3)
    kirby.replay(script)
    ops = {"blowdown": "blow_down", "slide": "slide", "blowup": "blow_up"}
    assert sorted(calls) == sorted(2 * [ops[mv.op] for mv in script.moves])
