"""The benchmark's traced mode wraps library functions by name; every
binding it lists must still resolve, or a layer silently reads zero."""

import types
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_traced() -> types.ModuleType:
    """perfbench/traced.py as a module, compiled from its source without
    writing a bytecode cache next to it."""
    module = types.ModuleType("traced")
    module.__file__ = str(TRACED)
    exec(compile(TRACED.read_text(), str(TRACED), "exec"), module.__dict__)
    return module


def test_every_traced_binding_resolves():
    traced = load_traced()
    bindings = [b for _, layer_bindings, _, _ in traced.LAYERS for b in layer_bindings]
    assert bindings
    assert [b for b in bindings if traced._resolve(b) is None] == []
