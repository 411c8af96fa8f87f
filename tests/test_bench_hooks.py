"""The benchmark's tracer hooks resolve in quatsys.

`perfbench/tracer.py` wraps the callables of its TARGETS list by name at run
time.  A renamed function or method would only show as an error in a traced
benchmark run; this test reads TARGETS (without importing the tracer) and
resolves each one the way `Tracer.install` does: a function as a module
attribute, a method in its class's own `__dict__`.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


TARGETS = _targets()


def test_targets_are_listed():
    assert TARGETS and all(len(t) == 3 for t in TARGETS)


@pytest.mark.parametrize("span, module, attr", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(span, module, attr):
    assert module == "quatsys" or module.startswith("quatsys."), span
    owner = importlib.import_module(module)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name, None)
        assert isinstance(cls, type), f"{span}: {module}.{cls_name} is not a class"
        assert name in cls.__dict__, f"{span}: {name} is not defined on {cls_name} itself"
        assert callable(getattr(cls, name)), span
    else:
        assert callable(getattr(owner, name, None)), f"{span}: {module}.{name} is missing"
