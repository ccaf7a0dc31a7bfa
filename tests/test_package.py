"""Package surface: every exported name resolves, and one propagator."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import peflow


@pytest.mark.parametrize("module", peflow.__all__)
def test_public_names_resolve(module):
    mod = importlib.import_module(f"peflow.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _callers(name: str) -> set[str]:
    """`module.function` (`module.Class`, or `module` at module level) of
    every call to `name`, plain or as an attribute, in the package source."""
    found = set()
    for path in Path(peflow.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            label = path.stem
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                label += f".{top.name}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        found.add(label)
    return found


def test_one_propagator():
    # x' = -S(t) x (+ u) has one right-hand side, and one method cuts spans
    # at segment boundaries for its two walkers
    assert _callers("adaptive_rk45") == {"flow.propagate", "extremal2d.integrate_extremal"}
    assert _callers("pieces") == {"flow.propagate", "signals.gram"}
