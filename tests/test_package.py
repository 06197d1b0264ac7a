"""The package namespace is the union of its layer modules' public lists."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import blocktropy as bt

LAYERS = ("blocks", "entropy", "harness", "pressure", "rates", "simulate", "typegraphs")


def test_all_lists_every_layer_name():
    assert "equilibrium_blocks" in bt.__all__
    assert "markov_blocks" in bt.__all__
    assert len(set(bt.__all__)) == len(bt.__all__)
    for layer in LAYERS:
        module = importlib.import_module(f"blocktropy.{layer}")
        for name in module.__all__:
            assert name in bt.__all__, f"blocktropy.{layer}.{name}"
            assert getattr(bt, name) is getattr(module, name)


def test_star_import_resolves_every_name():
    namespace: dict[str, object] = {}
    exec("from blocktropy import *", namespace)
    assert set(bt.__all__) <= set(namespace)
    assert inspect.isfunction(bt.pressure)
    assert namespace["pressure"] is bt.pressure


def _referenced_names(path: Path) -> set[str]:
    """Every identifier a file's code uses: Name and Attribute nodes and
    import aliases; strings and docstrings do not count."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    # a public name must be used by the package, the benchmark, the
    # acceptance tests or their fixtures, or be documented in the README;
    # a name only the unit tests reach is dead surface
    root = Path(__file__).resolve().parent.parent
    callers = [
        *sorted((root / "src" / "blocktropy").glob("*.py")),
        *sorted((root / "perfbench").glob("*.py")),
        root / "tests" / "test_acceptance.py",
        root / "tests" / "conftest.py",
    ]
    used = set().union(*map(_referenced_names, callers))
    readme = (root / "README.md").read_text()
    orphans = [
        f"blocktropy.{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"blocktropy.{layer}").__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert not orphans, f"public names with no caller: {orphans}"
