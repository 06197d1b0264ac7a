"""The package namespace is the union of its layer modules' public lists."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import blocktropy as bt

from test_harness import EXAMPLE_CSV_SHA256

LAYERS = ("blocks", "entropy", "harness", "pressure", "rates", "simulate", "typegraphs")
ROOT = Path(__file__).resolve().parent.parent
#: the package, the benchmark, the acceptance tests and their fixtures
CALLERS = [
    *sorted((ROOT / "src" / "blocktropy").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
]


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
    used = set().union(*map(_referenced_names, CALLERS))
    readme = (ROOT / "README.md").read_text()
    orphans = [
        f"blocktropy.{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"blocktropy.{layer}").__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert not orphans, f"public names with no caller: {orphans}"


def _passed_arguments(paths: list[Path]) -> dict[str, list[tuple[float, set[str]]]]:
    """For every callee name in the files, each call's number of positional
    arguments and its keywords; a ``*args`` counts as every position and a
    ``**kwargs`` as every keyword (the name ``**``).  ``ops.run(label, fn,
    *args)`` of the benchmark counts as a call of ``fn`` with ``args``."""
    calls: dict[str, list[tuple[float, set[str]]]] = {}

    def record(callee: ast.expr, args: list[ast.expr], keywords: set[str]) -> None:
        name = getattr(callee, "id", getattr(callee, "attr", None))
        starred = any(isinstance(arg, ast.Starred) for arg in args)
        count = math.inf if starred else len(args)
        calls.setdefault(name, []).append((count, keywords))

    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            record(node.func, node.args, {kw.arg or "**" for kw in node.keywords})
            if getattr(node.func, "attr", None) == "run" and len(node.args) >= 2:
                record(node.args[1], node.args[2:], set())
    return calls


def test_every_defaulted_parameter_is_passed():
    # an optional parameter of a public function must be set by some caller
    # outside the unit tests; one that none sets is an option nobody uses
    calls = _passed_arguments(CALLERS)
    unset = []
    for layer in LAYERS:
        module = importlib.import_module(f"blocktropy.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            params = list(inspect.signature(fn).parameters.values())
            for index, param in enumerate(params):
                if param.default is param.empty:
                    continue
                positional = param.kind is param.POSITIONAL_OR_KEYWORD
                if not any(
                    (positional and count > index) or {param.name, "**"} & keywords
                    for count, keywords in calls.get(name, [])
                ):
                    unset.append(f"{name}.{param.name}")
    assert not unset, f"defaulted parameters no caller passes: {unset}"


def _traced_names() -> dict[str, tuple[str, ...]]:
    """``WRAPPED`` of the benchmark's span tracer, read from its source:
    the module is neither imported nor run."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)
    )


def test_wrapped_names_resolve():
    # the tracer rebinds these names by string, so a renamed or deleted one
    # would otherwise only show up in a traced benchmark run
    missing = []
    for layer, names in _traced_names().items():
        module = importlib.import_module(f"blocktropy.{layer}")
        for name in names:
            if not callable(getattr(module, name, None)):
                missing.append(f"blocktropy.{layer}.{name}")
    assert not missing, f"traced names that are not callables: {missing}"


def test_example_csv_pins_agree_with_the_benchmark():
    # the unit tests and the benchmark pin the example CSVs separately; a
    # re-pin of one alone would pass here and fail the benchmark
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert expected["ldp_example_csv_sha256"] == EXAMPLE_CSV_SHA256


def test_import_does_not_load_numpy_random():
    # the sampler builds its generators from numpy.random on first use, so
    # importing the package leaves that module (about 16 ms) unloaded
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, blocktropy; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
