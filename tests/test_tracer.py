"""The benchmark's span tracer keeps working against the package it wraps.

``perfbench/spans.py`` rebinds public functions by name from outside the
package, so renaming or moving one of them would silently drop its spans
(``tests/test_package.py`` checks that every traced name resolves).  The
module is loaded by path here, as the benchmark runner loads it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import blocktropy as bt

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "blocktropy" or name.startswith("blocktropy.")
        for attr, value in vars(module).items()
    }


def test_recorder_uninstall_restores_bindings():
    spans = _load_spans()
    for layer in spans.WRAPPED:
        importlib.import_module(f"blocktropy.{layer}")
    before = _package_bindings()
    post_init = bt.BlockDistribution.__post_init__
    recorder = spans.Recorder()
    recorder.install()
    try:
        for layer, names in spans.WRAPPED.items():
            for name in names:
                assert before[(f"blocktropy.{layer}", name)] is not getattr(
                    sys.modules[f"blocktropy.{layer}"], name
                ), f"blocktropy.{layer}.{name} was not wrapped"
    finally:
        recorder.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert bt.BlockDistribution.__post_init__ is post_init
