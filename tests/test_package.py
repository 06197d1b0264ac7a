"""The package namespace is the union of its layer modules' public lists."""

from __future__ import annotations

import importlib
import inspect

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
