"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions named in ``WRAPPED`` from outside
the package: each function is replaced in its defining module and in every
``blocktropy`` module that imported it by name (``pressure`` is bound in
``pressure``, ``rates``, ``harness``, ``cli`` and the package namespace), so
calls between modules open child spans.  A span holds its name, start, end,
parent and the exception type it raised, if any.  Spans stay in memory until
the pass ends; self time is a span's duration minus the durations of its
direct children.  Nothing in the package is edited, and ``uninstall``
restores every binding, so untraced passes run the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict

#: Public functions traced, by defining module (module names are the layers).
WRAPPED = {
    "cli": ("main",),
    "harness": (
        "run_ldp",
        "run_lln",
        "mc_scgf",
        "exact_finite_scgf",
        "variance_audit",
        "decomposition_audit",
        "write_report",
    ),
    "simulate": ("sample_paths",),
    "entropy": ("plug_in_estimates",),
    "blocks": ("empirical_block_measure", "cyclic_window_codes"),
    "pressure": ("pressure", "normalize_potential"),
    "rates": (
        "entropy_rate_function",
        "entropy_scgf",
        "information_scgf",
        "relative_scgf",
        "zero_temperature_entropy",
        "asymptotic_variance",
        "extreme_mean",
    ),
    "typegraphs": (
        "type_class_size",
        "enumerate_types",
        "round_to_type",
        "cycle_decompose",
        "realize_sample",
        "enumerate_strings_chunk",
    ),
}

_SCGFS = ("rates.entropy_scgf", "rates.information_scgf", "rates.relative_scgf")


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Recorder:
    """Spans and counters of one traced pass at a time."""

    def __init__(self):
        self._bindings = []  # (owner, attribute, original) to restore
        self.reset()

    def reset(self):
        self.names, self.parents, self.starts, self.ends, self.errors = [], [], [], [], []
        self._stack = []
        self.counts = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self):
        for layer in WRAPPED:
            importlib.import_module(f"blocktropy.{layer}")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "blocktropy" or name.startswith("blocktropy.")
        ]
        for layer, functions in WRAPPED.items():
            home = sys.modules[f"blocktropy.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original))
                            setattr(module, attr, wrapper)
        block_cls = sys.modules["blocktropy.blocks"].BlockDistribution
        original_post_init = block_cls.__post_init__

        def counted_post_init(dist):
            self.counts["blocks.distributions_built"] += 1
            original_post_init(dist)

        self._bindings.append((block_cls, "__post_init__", original_post_init))
        block_cls.__post_init__ = counted_post_init

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.errors.append(None)
            self.ends.append(0.0)
            self._stack.append(sid)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[sid] = type(exc).__name__
                raise
            finally:
                self.ends[sid] = time.perf_counter()
                self._stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return traced

    # -- reduction --------------------------------------------------------

    def summary(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        inside_rate_point = [False] * len(durations)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[sid]
                inside_rate_point[sid] = inside_rate_point[parent]
            if self.names[sid] == "rates.entropy_rate_function":
                inside_rate_point[sid] = True

        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        raised = defaultdict(int)
        spans_of = defaultdict(list)
        for sid, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += durations[sid] - child_time[sid]
            total_s[name] += durations[sid]
            spans_of[name].append(durations[sid])
            if self.errors[sid] is not None:
                raised[name] += 1
        rate_point_solves = sum(
            1
            for sid, name in enumerate(self.names)
            if name == "pressure.pressure"
            and self.parents[sid] >= 0
            and inside_rate_point[self.parents[sid]]
        )

        m = {}
        for layer, functions in WRAPPED.items():
            for fname in functions:
                name = f"{layer}.{fname}"
                m[f"{name}.calls"] = calls[name]
                m[f"{name}.self_s"] = self_s[name]
        m["rates.scgf.calls"] = sum(calls[n] for n in _SCGFS)
        m["rates.scgf.self_s"] = sum(self_s[n] for n in _SCGFS)

        symbols = self.counts["simulate.symbols"]
        sampler_s = self_s["simulate.sample_paths"]
        m["simulate.symbols"] = symbols
        m["simulate.msym_per_s"] = symbols / sampler_s / 1e6 if sampler_s > 0 else 0.0

        estimates = calls["entropy.plug_in_estimates"]
        estimate_s = total_s["entropy.plug_in_estimates"]
        m["entropy.estimates_per_s"] = estimates / estimate_s if estimate_s > 0 else 0.0

        m["blocks.distributions_built"] = self.counts["blocks.distributions_built"]

        solves = calls["pressure.pressure"]
        m["pressure.pressure.raised"] = raised["pressure.pressure"]
        m["pressure.ok_ratio"] = (solves - raised["pressure.pressure"]) / solves if solves else 0.0
        m["pressure.solve_ms_p50"] = 1e3 * _percentile(spans_of["pressure.pressure"], 50)

        points = calls["rates.entropy_rate_function"]
        m["rates.solves_per_point"] = rate_point_solves / points if points else 0.0

        sizes = spans_of["typegraphs.type_class_size"]
        m["typegraphs.size_ms_p50"] = 1e3 * _percentile(sizes, 50)
        m["typegraphs.size_ms_p95"] = 1e3 * _percentile(sizes, 95)
        enumerated = self.counts["typegraphs.strings_enumerated"]
        exact_strings = self.counts["typegraphs.exact_strings"]
        m["typegraphs.strings_enumerated"] = enumerated
        m["typegraphs.size_useful_ratio"] = (
            self.counts["typegraphs.exact_sizes_sum"] / exact_strings if exact_strings else 0.0
        )

        m["harness.report_bytes"] = self.counts["harness.report_bytes"]
        return m

    def dump(self, path):
        """Write the spans of the current pass as JSON, times relative to
        the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            {
                "id": sid,
                "name": name,
                "parent": self.parents[sid],
                "start_s": self.starts[sid] - origin,
                "end_s": self.ends[sid] - origin,
                "error": self.errors[sid],
            }
            for sid, name in enumerate(self.names)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


def _count_symbols(counts, args, result):
    counts["simulate.symbols"] += int(result.size)


def _count_type_class(counts, args, result):
    if args["mode"] == "exact":
        table = args["table"]
        strings = table.alphabet_size**table.n
        counts["typegraphs.strings_enumerated"] += strings
        counts["typegraphs.exact_strings"] += strings
        counts["typegraphs.exact_sizes_sum"] += int(result)


def _count_census(counts, args, result):
    counts["typegraphs.strings_enumerated"] += args["alphabet_size"] ** args["n"]


def _count_report(counts, args, result):
    counts["harness.report_bytes"] += sum(os.path.getsize(p) for p in result.values())


_COUNTERS = {
    "simulate.sample_paths": _count_symbols,
    "typegraphs.type_class_size": _count_type_class,
    "typegraphs.enumerate_types": _count_census,
    "harness.write_report": _count_report,
}


def median_metrics(summaries):
    """Per-metric median over the traced passes of one run."""
    return {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
