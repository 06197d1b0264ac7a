"""Input guards of the public layers: each malformed input raises its
documented error before any work is done."""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np
import pytest

import blocktropy as bt
from blocktropy import typegraphs

from conftest import CHAIN_CONFIG

CHAIN = bt.potential_from_config(CHAIN_CONFIG)
UNIFORM_1 = bt.BlockDistribution(2, 1, np.full(2, 0.5))
UNIFORM_2 = bt.BlockDistribution(2, 2, np.full(4, 0.25))
#: two 1-marginals (0.9, 0.1) and (0.7, 0.3): not the law of a stationary process
SKEWED = bt.BlockDistribution(2, 2, np.array([0.7, 0.2, 0.0, 0.1]))
#: a normalized values-form potential config, 1-blocks of a fair coin
FAIR_VALUES = {
    "type": "values", "alphabet_size": 2, "k": 1, "values": [-math.log(2)] * 2
}
#: a rate curve whose grid holds u = 0, where an infinite slope gives inf * 0
CURVE_AT_ZERO = bt.RateCurve("entropy_rate", np.array([0.0, 0.1]), np.array([0.0, 0.5]))


def _bad_kernel_paths():
    sd = bt.pressure(CHAIN, 1.0)
    return bt.sample_paths(dataclasses.replace(sd, kernel=sd.kernel * 1.01), 10, seed=1)


#: name -> (call, error type, message fragment of the guard that must fire)
GUARDS = {
    "block-law-alphabet": (
        lambda: bt.BlockDistribution(1, 1, np.ones(1)), ValueError, "integer >= 2"
    ),
    "block-law-alphabet-float": (
        lambda: bt.BlockDistribution(2.0, 2, np.full(4, 0.25)),
        ValueError,
        "alphabet size must be an integer >= 2",
    ),
    "block-law-order": (
        lambda: bt.BlockDistribution(2, 0, np.ones(1)), ValueError, "integer >= 1"
    ),
    "block-law-order-float": (
        lambda: bt.BlockDistribution(2, 1.0, np.full(2, 0.5)),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "block-law-nan": (
        lambda: bt.BlockDistribution(2, 1, np.array([math.nan, math.nan])),
        ValueError,
        "not 1",
    ),
    "window-codes-order": (
        lambda: bt.window_codes(np.array([0, 1]), 0, 2),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "cyclic-codes-order-float": (
        lambda: bt.cyclic_window_codes(np.array([0, 1]), 1.5, 2),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "block-counts-order": (
        lambda: bt.block_counts(np.array([0, 1, 1, 0]), 0, 2),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "plug-in-order": (
        lambda: bt.plug_in_estimates(np.array([0, 1, 1, 0]), 0, 2),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "block-counts-order-huge": (
        lambda: bt.plug_in_estimates(np.zeros(100, np.int8), 64, 2),
        ValueError,
        r"A\*\*k <= 2\*\*24",
    ),
    "block-counts-order-wide": (
        lambda: bt.block_counts(np.zeros(100, np.int8), 28, 2),
        ValueError,
        r"A\*\*k <= 2\*\*24",
    ),
    "cyclic-codes-order-wide": (
        lambda: bt.cyclic_window_codes(np.zeros(100, np.int8), 28, 2),
        ValueError,
        r"A\*\*k <= 2\*\*24",
    ),
    "window-codes-short": (
        lambda: bt.window_codes(np.array([0, 1]), 3, 2), ValueError, "no 3-windows"
    ),
    "cyclic-codes-empty": (
        lambda: bt.cyclic_window_codes(np.array([], dtype=int), 1, 2),
        ValueError,
        "empty sample",
    ),
    "cyclic-codes-order": (
        lambda: bt.cyclic_window_codes(np.array([0, 1]), 3, 2),
        ValueError,
        "exceeds sample length",
    ),
    "empirical-measure-2d": (
        lambda: bt.empirical_block_measure(np.zeros((2, 4), int), 1, 2),
        ValueError,
        "1-d sample",
    ),
    "plug-in-2d": (
        lambda: bt.plug_in_estimates(np.zeros((2, 4), int), 1, 2),
        ValueError,
        "1-d sample",
    ),
    "marginalize-k1": (
        lambda: bt.marginalize(UNIFORM_1), ValueError, "cannot marginalize"
    ),
    "tv-spaces": (
        lambda: bt.tv_distance(UNIFORM_1, UNIFORM_2), ValueError, "block spaces"
    ),
    "reference-space": (
        lambda: bt.plug_in_estimates(np.array([0, 1, 1, 0]), 2, 2, UNIFORM_1),
        ValueError,
        "block spaces",
    ),
    "schedule-n": (lambda: bt.block_schedule(0, 2, 0.2), ValueError, "integer >= 1"),
    "schedule-alphabet": (
        lambda: bt.block_schedule(100, 1, 0.2), ValueError, "integer >= 2"
    ),
    "schedule-n-float": (
        lambda: bt.block_schedule(100.5, 2, 0.2),
        ValueError,
        "sample size n must be an integer",
    ),
    "schedule-alphabet-float": (
        lambda: bt.block_schedule(100, 2.5, 0.2),
        ValueError,
        "alphabet size must be an integer",
    ),
    "type-bound-length-float": (
        lambda: bt.type_count_bound(4.0, 2, 2), ValueError, "n must be an integer"
    ),
    "type-bound-order-float": (
        lambda: bt.type_count_bound(4, 2.0, 2),
        ValueError,
        "block length k must be an integer",
    ),
    "type-bound-alphabet-float": (
        lambda: bt.type_count_bound(4, 2, 2.0),
        ValueError,
        "alphabet size must be an integer",
    ),
    "functionals-shape": (
        lambda: bt.functionals_from_counts(np.ones(4, int), 2),
        ValueError,
        "matrix of block counts",
    ),
    "functionals-negative-count": (
        lambda: bt.functionals_from_counts(np.array([[3, -1, 2, 0]]), 2),
        ValueError,
        "nonnegative integers",
    ),
    "functionals-fractional-count": (
        lambda: bt.functionals_from_counts(
            np.array([[1.5, 0.5, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0]]), 2
        ),
        ValueError,
        "nonnegative integers",
    ),
    "continuity-delta": (
        lambda: bt.continuity_bound(-0.1, 2, 2), ValueError, "nonnegative"
    ),
    "continuity-delta-nan": (
        lambda: bt.continuity_bound(math.nan, 2, 2), ValueError, "nonnegative"
    ),
    "select-reference": (
        lambda: bt.select_functional(
            "relative_conditional", np.zeros((3, 4), int), 2, None
        ),
        ValueError,
        "needs a reference",
    ),
    "config-potential": (
        lambda: bt.ExperimentConfig(potential=[CHAIN_CONFIG]),
        ValueError,
        "must be a mapping",
    ),
    "pressure-beta-nan": (
        lambda: bt.pressure(CHAIN, math.nan), ValueError, "beta must be finite"
    ),
    "pressure-beta-inf": (
        lambda: bt.pressure(CHAIN, math.inf), ValueError, "beta must be finite"
    ),
    "pressure-beta-neg-inf": (
        lambda: bt.pressure(CHAIN, -math.inf), ValueError, "beta must be finite"
    ),
    "information-scgf-inf": (
        lambda: bt.information_scgf(CHAIN, math.inf),
        ValueError,
        "beta must be finite",
    ),
    "direct-pressure-nan": (
        lambda: bt.direct_pressure_estimate(CHAIN, math.nan, 10),
        ValueError,
        "beta must be finite",
    ),
    "direct-pressure-length-float": (
        lambda: bt.direct_pressure_estimate(CHAIN, 1.0, 10.5),
        ValueError,
        "n must be an integer >= 1",
    ),
    "mc-scgf-length-float": (
        lambda: bt.mc_scgf(
            bt.pressure(CHAIN, 1.0), 16.5, 2, 0.5, "conditional", 8, 1
        ),
        ValueError,
        "path length n must be an integer >= 1",
    ),
    "mc-scgf-replicas-float": (
        lambda: bt.mc_scgf(
            bt.pressure(CHAIN, 1.0), 16, 2, 0.5, "conditional", 4.5, 1
        ),
        ValueError,
        "replicas must be an integer",
    ),
    "variance-audit-length-float": (
        lambda: bt.variance_audit(CHAIN, 16.5, 8, 1),
        ValueError,
        "path length n must be an integer >= 1",
    ),
    "variance-audit-replicas-float": (
        lambda: bt.variance_audit(CHAIN, 16, 4.5, 1),
        ValueError,
        "replicas must be an integer",
    ),
    "exact-scgf-length-float": (
        lambda: bt.exact_finite_scgf(CHAIN, 10.0, 2, 0.5),
        ValueError,
        "path length n must be an integer >= 1",
    ),
    "legendre-nan": (
        lambda: bt.legendre(
            bt.RateCurve("entropy_rate", np.array([0.1]), np.array([0.0])), math.nan
        ),
        ValueError,
        "got nan",
    ),
    "legendre-inf": (
        lambda: bt.legendre(CURVE_AT_ZERO, math.inf), ValueError, "slope must be finite"
    ),
    "legendre-neg-inf": (
        lambda: bt.legendre(CURVE_AT_ZERO, -math.inf), ValueError, "slope must be finite"
    ),
    "empirical-rate-bin-width-inf": (
        lambda: bt.empirical_rate([0.1, 0.2], 10, math.inf),
        ValueError,
        "bin_width must be positive and finite",
    ),
    "empirical-rate-nan": (
        lambda: bt.empirical_rate([0.1, math.nan], 10, 0.02),
        ValueError,
        "values must be finite",
    ),
    "empirical-rate-length-float": (
        lambda: bt.empirical_rate([0.1, 0.2], 10.5, 0.1),
        ValueError,
        "path length n must be a positive integer",
    ),
    "empirical-rate-inf": (
        lambda: bt.empirical_rate([0.1, math.inf], 10, 0.02),
        ValueError,
        "values must be finite",
    ),
    "relative-rate-stationary": (
        lambda: bt.relative_entropy_rate(SKEWED, CHAIN), ValueError, "stationary"
    ),
    "markov-blocks-stationary": (
        lambda: bt.markov_blocks(SKEWED, 3), ValueError, "stationary"
    ),
    "sampler-kernel-rows": (_bad_kernel_paths, ValueError, "kernel rows"),
    "sampler-seed-float": (
        lambda: bt.sample_paths(bt.pressure(CHAIN, 1.0), 10, 1.5),
        ValueError,
        "seed must be an integer",
    ),
    "sampler-length-float": (
        lambda: bt.sample_paths(bt.pressure(CHAIN, 1.0), 1.5, 1),
        ValueError,
        "path length must be an integer",
    ),
    "sampler-replicas-float": (
        lambda: bt.sample_paths(bt.pressure(CHAIN, 1.0), 10, 1, replicas=1.5),
        ValueError,
        "replicas must be an integer >= 1",
    ),
    "sampler-replicas-negative": (
        lambda: bt.sample_paths(bt.pressure(CHAIN, 1.0), 10, 1, replicas=-1),
        ValueError,
        "replicas must be an integer >= 1",
    ),
    "count-table-shape": (
        lambda: bt.CountTable(2, 2, 4, np.ones(5, int)), ValueError, "4 counts"
    ),
    "count-table-alphabet-float": (
        lambda: bt.CountTable(2.0, 2, 4, np.ones(4, int)),
        ValueError,
        "alphabet size must be an integer >= 2",
    ),
    "count-table-order-float": (
        lambda: bt.CountTable(2, 2.0, 4, np.ones(4, int)),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "count-table-total-float": (
        lambda: bt.CountTable(2, 2, 4.0, np.ones(4, int)),
        ValueError,
        "total n must be an integer",
    ),
    "enumerate-types-alphabet-float": (
        lambda: bt.enumerate_types(4, 2, 2.0),
        ValueError,
        "alphabet size must be an integer >= 2",
    ),
    "enumerate-types-order-float": (
        lambda: bt.enumerate_types(4, 2.0, 2),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "enumerate-types-length-float": (
        lambda: bt.enumerate_types(4.0, 2, 2), ValueError, "n must be an integer"
    ),
    "round-to-type-length-float": (
        lambda: bt.round_to_type(bt.BlockDistribution(2, 1, [0.3, 0.7]), 10.0),
        ValueError,
        "n must be an integer >= 1",
    ),
    "round-to-type-length-string": (
        lambda: bt.round_to_type(UNIFORM_2, "10"),
        ValueError,
        "n must be an integer >= 2",
    ),
    "round-to-type-length-huge": (
        lambda: bt.round_to_type(UNIFORM_2, 2**70),
        ValueError,
        r"n must be at most 2\*\*53",
    ),
    "class-size-mode": (
        lambda: bt.type_class_size(bt.CountTable(2, 2, 4, np.ones(4, int)), "census"),
        ValueError,
        "mode must be",
    ),
    "cycle-empty": (lambda: bt.CycleMeasure(2, 2, ()), ValueError, "empty cycle"),
    "cycle-revisit": (
        lambda: bt.CycleMeasure(2, 2, (0, 1)), ValueError, "revisits a vertex"
    ),
    "cycle-arcs-float": (
        lambda: bt.CycleMeasure(2, 2, (1.0, 2.0)), ValueError, "arcs must be integers"
    ),
    "cycle-arcs-float-array": (
        lambda: bt.CycleMeasure(2, 2, np.array([1.0, 2.0])),
        ValueError,
        "arcs must be integers",
    ),
    "cycle-arcs-bool": (
        lambda: bt.CycleMeasure(2, 1, (True,)), ValueError, "arcs must be integers"
    ),
    "cycle-arcs-scalar": (
        lambda: bt.CycleMeasure(2, 2, 3), ValueError, "arcs must be integers"
    ),
    "cycle-arcs-out-of-range": (
        lambda: bt.CycleMeasure(2, 2, (7,)), ValueError, "do not chain"
    ),
    "cycle-order": (
        lambda: bt.CycleMeasure(2, 0, (0,)),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "cycle-order-float": (
        lambda: bt.CycleMeasure(2, 2.0, (1, 2)),
        ValueError,
        "block length k must be an integer >= 1",
    ),
    "cycle-alphabet": (
        lambda: bt.CycleMeasure(1, 2, (0,)),
        ValueError,
        "alphabet size must be an integer >= 2",
    ),
    "strings-chunk-aliases": (
        lambda: typegraphs.enumerate_strings_chunk(0, 100, 3, 2),
        ValueError,
        r"hi must be at most A\*\*n = 2\*\*3, got 100",
    ),
    "strings-chunk-past-end": (
        lambda: typegraphs.enumerate_strings_chunk(0, 3**5 + 1, 5, 3),
        ValueError,
        "hi must be at most",
    ),
    "strings-chunk-negative-start": (
        lambda: typegraphs.enumerate_strings_chunk(-1, 3, 3, 2),
        ValueError,
        "lo must be an integer >= 0",
    ),
    "strings-chunk-float-end": (
        lambda: typegraphs.enumerate_strings_chunk(0, 3.0, 3, 2),
        ValueError,
        "hi must be an integer >= 0",
    ),
    "strings-chunk-reversed": (
        lambda: typegraphs.enumerate_strings_chunk(5, 4, 3, 2),
        ValueError,
        "hi must be an integer >= 5",
    ),
    "strings-chunk-alphabet": (
        lambda: typegraphs.enumerate_strings_chunk(0, 1, 3, 1),
        ValueError,
        "alphabet size must be an integer >= 2",
    ),
    "strings-chunk-length": (
        lambda: typegraphs.enumerate_strings_chunk(0, 1, 0, 2),
        ValueError,
        "string length n must be an integer >= 1",
    ),
    "cycle-decompose-stationary": (
        lambda: bt.cycle_decompose(SKEWED), ValueError, "stationary"
    ),
    "potential-alphabet": (
        lambda: bt.MarkovPotential(1, 2, [0.0]), ValueError, "integer >= 2"
    ),
    "potential-alphabet-float": (
        lambda: bt.MarkovPotential(2.0, 1, [0.0, 0.0]), ValueError, "integer >= 2"
    ),
    "potential-order": (
        lambda: bt.MarkovPotential(2, 0, [0.0]), ValueError, "integer >= 1"
    ),
    "potential-order-bool": (
        lambda: bt.MarkovPotential(2, True, [0.0, 0.0]), ValueError, "integer >= 1"
    ),
    "config-values-alphabet-null": (
        lambda: bt.potential_from_config({**FAIR_VALUES, "alphabet_size": None}),
        ValueError,
        "integer >= 2",
    ),
    "config-values-normalize-string": (
        lambda: bt.potential_from_config({**FAIR_VALUES, "normalize": "false"}),
        ValueError,
        "normalize must be true or false",
    ),
    "path-file-symbol": (
        lambda: bt.write_path_file(os.devnull, np.array([0, 5, 1]), 2, 1),
        ValueError,
        "outside the alphabet",
    ),
    "path-file-negative-symbol": (
        lambda: bt.write_path_file(os.devnull, np.array([0, -1]), 2, 1),
        ValueError,
        "outside the alphabet",
    ),
    "path-file-seed-negative": (
        lambda: bt.write_path_file(os.devnull, np.array([0, 1]), 2, -1),
        ValueError,
        "64 bits",
    ),
    "path-file-seed-wide": (
        lambda: bt.write_path_file(os.devnull, np.array([0, 1]), 2, 1 << 64),
        ValueError,
        "64 bits",
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_input_guard_raises(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=message):
        call()
