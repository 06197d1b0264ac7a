"""Input guards of the public layers: each malformed input raises its
documented error before any work is done."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import blocktropy as bt

from conftest import CHAIN_CONFIG

CHAIN = bt.potential_from_config(CHAIN_CONFIG)
UNIFORM_1 = bt.BlockDistribution(2, 1, np.full(2, 0.5), stationary=True)
UNIFORM_2 = bt.BlockDistribution(2, 2, np.full(4, 0.25), stationary=True)
#: two 1-marginals (0.9, 0.1) and (0.7, 0.3): not the law of a stationary process
SKEWED = bt.BlockDistribution(2, 2, np.array([0.7, 0.2, 0.0, 0.1]))


def _bad_kernel_paths():
    sd = bt.pressure(CHAIN, 1.0)
    return bt.sample_paths(dataclasses.replace(sd, kernel=sd.kernel * 1.01), 10, seed=1)


#: name -> (call, error type, message fragment of the guard that must fire)
GUARDS = {
    "block-law-alphabet": (
        lambda: bt.BlockDistribution(1, 1, np.ones(1)), ValueError, "two symbols"
    ),
    "block-law-order": (
        lambda: bt.BlockDistribution(2, 0, np.ones(1)), ValueError, "k must be >= 1"
    ),
    "block-law-prob-length": (lambda: UNIFORM_2.prob((0,)), ValueError, "2-word"),
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
    "schedule-n": (lambda: bt.block_schedule(0, 2, 0.2), ValueError, "positive"),
    "schedule-alphabet": (
        lambda: bt.block_schedule(100, 1, 0.2), ValueError, "two symbols"
    ),
    "functionals-shape": (
        lambda: bt.functionals_from_counts(np.ones(4, int), 4, 2),
        ValueError,
        "matrix of block counts",
    ),
    "continuity-delta": (
        lambda: bt.continuity_bound(-0.1, 2, 2), ValueError, "nonnegative"
    ),
    "select-reference": (
        lambda: bt.select_functional("relative_conditional", np.zeros((3, 2)), 2),
        ValueError,
        "needs a reference",
    ),
    "config-potential": (
        lambda: bt.ExperimentConfig(potential=[CHAIN_CONFIG]),
        ValueError,
        "must be a mapping",
    ),
    "marginals-space": (
        lambda: bt.potential_from_marginals(UNIFORM_2, UNIFORM_2),
        ValueError,
        "wrong block space",
    ),
    "relative-rate-stationary": (
        lambda: bt.relative_entropy_rate(SKEWED, CHAIN), ValueError, "stationary"
    ),
    "markov-blocks-stationary": (
        lambda: bt.markov_blocks(SKEWED, 3), ValueError, "stationary"
    ),
    "sampler-kernel-rows": (_bad_kernel_paths, ValueError, "kernel rows"),
    "count-table-shape": (
        lambda: bt.CountTable(2, 2, 4, np.ones(5, int)), ValueError, "4 counts"
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
    "cycle-decompose-stationary": (
        lambda: bt.cycle_decompose(SKEWED), ValueError, "stationary"
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_input_guard_raises(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=message):
        call()
