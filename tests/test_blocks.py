"""Word codes, block distributions, windows, and the block-order schedule."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import blocktropy as bt
from blocktropy.blocks import _last_summed


def _code(word, alphabet_size: int) -> int:
    """The code of a k-word: the window code of the word read as a k-sample."""
    return int(bt.window_codes(np.array(word), len(word), alphabet_size)[0])


def test_word_codec_round_trip():
    # the base-A digits of a word's code, most significant first, are the word
    rng = np.random.default_rng(1)
    for _ in range(200):
        A = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        word = tuple(int(s) for s in rng.integers(0, A, size=k))
        code = _code(word, A)
        assert 0 <= code < A**k
        digits = []
        for _ in range(k):
            code, digit = divmod(code, A)
            digits.append(digit)
        assert tuple(reversed(digits)) == word


def test_word_codec_known_values():
    assert _code((0, 1), 2) == 1
    assert _code((1, 0), 2) == 2
    assert _code((1, 1, 1), 2) == 7
    assert _code((1, 0, 1), 2) == 5
    assert _code((2, 0), 3) == 6


def test_word_codec_rejects_bad_symbols():
    with pytest.raises(ValueError, match="outside the alphabet"):
        bt.block_counts(np.array([0, 2]), 2, 2)
    with pytest.raises(ValueError, match="outside the alphabet"):
        bt.empirical_block_measure(np.array([0, -1, 1]), 1, 2)


def test_window_codes_hand_example():
    x = np.array([0, 1, 1, 0])
    np.testing.assert_array_equal(bt.window_codes(x, 2, 2), [1, 3, 2])
    np.testing.assert_array_equal(bt.cyclic_window_codes(x, 2, 2), [1, 3, 2, 0])
    np.testing.assert_array_equal(bt.cyclic_window_codes(x, 1, 2), x)


def test_window_codes_batch_matches_rows():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 3, size=(5, 40))
    for k in (1, 2, 3):
        batch = bt.cyclic_window_codes(X, k, 3)
        for r in range(5):
            np.testing.assert_array_equal(
                batch[r], bt.cyclic_window_codes(X[r], k, 3)
            )
        batch_plain = bt.window_codes(X, k, 3)
        for r in range(5):
            np.testing.assert_array_equal(
                batch_plain[r], bt.window_codes(X[r], k, 3)
            )
        counts = bt.block_counts(X, k, 3)
        assert counts.shape == (5, 3**k)
        for r in range(5):
            np.testing.assert_array_equal(
                counts[r], np.bincount(batch[r], minlength=3**k)
            )
            np.testing.assert_array_equal(counts[r], bt.block_counts(X[r], k, 3))
    with pytest.raises(ValueError):
        bt.block_counts(X, 2, 2)  # symbol 2 outside a binary alphabet


def test_empirical_block_measure_is_stationary_and_exact():
    x = np.array([0, 1, 1, 0, 1])
    nu = bt.empirical_block_measure(x, 2, 2)
    assert nu.stationary
    # cyclic 2-windows of 01101: 01,11,10,01,10 -> counts (0,2,2,1)/5
    np.testing.assert_allclose(nu.weights, np.array([0, 2, 2, 1]) / 5)
    assert bt.stationarity_defect(nu) <= 1e-15


def test_marginalize_right_hand_value():
    # cyclic 3-windows of 01101: 011,110,101,010,101; their first two
    # symbols 01,11,10,01,10 give counts (0,2,2,1)/5
    nu = bt.empirical_block_measure(np.array([0, 1, 1, 0, 1]), 3, 2)
    right = bt.marginalize(nu)
    np.testing.assert_allclose(right.weights, np.array([0, 2, 2, 1]) / 5, atol=1e-15)
    assert right.k == 2 and right.stationary


@pytest.mark.parametrize("A", range(2, 10))
def test_last_symbol_marginals_keep_the_reduce_bits(A):
    # strided slice sums below A = 8 are numpy's reduce over the short axis,
    # bit for bit, on single vectors and on wide matrices of block laws
    rng = np.random.default_rng(A)
    for shape in ((A,), (A**3,), (1, A**2), (64, A**4), (7, 3 * A)):
        w = rng.random(shape) * rng.choice([1e-16, 1.0, 1e3], size=shape)
        want = np.add.reduce(w.reshape(shape[:-1] + (-1, A)), axis=-1)
        got = _last_summed(w, A)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), shape


@pytest.mark.parametrize("k", [28, 64])
def test_count_layer_refuses_an_order_without_a_table(k):
    # A**k > 2**24 is refused before any code or count array is built
    x = np.zeros(100, np.int8)
    tracemalloc.start()
    try:
        for call in (bt.cyclic_window_codes, bt.block_counts, bt.plug_in_estimates):
            with pytest.raises(ValueError, match=r"A\*\*k <= 2\*\*24"):
                call(x, k, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_stationarity_flag_validation():
    # the flag is measured, never declared
    w = np.array([0.7, 0.2, 0.0, 0.1])  # marginals (0.9,0.1) vs (0.7,0.3)
    nu = bt.BlockDistribution(2, 2, w)
    assert bt.stationarity_defect(nu) > 0.1 and not nu.stationary
    # a lopsided law whose two marginals agree exactly is stationary
    lopsided = bt.BlockDistribution(2, 2, np.array([0.7, 0.1, 0.1, 0.1]))
    assert bt.stationarity_defect(lopsided) == 0.0 and lopsided.stationary
    # every 1-block law is
    assert bt.BlockDistribution(2, 1, np.array([0.9, 0.1])).stationary
    # a defect just under the 1e-12 tolerance passes, twice that does not
    edge = np.array([0.25, 0.25 + 1e-12, 0.25, 0.25 - 1e-12])
    assert bt.BlockDistribution(2, 2, edge).stationary
    assert not bt.BlockDistribution(2, 2, edge + [0, 1e-12, 0, -1e-12]).stationary
    init = [f.name for f in dataclasses.fields(bt.BlockDistribution) if f.init]
    assert init == ["alphabet_size", "k", "weights"]


def test_distribution_validation():
    with pytest.raises(ValueError):
        bt.BlockDistribution(2, 2, np.array([0.5, 0.5]))  # wrong size
    with pytest.raises(ValueError):
        bt.BlockDistribution(2, 1, np.array([0.6, 0.6]))  # mass != 1
    with pytest.raises(ValueError):
        bt.BlockDistribution(2, 1, np.array([1.2, -0.2]))  # negative


@pytest.mark.parametrize(
    "build, given",
    [
        (lambda a: bt.BlockDistribution(2, 2, a).weights, np.full(4, 0.25)),
        (lambda a: bt.CountTable(2, 2, 2, a).counts, np.array([1, 0, 0, 1])),
        (lambda a: bt.MarkovPotential(2, 2, a).values, np.log(np.full(4, 0.5))),
    ],
    ids=["block-law", "count-table", "potential"],
)
def test_k_block_types_keep_a_read_only_copy(build, given):
    kept = build(given)
    assert given.flags.writeable and not kept.flags.writeable
    before = kept.copy()
    given[0] += 1
    np.testing.assert_array_equal(kept, before)


def test_tv_distance_and_prob():
    a = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    b = bt.BlockDistribution(2, 1, np.array([1.0, 0.0]))
    assert bt.tv_distance(a, b) == pytest.approx(1.0)
    # the mass of a word sits at its code
    assert a.weights[_code((0,), 2)] == 0.5
    assert b.weights[_code((1,), 2)] == 0.0


def test_block_schedule_reference_point():
    assert bt.block_schedule(1024, 2, 0.2) == 8


def test_block_schedule_growth_property():
    for n in (64, 256, 1024, 10**5):
        for A in (2, 3):
            for eps in (0.2, 0.5):
                k = bt.block_schedule(n, A, eps)
                unclamped = math.floor((1 - eps) * math.log(n) / math.log(A))
                if unclamped >= 1:
                    assert k == unclamped
                    assert A**k <= n ** (1 - eps) * (1 + 1e-12)
                else:
                    assert k == 1


def test_block_schedule_validates_epsilon():
    with pytest.raises(ValueError):
        bt.block_schedule(100, 2, 0.0)
    with pytest.raises(ValueError):
        bt.block_schedule(100, 2, 1.0)
