"""Word codecs, block distributions, windows, and the block-order schedule."""

from __future__ import annotations

import math

import numpy as np
import pytest

import blocktropy as bt


def test_word_codec_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        A = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        word = tuple(int(s) for s in rng.integers(0, A, size=k))
        code = bt.word_to_index(word, A)
        assert 0 <= code < A**k
        assert bt.index_to_word(code, k, A) == word


def test_word_codec_known_values():
    assert bt.word_to_index((0, 1), 2) == 1
    assert bt.word_to_index((1, 0), 2) == 2
    assert bt.word_to_index((1, 1, 1), 2) == 7
    assert bt.index_to_word(5, 3, 2) == (1, 0, 1)


def test_word_codec_rejects_bad_symbols():
    with pytest.raises(ValueError):
        bt.word_to_index((0, 2), 2)
    with pytest.raises(ValueError):
        bt.index_to_word(8, 3, 2)


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


def test_stationarity_flag_validation():
    w = np.array([0.7, 0.2, 0.0, 0.1])  # marginals (0.9,0.1) vs (0.7,0.3)
    with pytest.raises(ValueError):
        bt.BlockDistribution(2, 2, w, stationary=True)
    nu = bt.BlockDistribution(2, 2, w)  # fine without the flag
    assert bt.stationarity_defect(nu) > 0.1


def test_distribution_validation():
    with pytest.raises(ValueError):
        bt.BlockDistribution(2, 2, np.array([0.5, 0.5]))  # wrong size
    with pytest.raises(ValueError):
        bt.BlockDistribution(2, 1, np.array([0.6, 0.6]))  # mass != 1
    with pytest.raises(ValueError):
        bt.BlockDistribution(2, 1, np.array([1.2, -0.2]))  # negative


def test_tv_distance_and_prob():
    a = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    b = bt.BlockDistribution(2, 1, np.array([1.0, 0.0]))
    assert bt.tv_distance(a, b) == pytest.approx(1.0)
    assert a.prob((0,)) == pytest.approx(0.5)
    assert b.support_size == 1


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
