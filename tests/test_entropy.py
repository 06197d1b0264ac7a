"""Plug-in entropy functionals against hand arithmetic and small oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blocktropy as bt
from conftest import CHAIN_CONFIG


def _hand_entropy(weights) -> float:
    return -sum(w * math.log(w) for w in weights if w > 0)


def test_block_entropy_uniform_exact():
    for A in (2, 3):
        for k in (1, 2, 3):
            nu = bt.BlockDistribution(A, k, np.full(A**k, 1.0 / A**k))
            assert k * bt.measure_functional("average", nu) == pytest.approx(
                k * math.log(A), abs=1e-12
            )
            assert bt.conditional_block_entropy(nu) == pytest.approx(
                math.log(A), abs=1e-12
            )


def test_block_entropy_hand_value():
    nu = bt.BlockDistribution(2, 1, np.array([0.25, 0.75]))
    assert bt.measure_functional("average", nu) == pytest.approx(
        _hand_entropy([0.25, 0.75]), abs=1e-15
    )


def test_conditional_entropy_iid_blocks():
    # i.i.d. Bernoulli(p) k-blocks: conditional entropy is H(p) for every k
    p = 0.3
    for k in (1, 2, 3):
        w = np.array(
            [
                math.prod(p if b == "1" else 1 - p for b in format(c, f"0{k}b"))
                for c in range(2**k)
            ]
        )
        nu = bt.BlockDistribution(2, k, w)
        assert bt.conditional_block_entropy(nu) == pytest.approx(
            _hand_entropy([p, 1 - p]), abs=1e-12
        )


def test_relative_entropy_hand_value():
    nu = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    rho = bt.BlockDistribution(2, 1, np.array([0.25, 0.75]))
    expect = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert bt.measure_functional("relative_average", nu, rho) == pytest.approx(
        expect, abs=1e-15
    )


def test_relative_entropy_support_violation_is_inf():
    nu = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    rho = bt.BlockDistribution(2, 1, np.array([1.0, 0.0]))
    assert bt.measure_functional("relative_average", nu, rho) == math.inf
    assert bt.measure_functional("relative_conditional", nu, rho) == math.inf


def test_conditional_relative_entropy_chain_rule_nonnegative(make_stationary):
    # against a Markov reference, D_k - D_{k-1} >= 0
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        nu = make_stationary(rng, A, k)
        rho = make_stationary(rng, A, k)
        d = bt.measure_functional("relative_conditional", nu, rho)
        assert d >= -1e-12


def test_relative_entropy_zero_iff_equal(make_stationary):
    rng = np.random.default_rng(4)
    nu = make_stationary(rng, 2, 2)
    for name in ("relative_average", "relative_conditional"):
        assert bt.measure_functional(name, nu, nu) == pytest.approx(0.0, abs=1e-12)


def test_plug_in_estimates_hand_string():
    x = np.array([0, 1, 1, 0, 1])
    rec = bt.plug_in_estimates(x, 2, 2)
    # cyclic 2-block counts (0,2,2,1)/5; 1-block counts (2,3)/5
    h2 = _hand_entropy([2 / 5, 2 / 5, 1 / 5])
    h1 = _hand_entropy([2 / 5, 3 / 5])
    assert rec.block_entropy == pytest.approx(h2, abs=1e-14)
    assert rec.cond_entropy == pytest.approx(h2 - h1, abs=1e-14)
    assert rec.rel_entropy is None and rec.rel_cond_entropy is None
    assert rec.n == 5 and rec.k == 2


def test_plug_in_estimates_with_reference(chain_spectral):
    x = bt.sample_paths(chain_spectral, 4000, 11, 1)[0]
    rho = bt.equilibrium_blocks(chain_spectral, 3)
    rec = bt.plug_in_estimates(x, 3, 2, rho)
    assert rec.rel_entropy is not None and rec.rel_entropy >= 0
    assert rec.rel_cond_entropy is not None and rec.rel_cond_entropy >= -1e-12
    # the record's relative entropy agrees with the functional of the law
    nu = bt.empirical_block_measure(x, 3, 2)
    assert rec.rel_entropy == pytest.approx(
        3 * bt.measure_functional("relative_average", nu, rho), abs=1e-14
    )


def _per_distribution_functionals(counts, n, A, k, rho):
    """H_k, h_k (and D_k, Delta_k against rho) of the law counts / n, summed
    per distribution over its positive weights in code order -- the order
    every plug-in value in the package has always been computed in."""

    def entropy(w):
        pos = w > 0
        return float(-(w[pos] * np.log(w[pos])).sum())

    def divergence(p, q):
        pos = p > 0
        if np.any(q[pos] <= 0):
            return math.inf
        return float((p[pos] * (np.log(p[pos]) - np.log(q[pos]))).sum())

    nu = bt.BlockDistribution(A, k, counts / n)
    hk = entropy(nu.weights)
    if k == 1:
        values = (hk, hk)
    else:
        values = (hk, hk - entropy(bt.marginalize(nu).weights))
    if rho is None:
        return values
    dk = divergence(nu.weights, rho.weights)
    if k == 1:
        return values + (dk, dk)
    dkm1 = divergence(
        bt.marginalize(nu).weights, bt.marginalize(rho).weights
    )
    both_inf = math.isinf(dk) and math.isinf(dkm1)
    return values + (dk, math.inf if both_inf else dk - dkm1)


@pytest.mark.parametrize("A", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_functionals_from_counts_is_bitwise_plug_in(A, k):
    # every row of the batched core equals, bit for bit, both the single-path
    # estimator and per-distribution sums; repeated rows exercise the
    # evaluate-once-per-type gather, and references with zero weights give
    # D_k = +inf and Delta_k = inf - inf = +inf
    rng = np.random.default_rng(100 * A + k)
    infinite = 0
    for _ in range(8):
        n = int(rng.integers(k, 48))
        X = rng.integers(0, A, size=(10, n))
        X[1] = rng.integers(0, 2, size=n)
        X[1, :k] = 0  # the all-zeros word, which rho never charges
        X[6:] = X[:4]
        weights = rng.random(A**k) * (rng.random(A**k) < 0.8)
        weights[: A if k > 1 else 1] = 0.0  # all-zeros (k-1)-prefix uncharged
        weights[-1] += 1.0
        rho = bt.BlockDistribution(A, k, weights / weights.sum())
        counts = bt.block_counts(X, k, A)
        for ref in (None, rho):
            values = bt.functionals_from_counts(counts, k, ref)
            assert values.shape == (10, 2 if ref is None else 4)
            for r in range(10):
                row = tuple(values[r].tolist())
                assert row == _per_distribution_functionals(counts[r], n, A, k, ref)
                rec = bt.plug_in_estimates(X[r], k, A, ref)
                fields = (rec.block_entropy, rec.cond_entropy)
                if ref is not None:
                    fields += (rec.rel_entropy, rec.rel_cond_entropy)
                assert row == fields
            infinite += int(np.isinf(values).sum())
    assert infinite > 0


#: (A, k) with A**k in {2, 3, 4, 8, 9, 16, 27, 64, 256, 1024}
BLOCK_SPACES = [
    (2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (3, 2), (2, 4), (4, 2),
    (3, 3), (2, 6), (4, 3), (2, 8), (4, 4), (2, 10),
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    space=st.sampled_from(BLOCK_SPACES),
    rows=st.sampled_from([1, 2, 5, 17, 40]),
    draw=st.integers(0, 2**32 - 1),
)
def test_functionals_from_counts_matches_per_row_sums_property(space, rows, draw):
    # the batched scorer groups rows by their number of positive counts;
    # each value must still be the per-distribution sum, bit for bit, for
    # rows of mixed support sizes (1 to A**k positives), repeated rows,
    # one-row calls and references that miss words (+inf)
    A, k = space
    rng = np.random.default_rng(draw)
    N = A**k
    density = rng.uniform(0.0, 1.0, size=(rows, 1))
    counts = rng.integers(1, 1000, size=(rows, N)) * (rng.random((rows, N)) < density)
    counts[np.arange(rows), rng.integers(0, N, size=rows)] += 1  # no empty row
    if rows > 2:
        counts[-1] = counts[0]
    weights = rng.random(N) * (rng.random(N) < rng.uniform(0.5, 1.0))
    weights[rng.integers(0, N)] += 1.0
    rho = bt.BlockDistribution(A, k, weights / weights.sum())
    for ref in (None, rho):
        values = bt.functionals_from_counts(counts, k, ref)
        assert values.shape == (rows, 2 if ref is None else 4)
        for r in range(rows):
            expected = _per_distribution_functionals(
                counts[r], int(counts[r].sum()), A, k, ref
            )
            assert tuple(values[r].tolist()) == expected
        one = bt.functionals_from_counts(counts[-1:], k, ref)
        assert one.tolist() == values[-1:].tolist()


def test_functionals_from_counts_reads_each_row_length():
    # each row's law is its counts over their own total, so stacked counts of
    # paths of different lengths score like each path on its own
    rho = bt.BlockDistribution(2, 2, np.array([0.4, 0.2, 0.2, 0.2]))
    paths = [np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1]), np.array([1, 1, 0] * 4)]
    counts = np.vstack([bt.block_counts(x, 2, 2) for x in paths])
    values = bt.functionals_from_counts(counts, 2, rho)
    for row, x in zip(values.tolist(), paths):
        rec = bt.plug_in_estimates(x, 2, 2, rho)
        assert tuple(row) == (
            rec.block_entropy, rec.cond_entropy, rec.rel_entropy, rec.rel_cond_entropy
        )
    with pytest.raises(ValueError, match="count some window"):
        bt.functionals_from_counts(np.vstack([counts[0], np.zeros(4, int)]), 2)


def _context_kl(x: np.ndarray, k: int, transition: np.ndarray) -> float:
    """Context-wise form of Delta_k against a first-order chain:
    sum_c sum_b (N_cb/n) ln(N_cb / (N_c P[last(c), b])) over the cyclic
    k-block counts N_cb, (k-1)-context c and next symbol b."""
    A = transition.shape[0]
    counts = np.bincount(
        bt.cyclic_window_codes(x, k, A), minlength=A**k
    ).reshape(A ** (k - 1), A).astype(float)
    n_c = counts.sum(axis=1, keepdims=True)
    expected = n_c * transition[np.arange(A ** (k - 1)) % A]
    pos = counts > 0
    return float(
        (counts[pos] * np.log(counts[pos] / expected[pos])).sum() / x.size
    )


@pytest.mark.parametrize("n, k", [(100_000, 2), (100_000, 13), (1_000, 7)])
def test_plug_in_rel_cond_entropy_is_context_kl(chain_spectral, n, k):
    # the plug-in Delta_k of a chain path is exactly the count-weighted KL
    # of each context's empirical next-symbol law from the chain's row
    transition = np.array(CHAIN_CONFIG["transition"])
    x = bt.sample_paths(chain_spectral, n, 20260816, 1)[0]
    rec = bt.plug_in_estimates(x, k, 2, bt.equilibrium_blocks(chain_spectral, k))
    assert rec.rel_cond_entropy == pytest.approx(
        _context_kl(x, k, transition), abs=1e-12
    )


def test_continuity_bound_validates_delta():
    assert bt.continuity_bound(0.1, 2, 2) == pytest.approx(
        -2 * 0.1 * math.log(0.1 / 4), abs=1e-15
    )
    assert bt.continuity_bound(0.0, 2, 2) == 0.0
    with pytest.raises(ValueError):
        bt.continuity_bound(0.5, 2, 2)  # above 1/e


def test_measure_functional_dispatch(make_stationary):
    rng = np.random.default_rng(5)
    nu = make_stationary(rng, 2, 3)
    rho = make_stationary(rng, 2, 3)
    # (H_k, h_k, D_k, Delta_k) of the law, summed per distribution
    hk, cond, dk, delta = _per_distribution_functionals(nu.weights, 1, 2, 3, rho)
    assert bt.measure_functional("conditional", nu) == cond
    assert bt.conditional_block_entropy(nu) == cond
    assert bt.measure_functional("average", nu) == hk / 3
    assert bt.measure_functional("relative_conditional", nu, rho) == delta
    assert bt.measure_functional("relative_average", nu, rho) == dk / 3
    with pytest.raises(ValueError):
        bt.measure_functional("nope", nu)
