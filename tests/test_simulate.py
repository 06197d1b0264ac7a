"""Path sampling: reproducibility, stationarity, file round trips."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import blocktropy as bt
from blocktropy.simulate import _chunk_shape

#: sha256 of ``sample_paths(chain_spectral, 8192 + 37, seed=13)[0].tobytes()``,
#: recorded from the step-by-step sampler that ``reference_paths`` reproduces.
PINNED_CHAIN_DIGEST = "494cc8671a1c55fb2c4ebaa49d7be0cdccd48d34bbe4f40c60357aeeb738b1ce"


def reference_paths(sd, n, seed, replicas=1, replica_offset=0):
    """Step-by-step oracle: one interpreted step per symbol, vectorized over
    replicas, drawing each replica's uniforms in blocks of 8192."""
    A = sd.potential.alphabet_size
    k = sd.potential.k
    V = A ** (k - 1)
    R = replicas
    gens = [
        np.random.default_rng((seed ^ (replica_offset + r)) & 0xFFFFFFFFFFFFFFFF)
        for r in range(R)
    ]
    dtype = np.int8 if A <= 127 else np.int64
    out = np.zeros((R, n), dtype=dtype)

    states = np.zeros(R, dtype=np.int64)
    if k >= 2:
        cum_q = np.cumsum(sd.vertex_stationary)
        draws = np.array([g.random() for g in gens])
        states = np.minimum(
            np.searchsorted(cum_q, draws, side="right"), V - 1
        ).astype(np.int64)
        tmp = states.copy()
        for j in range(k - 1):
            out[:, k - 2 - j] = (tmp % A).astype(dtype)
            tmp //= A

    steps = n - (k - 1)
    cum_kernel = np.cumsum(sd.kernel, axis=1)
    cum_kernel[:, -1] = 1.0
    pos = k - 1
    chunk = 8192
    done = 0
    while done < steps:
        t_block = min(chunk, steps - done)
        uniforms = np.empty((R, t_block))
        for r, g in enumerate(gens):
            uniforms[r] = g.random(t_block)
        for t in range(t_block):
            rows = cum_kernel[states]
            symbols = (uniforms[:, t, None] >= rows).sum(axis=1)
            symbols = np.minimum(symbols, A - 1)
            out[:, pos] = symbols.astype(dtype)
            states = (states * A + symbols) % V
            pos += 1
        done += t_block
    return out


@pytest.fixture(scope="module")
def random_spectra():
    rng = np.random.default_rng(2004)
    return {
        (A, k): bt.pressure(
            bt.normalize_potential(bt.MarkovPotential(A, k, rng.normal(size=A**k)))[0],
            1.0,
        )
        for A in (2, 3, 4)
        for k in (1, 2, 3, 4)
    }


@pytest.mark.parametrize("R", [1, 3, 64])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("A", [2, 3, 4])
def test_sampler_matches_step_by_step_reference(random_spectra, A, k, R):
    # lengths k-1, k, one step either side of a chunk, and 3 chunks + 37;
    # a path of length n is the prefix of a longer one on the same streams
    sd = random_spectra[(A, k)]
    t_chunk = _chunk_shape(A ** (k - 1), R, 1 << 62)[1]
    lengths = [k - 1, k, k - 1 + t_chunk - 1, k - 1 + t_chunk + 1, k - 1 + 3 * t_chunk + 37]
    ref = reference_paths(sd, lengths[-1], 77, R, replica_offset=5)
    for n in lengths:
        got = bt.sample_paths(sd, n, 77, R, replica_offset=5)
        assert got.dtype == ref.dtype and got.shape == (R, n)
        np.testing.assert_array_equal(got, ref[:, :n], err_msg=f"n={n}")


def test_batch_matches_single_and_offset(chain_spectral):
    batch = bt.sample_paths(chain_spectral, 200, seed=42, replicas=5)
    assert batch.shape == (5, 200)
    single = bt.sample_paths(chain_spectral, 200, seed=42)
    np.testing.assert_array_equal(batch[:1], single)
    # replica r in a shifted group reproduces replica offset+r of the full run
    tail = bt.sample_paths(chain_spectral, 200, seed=42, replicas=2, replica_offset=3)
    np.testing.assert_array_equal(tail, batch[3:5])


def test_stationary_start_draws_both_symbols(chain_spectral):
    starts = {int(bt.sample_paths(chain_spectral, 10, seed=s)[0, 0]) for s in range(12)}
    assert starts == {0, 1}


def test_depth_one_sampling():
    phi = bt.MarkovPotential(2, 1, np.log([0.25, 0.75]), normalized=True)
    sd = bt.pressure(phi, 1.0)
    x = bt.sample_paths(sd, 20000, seed=3)[0]
    assert np.mean(x) == pytest.approx(0.75, abs=0.02)


def test_empirical_transitions_match_kernel(chain_spectral):
    x = bt.sample_paths(chain_spectral, 200_000, seed=11)[0]
    nu = bt.empirical_block_measure(x, 2, 2)
    counts = nu.weights.reshape(2, 2)
    kernel_hat = counts / counts.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(kernel_hat, [[0.9, 0.1], [0.2, 0.8]], atol=0.01)
    # one-block occupation near (2/3, 1/3)
    np.testing.assert_allclose(
        bt.marginalize(nu).weights, [2 / 3, 1 / 3], atol=0.01
    )


def test_window_law_matches_equilibrium(chain_spectral):
    # |empirical k-block mass - rho_k| stays within ~4 standard deviations
    # for nearly all (word, seed) pairs; the occupation variance carries the
    # chain's mixing factor (1+lam2)/(1-lam2) with lam2 = 0.9+0.8-1 = 0.7
    n, seeds = 20_000, 20
    mixing = (1 + 0.7) / (1 - 0.7)
    checks, failures = 0, 0
    for k in (1, 2, 3):
        rho = bt.equilibrium_blocks(chain_spectral, k)
        for s in range(seeds):
            x = bt.sample_paths(chain_spectral, n, seed=1000 + s)[0]
            nu = bt.empirical_block_measure(x, k, 2)
            for w in range(2**k):
                tol = 4.0 * math.sqrt(mixing * max(rho.weights[w], 1.0 / n) / n)
                checks += 1
                if abs(nu.weights[w] - rho.weights[w]) > tol:
                    failures += 1
    assert failures <= 0.01 * checks


def test_birkhoff_sum_hand_value(chain_potential):
    x = [0, 1, 1, 0]
    v = chain_potential.values
    expected = v[1] + v[3] + v[2]  # windows 01, 11, 10
    single = bt.birkhoff_sums(np.array(x), chain_potential)
    assert single.shape == ()
    assert float(single) == pytest.approx(expected, abs=1e-15)
    batch = bt.birkhoff_sums(np.array([x, [0, 0, 0, 0]]), chain_potential)
    np.testing.assert_allclose(batch, [expected, 3 * v[0]], atol=1e-15)


def test_path_file_round_trip(tmp_path, chain_spectral):
    x = bt.sample_paths(chain_spectral, 1000, seed=99)[0]
    target = tmp_path / "path.bin"
    bt.write_path_file(str(target), x, 2, seed=99)
    y, A, seed = bt.read_path_file(str(target))
    assert (A, seed) == (2, 99)
    np.testing.assert_array_equal(x, y)


def test_path_file_error_modes(tmp_path):
    target = tmp_path / "bad.bin"
    with pytest.raises(ValueError):
        bt.write_path_file(str(target), np.zeros(4, dtype=np.int64), 300, seed=0)
    target.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        bt.read_path_file(str(target))
    # truncated payload
    good = tmp_path / "good.bin"
    bt.write_path_file(str(good), np.array([0, 1, 1, 0]), 2, seed=5)
    blob = good.read_bytes()
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(blob[:-2])
    with pytest.raises(ValueError):
        bt.read_path_file(str(trunc))
    # header cut short
    short = tmp_path / "short.bin"
    short.write_bytes(blob[:12])
    with pytest.raises(ValueError, match="truncated"):
        bt.read_path_file(str(short))
    # symbol outside the declared alphabet
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(blob[:-1] + b"\x07")
    with pytest.raises(ValueError):
        bt.read_path_file(str(corrupt))


def test_sample_paths_validation(chain_spectral):
    with pytest.raises(ValueError, match="at least k-1"):
        bt.sample_paths(chain_spectral, 0, seed=1)
    with pytest.raises(ValueError, match="64 bits"):
        bt.sample_paths(chain_spectral, 100, seed=-1)
    with pytest.raises(ValueError, match="64 bits"):
        bt.sample_paths(chain_spectral, 100, seed=1 << 64)
    assert bt.RNG_NAME == "numpy.random.PCG64"


def test_long_path_chunk_boundary(chain_spectral):
    # a long single path crosses several chunks; it must match the
    # step-by-step oracle and the digest that oracle produced
    t_chunk = _chunk_shape(2, 1, 1 << 62)[1]
    n = 3 * t_chunk + 37
    x = bt.sample_paths(chain_spectral, n, seed=13)
    np.testing.assert_array_equal(x, reference_paths(chain_spectral, n, seed=13))
    pinned = bt.sample_paths(chain_spectral, 8192 + 37, seed=13)[0]
    assert hashlib.sha256(pinned.tobytes()).hexdigest() == PINNED_CHAIN_DIGEST
    np.testing.assert_array_equal(pinned, x[0, : 8192 + 37])


def test_sampler_memory_is_bounded():
    # one A = 4, k = 3 path of 2**20 symbols: beyond the 1 MiB output the
    # sampler's chunk tables must stay small
    rng = np.random.default_rng(5)
    phi = bt.normalize_potential(bt.MarkovPotential(4, 3, rng.normal(size=64)))[0]
    sd = bt.pressure(phi, 1.0)
    n = 1 << 20
    tracemalloc.start()
    try:
        x = bt.sample_paths(sd, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.nbytes == n
    assert peak - x.nbytes < 4 << 20, f"transient peak {peak - x.nbytes} bytes"
