"""Path sampling: reproducibility, stationarity, file round trips."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blocktropy as bt
from blocktropy import simulate
from blocktropy.simulate import _chunk_shape

#: sha256 of ``sample_paths(chain_spectral, 8192 + 37, seed=13)[0].tobytes()``,
#: recorded from the step-by-step sampler that ``reference_paths`` reproduces.
PINNED_CHAIN_DIGEST = "494cc8671a1c55fb2c4ebaa49d7be0cdccd48d34bbe4f40c60357aeeb738b1ce"


def reference_paths(sd, n, seed, replicas=1):
    """Step-by-step oracle: one interpreted step per symbol, vectorized over
    replicas, drawing each replica's uniforms in blocks of 8192."""
    A = sd.potential.alphabet_size
    k = sd.potential.k
    V = A ** (k - 1)
    R = replicas
    gens = [np.random.default_rng(seed ^ r) for r in range(R)]
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


#: A chunk budget under which short paths cross many lane and chunk ends.
SMALL_CHUNKS = {"_CHUNK_SYMBOLS": 1 << 10, "_MIN_LANE": 8}


@pytest.fixture()
def small_chunks(monkeypatch):
    for name, value in SMALL_CHUNKS.items():
        monkeypatch.setattr(simulate, name, value)


def _log_walks(monkeypatch):
    """Spy on the sampler's walk: one list per chunk with, for each step,
    the number of lanes that took a V-wide step (0 for none).  Fails if a
    V-wide step carries a lane whose walks have all met."""
    log = []
    walk, step = simulate._walk_chunk, simulate._step

    def logged_walk(*args):
        log.append([])
        return walk(*args)

    def logged_step(u, head, thr, succ, x):
        if head.ndim == 1:
            log[-1].append(0)
        else:
            assert (head[1:] != head[0]).any(axis=0).all(), "V-wide step on a closed lane"
            log[-1][-1] = head.shape[1]
        return step(u, head, thr, succ, x)

    monkeypatch.setattr(simulate, "_walk_chunk", logged_walk)
    monkeypatch.setattr(simulate, "_step", logged_step)
    return log


def _peaked_spectrum():
    """A = 4, k = 3 (V = 16) equilibrium whose kernel rows put mass 1 - 3e-4
    on different symbols, so walks from different states under the same
    uniforms rarely meet."""
    values = np.full((16, 4), math.log(1e-4))
    values[np.arange(16), (3 * np.arange(16) + 1) % 4] = 0.0
    phi = bt.normalize_potential(bt.MarkovPotential(4, 3, values.ravel()))[0]
    return bt.pressure(phi, 1.0)


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
def test_sampler_matches_step_by_step_reference(random_spectra, small_chunks, A, k, R):
    # lengths k-1, k, one step either side of a chunk, and 3 chunks + 37,
    # under a small chunk budget so that the paths stay short; a path of
    # length n is the prefix of a longer one on the same streams
    sd = random_spectra[(A, k)]
    t_chunk = _chunk_shape(A ** (k - 1), R, 1 << 62)[1]
    lengths = [k - 1, k, k - 1 + t_chunk - 1, k - 1 + t_chunk + 1, k - 1 + 3 * t_chunk + 37]
    ref = reference_paths(sd, lengths[-1], 77, R)
    for n in lengths:
        got = bt.sample_paths(sd, n, 77, R)
        assert got.dtype == ref.dtype and got.shape == (R, n)
        np.testing.assert_array_equal(got, ref[:, :n], err_msg=f"n={n}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    A=st.integers(2, 4),
    k=st.integers(1, 4),
    R=st.sampled_from([1, 2, 3, 7, 64, 130]),
    chunks=st.sampled_from([1, 3, 0, 2]),
    extra=st.integers(0, 80),
    draw=st.integers(0, 2**32 - 1),
    rare=st.integers(0, 3),
)
def test_sampler_matches_reference_property(A, k, R, chunks, extra, draw, rare):
    # random shapes and replica counts under a small chunk budget; the paths
    # run ``chunks`` whole chunks plus ``extra`` steps, so they cross lane,
    # chunk and replica-group ends; ``rare`` potential entries sit at
    # ln 1e-9, which puts kernel entries near 1e-9
    rng = np.random.default_rng(draw)
    values = rng.normal(size=A**k)
    values[rng.choice(A**k, size=min(rare, A**k - 1), replace=False)] = math.log(1e-9)
    sd = bt.pressure(bt.normalize_potential(bt.MarkovPotential(A, k, values))[0], 1.0)
    seed = int(rng.integers(1 << 63))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SMALL_CHUNKS.items():
            mp.setattr(simulate, name, value)
        n = k - 1 + chunks * _chunk_shape(A ** (k - 1), R, 1 << 62)[1] + extra
        got = bt.sample_paths(sd, n, seed, R)
    np.testing.assert_array_equal(got, reference_paths(sd, n, seed, R))


@pytest.mark.parametrize(
    "sd, R",
    [
        (bt.pressure(bt.MarkovPotential(2, 2, np.log([1e-3, 1 - 1e-3, 1 - 1e-3, 1e-3])), 1.0), 1),
        (_peaked_spectrum(), 3),
    ],
    ids=["near-periodic", "peaked-V16"],
)
def test_sampler_stitches_lanes_that_never_meet(monkeypatch, small_chunks, sd, R):
    # a near-periodic chain (walks from the two states meet with probability
    # 2e-3 per step) and a V = 16 kernel whose rows peak on different
    # symbols: lanes are still open at the end of every chunk
    log = _log_walks(monkeypatch)
    n = sd.potential.k - 1 + 3 * _chunk_shape(sd.kernel.shape[0], R, 1 << 62)[1] + 37
    got = bt.sample_paths(sd, n, 21, R)
    assert len(log) >= 3 and all(chunk[-1] > 0 for chunk in log)
    np.testing.assert_array_equal(got, reference_paths(sd, n, 21, R))


def test_sampler_closes_lanes_that_meet(monkeypatch, small_chunks):
    # rows that are all the same law: every walk emits the symbol its
    # uniform picks, so the walks of a lane meet after one step and the
    # lane starts are assigned in one step, with no stitch
    iid = bt.potential_from_config({"type": "markov", "transition": [[0.2, 0.3, 0.5]] * 3})
    sd = bt.pressure(iid, 1.0)
    log = _log_walks(monkeypatch)
    n = 1 + 3 * _chunk_shape(3, 2, 1 << 62)[1] + 37
    got = bt.sample_paths(sd, n, 8, 2)
    assert len(log) >= 3
    assert all(chunk[0] > 0 and not any(chunk[1:]) for chunk in log)
    np.testing.assert_array_equal(got, reference_paths(sd, n, 8, 2))


@pytest.mark.parametrize(
    "n, R, sizes",
    [(200, 5, [5]), (2000, 130, [128, 2]), (40_000, 60, [26, 26, 8])],
    ids=["one-group", "chunk-groups", "capped-groups"],
)
def test_batch_matches_single_and_groups(chain_spectral, n, R, sizes):
    # a chunk of 130 replicas of 2000 symbols holds 128 of them, and
    # 40000-symbol paths come in groups of at most 2**20 // n = 26.  The
    # groups come in replica order and stack to the batch, whose first row
    # is the one-path draw
    groups = list(simulate._replica_groups(chain_spectral, n, 42, R))
    assert [g.shape for g in groups] == [(size, n) for size in sizes]
    batch = bt.sample_paths(chain_spectral, n, seed=42, replicas=R)
    np.testing.assert_array_equal(np.concatenate(groups), batch)
    np.testing.assert_array_equal(batch[:1], bt.sample_paths(chain_spectral, n, seed=42))


def test_stationary_start_draws_both_symbols(chain_spectral):
    starts = {int(bt.sample_paths(chain_spectral, 10, seed=s)[0, 0]) for s in range(12)}
    assert starts == {0, 1}


def test_depth_one_sampling():
    phi = bt.MarkovPotential(2, 1, np.log([0.25, 0.75]))
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


@pytest.mark.parametrize(
    "shape",
    [(), (1,), (7,), (2, 3)],
    ids=["one-path", "one-row", "seven-rows", "2x3-rows"],
)
@pytest.mark.parametrize("n", [5, 10_000, (1 << 16) + 5])
def test_birkhoff_sums_of_a_batch_are_each_rows_sum(n, shape):
    # blocks of 2**16 symbols: at n = 10_000 a block holds 6 rows, so 7 rows
    # end in a short block; beyond 2**16 a block holds one row.  Every row
    # sums bitwise as the unblocked gather over its windows did, and the
    # leading shape is kept
    rng = np.random.default_rng(n)
    phi = bt.MarkovPotential(3, 3, rng.normal(size=27))
    paths = rng.integers(0, 3, size=shape + (n,))
    got = bt.birkhoff_sums(paths, phi)
    assert got.shape == shape
    for index in np.ndindex(shape):
        x = paths[index]
        row = phi.values[bt.window_codes(x, 3, 3)].sum()
        assert got[index] == row
        assert bt.birkhoff_sums(x, phi) == row


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 5, 2**64 - 1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
    count=st.sampled_from([1, 2, 7, 64]),
)
def test_replica_generators_match_default_rng_property(seed, count):
    # the one-pass SeedSequence hash builds every replica's PCG64 in the
    # state default_rng(seed ^ r) gives it, r = 0 ... count-1
    gens = simulate._generators(simulate._pcg64_seed_words(seed, count))
    assert len(gens) == count
    for r, g in enumerate(gens):
        ref = np.random.default_rng(seed ^ r)
        assert g.bit_generator.state == ref.bit_generator.state


def test_path_file_round_trip(tmp_path, chain_spectral):
    x = bt.sample_paths(chain_spectral, 1000, seed=99)[0]
    target = tmp_path / "path.bin"
    bt.write_path_file(str(target), x, 2, seed=99)
    y, A, seed = bt.read_path_file(str(target))
    assert (A, seed) == (2, 99)
    assert y.dtype == np.uint8 and y.flags.writeable
    np.testing.assert_array_equal(x, y)


def test_read_path_file_memory_is_bounded(tmp_path):
    # the symbols come back as the stored bytes: no int64 widening (8n
    # bytes) and no second copy of the payload
    n = 1 << 20
    target = tmp_path / "long.bin"
    bt.write_path_file(str(target), np.arange(n) % 3, 3, seed=1)
    tracemalloc.start()
    try:
        y, _, _ = bt.read_path_file(str(target))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.size == n
    assert peak < 2 * n, f"peak {peak} bytes"


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
    # a long single path crosses a chunk end at the default chunk budget;
    # it must match the step-by-step oracle and the digest that oracle
    # produced
    t_chunk = _chunk_shape(2, 1, 1 << 62)[1]
    n = t_chunk + 37
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


def test_sampler_memory_is_bounded_when_lanes_never_meet(monkeypatch):
    # the worst case of the walk's kept V-wide symbols: a V = 16 kernel
    # whose lanes are still open at the end of a chunk at the default
    # budget; the transient stays under the same bound.  Two chunks show
    # the peak.
    sd = _peaked_spectrum()
    log = _log_walks(monkeypatch)
    bt.sample_paths(sd, 2 + _chunk_shape(16, 1, 1 << 62)[1], seed=1)
    assert len(log) == 1 and log[0][-1] > 0
    monkeypatch.undo()
    n = 1 << 18
    tracemalloc.start()
    try:
        x = bt.sample_paths(sd, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.nbytes == n
    assert peak - x.nbytes < 4 << 20, f"transient peak {peak - x.nbytes} bytes"
