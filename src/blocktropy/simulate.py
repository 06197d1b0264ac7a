"""Seeded sampling from equilibrium Markov chains on word states.

Paths are drawn from the row-stochastic kernel carried by SpectralData: the
initial (k-1)-word comes from the stationary state law, then one appended
symbol per step by inverse-CDF lookup.  Replica r of a batch uses an
independent generator seeded ``seed XOR r`` (numpy PCG64) and consumes it
in a fixed order -- one draw for the start, then one uniform per step -- so
batched and one-at-a-time runs are bitwise identical.

Each step's uniform fixes a map from the V = A**(k-1) word states to
themselves, so a path is a prefix composition of such maps.  The sampler
tabulates them chunk by chunk (the symbol every state would emit at every
step, from the same inverse-CDF comparisons a step-by-step walk makes) and
composes them in blocks of about sqrt(T) steps, with Python loops per
replica, alphabet symbol, block, block step and chunk, never per path
symbol.  Tables are capped at ``_TABLE_CELLS`` cells, so memory stays
bounded for any path length.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .blocks import _is_int, _require_int, window_codes
from .pressure import MarkovPotential, SpectralData

__all__ = [
    "RNG_NAME",
    "birkhoff_sums",
    "read_path_file",
    "sample_paths",
    "write_path_file",
]

#: The generator family backing all sampling, recorded in every report.
RNG_NAME = "numpy.random.PCG64"

_PATH_MAGIC = b"BKTP"
#: Cell budget G*T*V of one chunk's symbol table (see :func:`sample_paths`).
_TABLE_CELLS = 1 << 16


def sample_paths(
    sd: SpectralData,
    n: int,
    seed: int,
    replicas: int = 1,
    replica_offset: int = 0,
) -> np.ndarray:
    """Sample ``replicas`` equilibrium paths of length n as an (R, n) array.

    Replica r (globally indexed ``replica_offset + r``) is driven by
    ``numpy.random.default_rng(seed ^ (replica_offset + r))``; it draws one
    ``random()`` for its start word from the stationary state law, then one
    uniform per step, in order.  The offset lets callers process a large
    replica range in memory-bounded groups without changing any path.
    Raises ValueError when n is not an integer >= k-1, when the seed is not
    an integer that fits in 64 bits, when ``replicas`` is not an integer
    >= 1 or ``replica_offset`` not an integer >= 0, or when a kernel row
    sums to 1 only beyond 1e-12.

    Algorithm: the steps run in chunks of G replicas by T steps, with
    G*T*V <= ``_TABLE_CELLS`` (2**16) for V = A**(k-1) word states.  T is
    the larger of 2**16/(V*R) and (2**16/V)**(2/3), at most the number of
    steps, and G fills the rest of the budget; this keeps the per-block and
    per-replica Python loops below short next to the G*T symbols of a
    chunk.  For a chunk:

    1. Table.  ``sym[t, r, s]``, the symbol step t of replica r emits from
       state s, is the number of CDF columns of kernel row s below the
       last one (which is 1 up to rounding) that u reaches, so the last
       symbol takes whatever mass the rounding of the partial sums leaves;
       one vectorized comparison per column covers all states.  State s
       then moves to ``(s*A + sym) % V``.
    2. Walk.  The chunk is cut into blocks of L = ceil(sqrt(T)) steps.  All
       V start states of every block advance together for L steps (one
       gather per step, O(G*T*V) work in all); the true block start states
       are then stitched replica-wise in T/L steps; each symbol is read from
       its block's trajectory for that start.  Padding past step T in the
       last block is discarded, and the next chunk starts from the word
       state spelled by the last k-1 symbols already written.

    The work is O(R*n*V) against O(R*n*A) for a step-by-step walk, paid in
    array operations instead of one interpreted step per symbol.  It wins
    by one to two orders of magnitude on single paths and short memories;
    for V >= 16 a step-by-step walk is faster once V*R exceeds about 1000.
    """
    A = sd.potential.alphabet_size
    k = sd.potential.k
    if not _is_int(n) or n < k - 1:
        raise ValueError(f"path length must be an integer at least k-1, got {n!r}")
    if not _is_int(seed) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer fitting in 64 bits, got {seed!r}")
    _require_int("replicas", replicas, 1)
    _require_int("replica_offset", replica_offset, 0)
    row_defect = float(np.max(np.abs(sd.kernel.sum(axis=1) - 1.0)))
    if row_defect > 1e-12:
        raise ValueError(f"kernel rows sum to 1 only within {row_defect:.3e}")
    V = A ** (k - 1)
    R = replicas
    dtype = np.int8 if A <= 127 else np.int64
    out = np.zeros((R, n), dtype=dtype)
    cum_q = np.cumsum(sd.vertex_stationary)
    cdf = np.cumsum(sd.kernel[:, :-1], axis=1)
    place = A ** np.arange(k - 2, -1, -1, dtype=np.int64)
    group, t_chunk = _chunk_shape(V, R, n - (k - 1))
    for lo in range(0, R, group):
        hi = min(lo + group, R)
        gens = [
            np.random.default_rng((seed ^ (replica_offset + r)) & 0xFFFFFFFFFFFFFFFF)
            for r in range(lo, hi)
        ]
        if k >= 2:
            draws = np.array([g.random() for g in gens])
            states = np.minimum(np.searchsorted(cum_q, draws, side="right"), V - 1)
            for j in range(k - 1):
                out[lo:hi, k - 2 - j] = states % A
                states //= A
        for pos in range(k - 1, n, t_chunk):
            t = min(t_chunk, n - pos)
            start = out[lo:hi, pos - (k - 1) : pos].astype(np.int64) @ place
            out[lo:hi, pos : pos + t] = _walk_chunk(cdf, start, gens, t)
    return out


def _chunk_shape(V: int, R: int, steps: int) -> tuple[int, int]:
    """(replicas, steps) of one chunk; see :func:`sample_paths`."""
    per_state = max(1, _TABLE_CELLS // V)
    t_chunk = max(per_state // max(R, 1), int(per_state ** (2 / 3)))
    t_chunk = max(1, min(steps, t_chunk))
    return max(1, min(R, per_state // t_chunk)), t_chunk


def _walk_chunk(cdf: np.ndarray, start: np.ndarray, gens: list, T: int) -> np.ndarray:
    """The next T symbols of each replica in ``gens`` from word states
    ``start``, drawing T uniforms from each generator; ``cdf`` holds the
    kernel's first A-1 CDF columns.  See :func:`sample_paths`."""
    V, A = cdf.shape[0], cdf.shape[1] + 1
    G = len(gens)
    L = math.isqrt(T - 1) + 1  # block length, ceil(sqrt(T))
    nb = -(-T // L)  # blocks per replica; the last one is padded
    M = G * nb
    u = np.zeros((G, nb * L))
    for r, g in enumerate(gens):
        g.random(out=u[r, :T])
    u = u.reshape(M, L).T.copy()  # u[i, m]: step i of block m = g*nb + b
    # sym[i, m, s]: symbol step i of block m emits from state s
    sym = np.zeros((L, M, V), dtype=np.int8 if A <= 127 else np.int32)
    for j in range(A - 1):
        sym += u[:, :, None] >= cdf[:, j]
    # advance every block from every start state; sym[i, m, s] becomes the
    # symbol of step i of block m when the block starts in state s
    state_dtype = np.int16 if V * A <= np.iinfo(np.int16).max else np.int64
    base = (np.arange(M) * V)[:, None]
    cur = np.tile(np.arange(V, dtype=state_dtype), (M, 1))
    for i in range(L):
        emitted = sym[i].reshape(-1)[base + cur]
        sym[i] = emitted
        cur = (cur * A + emitted) % V
    # stitch: block b of replica g starts where block b-1 ended
    ends = cur.reshape(G, nb, V)
    rows = np.arange(G)
    block_start = np.empty((G, nb), dtype=np.int64)
    block_start[:, 0] = start
    for b in range(1, nb):
        block_start[:, b] = ends[rows, b - 1, block_start[:, b - 1]]
    picked = sym.reshape(L, M * V)[:, base[:, 0] + block_start.reshape(-1)]
    return picked.T.reshape(G, nb * L)[:, :T]


def birkhoff_sums(paths: np.ndarray, phi: MarkovPotential) -> np.ndarray:
    """Windowed running sum of phi along each row of an (R, n) batch of
    paths: the sum over the n-k+1 contiguous k-windows (no wraparound,
    unlike the estimators' cyclic counts).  A single path of shape (n,)
    gives a 0-d array."""
    codes = window_codes(paths, phi.k, phi.alphabet_size)
    return phi.values[codes].sum(axis=-1)


def write_path_file(
    path: str, x: np.ndarray, alphabet_size: int, seed: int
) -> None:
    """Write a sample to a flat binary file: magic, |A|, n, seed header and
    one byte per symbol.  Refuses what :func:`read_path_file` would refuse
    or the header cannot hold: symbols outside [0, |A|) and seeds outside
    [0, 2**64)."""
    if alphabet_size > 255:
        raise ValueError("path files support alphabets up to 255 symbols")
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= alphabet_size):
        raise ValueError("sample contains symbols outside the alphabet")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    with open(path, "wb") as fh:
        fh.write(_PATH_MAGIC)
        fh.write(struct.pack("<QQQ", alphabet_size, x.size, seed))
        fh.write(x.astype(np.uint8).tobytes())


def read_path_file(path: str) -> tuple[np.ndarray, int, int]:
    """Inverse of :func:`write_path_file`: returns (symbols, |A|, seed)."""
    with open(path, "rb") as fh:
        header = fh.read(28)
        if header[:4] != _PATH_MAGIC:
            raise ValueError("not a path file (bad magic)")
        if len(header) != 28:
            raise ValueError("truncated path file")
        alphabet_size, n, seed = struct.unpack("<QQQ", header[4:])
        data = np.frombuffer(fh.read(n), dtype=np.uint8)
    if data.size != n:
        raise ValueError("truncated path file")
    if data.size and int(data.max()) >= alphabet_size:
        raise ValueError("path file contains out-of-alphabet symbols")
    return data.astype(np.int64), int(alphabet_size), int(seed)
