"""Seeded sampling from equilibrium Markov chains on word states.

Paths are drawn from the row-stochastic kernel carried by SpectralData: the
initial (k-1)-word comes from the stationary state law, then one appended
symbol per step by inverse-CDF lookup.  Replica r of a batch uses an
independent generator seeded ``seed XOR r`` (numpy PCG64) and consumes it
in a fixed order -- one draw for the start, then one uniform per step -- so
batched and one-at-a-time runs are bitwise identical.  The generators of a
batch are seeded in one pass: numpy's SeedSequence hash runs over all the
replicas' seeds as array operations, and each PCG64 takes its words from
that pass, so its state is the one ``default_rng(seed ^ r)`` would build.

Each step's uniform fixes a map from the V = A**(k-1) word states to
themselves, and walks driven by the same uniforms agree once they meet
(the coupling behind coupling from the past).  The sampler cuts each chunk
of steps into lanes that it walks side by side, one numpy call per lane
step for all lanes at once.  A lane whose start is not yet known walks from
state 0 and, beside that, from all V states only until those V walks meet;
from then on its end no longer depends on its start.  The lanes are then
stitched in order and the symbols from before each meeting are read off
for the true start.  The inverse-CDF comparisons and the order of the
uniforms are those of a step-by-step walk, so the paths are too.  Chunks
are capped at ``_CHUNK_SYMBOLS`` symbols and ``_CHUNK_CELLS`` V-wide cells,
so memory stays bounded for any path length.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Iterator

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
#: Symbols per group of :func:`_replica_groups` (at least one replica).
_GROUP_SYMBOLS = 1 << 20
#: Budgets of one chunk (see :func:`_replica_groups`): G*T symbols, G*T*V
#: cells of V-wide records, about ``_LANE_CELLS`` V-wide cells per lane step
#: (so about 2**14 / V lanes), and lanes of at least ``_MIN_LANE`` steps.
_CHUNK_SYMBOLS = 1 << 17
_CHUNK_CELLS = 1 << 22
_LANE_CELLS = 1 << 14
_MIN_LANE = 64
#: numpy's SeedSequence hash constants (see :func:`_pcg64_seed_words`).
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
#: Symbols per block of :func:`birkhoff_sums`.
_BIRKHOFF_SYMBOLS = 1 << 16


def sample_paths(sd: SpectralData, n: int, seed: int, replicas: int = 1) -> np.ndarray:
    """Sample ``replicas`` equilibrium paths of length n as an (R, n) array:
    the groups of :func:`_replica_groups`, stacked (a lone group is
    returned as it is, without a copy)."""
    groups = list(_replica_groups(sd, n, seed, replicas))
    return groups[0] if len(groups) == 1 else np.concatenate(groups)


def _replica_groups(
    sd: SpectralData, n: int, seed: int, replicas: int
) -> Iterator[np.ndarray]:
    """Yield the ``replicas`` equilibrium paths of length n in consecutive
    (G, n) groups, replica 0 first.

    Replica r is driven by ``numpy.random.default_rng(seed ^ r)``; it draws
    one ``random()`` for its start word from the stationary state law, then
    one uniform per step, in order, so a path does not depend on the group
    that holds it.  The generators are not built one ``default_rng`` at a
    time: one pass of numpy's SeedSequence hash over all R seeds gives each
    PCG64 its seed words (:func:`_pcg64_seed_words`), the same streams at a
    fraction of the cost.  A group holds at most max(1, 2**20 // n)
    replicas, which bounds the memory of the per-window arrays callers
    build from it.
    Raises ValueError when n is not an integer >= k-1, when the seed is not
    an integer that fits in 64 bits, when ``replicas`` is not an integer
    >= 1, or when a kernel row sums to 1 only beyond 1e-12.

    Algorithm: the steps run in chunks of G replicas by T steps, with
    G*T <= ``_CHUNK_SYMBOLS`` (2**17) and G*T*V <= ``_CHUNK_CELLS`` (2**22)
    for V = A**(k-1) word states.  T is the larger of the budget over R and
    1/128 of it, at most the number of steps, and G fills the rest.  Within
    a chunk:

    1. Lanes.  Each replica's T steps are cut into lanes of L steps, with
       about ``_LANE_CELLS``/V lanes (1024 at V = 16) of at least
       ``_MIN_LANE`` (64) steps; the last lane of a replica is padded.
       Step i of every lane is one vectorized step: a walk in state s
       emits the number of CDF columns of kernel row s below the last one
       (which is 1 up to rounding) that its uniform reaches, so the last
       symbol takes whatever mass the rounding of the partial sums leaves,
       and moves to ``(s*A + symbol) % V``.  Walks carry the arc base s*A,
       and both the thresholds (at s*A) and the next base (at the arc code
       s*A + symbol) are ``take`` lookups in (V*A)-tables.
    2. Coalescence.  A replica's first lane walks from its known start.
       Every other lane walks from state 0 and, while they differ, from all
       V states too, keeping the V symbols of each such step.  Once the V
       walks sit in one state the lane is closed: it does no V-wide work
       after that, and its walk from state 0 has reached the merged state.
    3. Stitch.  Lane b starts where lane b-1 ends.  A closed lane ends where
       its walk from state 0 ended, so when every lane has closed the starts
       are one assignment; lanes still open are chained in lane order from
       their V end states.  Each lane's kept V-wide symbols are then read at
       its true start.  The next chunk starts from the word state spelled
       by the last k-1 symbols already written.

    The one-wide work is O(R*n*A), in about 3A numpy calls per lane step,
    each over all the lanes of a chunk.  The V-wide work is O(V*A) per lane
    step until the lane closes, so it depends on how fast the kernel's
    walks couple.  A kernel whose walks rarely meet (a near-periodic chain)
    pays the V factor on every step and a Python loop over lanes at the
    stitch.
    """
    A = sd.potential.alphabet_size
    k = sd.potential.k
    if not _is_int(n) or n < k - 1:
        raise ValueError(f"path length must be an integer at least k-1, got {n!r}")
    if not _is_int(seed) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer fitting in 64 bits, got {seed!r}")
    _require_int("replicas", replicas, 1)
    row_defect = float(np.max(np.abs(sd.kernel.sum(axis=1) - 1.0)))
    if row_defect > 1e-12:
        raise ValueError(f"kernel rows sum to 1 only within {row_defect:.3e}")
    V = A ** (k - 1)
    R = replicas
    dtype = np.int8 if A <= 127 else np.int64
    cum_q = np.cumsum(sd.vertex_stationary)
    cdf = np.cumsum(sd.kernel[:, :-1], axis=1)
    place = A ** np.arange(k - 2, -1, -1, dtype=np.int64)
    group, t_chunk = _chunk_shape(V, R, n - (k - 1))
    group = min(group, max(1, _GROUP_SYMBOLS // max(n, 1)))
    words = _pcg64_seed_words(seed, R)
    for lo in range(0, R, group):
        gens = _generators(words[lo : lo + group])
        out = np.zeros((len(gens), n), dtype=dtype)
        if k >= 2:
            draws = np.array([g.random() for g in gens])
            states = np.minimum(np.searchsorted(cum_q, draws, side="right"), V - 1)
            for j in range(k - 1):
                out[:, k - 2 - j] = states % A
                states //= A
        for pos in range(k - 1, n, t_chunk):
            t = min(t_chunk, n - pos)
            start = out[:, pos - (k - 1) : pos].astype(np.int64) @ place
            out[:, pos : pos + t] = _walk_chunk(cdf, start, gens, t)
        yield out


def _pcg64_seed_words(seed: int, count: int) -> np.ndarray:
    """The (count, 4) uint64 words that ``default_rng(seed ^ r)`` seeds its
    PCG64 with, for r = 0 ... count-1.

    numpy's ``SeedSequence`` hash over all replicas at once: the uint32
    entropy words (low, high) of each 64-bit seed (an int below 2**32,
    one word, hashes like (x, 0)) go through the hashmix/mix rounds of its
    4-word pool, and ``generate_state(4, uint64)`` reads 8 words off the
    pool.  The hash constants do not depend on the data, so each round is
    one array operation over the replicas; uint32 arithmetic wraps as the C
    code does.
    """
    entropy = np.arange(count, dtype=np.uint64) ^ np.uint64(seed)
    const = _HASH_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _HASH_MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * _MIX_MULT_L - y * _MIX_MULT_R
        return out ^ out >> 16

    zero = np.zeros(count, dtype=np.uint32)
    low = (entropy & np.uint64(_MASK32)).astype(np.uint32)
    high = (entropy >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _HASH_INIT_B
    state = np.empty((count, 8), dtype="<u4")
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _HASH_MULT_B & _MASK32
        value = value * const
        state[:, i] = value ^ value >> 16
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _seeded() -> type:
    """A ``SeedSequence`` stand-in that hands PCG64 precomputed words.  Made
    on first use, so importing the package does not import numpy.random."""

    class Seeded(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed words serve PCG64 seeding only")
            return self.words

    return Seeded


def _generators(words: np.ndarray) -> list:
    """One ``Generator(PCG64)`` per row of :func:`_pcg64_seed_words`."""
    seeded = _seeded()
    return [np.random.Generator(np.random.PCG64(seeded(w))) for w in words]


def _chunk_shape(V: int, R: int, steps: int) -> tuple[int, int]:
    """(replicas, steps) of one chunk; see :func:`_replica_groups`."""
    budget = max(1, min(_CHUNK_SYMBOLS, _CHUNK_CELLS // V))
    t_chunk = max(1, min(steps, max(budget // R, budget // 128)))
    return max(1, min(R, budget // t_chunk)), t_chunk


def _walk_chunk(cdf: np.ndarray, start: np.ndarray, gens: list, T: int) -> np.ndarray:
    """The next T symbols of each replica in ``gens`` from word states
    ``start``, drawing T uniforms from each generator; ``cdf`` holds the
    kernel's first A-1 CDF columns.  See :func:`_replica_groups`."""
    V, A = cdf.shape[0], cdf.shape[1] + 1
    G = len(gens)
    # lanes per replica: about _LANE_CELLS / V lanes in all, _MIN_LANE long
    nl = -(-T // max(_MIN_LANE, -(-G * T * V // _LANE_CELLS)))
    L = -(-T // nl)  # lane length; the last lane of a replica is padded
    M = G * nl
    u = np.zeros((G, nl * L))
    for r, g in enumerate(gens):
        g.random(out=u[r, :T])
    u = u.reshape(M, L).T.copy()  # u[i, m]: step i of lane m = r*nl + b
    # walks carry the arc base s*A of their state s: the thresholds of s
    # and the base after the arc s*A + x are lookups in (V*A)-tables
    thr = np.repeat(cdf.T, A, axis=1)
    succ = np.arange(V * A) % V * A
    sym = np.zeros((L, M), dtype=np.int8 if A <= 127 else np.int32)
    head = np.zeros(M, dtype=np.intp)  # lane 0 from its start, others from 0
    head[::nl] = start * A
    # the other lanes also walk from all V states until those meet;
    # heads[s, l] follows open lane lanes[l] from state s
    lanes = np.flatnonzero(np.arange(M) % nl) if V > 1 else np.zeros(0, np.intp)
    heads = np.repeat(np.arange(V)[:, None] * A, lanes.size, axis=1)
    records = []  # step i: (open lanes, their symbols from each start)
    for i in range(L):
        head = _step(u[i], head, thr, succ, sym[i])
        if lanes.size:
            if i % 16 == 0:  # 16 steps share a buffer: fewer, larger allocations
                block = np.empty((16, heads.size), dtype=sym.dtype)
            xs = block[i % 16, : heads.size].reshape(heads.shape)
            xs[...] = 0
            heads = _step(u[i].take(lanes), heads, thr, succ, xs)
            records.append((lanes, xs))
            still = (heads[1:] != heads[0]).any(axis=0)
            if not still.all():
                lanes, heads = lanes[still], heads.compress(still, axis=1)
    # stitch: lane b of replica g starts where lane b-1 ended; a closed
    # lane ends where its walk from state 0 did, whatever its start
    first = np.empty((G, nl), dtype=np.intp)
    first[:, 0] = start
    first[:, 1:] = (head // A).reshape(G, nl)[:, :-1]
    if lanes.size:
        g_open, b_open = np.divmod(lanes, nl)
        for b in sorted(set(b_open[b_open < nl - 1].tolist())):
            sel = np.flatnonzero(b_open == b)
            g = g_open[sel]
            first[g, b + 1] = heads[first[g, b], sel] // A
    first = first.reshape(-1)
    for i, (idx, xs) in enumerate(records):
        sym[i, idx] = xs[first[idx], np.arange(idx.size)]
    return sym.T.reshape(G, nl * L)[:, :T]


def _step(
    u: np.ndarray, head: np.ndarray, thr: np.ndarray, succ: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """One step of walks at arc bases ``head`` driven by uniforms ``u``:
    adds the emitted symbols into the zeroed ``x`` and returns the next
    arc bases.  A symbol is the number of the state's CDF columns in
    ``thr`` that its uniform reaches."""
    for t in thr:
        x += u >= t.take(head)
    return succ.take(head + x)


def birkhoff_sums(paths: np.ndarray, phi: MarkovPotential) -> np.ndarray:
    """Windowed running sum of phi along each row of an (R, n) batch of
    paths: the sum over the n-k+1 contiguous k-windows (no wraparound,
    unlike the estimators' cyclic counts).  A single path of shape (n,)
    gives a 0-d array; any leading shape is kept.

    The rows are taken in blocks of at most ``_BIRKHOFF_SYMBOLS`` (2**16)
    symbols (one row when a row is longer), so the window codes and the
    gathered values stay small for any batch.  Each row is still summed as
    one contiguous row of a (G, n-k+1) block, which numpy sums pairwise
    exactly as it sums the row on its own.
    """
    paths = np.asarray(paths)
    n = paths.shape[-1]
    rows = paths.reshape(math.prod(paths.shape[:-1]), n)
    step = max(1, _BIRKHOFF_SYMBOLS // max(n, 1))
    sums = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], step):
        codes = window_codes(rows[lo : lo + step], phi.k, phi.alphabet_size)
        sums[lo : lo + step] = phi.values.take(codes).sum(axis=1)
    return sums.reshape(paths.shape[:-1])


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
    """Inverse of :func:`write_path_file`: returns (symbols, |A|, seed),
    the symbols as the writable uint8 array the file stores."""
    with open(path, "rb") as fh:
        header = fh.read(28)
        if header[:4] != _PATH_MAGIC:
            raise ValueError("not a path file (bad magic)")
        if len(header) != 28:
            raise ValueError("truncated path file")
        alphabet_size, n, seed = struct.unpack("<QQQ", header[4:])
        data = np.fromfile(fh, dtype=np.uint8, count=n)
    if data.size != n:
        raise ValueError("truncated path file")
    if data.size and int(data.max()) >= alphabet_size:
        raise ValueError("path file contains out-of-alphabet symbols")
    return data, int(alphabet_size), int(seed)
