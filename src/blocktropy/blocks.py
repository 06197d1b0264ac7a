"""Block distributions over words of a finite alphabet.

Words of length k over the alphabet {0, ..., A-1} are identified with their
base-A integer codes,

    code(a_1 ... a_k) = sum_i a_i * A**(k - i),

so a distribution on k-blocks is just a vector of A**k weights in code order.
All estimators in this package use *cyclic* windows: a sample x_1 ... x_n is
read around a circle, giving exactly n windows of every length.  Empirical
block measures built this way are stationary by construction, which keeps the
downstream identities exact instead of exact-up-to-boundary-terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "BlockDistribution",
    "block_counts",
    "block_schedule",
    "cyclic_window_codes",
    "empirical_block_measure",
    "marginalize",
    "stationarity_defect",
    "tv_distance",
    "window_codes",
]

#: Absolute tolerance for "weights sum to one" checks.
_MASS_TOL = 1e-12

#: Absolute tolerance below which a stationarity defect is considered zero.
_BALANCE_TOL = 1e-12


def _is_int(value: object) -> bool:
    """True for Python and numpy integers, False for bool, float and str."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(name: str, value: object, least: int) -> None:
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _block_vector(
    alphabet_size: object, k: object, values: object, what: str, dtype: type
) -> np.ndarray:
    """A copy of ``values`` as one entry per k-word in code order, after
    checking that the alphabet size is an integer >= 2 and k an integer
    >= 1; ``what`` names the entries in the shape error."""
    _require_int("alphabet size", alphabet_size, 2)
    _require_int("block length k", k, 1)
    v = np.array(values, dtype=dtype)
    if v.shape != (alphabet_size**k,):
        raise ValueError(
            f"expected {alphabet_size ** k} {what} for k={k}, got shape {v.shape}"
        )
    return v


def _marginals(
    w: np.ndarray, alphabet_size: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (k-1)-word marginals of a k-block vector: the last symbol summed
    out (out-degrees on the de Bruijn graph) and the first summed out
    (in-degrees).  At k = 1 both are the total, as a 1-vector."""
    A, V = alphabet_size, alphabet_size ** (k - 1)
    return w.reshape(V, A).sum(axis=1), w.reshape(A, V).sum(axis=0)


@dataclass(frozen=True)
class BlockDistribution:
    """A probability distribution on k-blocks, weights in word-code order.

    ``weights[c]`` is the mass of the word with code ``c``.  The alphabet
    size must be an integer >= 2 and k an integer >= 1.  Construction keeps
    a read-only copy of the weights, refuses negative or NaN weights and any
    total but 1, and measures ``stationary``: True when the two
    (k-1)-marginals (sum out the last symbol / sum out the first) agree to
    within 1e-12, so every 1-block law is stationary.
    """

    alphabet_size: int
    k: int
    weights: np.ndarray
    stationary: bool = field(init=False)

    def __post_init__(self) -> None:
        w = _block_vector(self.alphabet_size, self.k, self.weights, "weights", float)
        if np.any(w < -_MASS_TOL):
            raise ValueError("negative weight in block distribution")
        np.maximum(w, 0.0, out=w)
        total = w.sum()
        if not abs(total - 1.0) <= _MASS_TOL * max(1.0, w.size**0.5):
            raise ValueError(f"weights sum to {total!r}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(
            self, "stationary", stationarity_defect(self) <= _BALANCE_TOL
        )


def window_codes(x: np.ndarray, k: int, alphabet_size: int) -> np.ndarray:
    """Codes of the n-k+1 contiguous k-windows of ``x`` (no wraparound)."""
    _require_int("block length k", k, 1)
    x = np.asarray(x)
    n = x.shape[-1]
    if n < k:
        raise ValueError(f"sample of length {n} has no {k}-windows")
    m = n - k + 1
    codes = np.zeros(x.shape[:-1] + (m,), dtype=np.int64)
    for j in range(k):
        codes *= alphabet_size
        codes += x[..., j : j + m]
    return codes


def cyclic_window_codes(x: np.ndarray, k: int, alphabet_size: int) -> np.ndarray:
    """Codes of all n cyclic k-windows of ``x`` (window i starts at x_i).

    Accepts a single sample of shape (n,) or a batch of shape (R, n); the
    window axis is always the last one.
    """
    _require_int("block length k", k, 1)
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("empty sample")
    if k > n:
        raise ValueError(f"block length {k} exceeds sample length {n}")
    return window_codes(np.concatenate([x, x[..., : k - 1]], axis=-1), k, alphabet_size)


def block_counts(x: np.ndarray, k: int, alphabet_size: int) -> np.ndarray:
    """Cyclic k-block counts of a sample (n,) or of each row of a batch (R, n).

    Returns integer counts of shape x.shape[:-1] + (A**k,), in word-code
    order; every row sums to n.  One bincount covers the whole batch, each
    row's codes shifted into its own range of A**k bins.
    """
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= alphabet_size):
        raise ValueError("sample contains symbols outside the alphabet")
    codes = cyclic_window_codes(x, k, alphabet_size).reshape(-1, x.shape[-1])
    n_words = alphabet_size**k
    rows = codes.shape[0]
    codes += np.arange(rows, dtype=np.int64)[:, None] * n_words
    counts = np.bincount(codes.ravel(), minlength=rows * n_words)
    return counts.reshape(x.shape[:-1] + (n_words,))


def _distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array of nonnegative integers in
    lexicographic order, and for each row the index of its distinct row.

    The result of ``np.unique(counts, axis=0, return_inverse=True)``, but
    each row is sorted as one big-endian byte string, whose byte order is
    the numeric order of nonnegative integers; that is several times faster
    than numpy's field-by-field row sort.
    """
    keys = np.ascontiguousarray(counts, dtype=">u8")
    keys = keys.view(np.dtype((np.void, keys.itemsize * counts.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return counts[first], inverse


def empirical_block_measure(
    x: Sequence[int] | np.ndarray, k: int, alphabet_size: int
) -> BlockDistribution:
    """Empirical k-block distribution of a sample, using cyclic windows.

    Each of the n cyclic windows contributes weight 1/n, so the result is
    stationary exactly (every weight is a multiple of 1/n and the two
    (k-1)-marginals coincide).
    """
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 1:
        raise ValueError("expected a single 1-d sample")
    counts = block_counts(x, k, alphabet_size)
    return BlockDistribution(alphabet_size, k, counts / x.size)


def marginalize(nu: BlockDistribution) -> BlockDistribution:
    """Sum out the last symbol of a k-block distribution (k >= 2), leaving
    the distribution of the first k-1 symbols; a stationary input gives a
    stationary output.
    """
    if nu.k < 2:
        raise ValueError("cannot marginalize a 1-block distribution")
    A = nu.alphabet_size
    w = nu.weights.reshape(A ** (nu.k - 1), A).sum(axis=1)
    return BlockDistribution(A, nu.k - 1, w)


def stationarity_defect(nu: BlockDistribution) -> float:
    """Max over (k-1)-words w of |sum_b nu(w b) - sum_b nu(b w)|.

    Zero exactly when the k-block law is the k-marginal of a stationary
    process; 1-block distributions are vacuously stationary (defect 0).
    """
    right, left = _marginals(nu.weights, nu.alphabet_size, nu.k)
    return float(np.max(np.abs(right - left)))


def tv_distance(nu: BlockDistribution, mu: BlockDistribution) -> float:
    """Unnormalized L1 distance sum_w |nu(w) - mu(w)|, in [0, 2]."""
    if (nu.alphabet_size, nu.k) != (mu.alphabet_size, mu.k):
        raise ValueError("distributions live on different block spaces")
    return float(np.abs(nu.weights - mu.weights).sum())


def block_schedule(n: int, alphabet_size: int, epsilon: float) -> int:
    """Admissible block length k(n) = max(1, floor((1-eps) ln n / ln A)).

    Guarantees A**k(n) <= n**(1-eps) whenever the floor is >= 1, so block
    counts grow polynomially slower than the sample.  Clamped to 1 for tiny
    samples.  On this schedule the plug-in Delta_k of an n-sample carries a
    bias of about (A-1) C_{k-1} / (2n) <= (A-1) A**(k-1) / (2n), with C_{k-1}
    the number of distinct (k-1)-contexts seen, so it tends to 0 but only
    at rate about n**(-eps).
    """
    _require_int("sample size n", n, 1)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    _require_int("alphabet size", alphabet_size, 2)
    return max(1, math.floor((1.0 - epsilon) * math.log(n) / math.log(alphabet_size)))
