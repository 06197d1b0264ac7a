"""Plug-in entropy and relative-entropy estimators on block distributions.

Everything is in nats.  For a k-block law nu with (k-1)-marginal nu' (last
symbol summed out):

    H_k(nu)        = -sum_w nu(w) ln nu(w)              (block entropy)
    h_k(nu)        = H_k(nu) - H_{k-1}(nu')             (conditional entropy)
    D_k(nu | rho)  = sum_w nu(w) ln(nu(w)/rho(w))       (relative entropy)
    Delta_k        = D_k - D_{k-1}                      (conditional form)

with the conventions H_0 = 0 and D_0 = 0, so h_1 = H_1 and Delta_1 = D_1.
Relative entropies return +inf when nu charges a word that rho does not;
that is a divergence signal, not an overflow.

The deviation machinery names four functionals (MEASURE_FUNCTIONALS):
h_k, H_k/k, Delta_k and D_k/k.  One table says which column of
functionals_from_counts each reads and whether it is divided by k; only
the relative two read a reference law.  select_functional scores count
rows with it and refuses a reference law that misses a k-word, and
measure_functional scores one law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blocks import BlockDistribution, _distinct_rows, block_counts

__all__ = [
    "EntropyRecord",
    "conditional_block_entropy",
    "continuity_bound",
    "functionals_from_counts",
    "measure_functional",
    "plug_in_estimates",
    "select_functional",
    "MEASURE_FUNCTIONALS",
]


def _entropy(w: np.ndarray) -> float:
    """-sum w ln w over the positive entries of w, summed in code order."""
    p = w[w > 0]
    return float(-(p * np.log(p)).sum())


def _divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum p ln(p/q) over the positive entries of p; +inf off q's support."""
    pos = p > 0
    if np.any(q[pos] <= 0):
        return math.inf
    return float((p[pos] * (np.log(p[pos]) - np.log(q[pos]))).sum())


def _reference(
    rho: BlockDistribution, alphabet_size: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weights of a reference k-block law and of its right marginal."""
    if (rho.alphabet_size, rho.k) != (alphabet_size, k):
        raise ValueError("distributions live on different block spaces")
    return rho.weights, rho.weights.reshape(-1, alphabet_size).sum(axis=1)


def _row_functionals(
    w: np.ndarray,
    alphabet_size: int,
    k: int,
    ref: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[float, ...]:
    """(H_k, h_k) of one row of block weights, then (D_k, Delta_k) against
    ``ref`` if given; the (k-1)-terms use the right marginals (last symbol
    summed out), and are 0 for k = 1."""
    lower = w.reshape(-1, alphabet_size).sum(axis=1)
    hk = _entropy(w)
    values = (hk, hk if k == 1 else hk - _entropy(lower))
    if ref is None:
        return values
    dk = _divergence(w, ref[0])
    if k == 1:
        return values + (dk, dk)
    dkm1 = _divergence(lower, ref[1])
    if math.isinf(dk) and math.isinf(dkm1):
        return values + (dk, math.inf)
    return values + (dk, dk - dkm1)


def conditional_block_entropy(nu: BlockDistribution) -> float:
    """h_k(nu) = H_k(nu) - H_{k-1} of the last-symbol marginal (H_0 = 0).

    For the k-marginal of a (k-1)-step Markov measure this equals the
    entropy rate of the process.
    """
    return _row_functionals(nu.weights, nu.alphabet_size, nu.k)[1]


def functionals_from_counts(
    counts: np.ndarray,
    n: int,
    k: int,
    rho_k: Optional[BlockDistribution] = None,
) -> np.ndarray:
    """Plug-in functionals of every row of an (R, A**k) block-count matrix.

    Row r of the result holds H_k and h_k of the law counts[r] / n, then
    D_k and Delta_k against ``rho_k`` when one is given: shape (R, 2) or
    (R, 4), columns in :class:`EntropyRecord` order.  A functional of the
    counts depends only on the type, so each distinct row is evaluated
    once and the values are gathered back.  Every sum runs over the
    nonzero entries of its row, in code order, exactly as
    :func:`conditional_block_entropy` and :func:`measure_functional` sum,
    so each value is bitwise the one they give for that row's law.
    """
    counts = np.asarray(counts)
    alphabet_size = round(counts.shape[-1] ** (1.0 / k))
    if counts.ndim != 2 or alphabet_size**k != counts.shape[-1]:
        raise ValueError(f"expected an (R, A**{k}) matrix of block counts")
    ref = None if rho_k is None else _reference(rho_k, alphabet_size, k)
    distinct, inverse = _distinct_rows(counts)
    values = np.array(
        [_row_functionals(row / n, alphabet_size, k, ref) for row in distinct]
    )
    return values[inverse]


@dataclass(frozen=True)
class EntropyRecord:
    """One row of estimates for a sample: entropies and, when a reference
    law was supplied, relative entropies."""

    n: int
    k: int
    block_entropy: float
    cond_entropy: float
    rel_entropy: Optional[float] = None
    rel_cond_entropy: Optional[float] = None


def plug_in_estimates(
    x: Sequence[int] | np.ndarray,
    k: int,
    alphabet_size: int,
    rho_k: Optional[BlockDistribution] = None,
) -> EntropyRecord:
    """Empirical H_k, h_k (and D_k, Delta_k against ``rho_k`` if given)
    from the cyclic k-block counts of one sample."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("expected a single 1-d sample")
    counts = block_counts(x[None], k, alphabet_size)
    values = functionals_from_counts(counts, x.size, k, rho_k)[0]
    return EntropyRecord(int(x.size), k, *values.tolist())


def continuity_bound(delta: float, k: int, alphabet_size: int) -> float:
    """Upper bound on |H_k(nu) - H_k(mu)| when tv_distance(nu, mu) <= delta.

    Equals -2 delta ln(delta / A**k) and requires delta <= 1/e, where the
    bound is monotone increasing in delta.
    """
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if delta > 1.0 / math.e:
        raise ValueError("continuity bound requires delta <= 1/e")
    if delta == 0.0:
        return 0.0
    return -2.0 * delta * math.log(delta / alphabet_size**k)


#: Functionals of a k-block law used by the deviation machinery: per-step
#: conditional entropy, per-symbol block entropy, per-symbol relative
#: entropy, and the conditional relative entropy.  Each reads one column of
#: :func:`functionals_from_counts`, divided by k for the per-symbol forms;
#: the relative ones (columns 2 and 3) read a reference law rho_k.
_FUNCTIONAL_COLUMNS = {
    "conditional": (1, False),
    "average": (0, True),
    "relative_conditional": (3, False),
    "relative_average": (2, True),
}
MEASURE_FUNCTIONALS = tuple(_FUNCTIONAL_COLUMNS)


def _functional(name: str, rho_k: Optional[BlockDistribution]) -> tuple:
    """Column and per-symbol flag of a functional, and the reference law it
    reads: ``rho_k`` (required) for a relative functional, else None."""
    if name not in _FUNCTIONAL_COLUMNS:
        raise ValueError(f"unknown functional {name!r}")
    column, per_symbol = _FUNCTIONAL_COLUMNS[name]
    if column >= 2 and rho_k is None:
        raise ValueError(f"functional {name!r} needs a reference distribution")
    return column, per_symbol, rho_k if column >= 2 else None


def select_functional(
    name: str, counts: np.ndarray, n: int, k: int, rho_k: Optional[BlockDistribution]
) -> np.ndarray:
    """The named functional of every row of an (R, A**k) block-count matrix
    of n-samples: bitwise the matching column of
    :func:`functionals_from_counts`, over k for the per-symbol forms.

    ``rho_k`` is read only by the relative functionals, and they refuse a
    law that misses a k-word: the plug-in divergence of a sample that sees
    the word would be +inf, and a moment generating average over samples
    inf or NaN.
    """
    column, per_symbol, rho_k = _functional(name, rho_k)
    if rho_k is not None and np.any(rho_k.weights <= 0):
        raise ValueError("relative functionals need a full-support law")
    picked = functionals_from_counts(counts, n, k, rho_k)[:, column]
    return picked / k if per_symbol else picked


def measure_functional(
    name: str, nu: BlockDistribution, rho_k: Optional[BlockDistribution] = None
) -> float:
    """Evaluate one of :data:`MEASURE_FUNCTIONALS` on a k-block law; a
    relative one is +inf when nu charges a word that ``rho_k`` does not."""
    column, per_symbol, rho_k = _functional(name, rho_k)
    ref = None if rho_k is None else _reference(rho_k, nu.alphabet_size, nu.k)
    value = _row_functionals(nu.weights, nu.alphabet_size, nu.k, ref)[column]
    return value / nu.k if per_symbol else value
