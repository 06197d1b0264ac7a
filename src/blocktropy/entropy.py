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

The count scorers read a sample's law off its cyclic k-block counts:
row r of a count matrix is the type of one sample, and its law is
counts[r] / counts[r].sum(), so the sample length n is never passed
beside the counts; counts must be nonnegative integers.

There is one scorer, and it scores many laws at once: the rows' positive
entries are laid end to end, each elementwise step is one array call over
all of them, and each row's sum runs over its own positive entries in
code order.  To keep every sum bitwise the 1-D sum of that row, the rows
are grouped by their number of positive entries: numpy sums a contiguous
run pairwise in blocks that depend on its length, so a group's runs are
gathered into one C-contiguous (G, m) block and summed along its rows.
A single law (conditional_block_entropy, measure_functional) is a one-row
matrix of the same scorer.

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

from .blocks import BlockDistribution, _distinct_rows, _last_summed, block_counts

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


def _reference(
    rho: BlockDistribution, alphabet_size: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Logs of the weights of a reference k-block law and of its right
    marginal (ln 0 = -inf, which makes a divergence +inf)."""
    if (rho.alphabet_size, rho.k) != (alphabet_size, k):
        raise ValueError("distributions live on different block spaces")
    lower = _last_summed(rho.weights, alphabet_size)
    with np.errstate(divide="ignore"):
        return np.log(rho.weights), np.log(lower)


def _row_sums(terms: np.ndarray, lengths: Optional[np.ndarray]) -> np.ndarray:
    """The sum of each row's run of ``terms``, where the runs of the rows
    lie end to end and row r's run has ``lengths[r]`` entries (None: one
    row); each sum is bitwise the 1-D ``.sum()`` of its run.

    numpy sums a contiguous run pairwise, in blocks that depend on its
    length.  So the runs of one length are gathered into a C-contiguous
    (G, m) block, and its sum along axis 1 (``np.add.reduce``, which
    ``.sum`` calls) sums each row as that 1-D sum does; padding rows to a
    common length would move the pairwise blocks, and ``np.add.reduceat``
    sums sequentially.  A length held by one row is summed as a slice, so
    rows of all different lengths cost one call each.
    """
    if lengths is None:
        return np.add.reduce(terms, keepdims=True)
    ends = np.cumsum(lengths)
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    out = np.empty(lengths.size)
    for rows in np.split(order, cuts):
        m = int(lengths[rows[0]])
        if rows.size == 1:
            end = int(ends[rows[0]])
            out[rows[0]] = np.add.reduce(terms[end - m : end])
        else:
            block = terms[(ends[rows] - m)[:, None] + np.arange(m)]
            out[rows] = np.add.reduce(block, axis=1)
    return out


def _support_sums(
    w: np.ndarray, log_ref: Optional[np.ndarray] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per row of the (R, N) weights ``w``: the sum of p ln p over its
    positive entries p (the entropy with its sign flipped), and the sum of
    p (ln p - ln q) against ``log_ref`` = ln q if given (+inf where q = 0
    under a positive p), each summed in code order."""
    positive = w > 0
    at = positive.ravel().nonzero()[0]  # the rows' positive entries, end to end
    p = w.take(at)
    log_p = np.log(p)
    lengths = None if w.shape[0] == 1 else np.add.reduce(positive, axis=1)
    plogp = _row_sums(p * log_p, lengths)
    if log_ref is None:
        return plogp, None
    log_q = np.tile(log_ref, w.shape[0]).take(at)
    return plogp, _row_sums(p * (log_p - log_q), lengths)


def _law_functionals(
    w: np.ndarray,
    alphabet_size: int,
    k: int,
    ref: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> list[np.ndarray]:
    """The columns H_k and h_k over the rows of an (R, A**k) matrix of
    block laws, then D_k and Delta_k against the logs ``ref`` if given.
    The (k-1)-terms use the right marginals (last symbol summed out), and
    are 0 for k = 1; Delta_k is +inf when D_k and D_{k-1} are.  With S the
    sums of p ln p, h_k = -S_k - (-S_{k-1}) is S_{k-1} - S_k, bit for bit."""
    sk, dk = _support_sums(w, None if ref is None else ref[0])
    hk = -sk
    if k == 1:
        return [hk, hk] if ref is None else [hk, hk, dk, dk]
    lower = _last_summed(w, alphabet_size)
    skm1, dkm1 = _support_sums(lower, None if ref is None else ref[1])
    if ref is None:
        return [hk, skm1 - sk]
    delta = np.full_like(dk, math.inf)
    np.subtract(dk, dkm1, out=delta, where=~(np.isinf(dk) & np.isinf(dkm1)))
    return [hk, skm1 - sk, dk, delta]


def conditional_block_entropy(nu: BlockDistribution) -> float:
    """h_k(nu) = H_k(nu) - H_{k-1} of the last-symbol marginal (H_0 = 0).

    For the k-marginal of a (k-1)-step Markov measure this equals the
    entropy rate of the process.
    """
    return float(_law_functionals(nu.weights[None], nu.alphabet_size, nu.k)[1][0])


def functionals_from_counts(
    counts: np.ndarray,
    k: int,
    rho_k: Optional[BlockDistribution] = None,
) -> np.ndarray:
    """Plug-in functionals of every row of an (R, A**k) block-count matrix.

    Row r of the result holds H_k and h_k of the law counts[r] / n, where
    the row's total n is its sample's length (a row that counts nothing
    raises ValueError), then D_k and Delta_k against ``rho_k`` when one is
    given: shape (R, 2) or (R, 4), columns in :class:`EntropyRecord` order.
    Raises ValueError when a count is negative or not an integer.

    A functional of the counts depends only on the type, so the distinct
    rows are scored together, once each, and the values are gathered back.
    Every sum runs over the nonzero entries of its row, in code order, as
    :func:`conditional_block_entropy` and :func:`measure_functional` sum;
    rows are grouped by their number of nonzero entries, and each group is
    summed as one C-contiguous block, so each value is bitwise the one
    they give for that row's law (see the module docstring).
    """
    counts = np.asarray(counts)
    alphabet_size = round(counts.shape[-1] ** (1.0 / k))
    if counts.ndim != 2 or alphabet_size**k != counts.shape[-1]:
        raise ValueError(f"expected an (R, A**{k}) matrix of block counts")
    integral = counts.dtype.kind in "biu" or (
        counts.dtype.kind == "f"
        and bool(np.all(np.isfinite(counts) & (np.trunc(counts) == counts)))
    )
    if not integral or np.any(counts < 0):
        raise ValueError("block counts must be nonnegative integers")
    ref = None if rho_k is None else _reference(rho_k, alphabet_size, k)
    distinct, inverse = _distinct_rows(counts)
    totals = distinct.sum(axis=1, keepdims=True)
    if not np.all(totals > 0):
        raise ValueError("every row of block counts must count some window")
    columns = _law_functionals(distinct / totals, alphabet_size, k, ref)
    return np.stack(columns, axis=1)[inverse]


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
    values = functionals_from_counts(counts, k, rho_k)[0]
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
    name: str, counts: np.ndarray, k: int, rho_k: Optional[BlockDistribution]
) -> np.ndarray:
    """The named functional of every row of an (R, A**k) block-count matrix,
    each row the counts of one sample: bitwise the matching column of
    :func:`functionals_from_counts`, over k for the per-symbol forms.

    ``rho_k`` is read only by the relative functionals, and they refuse a
    law that misses a k-word: the plug-in divergence of a sample that sees
    the word would be +inf, and a moment generating average over samples
    inf or NaN.
    """
    column, per_symbol, rho_k = _functional(name, rho_k)
    if rho_k is not None and np.any(rho_k.weights <= 0):
        raise ValueError("relative functionals need a full-support law")
    picked = functionals_from_counts(counts, k, rho_k)[:, column]
    return picked / k if per_symbol else picked


def measure_functional(
    name: str, nu: BlockDistribution, rho_k: Optional[BlockDistribution] = None
) -> float:
    """Evaluate one of :data:`MEASURE_FUNCTIONALS` on a k-block law; a
    relative one is +inf when nu charges a word that ``rho_k`` does not."""
    column, per_symbol, rho_k = _functional(name, rho_k)
    ref = None if rho_k is None else _reference(rho_k, nu.alphabet_size, nu.k)
    columns = _law_functionals(nu.weights[None], nu.alphabet_size, nu.k, ref)
    value = float(columns[column][0])
    return value / nu.k if per_symbol else value
