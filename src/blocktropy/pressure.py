"""Transfer operators, pressure, and equilibrium measures for word potentials.

A depth-k potential assigns a finite real to every k-word; the associated
transfer matrix acts on (k-1)-word states,

    M[u, v] = exp(beta * phi(u . last(v)))   if u and v overlap in k-2 symbols,

and the topological pressure of beta*phi is the log of its Perron root.
The right Perron vector r conjugates M into a row-stochastic kernel

    Q(b | u) = exp(beta * phi(u b)) * r(suffix(u b)) / (lambda * r(u)),

whose stationary Markov measure is the equilibrium state.  A potential is
*normalized* when the kernel is exp(phi) itself, i.e. sum_b exp(phi(u b)) = 1
for every (k-1)-word u; then the pressure is zero and -phi averages to the
entropy.  ``normalize_potential`` brings any finite potential to this form
without changing its equilibrium state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blocks import (
    BlockDistribution,
    _block_laws,
    _block_vector,
    _last_summed,
    _require_int,
    marginalize,
)
from .entropy import _law_functionals, conditional_block_entropy

__all__ = [
    "ConvergenceError",
    "MarkovPotential",
    "ReducibilityError",
    "SpectralData",
    "direct_pressure_estimate",
    "equilibrium_blocks",
    "markov_blocks",
    "normalize_potential",
    "pressure",
    "relative_entropy_rate",
    "spectral_to_json_dict",
]

#: Power-iteration tolerance and cap.
_POWER_TOL = 1e-13
# Generic spectral gaps converge in tens of iterations (every solve behind
# the example config's rate grid takes at most 124, median 62); slowly
# mixing chains take hundreds.  Anything still unconverged after this many
# steps falls back to the dense eigensolve.
_POWER_MAX_ITER = 2_000

#: Stall test of the power iteration.  The largest step change of each
#: window of this many iterations is compared with the previous window's
#: to get a contraction rate per step; when that rate says the change
#: cannot reach _POWER_TOL within twice _POWER_MAX_ITER steps, the near-tie
#: of moduli (strong tilting, periodic support) goes to the dense
#: eigensolve at once, which is where the cap would send it anyway.
_STALL_WINDOW = 64

#: Fewest matrices that ``_spectra`` iterates as one stack.  A stacked
#: power-iteration step costs about twice a one-matrix step on small stacks
#: (V = 2 to 64), so up to three matrices iterate one at a time; from four
#: on the stack is faster.
_STACK_MIN = 4

#: Normalization defect below which a potential counts as normalized.
_NORMALIZED_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """A spectral solve failed: the dense eigensolve did not converge, the
    equilibrium kernel underflowed, the stationary solve was singular or
    inaccurate, or a normalization lost its rows to rounding."""


class ReducibilityError(ValueError):
    """The transfer matrix is (numerically) reducible; the Perron vector is
    not strictly positive.  Potentials must keep every k-word reachable."""


@dataclass(frozen=True)
class MarkovPotential:
    """A finite potential on k-words; ``values[c]`` for word code ``c``.

    The alphabet size must be an integer >= 2 and k an integer >= 1, and
    every value finite; construction keeps a read-only copy of the values
    and measures ``normalized``: True when sum_b exp(values[u b])
    is 1 within 1e-8 at every (k-1)-word u, which makes exp(values) a
    transition kernel in its own right.
    """

    alphabet_size: int
    k: int
    values: np.ndarray
    normalized: bool = field(init=False)

    def __post_init__(self) -> None:
        v = _block_vector(self.alphabet_size, self.k, self.values, "values", float)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(
            self, "normalized", self.normalization_defect() <= _NORMALIZED_TOL
        )

    def normalization_defect(self) -> float:
        """Max over (k-1)-words u of |sum_b exp(phi(u b)) - 1|; inf where
        exp overflows."""
        A = self.alphabet_size
        with np.errstate(over="ignore"):
            rows = np.exp(self.values).reshape(A ** (self.k - 1), A).sum(axis=1)
        return float(np.max(np.abs(rows - 1.0)))


def _require_normalized(phi: MarkovPotential) -> None:
    if not phi.normalized:
        raise ValueError("this operation requires a normalized potential")


@dataclass(frozen=True)
class SpectralData:
    """Perron eigendata of a transfer matrix at inverse temperature beta.

    ``kernel`` is the row-stochastic (V, A) transition matrix of the
    equilibrium chain (V = A**(k-1) states), ``vertex_stationary`` its
    stationary law, and ``equilibrium`` the induced k-block marginal.
    ``pressure = entropy + beta * potential_mean`` holds to eigen accuracy.
    """

    potential: MarkovPotential
    beta: float
    pressure: float
    right_vector: np.ndarray
    kernel: np.ndarray
    vertex_stationary: np.ndarray
    equilibrium: BlockDistribution
    entropy: float
    potential_mean: float


def _arc_matrix(weights: np.ndarray, A: int) -> np.ndarray:
    """Dense V x V matrix holding each k-word's weight on its arc, for each
    vector of weights along the last axis (a (..., V, V) stack).

    Word w runs from state w // A (its prefix) to state w % V (its suffix);
    ``weights`` lists the A**k words in code order.
    """
    V = weights.shape[-1] // A
    M = np.zeros(weights.shape[:-1] + (V, V))
    arcs = np.arange(weights.shape[-1])
    np.add.at(M, (..., arcs // A, arcs % V), weights)
    return M


def _perron_eig(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Dense eigensolve for spectra power iteration cannot split.

    Strong tilting can shrink the spectral gap to e^{-O(beta)} and periodic
    support ties subdominant moduli to the Perron root; both stall power
    iteration while a direct eigendecomposition of these small dense
    matrices resolves them exactly.
    """
    try:
        eigvals, eigvecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("transfer matrix eigensolve failed") from exc
    top = int(np.argmax(eigvals.real))
    lam = eigvals[top]
    if lam.real <= 0.0 or abs(lam.imag) > 1e-9 * lam.real:
        raise ReducibilityError("transfer matrix has no positive Perron root")
    # An eigenvector of the Perron root is a complex multiple of the
    # nonnegative Perron vector, so its moduli are that vector up to scale.
    v = np.abs(eigvecs[:, top])
    v = v / v.sum()
    # A few nonnegative matvecs repair components the eigensolver rendered
    # at or below its noise floor: every step is a nonnegative combination,
    # and the resolved components are already at the fixed point.
    for _ in range(max(2, M.shape[0])):
        v = M @ v
        s = float(v.sum())
        if s <= 0.0 or not np.isfinite(s):
            raise ReducibilityError("transfer matrix iterate lost positivity")
        v = v / s
    return s, v


def _perron(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and L1-normalized positive eigenvector.

    Power iteration first (cheap, and self-verifying through its fixed
    point), with a dense eigensolve fallback when the gap is too small for
    iteration to converge within the cap, taken as soon as the stall test
    sees that it will not.

    A step makes the product w = M @ v, its sum s and w / s, written into
    ``trail``: row 0 holds the iterate that ended the last stall window,
    rows 1 to _STALL_WINDOW this window's iterates.  The step change
    max|w - v| is taken only once the scalar test on s passes, and the
    stall test takes a whole window's changes from ``trail`` at its end.
    They are the same IEEE differences and maxima as a per-step
    max|w - v|, so every iterate, stop and stall decision is bit for bit
    that of the loop which takes the change at every step (the tests keep
    that loop as the reference).
    """
    V = M.shape[0]
    trail = np.empty((_STALL_WINDOW + 1, V))
    trail[0] = 1.0 / V
    rows = list(trail)
    v = rows[0]
    lam = previous = 0.0
    for step in range(1, _POWER_MAX_ITER + 1):
        w = M @ v
        s = float(np.add.reduce(w))
        if not math.isfinite(s) or s <= 0.0:
            raise ReducibilityError("transfer matrix iterate lost positivity")
        slot = (step - 1) % _STALL_WINDOW + 1
        w = np.divide(w, s, rows[slot])
        if abs(s - lam) < _POWER_TOL * max(1.0, abs(s)) and (
            float(np.maximum.reduce(np.abs(w - v))) < _POWER_TOL
        ):
            # two polishing steps sharpen the eigenpair to machine accuracy
            for _ in range(2):
                w = M @ w
                s = float(np.add.reduce(w))
                w /= s
            return s, w
        if slot == _STALL_WINDOW:
            changes = np.maximum.reduce(np.abs(trail[1:] - trail[:-1]), axis=1)
            window = float(np.maximum.reduce(changes))
            if previous > 0.0 and _stalled(previous, window, float(changes[-1]), step):
                break
            previous = window
            rows[0][:] = w
            w = rows[0]
        v, lam = w, s
    return _perron_eig(M)


def _perron_stack(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_perron`` of every matrix of a (B, V, V) stack, bit for bit.

    Each step is one stacked product, row sum and division for the rows
    still iterating (``np.matmul`` over a stack and a sum along the rows
    give each row the bits of its own ``M @ v`` and 1-D sum).  Every row
    takes ``_perron``'s stop, polish, stall-window and eigensolve decisions
    from its own numbers, and leaves the stack when it stops.  A row that
    loses positivity raises ReducibilityError for the stack.
    """
    B, V = M.shape[:2]
    lams, vectors = np.empty(B), np.empty((B, V))
    rows = np.arange(B)  # the matrices still iterating
    trail = np.empty((_STALL_WINDOW + 1, B, V))
    trail[0] = 1.0 / V
    v = trail[0]
    lam, previous = np.zeros(B), np.zeros(B)
    for step in range(1, _POWER_MAX_ITER + 1):
        w = np.matmul(M, v[:, :, None])[:, :, 0]
        s = np.add.reduce(w, axis=1)
        # (a NaN fails too; an infinite sum leaves a NaN or zero iterate,
        # which fails the next step, and a failed stack is solved again
        # one beta at a time)
        if not np.minimum.reduce(s) > 0.0:
            raise ReducibilityError("transfer matrix iterate lost positivity")
        slot = (step - 1) % _STALL_WINDOW + 1
        w = np.divide(w, s[:, None], trail[slot])
        stop = np.abs(s - lam) < _POWER_TOL * np.maximum(1.0, s)
        if np.count_nonzero(stop):
            change = np.maximum.reduce(np.abs(w[stop] - v[stop]), axis=1)
            stop[stop] = change < _POWER_TOL
        if np.count_nonzero(stop):
            # two polishing steps sharpen the eigenpair to machine accuracy
            u = w[stop]
            for _ in range(2):
                u = np.matmul(M[stop], u[:, :, None])[:, :, 0]
                sums = np.add.reduce(u, axis=1)
                u /= sums[:, None]
            lams[rows[stop]], vectors[rows[stop]] = sums, u
        if slot == _STALL_WINDOW:
            changes = np.maximum.reduce(np.abs(trail[1:] - trail[:-1]), axis=2)
            window = np.maximum.reduce(changes)
            for i in np.flatnonzero(~stop & (previous > 0.0)):
                if _stalled(previous[i], window[i], changes[-1, i], step):
                    lams[rows[i]], vectors[rows[i]] = _perron_eig(M[i])
                    stop[i] = True
            previous = window
            trail[0] = w
            w = trail[0]
        if np.count_nonzero(stop):
            keep = ~stop
            rows, M, previous = rows[keep], M[keep], previous[keep]
            trail = trail[:, keep]
            if not rows.size:
                return lams, vectors
            w, s = trail[0 if slot == _STALL_WINDOW else slot], s[keep]
        v, lam = w, s
    for i, row in enumerate(rows):
        lams[row], vectors[row] = _perron_eig(M[i])
    return lams, vectors


def _stalled(previous: float, window: float, change: float, step: int) -> bool:
    """True when the per-step contraction of the window maxima, projected
    from the current change, misses _POWER_TOL within 2 * _POWER_MAX_ITER."""
    if window >= previous:
        return True
    if change <= _POWER_TOL:
        return False
    rate = math.log(window / previous) / _STALL_WINDOW
    return step + math.log(_POWER_TOL / change) / rate > 2 * _POWER_MAX_ITER


def pressure(phi: MarkovPotential, beta: float) -> SpectralData:
    """Pressure and equilibrium state of beta*phi via the Perron eigenpair.

    The potential is shifted by max(beta*phi) before exponentiation, so
    large |beta| stays in floating-point range; the shift adds back into
    the reported pressure exactly.  The equilibrium law's ``stationary`` is
    measured like any other block law's; a law from an inaccurate
    stationary solve raises ConvergenceError.
    """
    return _spectra(phi, (beta,))[0]


def _spectra(phi: MarkovPotential, betas: Sequence[float]) -> list[SpectralData]:
    """``[pressure(phi, beta) for beta in betas]``, bit for bit and error
    for error, from one stacked solve.

    The weights, kernels, stationary solves, stationarity checks and
    entropy scores of all betas are array passes over the stack, each row
    bitwise its one-beta value.  Fewer than ``_STACK_MIN`` betas take
    ``_perron`` one matrix at a time, more take ``_perron_stack``, whose
    step costs more than a one-matrix step but serves the whole stack.
    When the stacked solve of several betas raises, the betas are solved
    one at a time, so the error is the one the first failing beta raises
    by itself.
    """
    try:
        return _solve_stack(phi, betas)
    except (ValueError, ConvergenceError):
        if len(betas) == 1:
            raise
        return [pressure(phi, beta) for beta in betas]


def _solve_stack(phi: MarkovPotential, betas: Sequence[float]) -> list[SpectralData]:
    """The spectra of ``_spectra``; any failing beta raises for them all."""
    for beta in betas:
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
    A, k = phi.alphabet_size, phi.k
    V = A ** (k - 1)
    psi = np.multiply.outer(np.asarray(betas, dtype=float), phi.values)
    shift = np.maximum.reduce(psi, axis=1)
    weights = np.exp(psi - shift[:, None])
    if len(betas) < _STACK_MIN:
        lam, r = zip(*(_perron(_arc_matrix(w, A)) for w in weights))
        lam, r = np.array(lam), np.array(r)
    else:
        lam, r = _perron_stack(_arc_matrix(weights, A))
    if r.min() <= 0.0:
        raise ReducibilityError(
            "transfer matrix is numerically reducible (Perron vector touches zero)"
        )

    arcs = np.arange(A**k)
    kernel = (
        weights.reshape(-1, V, A)
        * r[:, (arcs % V).reshape(V, A)]
        / (lam[:, None, None] * r[:, :, None])
    )
    row_sums = _last_summed(kernel, A)
    if np.any(row_sums <= 0) or not np.all(np.isfinite(row_sums)):
        raise ConvergenceError(
            "transition kernel underflowed; inverse temperature too extreme"
        )
    kernel /= row_sums

    lhs = np.eye(V) - _arc_matrix(kernel.reshape(-1, A**k), A).swapaxes(1, 2)
    lhs[:, -1, :] = 1.0
    rhs = np.zeros(V)
    rhs[-1] = 1.0
    try:
        q = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            "stationary state solve is singular; inverse temperature "
            "too extreme for a unique equilibrium"
        ) from exc
    q = np.maximum(q, 0.0)
    q /= np.add.reduce(q, axis=1)[:, None]

    laws_weights = (q[:, :, None] * kernel).reshape(-1, A**k)
    laws = _block_laws(A, k, laws_weights)
    if not all(rho.stationary for rho in laws):
        raise ConvergenceError(
            "equilibrium law is not stationary; the stationary solve lost "
            "accuracy"
        )
    entropies = _law_functionals(laws_weights, A, k)[1].tolist()
    pressures = [math.log(x) + y for x, y in zip(lam.tolist(), shift.tolist())]
    return [
        SpectralData(
            phi, beta, pressures[i], r[i], kernel[i], q[i], rho, entropies[i],
            float(rho.weights @ phi.values),
        )
        for i, (beta, rho) in enumerate(zip(betas, laws))
    ]


def normalize_potential(phi: MarkovPotential) -> tuple[MarkovPotential, float]:
    """Conjugate phi to a normalized potential; also return P_top(phi).

    phi'(w) = phi(w) + ln r(suffix w) - ln r(prefix w) - P_top(phi) has the
    same equilibrium state as phi, pressure zero, and exp(phi') rows summing
    to one.  Each row subtracts its own log-sum-exp, which equals P_top(phi)
    in exact arithmetic, so the rows sum to one to rounding even where the
    Perron vector carries relative error.  Already-normalized potentials
    come back unchanged to rounding (the Perron vector is constant and every
    row's log-sum-exp is zero).  The result's ``normalized`` is measured;
    values so large that the row log-sum-exp rounds away its correction
    leave rows that do not sum to one, and raise ConvergenceError.
    """
    sd = pressure(phi, 1.0)
    A, k = phi.alphabet_size, phi.k
    V = A ** (k - 1)
    log_r = np.log(sd.right_vector)
    arcs = np.arange(A**k)
    rows = (phi.values + log_r[arcs % V] - log_r[arcs // A]).reshape(V, A)
    top = rows.max(axis=1, keepdims=True)
    log_sums = top + np.log(np.exp(rows - top).sum(axis=1, keepdims=True))
    values = (rows - log_sums).ravel()
    phi_n = MarkovPotential(A, k, values)
    if not phi_n.normalized:
        raise ConvergenceError(
            "normalized rows do not sum to one; the row log-sum-exp rounds "
            "away at this potential's magnitude"
        )
    return phi_n, sd.pressure


def relative_entropy_rate(nu: BlockDistribution, phi: MarkovPotential) -> float:
    """Specific relative entropy -E_nu[phi] - h(nu) of a stationary Markov
    measure against the equilibrium state of a normalized potential.

    ``nu`` is the j-block marginal of a (j-1)-step Markov measure; when the
    potential is deeper than j, nu is extended by its own kernel.  The value
    is >= 0 with equality exactly at the equilibrium state.
    """
    _require_normalized(phi)
    if not nu.stationary:
        raise ValueError("nu must be stationary")
    if nu.alphabet_size != phi.alphabet_size:
        raise ValueError("alphabet mismatch")
    nu_d = markov_blocks(nu, phi.k)
    mean_phi = float(nu_d.weights @ phi.values)
    return -mean_phi - conditional_block_entropy(nu)


def markov_blocks(nu: BlockDistribution, k: int) -> BlockDistribution:
    """k-block marginal of the (j-1)-step Markov extension of a j-block law.

    For k <= j this is plain marginalization; for k > j the law is extended
    step by step with its own conditional kernel (0/0 treated as 0, which
    only happens off the support).
    """
    if not nu.stationary:
        raise ValueError("markov extension requires a stationary law")
    A, j = nu.alphabet_size, nu.k
    out = nu
    while out.k > k:
        out = marginalize(out)
    if out.k == k:
        return out
    S = A ** (j - 1)
    denom = np.repeat(
        marginalize(nu).weights if j >= 2 else np.ones(1), A
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.where(denom > 0, nu.weights / denom, 0.0).reshape(S, A)
    cur = nu.weights
    for m in range(j, k):
        states = np.arange(A**m, dtype=np.int64) % S
        cur = (cur[:, None] * kern[states]).ravel()
    return BlockDistribution(A, k, cur)


def equilibrium_blocks(sd: SpectralData, k: int) -> BlockDistribution:
    """k-block marginal of the equilibrium state in ``sd`` (any k >= 1)."""
    return markov_blocks(sd.equilibrium, k)


def direct_pressure_estimate(phi: MarkovPotential, beta: float, n: int) -> float:
    """Finite-n pressure (1/n) ln sum over all n-strings of exp(S_n).

    S_n is the n-term running sum of beta*phi along the string, the last
    k-1 terms completed by the most favorable continuation (a sup over the
    cylinder).  Computed exactly, without enumerating strings, by a scaled
    transfer recursion plus a boundary dynamic program, in O(n V**2) for
    V = A**(k-1); converges to the pressure at rate O(1/n).
    """
    A, k = phi.alphabet_size, phi.k
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    _require_int("n", n, 1)
    if n < k:
        raise ValueError("need n >= k")
    V = A ** (k - 1)
    psi = beta * phi.values
    shift = float(psi.max())
    M = _arc_matrix(np.exp(psi - shift), A)
    suffix = (np.arange(A**k) % V).reshape(V, A)

    # f = 1 @ M**(n-k+1), rescaled to sum one after every step
    f, log_scale = np.ones(V), 0.0
    for _ in range(n - k + 1):
        f = f @ M
        total = float(f.sum())
        f /= total
        log_scale += math.log(total)

    tail = np.zeros(V)
    for _ in range(k - 1):
        tail = ((psi - shift).reshape(V, A) + tail[suffix]).max(axis=1)

    total = float(f @ np.exp(tail))
    return (math.log(total) + log_scale + n * shift) / n


def spectral_to_json_dict(sd: SpectralData) -> dict:
    """JSON-ready summary: scalars plus the equilibrium block law."""
    return {
        "beta": sd.beta,
        "pressure": sd.pressure,
        "entropy": sd.entropy,
        "mean_phi": sd.potential_mean,
        "equilibrium": {
            "k": sd.equilibrium.k,
            "weights": [float(w) for w in sd.equilibrium.weights],
        },
    }
