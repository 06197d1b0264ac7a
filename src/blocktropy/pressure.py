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
from dataclasses import dataclass

import numpy as np

from .blocks import BlockDistribution, marginalize
from .entropy import conditional_block_entropy

__all__ = [
    "ConvergenceError",
    "MarkovPotential",
    "ReducibilityError",
    "SpectralData",
    "direct_pressure_estimate",
    "equilibrium_blocks",
    "markov_blocks",
    "normalize_potential",
    "potential_from_marginals",
    "pressure",
    "relative_entropy_rate",
    "spectral_to_json_dict",
    "transfer_matrix",
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

#: Normalization defect accepted when a potential claims to be normalized.
_NORMALIZED_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """A spectral solve failed: the dense eigensolve did not converge, the
    equilibrium kernel underflowed, or the stationary solve was singular."""


class ReducibilityError(ValueError):
    """The transfer matrix is (numerically) reducible; the Perron vector is
    not strictly positive.  Potentials must keep every k-word reachable."""


@dataclass(frozen=True)
class MarkovPotential:
    """A finite potential on k-words; ``values[c]`` for word code ``c``.

    ``normalized`` asserts sum_b exp(values[u b]) = 1 at every (k-1)-word u,
    which makes exp(values) a transition kernel in its own right.
    """

    alphabet_size: int
    k: int
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.alphabet_size**self.k,):
            raise ValueError(
                f"expected {self.alphabet_size ** self.k} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("potential values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.normalized:
            defect = self.normalization_defect()
            if defect > _NORMALIZED_TOL:
                raise ValueError(
                    f"potential marked normalized but defect is {defect:.3e}"
                )

    def normalization_defect(self) -> float:
        """Max over (k-1)-words u of |sum_b exp(phi(u b)) - 1|."""
        A = self.alphabet_size
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
    """Dense V x V matrix holding each k-word's weight on its arc.

    Word w runs from state w // A (its prefix) to state w % V (its suffix);
    ``weights`` lists the A**k words in code order.
    """
    V = weights.size // A
    M = np.zeros((V, V))
    arcs = np.arange(weights.size)
    np.add.at(M, (arcs // A, arcs % V), weights)
    return M


def _scaled_power(
    row: np.ndarray, M: np.ndarray, steps: int
) -> tuple[np.ndarray, float]:
    """``row @ M**steps``, rescaled to sum one after every step.

    Returns the rescaled row and the log of the product of the sums it was
    divided by, so row * exp(log_scale) is the unscaled product.
    """
    log_scale = 0.0
    for _ in range(steps):
        row = row @ M
        total = float(row.sum())
        row /= total
        log_scale += math.log(total)
    return row, log_scale


def transfer_matrix(phi: MarkovPotential, beta: float) -> np.ndarray:
    """Dense V x V transfer matrix of beta*phi on (k-1)-word states."""
    return _arc_matrix(np.exp(beta * phi.values), phi.alphabet_size)


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
    """
    V = M.shape[0]
    v = np.full(V, 1.0 / V)
    lam = 0.0
    window = previous = 0.0
    for step in range(1, _POWER_MAX_ITER + 1):
        w = M @ v
        s = float(w.sum())
        if not math.isfinite(s) or s <= 0.0:
            raise ReducibilityError("transfer matrix iterate lost positivity")
        w /= s
        change = float(np.abs(w - v).max())
        if change < _POWER_TOL and abs(s - lam) < _POWER_TOL * max(1.0, abs(s)):
            # two polishing steps sharpen the eigenpair to machine accuracy
            for _ in range(2):
                w = M @ w
                s = float(w.sum())
                w /= s
            return s, w
        if change > window:
            window = change
        if step % _STALL_WINDOW == 0:
            if previous > 0.0 and _stalled(previous, window, change, step):
                break
            previous, window = window, 0.0
        v, lam = w, s
    return _perron_eig(M)


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
    the reported pressure exactly.
    """
    A, k = phi.alphabet_size, phi.k
    V = A ** (k - 1)
    psi = beta * phi.values
    shift = float(psi.max())
    weights = np.exp(psi - shift)
    lam, r = _perron(_arc_matrix(weights, A))
    if r.min() <= 0.0:
        raise ReducibilityError(
            "transfer matrix is numerically reducible (Perron vector touches zero)"
        )

    arcs = np.arange(A**k)
    kernel = weights.reshape(V, A) * r[(arcs % V).reshape(V, A)] / (lam * r[:, None])
    row_sums = kernel.sum(axis=1, keepdims=True)
    if np.any(row_sums <= 0) or not np.all(np.isfinite(row_sums)):
        raise ConvergenceError(
            "transition kernel underflowed; inverse temperature too extreme"
        )
    kernel /= row_sums

    lhs = np.eye(V) - _arc_matrix(kernel.ravel(), A).T
    lhs[-1, :] = 1.0
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
    q /= q.sum()

    rho = BlockDistribution(
        A, k, (q[:, None] * kernel).ravel(), stationary=True
    )
    entropy = conditional_block_entropy(rho)
    mean_phi = float(rho.weights @ phi.values)
    return SpectralData(
        potential=phi,
        beta=beta,
        pressure=math.log(lam) + shift,
        right_vector=r,
        kernel=kernel,
        vertex_stationary=q,
        equilibrium=rho,
        entropy=entropy,
        potential_mean=mean_phi,
    )


def normalize_potential(phi: MarkovPotential) -> tuple[MarkovPotential, float]:
    """Conjugate phi to a normalized potential; also return P_top(phi).

    phi'(w) = phi(w) + ln r(suffix w) - ln r(prefix w) - P_top(phi) has the
    same equilibrium state as phi, pressure zero, and exp(phi') rows summing
    to one.  Each row subtracts its own log-sum-exp, which equals P_top(phi)
    in exact arithmetic, so the rows sum to one to rounding even where the
    Perron vector carries relative error.  Already-normalized potentials
    come back unchanged to rounding (the Perron vector is constant and every
    row's log-sum-exp is zero).
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
    return MarkovPotential(A, k, values, normalized=True), sd.pressure


def potential_from_marginals(
    rho_k: BlockDistribution, rho_km1: BlockDistribution | None = None
) -> MarkovPotential:
    """Normalized potential ln rho_k(w) - ln rho_{k-1}(prefix w).

    The log-ratio of consistent stationary marginals is the log transition
    kernel of the induced Markov measure, hence automatically normalized.
    For k = 1 the denominator is the empty word (mass one) and the result
    is simply ln rho_1.  Full support is required.
    """
    if not rho_k.stationary:
        raise ValueError("potential_from_marginals requires a stationary marginal")
    A, k = rho_k.alphabet_size, rho_k.k
    if np.any(rho_k.weights <= 0.0):
        raise ValueError("zero-mass word: potential requires full support")
    if k == 1:
        return MarkovPotential(A, 1, np.log(rho_k.weights), normalized=True)
    derived = marginalize(rho_k)
    if rho_km1 is not None:
        if (rho_km1.alphabet_size, rho_km1.k) != (A, k - 1):
            raise ValueError("rho_{k-1} lives on the wrong block space")
        if float(np.max(np.abs(derived.weights - rho_km1.weights))) > 1e-9:
            raise ValueError("marginals are not consistent")
    values = np.log(rho_k.weights) - np.repeat(np.log(derived.weights), A)
    return MarkovPotential(A, k, values, normalized=True)


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
    return BlockDistribution(A, k, cur, stationary=True)


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
    if n < k:
        raise ValueError("need n >= k")
    V = A ** (k - 1)
    psi = beta * phi.values
    shift = float(psi.max())
    M = _arc_matrix(np.exp(psi - shift), A)
    suffix = (np.arange(A**k) % V).reshape(V, A)

    f, log_scale = _scaled_power(np.ones(V), M, n - k + 1)

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
