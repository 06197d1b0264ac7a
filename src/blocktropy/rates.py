"""Scaled cumulant generating functions and large-deviation rate curves.

All functions take a *normalized* potential (see pressure.py), for which the
pressure vanishes and the equilibrium entropy is -E[phi].  The SCGFs:

    entropy_scgf(t)      (t+1) * P_top(phi / (t+1))   for t > -1,
                         max mean cycle of phi        for t <= -1;
    information_scgf(t)  P_top((1-t) * phi);
    relative_scgf(t)     0 for t <= 1, (1-t) * (min mean cycle) for t > 1.

Their Legendre duals are the rate functions for conditional-entropy and
relative-entropy estimators: ``entropy_rate_function`` (strictly convex
between the zero-temperature entropy and ln A, linear below) and
``relative_rate_function`` (the identity on its domain); ``rate_curve``
tabulates either of the two on a grid.  The public SCGFs solve one t at a
time, while a report's SCGF columns solve the distinct betas of a whole
t-grid in one stacked ``_spectra`` call, and a rate grid replays its
levels' bisections in lockstep, one stacked solve per round; every value
keeps the bits of its one-beta solve.  Extreme cycle means come from
Karp's minimum-mean-cycle recursion, independent of any eigenvalue
machinery.

Two spectral quantities each have one route.  The central-limit variance
sigma^2, the SCGFs' common curvature at t = 0, comes from one
Poisson-equation solve at beta = 1 (``asymptotic_variance``); the same
solve at any beta gives the slope dh/dbeta = -beta sigma^2_beta that the
rate function's root search steps with.  The zero-temperature entropy and
the rate function's linear branch both start from one tilt probe: the
largest tilt up to 256 whose transfer spectrum is computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from .pressure import (
    ConvergenceError,
    MarkovPotential,
    ReducibilityError,
    SpectralData,
    _arc_matrix,
    _perron,
    _require_normalized,
    _spectra,
    pressure,
)

__all__ = [
    "RateCurve",
    "asymptotic_variance",
    "entropy_rate_function",
    "entropy_scgf",
    "extreme_mean",
    "information_scgf",
    "legendre",
    "rate_curve",
    "relative_rate_function",
    "relative_scgf",
    "renyi_scgf",
    "zero_temperature_entropy",
]

#: Bisection ceiling for inverse-temperature searches.
_BETA_MAX = 256.0


def _require_number(x: float) -> None:
    """Refuse a NaN argument: no SCGF or rate function is defined there."""
    if math.isnan(x):
        raise ValueError("argument must be a number, got nan")


def extreme_mean(phi: MarkovPotential, which: str = "min") -> float:
    """Minimum or maximum mean-weight directed cycle of the word graph.

    Karp's recursion on (k-1)-word vertices: D_m(v) = cheapest m-arc walk
    into v from anywhere, then

        min mean cycle = min_v max_m (D_V(v) - D_m(v)) / (V - m).

    The full word graph is strongly connected with every vertex on a cycle,
    so no reachability exceptions arise.  Maximization runs on -phi.
    """
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    sign = 1.0 if which == "min" else -1.0
    A, k = phi.alphabet_size, phi.k
    V = A ** (k - 1)
    w = sign * phi.values
    arcs = np.arange(A**k)
    heads, tails = arcs % V, arcs // A
    D = np.full((V + 1, V), np.inf)
    D[0] = 0.0
    for m in range(1, V + 1):
        cand = D[m - 1][tails] + w
        np.minimum.at(D[m], heads, cand)
    ratios = (D[V][None, :] - D[:V]) / (V - np.arange(V))[:, None]
    mu = float(np.min(np.max(ratios, axis=0)))
    return sign * mu


def entropy_scgf(phi: MarkovPotential, t: float) -> float:
    """SCGF dual to the conditional-entropy rate function.

    (t+1) P_top(phi/(t+1)) above t = -1; frozen at the maximum cycle mean
    below, where the estimator cannot deviate any further.
    """
    _require_normalized(phi)
    _require_number(t)
    if t > -1.0:
        return (t + 1.0) * pressure(phi, 1.0 / (t + 1.0)).pressure
    return extreme_mean(phi, "max")


def information_scgf(phi: MarkovPotential, t: float) -> float:
    """SCGF P_top((1-t) phi) of the per-symbol information content."""
    _require_normalized(phi)
    _require_number(t)
    return pressure(phi, 1.0 - t).pressure


def relative_scgf(phi: MarkovPotential, t: float) -> float:
    """SCGF dual to the relative-entropy rate function: zero up to t = 1,
    then (1-t) times the minimum cycle mean."""
    _require_normalized(phi)
    _require_number(t)
    if t <= 1.0:
        return 0.0
    return (1.0 - t) * extreme_mean(phi, "min")


def _scgf_columns(
    phi: MarkovPotential, ts: Sequence[float]
) -> list[tuple[float, float]]:
    """``(entropy_scgf(phi, t), information_scgf(phi, t))`` at every finite
    t, bit for bit, with one ``_spectra`` call for the distinct betas of
    both."""
    _require_normalized(phi)
    betas: dict[float, None] = {}
    for t in ts:
        if t > -1.0:
            betas[1.0 / (t + 1.0)] = None
        betas[1.0 - t] = None
    solved = dict(zip(betas, _spectra(phi, list(betas))))
    frozen = extreme_mean(phi, "max") if min(ts, default=0.0) <= -1.0 else None
    return [
        (
            (t + 1.0) * solved[1.0 / (t + 1.0)].pressure if t > -1.0 else frozen,
            solved[1.0 - t].pressure,
        )
        for t in ts
    ]


def renyi_scgf(sd: SpectralData, t: float) -> float:
    """Renyi-sum route to the entropy SCGF, from the equilibrium kernel.

    The n -> infinity limit of (t+1)/n * ln sum over n-strings of
    rho([a_1..a_n])**(1/(t+1)), which is (t+1) ln lambda(B) for the
    powered-weight kernel matrix B[u, v] = Q(b|u)**(1/(t+1)).  Agrees with
    entropy_scgf.
    """
    if not -1.0 < t < math.inf:
        raise ValueError(f"the Renyi route needs a finite t > -1, got {t}")
    A = sd.potential.alphabet_size
    B = _arc_matrix((sd.kernel ** (1.0 / (t + 1.0))).ravel(), A)
    return (t + 1.0) * math.log(_perron(B)[0])


def zero_temperature_entropy(phi: MarkovPotential) -> tuple[float, bool]:
    """Large-beta entropy limit, estimated at the largest feasible tilt.

    beta_top comes from the tilt probe ``_largest_feasible_tilt`` (256
    unless that spectrum underflows).  Returns the entropy at beta_top and
    a convergence flag: True when the gaps between beta_top/4, beta_top/2
    and beta_top have closed below 1e-4 (Cauchy check), False when the
    limit has visibly not settled yet.
    """
    return _zero_temperature(phi, _largest_feasible_tilt(phi))


def _zero_temperature(
    phi: MarkovPotential, probe: tuple[float, SpectralData]
) -> tuple[float, bool]:
    """``zero_temperature_entropy`` from a tilt probe's (beta_top, spectrum)."""
    beta_top, sd_top = probe
    cauchy = _spectra(phi, (beta_top / 4.0, beta_top / 2.0))
    h = [sd.entropy for sd in cauchy] + [sd_top.entropy]
    gap = max(abs(h[1] - h[0]), abs(h[2] - h[1]))
    return h[2], gap < 1e-4


def _largest_feasible_tilt(phi: MarkovPotential) -> tuple[float, SpectralData]:
    """Largest tilt in (0, _BETA_MAX] with a computable transfer spectrum.

    Strong tilting underflows transfer-matrix entries once beta times the
    potential's spread nears the float64 exponent range, at which point the
    matrix is numerically reducible.  Halving back into the feasible range
    costs only an exponentially small tail of the zero-temperature limit.
    """
    beta = _BETA_MAX
    while True:
        try:
            return beta, pressure(phi, beta)
        except (ConvergenceError, ReducibilityError):
            if beta <= 8.0:
                raise
            beta *= 0.5


def _poisson_variance(sd: SpectralData) -> float:
    """Asymptotic variance of the Birkhoff sums of phi under the equilibrium
    chain in ``sd``, from one Poisson-equation solve.

    With f = phi - E[phi] on the arcs (u, b) and g(u) = sum_b Q(b|u) f(u b),
    the Poisson solution gh = Z g, where Z = (I - P + 1 q)^-1 is the
    fundamental matrix of the vertex chain P (Kemeny and Snell), makes
    D(u, b) = f(u b) + gh(suffix(u b)) - gh(u) a martingale increment, and
    sigma^2 = sum_u q(u) sum_b Q(b|u) D(u, b)^2.  This is the pressure's
    second derivative in beta, so dh/dbeta = -beta sigma^2.
    """
    phi, Q, q = sd.potential, sd.kernel, sd.vertex_stationary
    A = phi.alphabet_size
    V = Q.shape[0]
    f = phi.values.reshape(V, A) - sd.potential_mean
    g = (Q * f).sum(axis=1)
    fundamental = np.eye(V) - _arc_matrix(Q.ravel(), A) + q[None, :]
    try:
        gh = np.linalg.solve(fundamental, g)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("Poisson equation solve is singular") from exc
    D = f + gh[(np.arange(V * A) % V).reshape(V, A)] - gh[:, None]
    return float(q @ (Q * D * D).sum(axis=1))


#: Entropy error a pressure solve is allowed when a rate point's bisection
#: is replayed: about 100 times the largest gap measured between solved
#: entropies and those of fully converged Perron vectors.
_ENTROPY_TOL = 1e-11

#: Relative Newton step below which the located root counts as converged.
_ROOT_STEP = 1e-6


def _newton_step(
    beta: float, h: float, slope: float, target: float, ln_a: float
) -> float | None:
    """Newton step on F(x) = ln(ln A - h(e^x)) = ln(ln A - target).

    In x = ln beta the entropy deficit ln A - h grows like beta^2 at small
    beta, so F is nearly linear there.  None when the step is undefined.
    """
    deficit = ln_a - h
    if deficit <= 0.0 or slope >= 0.0:
        return None
    dx = math.log((ln_a - target) / deficit) * deficit / (-beta * slope)
    return beta * math.exp(dx) if abs(dx) < 30.0 else None


def _locate_root(
    phi: MarkovPotential,
    target: float,
    beta_cap: float,
    samples: dict[float, tuple[float, float | None]],
) -> Generator[float, SpectralData, tuple[float, float] | None]:
    """Safeguarded Newton for the beta with h(beta) = target.

    Starts from a Newton step off the sample with a known slope
    dh/dbeta = -beta sigma^2 whose entropy is nearest the target (else from
    beta = 1) and falls back to the geometric midpoint of the sampled
    bracket whenever a step leaves it.  A generator: it yields each beta it
    needs and is sent that beta's spectrum (a failed solve is thrown in).
    Every solve is recorded in ``samples`` as beta -> (entropy, slope).
    Returns the root and the slope there, or None without convergence.
    """
    ln_a = math.log(phi.alphabet_size)
    lo, hi = 0.0, beta_cap
    for b, (h, _) in samples.items():
        if h > target:
            lo = max(lo, b)
        elif h < target:
            hi = min(hi, b)
    sloped = [(abs(h - target), b, h, s) for b, (h, s) in samples.items() if s]
    beta = _newton_step(*min(sloped)[1:], target, ln_a) if sloped else 1.0
    for _ in range(30):
        if beta is None or not lo < beta < hi:
            beta = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        sd = yield beta
        h, slope = sd.entropy, -beta * _poisson_variance(sd)
        samples[beta] = (h, slope)
        if h > target:
            lo = beta
        elif h < target:
            hi = beta
        _, base, h, slope = min(
            (abs(h - target), b, h, s) for b, (h, s) in samples.items() if s
        )
        step = _newton_step(base, h, slope, target, ln_a)
        if step is not None and (
            abs(h - target) <= 0.25 * _ENTROPY_TOL
            or abs(step - base) <= _ROOT_STEP * base
        ):
            return step, slope
        beta = step
    return None


def _replay_bisection(
    phi: MarkovPotential,
    u: float,
    beta_cap: float,
    samples: dict[float, tuple[float, float | None]],
) -> Generator[float, SpectralData, SpectralData]:
    """The bisection for h(beta) = u on (0, beta_cap), with the spectrum of
    its last midpoint, at a fraction of its pressure solves.

    The 80-step loop is the plain bisection; a midpoint is decided without
    a solve only when a solved sample brackets it beyond _ENTROPY_TOL (h is
    decreasing, so a sample above u + tol decides every midpoint left of
    it, and one below u - tol every midpoint right of it).  Samples come
    from other levels, from the Newton root and two solves just either
    side of it, and from the midpoints solved so far.  Every other
    midpoint is solved, so the decisions are the plain bisection's; the
    last midpoint's spectrum is that of its in-loop solve, or of one solve
    after the loop when it was decided from a sample.  A generator, like
    ``_locate_root``: it yields each beta it needs, one at a time, and
    returns the last midpoint's spectrum.  A solve it records keeps a
    slope already sampled at the same beta.
    """
    ln_a = math.log(phi.alphabet_size)
    tol = _ENTROPY_TOL
    # within 2 tol of h(beta_cap) the entropy is flat to rounding: no root
    if u - samples[beta_cap][0] > 2.0 * tol:
        try:
            # at u = ln A the root is beta = 0; aim just inside instead
            located = yield from _locate_root(
                phi, min(u, ln_a - 2.0 * tol), beta_cap, samples
            )
            if located is not None:
                root, slope = located
                gap = 1.5 * tol / abs(slope)
                for beta in (root - gap, root + gap):
                    if 0.0 < beta < beta_cap:
                        sd = yield beta
                        samples.setdefault(beta, (sd.entropy, None))
        except (ConvergenceError, ReducibilityError):
            pass  # without a root the replay solves every undecided midpoint
    # every midpoint up to ``left`` has h > u, every one from ``right`` on h < u
    left = max((b for b, (h, _) in samples.items() if h > u + tol), default=0.0)
    right = min((b for b, (h, _) in samples.items() if h < u - tol), default=math.inf)

    lo, hi = 0.0, beta_cap
    sd = None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if left < mid < right:
            sd = yield mid
            samples.setdefault(mid, (sd.entropy, None))
            above = sd.entropy > u
            if sd.entropy > u + tol:
                left = mid
            elif sd.entropy < u - tol:
                right = mid
        else:
            above = mid <= left
        if above:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    if sd is None or sd.beta != mid:
        sd = yield mid
        samples.setdefault(mid, (sd.entropy, None))
    return sd


def _solve_each(
    phi: MarkovPotential, betas: list[float]
) -> list[SpectralData | ConvergenceError | ReducibilityError]:
    """Each beta's spectrum, or the error its own solve raises: one stacked
    ``_spectra`` call, and one solve per beta only when the stack raised."""
    try:
        return _spectra(phi, betas)
    except (ConvergenceError, ReducibilityError) as exc:
        if len(betas) == 1:
            return [exc]
    outcomes: list[SpectralData | ConvergenceError | ReducibilityError] = []
    for beta in betas:
        try:
            outcomes.append(pressure(phi, beta))
        except (ConvergenceError, ReducibilityError) as exc:
            outcomes.append(exc)
    return outcomes


def _lockstep(
    phi: MarkovPotential, points: list[Generator[float, SpectralData, SpectralData]]
) -> list[SpectralData]:
    """Run the rate points' generators together and return their results.

    Each round solves the distinct betas the points asked for with one
    ``_solve_each`` call and hands every point its beta's spectrum, in
    point order; a point is thrown its beta's error instead, and an error
    it does not catch ends the grid.
    """
    results: dict[int, SpectralData] = {}
    outcomes: dict[int, object] = dict.fromkeys(range(len(points)))
    while outcomes:
        asked: dict[int, float] = {}
        for i, outcome in outcomes.items():
            try:
                if isinstance(outcome, Exception):
                    asked[i] = points[i].throw(outcome)
                else:
                    asked[i] = points[i].send(outcome)
            except StopIteration as stop:
                results[i] = stop.value
        if not asked:
            break
        betas = list(dict.fromkeys(asked.values()))
        solved = dict(zip(betas, _solve_each(phi, betas)))
        outcomes = {i: solved[beta] for i, beta in asked.items()}
    return [results[i] for i in range(len(points))]


def _entropy_rates(
    phi: MarkovPotential,
    levels: np.ndarray | list[float],
    probe: tuple[float, SpectralData] | None = None,
) -> list[float]:
    """``entropy_rate_function`` at every level u, for one potential.

    The tilt probe (unless a caller's ``probe`` is given) and the maximum
    cycle mean run once, when a level first needs them.  The levels on the
    convex branch replay their bisections in lockstep (``_lockstep``): each
    round is one stacked solve of the betas they ask for, and every solve
    stays a sample for all of them.
    """
    _require_normalized(phi)
    ln_a = math.log(phi.alphabet_size)
    slack = 1e-12
    samples: dict[float, tuple[float, float | None]] = {}
    beta_cap = h_floor = max_mean = None
    rates: list[float] = []
    points, convex = [], []
    for u in map(float, levels):
        _require_number(u)
        if u < -slack or u > ln_a + slack:
            rates.append(math.inf)
            continue
        u = min(max(u, 0.0), ln_a)
        if beta_cap is None:
            beta_cap, sd_cap = probe or _largest_feasible_tilt(phi)
            h_floor = sd_cap.entropy
            samples[beta_cap] = (h_floor, None)
        if u < h_floor:
            if max_mean is None:
                max_mean = extreme_mean(phi, "max")
            rates.append(-u - max_mean)
            continue
        points.append(_replay_bisection(phi, u, beta_cap, samples))
        convex.append((len(rates), u))
        rates.append(math.nan)
    for (i, u), sd in zip(convex, _lockstep(phi, points)):
        rates[i] = max(0.0, -sd.potential_mean - u)
    return rates


def entropy_rate_function(phi: MarkovPotential, u: float) -> float:
    """Rate function for deviations of the conditional-entropy estimator.

    On [h_inf, ln A] the unique beta with h(rho_beta) = u is found by an
    80-step bisection (h is monotone in beta) and the rate is the relative
    entropy -E_{rho_beta}[phi] - u.  Below the zero-temperature entropy
    h_inf (estimated at the largest numerically feasible tilt up to
    _BETA_MAX) the rate continues linearly as -u - maxmean(phi); outside
    [0, ln A] the level is unreachable and the rate is +inf.

    The bisection is replayed rather than solved step by step: a safeguarded
    Newton on h(beta) = u, with dh/dbeta = -beta sigma^2_beta from one
    Poisson-equation solve, locates the root, and only the midpoints the
    root leaves within rounding of u get a pressure solve, and the last
    midpoint gets one if it has none.
    The result is the plain bisection's, bit for bit, in about 15 solves
    instead of about 48.  One level runs through the same lockstep loop
    as a grid (``_entropy_rates``), one beta per round.  ``rate_curve``
    evaluates a whole grid with one tilt probe, and replays its levels
    together: each round solves the betas they ask for in one stacked
    call, and every Newton step starts from the sloped sample, of any
    level, whose entropy is nearest its target.
    """
    return _entropy_rates(phi, (u,))[0]


def relative_rate_function(phi: MarkovPotential, u: float) -> float:
    """Rate function of the relative-entropy estimator: the identity on
    [0, -minmean(phi)], +inf outside."""
    _require_normalized(phi)
    _require_number(u)
    endpoint = -extreme_mean(phi, "min")
    slack = 1e-12
    if u < -slack or u > endpoint + slack:
        return math.inf
    return min(max(u, 0.0), endpoint)


#: The rate functions ``rate_curve`` tabulates.
_CURVE_KINDS = ("entropy_rate", "relative_rate")


def _check_kind(kind: str) -> None:
    if kind not in _CURVE_KINDS:
        raise ValueError(f"kind must be one of {_CURVE_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class RateCurve:
    """A rate function tabulated on a grid (values may be inf); ``kind``
    is ``"entropy_rate"`` or ``"relative_rate"``."""

    kind: str
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape or g.ndim != 1:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


def rate_curve(
    phi: MarkovPotential, kind: str, grid: np.ndarray | list[float]
) -> RateCurve:
    """Tabulate ``entropy_rate_function`` (kind ``"entropy_rate"``) or
    ``relative_rate_function`` (kind ``"relative_rate"``) on a grid."""
    _check_kind(kind)
    if kind == "entropy_rate":
        values = _entropy_rates(phi, grid)  # one tilt probe for the grid
    else:
        values = [relative_rate_function(phi, float(x)) for x in grid]
    return RateCurve(kind, np.asarray(grid, dtype=float), np.asarray(values))


def legendre(curve: RateCurve, x: float) -> float:
    """Numerical Legendre transform sup_u (x*u - curve(u)) over the grid."""
    if not math.isfinite(x):
        raise ValueError(f"slope must be finite, got {x}")
    finite = np.isfinite(curve.values)
    if not finite.any():
        raise ValueError("Legendre transform of a curve with no finite values")
    return float(np.max(x * curve.grid[finite] - curve.values[finite]))


def asymptotic_variance(phi: MarkovPotential, route: str = "information") -> float:
    """Central-limit variance of Birkhoff sums of phi, from one
    Poisson-equation solve at beta = 1 (``_poisson_variance``).

    ``route`` names the SCGF whose curvature at t = 0 the variance is:
    ``information_scgf`` P((1-t) phi) or ``entropy_scgf``
    (t+1) P(phi/(t+1)).  Both have second derivative P''(1) at t = 0, the
    pressure's curvature in beta, so both routes return this one value.
    """
    _require_normalized(phi)
    if route not in ("information", "entropy"):
        raise ValueError(f"route must be 'information' or 'entropy', got {route!r}")
    return _poisson_variance(pressure(phi, 1.0))
