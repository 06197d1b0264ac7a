"""SCGFs, Legendre rate functions, cycle means, asymptotic variance."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import blocktropy as bt
from blocktropy import rates

from conftest import (
    CHAIN_ENTROPY,
    _random_potential,
    enumerate_simple_cycles,
    fixed_k_rate_upper,
    richardson_variance,
)

CHAIN_MAX_MEAN = math.log(0.9)
CHAIN_MIN_MEAN = (math.log(0.1) + math.log(0.2)) / 2.0


def _cycle_mean_oracle(phi: bt.MarkovPotential, which: str) -> float:
    """Exhaustive mean over all vertex-simple cycles of the word graph."""
    means = [
        sum(phi.values[a] for a in cyc) / len(cyc)
        for cyc in enumerate_simple_cycles(phi.alphabet_size, phi.k)
    ]
    return min(means) if which == "min" else max(means)


def test_extreme_mean_chain_frozen(chain_potential):
    assert bt.extreme_mean(chain_potential, "max") == pytest.approx(
        CHAIN_MAX_MEAN, abs=1e-12
    )
    assert bt.extreme_mean(chain_potential, "min") == pytest.approx(
        CHAIN_MIN_MEAN, abs=1e-12
    )
    with pytest.raises(ValueError):
        bt.extreme_mean(chain_potential, "median")


def test_extreme_mean_matches_cycle_enumeration(make_potential):
    rng = np.random.default_rng(21)
    for _ in range(60):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        phi, _ = bt.normalize_potential(make_potential(rng, A, k))
        for which in ("min", "max"):
            assert bt.extreme_mean(phi, which) == pytest.approx(
                _cycle_mean_oracle(phi, which), abs=1e-10
            )


def test_entropy_scgf_chain(chain_potential, chain_spectral):
    assert bt.entropy_scgf(chain_potential, 0.0) == pytest.approx(0.0, abs=1e-12)
    # closed form at t=1 through the square-root kernel eigenvalue
    a, b = math.sqrt(0.9), math.sqrt(0.8)
    lam = ((a + b) + math.sqrt((a - b) ** 2 + 4 * math.sqrt(0.02))) / 2.0
    assert bt.entropy_scgf(chain_potential, 1.0) == pytest.approx(
        2.0 * math.log(lam), abs=1e-12
    )
    assert 2.0 * math.log(lam) == pytest.approx(0.5225623705603178, abs=1e-12)
    # frozen branch below t = -1
    assert bt.entropy_scgf(chain_potential, -1.0) == pytest.approx(
        CHAIN_MAX_MEAN, abs=1e-12
    )
    assert bt.entropy_scgf(chain_potential, -3.0) == pytest.approx(
        CHAIN_MAX_MEAN, abs=1e-12
    )
    # slope at zero is the equilibrium entropy: R'(0) = h
    step = 1e-5
    slope = (
        bt.entropy_scgf(chain_potential, step)
        - bt.entropy_scgf(chain_potential, -step)
    ) / (2 * step)
    assert slope == pytest.approx(CHAIN_ENTROPY, abs=1e-6)


def test_renyi_scgf_routes(chain_potential, chain_spectral):
    for t in (-0.5, 0.5, 1.0, 3.0):
        assert bt.renyi_scgf(chain_spectral, t) == pytest.approx(
            bt.entropy_scgf(chain_potential, t), abs=1e-9
        )
    with pytest.raises(ValueError):
        bt.renyi_scgf(chain_spectral, -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_renyi_scgf_rejects_nan_and_inf(chain_spectral, t):
    with pytest.raises(ValueError):
        bt.renyi_scgf(chain_spectral, t)


def test_information_scgf_chain(chain_potential):
    assert bt.information_scgf(chain_potential, 0.0) == pytest.approx(0.0, abs=1e-12)
    # at t = 1 the potential drops out: topological pressure ln A
    assert bt.information_scgf(chain_potential, 1.0) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_relative_scgf_chain(chain_potential):
    for t in (-1.0, 0.0, 0.5, 1.0):
        assert bt.relative_scgf(chain_potential, t) == 0.0
    assert bt.relative_scgf(chain_potential, 3.0) == pytest.approx(
        -2.0 * CHAIN_MIN_MEAN, abs=1e-12
    )
    raw = bt.MarkovPotential(2, 2, np.array([0.1, -0.2, 0.3, 0.0]))
    with pytest.raises(ValueError):
        bt.relative_scgf(raw, 0.5)


def test_entropy_rate_function_chain(chain_potential, chain_spectral):
    # zero exactly at the equilibrium entropy
    assert bt.entropy_rate_function(chain_potential, CHAIN_ENTROPY) == pytest.approx(
        0.0, abs=1e-9
    )
    # at u = 0 the linear branch gives -maxmean
    assert bt.entropy_rate_function(chain_potential, 0.0) == pytest.approx(
        -CHAIN_MAX_MEAN, abs=1e-9
    )
    # at u = ln A the minimizer is the uniform measure: cross-check against
    # the independent relative-entropy-rate computation
    unif = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    assert bt.entropy_rate_function(chain_potential, math.log(2.0)) == pytest.approx(
        bt.relative_entropy_rate(unif, chain_potential), abs=1e-6
    )
    assert bt.entropy_rate_function(chain_potential, -0.1) == math.inf
    assert bt.entropy_rate_function(chain_potential, math.log(2.0) + 0.1) == math.inf
    # decreasing left of h, increasing right of h
    us = [0.05, 0.15, 0.25, 0.35]
    vals = [bt.entropy_rate_function(chain_potential, u) for u in us]
    assert vals[0] > vals[1] > vals[2] > vals[3]
    us2 = [0.45, 0.55, 0.65]
    vals2 = [bt.entropy_rate_function(chain_potential, u) for u in us2]
    assert vals2[0] < vals2[1] < vals2[2]


def test_relative_rate_function_chain(chain_potential):
    endpoint = -CHAIN_MIN_MEAN
    for u in (0.0, 0.3, 1.0, endpoint):
        assert bt.relative_rate_function(chain_potential, u) == pytest.approx(
            u, abs=1e-12
        )
    assert bt.relative_rate_function(chain_potential, -0.05) == math.inf
    assert bt.relative_rate_function(chain_potential, endpoint + 0.05) == math.inf


@pytest.mark.parametrize(
    "curve",
    [
        bt.entropy_rate_function,
        bt.relative_rate_function,
        bt.entropy_scgf,
        bt.information_scgf,
        bt.relative_scgf,
    ],
)
def test_curves_reject_nan(chain_potential, curve):
    with pytest.raises(ValueError, match="nan"):
        curve(chain_potential, math.nan)


def test_rate_curve_and_legendre(chain_potential):
    grid = np.linspace(0.0, math.log(2.0), 40)
    curve = bt.rate_curve(chain_potential, "entropy_rate", grid)
    assert curve.kind == "entropy_rate"
    # grid Legendre transform lower-bounds the true SCGF
    for t in (-0.5, 0.0, 0.5, 1.0, 2.0):
        assert bt.legendre(curve, t) <= bt.entropy_scgf(chain_potential, t) + 1e-9
    # and is tight at t = 0 where the sup sits at u = h (in-grid maximum 0)
    assert bt.legendre(curve, 0.0) == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(ValueError):
        bt.RateCurve("nonsense", grid, grid)
    with pytest.raises(ValueError, match="kind must be one of"):
        bt.rate_curve(chain_potential, "nonsense", grid)
    with pytest.raises(ValueError):
        bt.RateCurve("entropy_rate", grid, grid[:-1])
    empty = bt.RateCurve("entropy_rate", np.array([0.1]), np.array([math.inf]))
    with pytest.raises(ValueError):
        bt.legendre(empty, 1.0)


def test_entropy_curve_monotone(chain_potential):
    grid = [0.0, 0.5, 1.0, 2.0, 4.0]
    hs = [bt.pressure(chain_potential, b).entropy for b in grid]
    assert hs[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_asymptotic_variance_chain(chain_potential):
    # summing the autocovariances of phi on the chain's pair chain (400 lags,
    # float64) gives this value
    v_info = bt.asymptotic_variance(chain_potential, "information")
    v_entr = bt.asymptotic_variance(chain_potential, "entropy")
    assert v_info == pytest.approx(0.4985408392082033, abs=1e-12)
    assert v_info == v_entr
    # a constant potential has no fluctuations at all
    flat = bt.MarkovPotential(2, 1, np.log([0.5, 0.5]))
    assert bt.asymptotic_variance(flat) == pytest.approx(0.0, abs=1e-6)


def test_asymptotic_variance_rejects_unknown_route(chain_potential):
    with pytest.raises(ValueError, match="route"):
        bt.asymptotic_variance(chain_potential, "renyi")


def test_zero_temperature_entropy(chain_potential):
    h_inf, converged = bt.zero_temperature_entropy(chain_potential)
    assert converged and abs(h_inf) < 1e-6
    flat = bt.MarkovPotential(2, 1, np.log([0.5, 0.5]))
    h_flat, conv_flat = bt.zero_temperature_entropy(flat)
    assert conv_flat and h_flat == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_rate_function_strong_tilt(tilt_reproducer):
    # the tilt probe once raised ReducibilityError here for every level u
    for u in (0.0, 0.3, 0.7, 1.2):
        value = bt.entropy_rate_function(tilt_reproducer, u)
        assert math.isfinite(value) and value >= 0.0, u


def test_zero_temperature_entropy_drawn_pool():
    # normalized potentials drawn as in the rate benchmark pool; the (4, 3)
    # draw only advances the stream
    pool = np.random.default_rng(2004)
    for A, k in ((2, 3), (3, 3), (4, 3), (2, 6)):
        raw = bt.MarkovPotential(
            A, k, pool.uniform(0.5, 2.0) * pool.standard_normal(A**k)
        )
        if (A, k) == (4, 3):
            continue
        phi = bt.normalize_potential(raw)[0]
        h_inf, _ = bt.zero_temperature_entropy(phi)
        assert -1e-9 <= h_inf <= math.log(A) + 1e-9, (A, k)


def test_zero_temperature_entropy_backs_off_with_the_tilt_probe():
    # normalized primitive draws whose beta = 256 spectrum is not computable:
    # the estimate moves to the probe's largest feasible tilt (128 or 32)
    rng = np.random.default_rng(0)
    for i in range(181):
        A, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        values = rng.uniform(0.5, 3) * rng.standard_normal(A**k)
        if i not in (10, 71, 93, 155, 180):
            continue
        phi = bt.normalize_potential(bt.MarkovPotential(A, k, values))[0]
        h_inf, _ = bt.zero_temperature_entropy(phi)
        assert 0.0 <= h_inf <= math.log(A), (i, h_inf)


def test_fixed_k_rate_upper(chain_potential):
    # the grid search over depth-limited competitors upper-bounds the true
    # rate and approaches it as the allowed depth grows
    u = 0.55
    true_rate = bt.entropy_rate_function(chain_potential, u)
    up1 = fixed_k_rate_upper(chain_potential, 1, "conditional", u)
    up2 = fixed_k_rate_upper(chain_potential, 2, "conditional", u)
    assert up1 >= up2 >= true_rate - 1e-9
    assert up2 <= true_rate + 0.02
    with pytest.raises(ValueError):
        fixed_k_rate_upper(chain_potential, 3, "conditional", u)
    trip = bt.MarkovPotential(3, 1, np.log(np.full(3, 1 / 3)))
    with pytest.raises(ValueError):
        fixed_k_rate_upper(trip, 1, "conditional", 0.5)


def test_scgf_t_one_is_renyi_collision_point(chain_potential, chain_spectral):
    # two independent routes to the same number: eigenvalue of the powered
    # kernel versus rescaled pressure
    direct = 2.0 * bt.pressure(chain_potential, 0.5).pressure
    assert bt.renyi_scgf(chain_spectral, 1.0) == pytest.approx(direct, abs=1e-12)

def _bisection_rate(phi: bt.MarkovPotential, u: float) -> tuple[float, int, bool]:
    """The plain rate-function bisection: a pressure solve at every one of
    up to 80 midpoints.  Returns the rate, the number of solves (the tilt
    probe included) and whether u fell on the linear branch."""
    ln_a = math.log(phi.alphabet_size)
    u = min(max(u, 0.0), ln_a)
    beta_cap, solves = 256.0, 1
    while True:
        try:
            h_floor = bt.pressure(phi, beta_cap).entropy
            break
        except (bt.ConvergenceError, bt.ReducibilityError):
            assert beta_cap > 8.0
            beta_cap *= 0.5
            solves += 1
    if u < h_floor:
        return -u - bt.extreme_mean(phi, "max"), solves, True
    lo, hi = 0.0, beta_cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        sd = bt.pressure(phi, mid)
        solves += 1
        if sd.entropy > u:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return max(0.0, -sd.potential_mean - u), solves, False


def _oracle_potentials(chain_potential, tilt_reproducer):
    """The example chain, criterion 07's drawn potentials and the tilt
    reproducer, each with the levels its rate points are checked at."""
    rng = np.random.default_rng(77)
    drawn = [(2, 2)] * 5 + [(3, 2)] * 2 + [(2, 3)] * 2
    cases = [chain_potential] + [
        bt.normalize_potential(_random_potential(rng, A, k, 1.2))[0] for A, k in drawn
    ]
    out = [(phi, np.linspace(0.0, math.log(phi.alphabet_size), 21)) for phi in cases]
    out.append((tilt_reproducer, np.array([0.0, 0.3, 0.7, 1.2, math.log(4.0)])))
    return out


def _count_solves(monkeypatch, solves):
    """Record in ``solves`` every beta the rates module solves, whether one
    at a time or in a stacked ``_spectra`` call."""
    spectra, solve = rates._spectra, rates.pressure

    def stacked(phi, betas):
        solves.extend(betas)
        return spectra(phi, betas)

    def counted(phi, beta):
        solves.append(beta)
        return solve(phi, beta)

    monkeypatch.setattr(rates, "_spectra", stacked)
    monkeypatch.setattr(rates, "pressure", counted)


def test_entropy_rate_function_replays_bisection_bitwise(
    chain_potential, tilt_reproducer, monkeypatch
):
    # the replayed bisection returns the plain bisection's bits, one level
    # at a time and over a whole grid, at a fraction of its solves
    solves = []
    linear = endpoints = 0
    for phi, levels in _oracle_potentials(chain_potential, tilt_reproducer):
        ln_a = math.log(phi.alphabet_size)
        expected = [_bisection_rate(phi, float(u)) for u in levels]
        _count_solves(monkeypatch, solves)
        point_solves = 0
        for u, (want, plain_solves, on_linear_branch) in zip(levels, expected):
            solves.clear()
            assert bt.entropy_rate_function(phi, float(u)) == want, (phi.values, u)
            assert len(solves) <= plain_solves, (u, len(solves), plain_solves)
            if 0.0 < u < ln_a and not on_linear_branch:
                assert len(solves) <= 24, (u, len(solves))
            point_solves += len(solves)
            linear += on_linear_branch
            endpoints += u in (0.0, ln_a)
        solves.clear()
        curve = bt.rate_curve(phi, "entropy_rate", levels)
        # one tilt probe and shared samples: never dearer than point by point
        assert len(solves) <= point_solves
        if len(levels) == 21:
            assert len(solves) <= 16 * 21
        monkeypatch.undo()
        assert curve.values.tolist() == [want for want, _, _ in expected]
    assert linear > 0 and endpoints == 2 * 11


#: Levels of the chain's rate function at which the replay's fallbacks run.
_FALLBACK_LEVELS = (0.1, 0.3, 0.5, 0.6)


def _no_newton_step(*args):
    return None


def _singular_poisson(sd):
    raise bt.ConvergenceError("Poisson equation solve is singular")


@pytest.mark.parametrize(
    "name, stub",
    [("_poisson_variance", _singular_poisson), ("_newton_step", _no_newton_step)],
)
def test_replay_without_a_root_is_the_plain_bisection(
    chain_potential, monkeypatch, name, stub
):
    # a failed Poisson solve is caught, and a Newton that never steps gives
    # up after its 30 iterations; either way the replay solves every
    # undecided midpoint and still returns the plain bisection's bits
    expected = [_bisection_rate(chain_potential, u)[0] for u in _FALLBACK_LEVELS]
    monkeypatch.setattr(rates, name, stub)
    got = [bt.entropy_rate_function(chain_potential, u) for u in _FALLBACK_LEVELS]
    assert got == expected


def _no_root(*args):
    """A root search that gives up without a solve."""
    return None
    yield


@pytest.mark.parametrize("u", _FALLBACK_LEVELS)
def test_replay_solves_a_last_midpoint_decided_from_samples(
    chain_potential, monkeypatch, u
):
    # two fake samples one ulp apart, one of them at the plain bisection's
    # last midpoint m, decide every midpoint as the plain bisection did (h > u
    # at or left of ``left``, h < u at or right of ``right``); no midpoint
    # is solved in the loop, so the replay asks for m once, after it
    solved, solve = [], bt.pressure

    def recorded(phi, beta):
        sd = solve(phi, beta)
        solved.append(sd)
        return sd

    monkeypatch.setattr(bt, "pressure", recorded)
    want, _, on_linear_branch = _bisection_rate(chain_potential, u)
    monkeypatch.undo()
    assert not on_linear_branch
    probe, last = solved[0], solved[-1]
    m = last.beta
    if last.entropy > u:
        left, right = m, math.nextafter(m, math.inf)
    else:
        left, right = math.nextafter(m, 0.0), m
    samples = {
        probe.beta: (probe.entropy, None),
        left: (u + 1.0, None),
        right: (u - 1.0, None),
    }
    monkeypatch.setattr(rates, "_locate_root", _no_root)
    replay = rates._replay_bisection(chain_potential, u, probe.beta, samples)
    assert next(replay) == m
    with pytest.raises(StopIteration) as stop:
        replay.send(bt.pressure(chain_potential, m))
    sd = stop.value.value
    assert sd.beta == m and max(0.0, -sd.potential_mean - u) == want


def test_rate_grid_keeps_its_bits_when_one_level_solve_raises(
    chain_potential, monkeypatch
):
    # a solve that raises reaches only the level that asked for it: the
    # round is solved again one beta at a time, the level's Newton search
    # catches the error and replays the plain bisection, and every level
    # keeps its bits; an error at a bisection midpoint ends the grid
    levels = np.linspace(0.0, math.log(2.0), 21)
    want = rates._entropy_rates(chain_potential, levels)
    rounds, spectra, solve = [], rates._spectra, rates.pressure
    monkeypatch.setattr(
        rates, "_spectra", lambda phi, b: rounds.append(b) or spectra(phi, b)
    )
    assert rates._entropy_rates(chain_potential, levels) == want
    injected = []

    def fail_at(bad):
        def check(betas):
            if bad in betas:
                injected.append(len(betas))
                raise bt.ConvergenceError("injected")

        def stacked(phi, betas):
            check(betas)
            return spectra(phi, betas)

        def single(phi, beta):
            check([beta])
            return solve(phi, beta)

        monkeypatch.setattr(rates, "_spectra", stacked)
        monkeypatch.setattr(rates, "pressure", single)

    newton = rounds[1][3]  # one level's first Newton step
    assert sum(newton in betas for betas in rounds) == 1
    fail_at(newton)
    assert rates._entropy_rates(chain_potential, levels) == want
    assert injected == [len(rounds[1]), 1]
    fail_at(rounds[-1][0])
    with pytest.raises(bt.ConvergenceError, match="injected"):
        rates._entropy_rates(chain_potential, levels)


def test_poisson_variance_matches_curvature_routes(chain_potential):
    rng = np.random.default_rng(15)
    drawn = [
        bt.normalize_potential(_random_potential(rng, A, k, 1.0))[0]
        for A, k in ((2, 2), (3, 2), (2, 3), (4, 3))
    ]
    for phi in [chain_potential] + drawn:
        sigma2 = rates._poisson_variance(bt.pressure(phi, 1.0))
        for route in ("information", "entropy"):
            assert bt.asymptotic_variance(phi, route) == sigma2, route
            assert sigma2 == pytest.approx(
                richardson_variance(phi, route), abs=1e-6
            ), route
        # dh/dbeta = -beta sigma^2_beta against a central difference
        for beta in (0.3, 1.0, 2.5):
            step = 1e-5
            slope = (
                bt.pressure(phi, beta + step).entropy
                - bt.pressure(phi, beta - step).entropy
            ) / (2.0 * step)
            exact = -beta * rates._poisson_variance(bt.pressure(phi, beta))
            assert slope == pytest.approx(exact, rel=1e-6, abs=1e-6), beta
