"""Acceptance gates: one test per advertised guarantee, at stated tolerances.

Each test is self-contained and prints nothing on success; a failure message
carries the measured quantity next to its gate.  Stochastic tests fix their
seeds, so every run checks the same numbers.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import blocktropy as bt
from blocktropy.typegraphs import enumerate_strings_chunk
from conftest import (
    CHAIN_CONFIG,
    _random_potential,
    _random_stationary,
    enumerate_simple_cycles,
    richardson_variance,
)

# The advertised entropy of the example chain, to six significant figures.
REFERENCE_ENTROPY = 0.383514


def _normalized(rng: np.random.Generator, A: int, k: int, spread: float = 1.2):
    phi, _ = bt.normalize_potential(_random_potential(rng, A, k, spread))
    return phi


def test_criterion_01_type_size_sandwich():
    """Exhaustive census, |A|=2, n <= 10, k <= 3: the exact class size of
    every balanced count table matches the string census and sits inside
    both the factorial and the entropy sandwich; the number of distinct
    types respects the polynomial bound."""
    start = time.monotonic()
    for n in range(1, 11):
        for k in range(1, min(3, n) + 1):
            x = enumerate_strings_chunk(0, 2**n, n, 2)
            codes = bt.cyclic_window_codes(x, k, 2)
            n_words = 2**k
            counts = np.apply_along_axis(
                lambda row: np.bincount(row, minlength=n_words), 1, codes
            )
            uniq, census = np.unique(counts, axis=0, return_counts=True)
            assert len(uniq) <= bt.type_count_bound(n, k, 2)
            assert census.sum() == 2**n
            for row, size in zip(uniq, census):
                table = bt.CountTable(2, k, n, row.astype(np.int64))
                exact = bt.type_class_size(table, mode="exact")
                assert exact == size, (n, k, tuple(row))
                b = bt.type_class_size(table, mode="bounds")
                assert b.euler_lower - 1e-9 <= exact <= b.euler_upper + 1e-9, (
                    n,
                    k,
                    tuple(row),
                )
                assert (
                    b.entropy_lower - 1e-9 <= exact <= b.entropy_upper + 1e-9
                ), (n, k, tuple(row))
    assert time.monotonic() - start < 60.0


def test_criterion_02_rounding_to_realizable_types():
    """1000 random stationary laws round to integer types within the
    (k+2)|A|^k/n total-variation cap, and every rounded type is realizable:
    an Eulerian sample reproduces it within the concatenation cap."""
    start = time.monotonic()
    rng = np.random.default_rng(72)
    for _ in range(1000):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.choice([50, 500]))
        nu = _random_stationary(rng, A, k)
        mu = bt.round_to_type(nu, n)
        assert bt.tv_distance(mu, nu) <= (k + 2) * A**k / n + 1e-12
        counts = np.rint(np.asarray(mu.weights) * n).astype(np.int64)
        assert counts.sum() == n
        table = bt.CountTable(A, k, n, counts)
        x = bt.realize_sample(table)
        assert x.shape == (n,)
        pi = bt.empirical_block_measure(x, k, A)
        assert bt.tv_distance(pi, mu) <= k * A ** (k - 1) / n + 1e-12
    assert time.monotonic() - start < 60.0


def test_criterion_03_entropy_continuity_certificate():
    """10^4 stationary pairs at tv distance delta <= 1/e: the conditional
    entropy gap never exceeds -2 delta ln(delta / |A|^k)."""
    rng = np.random.default_rng(73)
    for _ in range(10_000):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        nu = _random_stationary(rng, A, k)
        other = _random_stationary(rng, A, k)
        s = rng.uniform(0.0, 0.18)
        mixed = bt.BlockDistribution(
            A,
            k,
            (1.0 - s) * np.asarray(nu.weights) + s * np.asarray(other.weights),
        )
        assert mixed.stationary
        delta = bt.tv_distance(nu, mixed)
        if delta == 0.0:
            continue
        assert delta <= math.exp(-1.0)
        diff = abs(
            bt.conditional_block_entropy(nu)
            - bt.conditional_block_entropy(mixed)
        )
        bound = bt.continuity_bound(delta, k, A)
        assert diff <= bound, (A, k, delta, diff, bound)


def test_criterion_04_cycle_decomposition_zero_entropy():
    """Every component of 1000 random cycle decompositions has exactly zero
    conditional entropy, and the weighted recombination returns the input
    to 1e-10."""
    rng = np.random.default_rng(74)
    for _ in range(1000):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        nu = _random_stationary(rng, A, k)
        recombined = np.zeros(A**k)
        for weight, component in bt.cycle_decompose(nu):
            dist = component.distribution
            assert bt.conditional_block_entropy(dist) == 0.0
            recombined += weight * np.asarray(dist.weights)
        assert np.max(np.abs(recombined - np.asarray(nu.weights))) <= 1e-10


def test_criterion_05_variational_identity():
    """Pressure = entropy + beta * mean potential, to 1e-9, for 100 random
    potentials (k <= 3, |A| <= 3) across beta in {0, 0.5, 1, 2, 10}."""
    rng = np.random.default_rng(75)
    for _ in range(100):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        phi = _normalized(rng, A, k)
        for beta in (0.0, 0.5, 1.0, 2.0, 10.0):
            sd = bt.pressure(phi, beta)
            gap = abs(sd.pressure - sd.entropy - beta * sd.potential_mean)
            assert gap < 1e-9, (A, k, beta, gap)


def test_criterion_06_direct_pressure_estimate_decay(chain_potential):
    """The exhaustive finite-n pressure estimate converges at rate C/n:
    gaps decay monotonically over n in 8..20 and, with C fitted on the
    first half of the grid, the second half stays below C/n up to a 5%
    margin (n*gap approaches its limit through a geometric correction
    still worth up to ~0.8% on this grid, so a strict split fit
    underpredicts; genuinely slower decays overshoot the margin, by ~13%
    for log(n)/n and ~58% for 1/sqrt(n))."""
    rng = np.random.default_rng(76)
    cases = [chain_potential] + [
        _normalized(rng, 2, int(rng.integers(2, 4))) for _ in range(3)
    ]
    grid = list(range(8, 21))
    for phi in cases:
        for beta in (0.5, 1.0, 2.0):
            target = bt.pressure(phi, beta).pressure
            gaps = [
                abs(bt.direct_pressure_estimate(phi, beta, n) - target)
                for n in grid
            ]
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-12, (beta, gaps)
            c_fit = max(g * n for g, n in zip(gaps[:7], grid[:7]))
            for g, n in zip(gaps[7:], grid[7:]):
                assert g <= 1.05 * c_fit / n + 1e-12, (beta, n, g, c_fit)


def test_criterion_07_legendre_duality(chain_potential):
    """For 10 random potentials, the grid Legendre transform of the entropy
    rate function returns the entropy SCGF to 1e-5 on a 50-point grid, the
    relative pair matches the same way, the rate function is convex, and it
    vanishes at the equilibrium entropy."""
    rng = np.random.default_rng(77)
    cases = [chain_potential]
    cases += [_normalized(rng, 2, 2) for _ in range(5)]
    cases += [_normalized(rng, 3, 2) for _ in range(2)]
    cases += [_normalized(rng, 2, 3) for _ in range(2)]
    t_grid = np.linspace(-1.0 + 1.0 / 64.0, 3.0, 50)
    for phi in cases:
        sd = bt.pressure(phi, 1.0)
        u_star = np.sort(
            [bt.pressure(phi, 1.0 / (t + 1.0)).entropy for t in t_grid]
        )
        curve_i = bt.rate_curve(phi, "entropy_rate", u_star)
        worst = max(
            abs(bt.legendre(curve_i, t) - bt.entropy_scgf(phi, t))
            for t in t_grid
        )
        assert worst < 1e-5, worst
        top = -bt.extreme_mean(phi, "min")
        curve_j = bt.rate_curve(
            phi, "relative_rate", np.linspace(0.0, top, 50)
        )
        worst_rel = max(
            abs(bt.legendre(curve_j, t) - bt.relative_scgf(phi, t))
            for t in t_grid
        )
        assert worst_rel < 1e-5, worst_rel
        hull = np.array(
            [
                bt.entropy_rate_function(phi, u)
                for u in np.linspace(0.0, math.log(phi.alphabet_size), 50)
            ]
        )
        assert np.all(np.isfinite(hull))
        assert np.diff(hull, 2).min() >= -1e-8
        assert bt.entropy_rate_function(phi, sd.entropy) <= 1e-9


def test_criterion_08_renyi_two_routes(chain_potential):
    """The powered-weight transfer-matrix route to the block-entropy SCGF
    agrees with (t+1) * pressure(phi / (t+1)) to 1e-9."""
    rng = np.random.default_rng(78)
    cases = [chain_potential] + [
        _normalized(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        for _ in range(10)
    ]
    for phi in cases:
        sd = bt.pressure(phi, 1.0)
        for t in (-0.5, 0.5, 1.0, 3.0):
            direct = bt.renyi_scgf(sd, t)
            rescaled = (t + 1.0) * bt.pressure(phi, 1.0 / (t + 1.0)).pressure
            assert abs(direct - rescaled) < 1e-9, (t, direct, rescaled)


def test_criterion_09_cycle_mean_extremes():
    """Min/max mean-cycle values match an exhaustive simple-cycle census on
    1000 random weight tables (final-ulp agreement), and the flat ends of
    both SCGF families consume exactly these values."""
    rng = np.random.default_rng(79)
    cycle_cache: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    for i in range(1000):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        values = rng.normal(0.0, 1.0, A**k)
        phi = bt.MarkovPotential(A, k, values)
        if (A, k) not in cycle_cache:
            cycle_cache[(A, k)] = enumerate_simple_cycles(A, k)
        means = [
            float(np.mean(values[list(arcs)])) for arcs in cycle_cache[(A, k)]
        ]
        assert abs(bt.extreme_mean(phi, "min") - min(means)) <= 1e-12
        assert abs(bt.extreme_mean(phi, "max") - max(means)) <= 1e-12
        if i < 25:
            norm, _ = bt.normalize_potential(phi)
            assert bt.entropy_scgf(norm, -1.5) == bt.extreme_mean(norm, "max")
            assert bt.relative_scgf(norm, 2.0) == -bt.extreme_mean(norm, "min")


def test_criterion_10_kink_slope(chain_potential):
    """The right slope of the entropy SCGF at t = -1 reproduces the
    zero-temperature entropy: within 1e-3 for the example chain, and equal
    to ln 2 for the uniform Bernoulli source."""
    h_inf, converged = bt.zero_temperature_entropy(chain_potential)
    assert converged
    left = bt.entropy_scgf(chain_potential, -1.0)
    slope = (bt.entropy_scgf(chain_potential, -1.0 + 1.0 / 256.0) - left) * 256.0
    assert abs(slope - h_inf) < 1e-3, (slope, h_inf)

    uniform = bt.potential_from_config({"type": "bernoulli", "p": [0.5, 0.5]})
    h_uniform, conv_uniform = bt.zero_temperature_entropy(uniform)
    assert conv_uniform
    assert h_uniform == math.log(2.0)
    left_u = bt.entropy_scgf(uniform, -1.0)
    slope_u = (bt.entropy_scgf(uniform, -1.0 + 1.0 / 256.0) - left_u) * 256.0
    assert abs(slope_u - math.log(2.0)) < 1e-12, slope_u


def test_criterion_11_scgf_ordering():
    """Block-entropy SCGF below the information SCGF on t > 0, above it on
    -1 < t < 0, with zero violations across 10 random potentials."""
    rng = np.random.default_rng(81)
    for _ in range(10):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        phi = _normalized(rng, A, k)
        for t in np.arange(0.1, 3.0001, 0.1):
            r = bt.entropy_scgf(phi, float(t))
            f = bt.information_scgf(phi, float(t))
            assert r <= f + 1e-10, (A, k, t, r, f)
        for t in np.arange(-0.9, -0.0999, 0.1):
            r = bt.entropy_scgf(phi, float(t))
            f = bt.information_scgf(phi, float(t))
            assert r >= f - 1e-10, (A, k, t, r, f)


def test_criterion_12_lln_recovery():
    """100 seeded replicas of the example chain at n in {1e3, 1e4, 1e5}
    with the epsilon = 0.2 block schedule: the median entropy deviation
    decreases along the grid and lands under 0.01, and the median relative
    conditional entropy Delta_k decreases along the grid and is, at every
    n, the plug-in bias and nothing more.

    Delta_k of the empirical k-blocks against the true ones is a sum, over
    the C_{k-1} contexts seen in the path, of count-weighted divergences of
    each context's empirical next-symbol law; each carries the chi-square
    bias (A-1)/(2n) of a plug-in divergence (Miller 1955).  So its median
    is about (A-1) C_{k-1} / (2n), which on this schedule falls only like
    n^(-epsilon): 0.0236, 0.0147, 0.0094, and never near 0 at n = 1e5 for
    any correct estimator.  The gate asks for the median of
    2 n Delta_k / ((A-1) C_{k-1}) within 5% of 1 at every n.  A reference
    law from the wrong chain P' = [[0.88, 0.12], [0.2, 0.8]] adds a true
    divergence on top of the bias and must fall outside that band.
    """
    start = time.monotonic()
    config = bt.ExperimentConfig(
        potential=CHAIN_CONFIG,
        seed=20260816,
        epsilon=0.2,
        n_grid=(1_000, 10_000, 100_000),
        replicas=100,
    )
    report = bt.run_lln(config)
    med_dev: dict[int, float] = {}
    med_rel: dict[int, float] = {}
    for n in config.n_grid:
        rows = [s.record for s in report.samples if s.n == n]
        assert len(rows) == 100
        med_dev[n] = float(
            np.median([abs(r.cond_entropy - REFERENCE_ENTROPY) for r in rows])
        )
        med_rel[n] = float(
            np.median([abs(r.rel_cond_entropy) for r in rows])
        )
    assert med_dev[1_000] > med_dev[10_000] > med_dev[100_000], med_dev
    assert med_dev[100_000] < 0.01, med_dev
    assert time.monotonic() - start < 300.0
    assert med_rel[1_000] > med_rel[10_000] > med_rel[100_000], med_rel

    sd = bt.pressure(bt.potential_from_config(CHAIN_CONFIG), 1.0)
    wrong_sd = bt.pressure(
        bt.potential_from_config(
            {"type": "markov", "transition": [[0.88, 0.12], [0.2, 0.8]]}
        ),
        1.0,
    )
    ratio: dict[int, float] = {}
    wrong_ratio: dict[int, float] = {}
    for n in config.n_grid:
        rows = [s for s in report.samples if s.n == n]
        k = rows[0].k
        rho_k = bt.equilibrium_blocks(sd, k)
        wrong_rho_k = bt.equilibrium_blocks(wrong_sd, k)
        paths = bt.sample_paths(sd, n, rows[0].seed, 100)
        wrong_rel: list[float] = []
        contexts: list[int] = []
        for x, row in zip(paths, rows):
            assert bt.plug_in_estimates(x, k, 2, rho_k) == row.record, row.replica
            wrong_rel.append(
                bt.plug_in_estimates(x, k, 2, wrong_rho_k).rel_cond_entropy
            )
            contexts.append(np.unique(bt.cyclic_window_codes(x, k - 1, 2)).size)
        # chi-square bias (A-1) C_{k-1} / (2n) of each path, with A = 2
        bias = np.array(contexts) / (2.0 * n)
        rel = np.array([row.record.rel_cond_entropy for row in rows])
        ratio[n] = float(np.median(rel / bias))
        wrong_ratio[n] = float(np.median(np.array(wrong_rel) / bias))
    assert all(abs(r - 1.0) <= 0.05 for r in ratio.values()), (
        f"median 2n Delta_k / ((A-1) C_(k-1)) per n is {ratio}, gate 1 +- 0.05: "
        f"Delta_k is more than its plug-in bias"
    )
    assert all(abs(r - 1.0) > 0.05 for r in wrong_ratio.values()), (
        f"a wrong reference law gives median ratios {wrong_ratio}, inside the "
        f"gate 1 +- 0.05: the gate cannot tell a wrong law from bias"
    )


def test_criterion_13_exact_finite_scgf_trend(chain_potential):
    """The exhaustive finite-n SCGF closes in on the infinite-n curve
    monotonically over n in {12, 16, 20} at t in {0.5, 1}, returns exactly
    zero at t = 0, and stays within its runtime budget."""
    start = time.monotonic()
    for t in (0.5, 1.0):
        limit = bt.entropy_scgf(chain_potential, t)
        gaps = [
            abs(bt.exact_finite_scgf(chain_potential, n, 2, t) - limit)
            for n in (12, 16, 20)
        ]
        assert gaps[0] > gaps[1] > gaps[2], (t, gaps)
    assert bt.exact_finite_scgf(chain_potential, 20, 2, 0.0) == 0.0
    assert time.monotonic() - start < 120.0


def test_criterion_14_decomposition_audit(chain_spectral, chain_potential):
    """On 1000 replicas at n = 10^4, k = 3: the relative conditional
    entropy term is nonnegative on every replica and the decomposition
    residual respects its 10 k / n cap."""
    paths = bt.sample_paths(chain_spectral, 10_000, 20260816, 1000)
    for i in range(1000):
        row = bt.decomposition_audit(paths[i], chain_potential, 3, sd=chain_spectral)
        assert row.bound == 10.0 * 3 / 10_000
        assert -row.delta >= 0.0, (i, row.delta)
        assert abs(row.residual) <= row.bound, (i, row.residual, row.bound)


def test_criterion_15_variance_two_routes(chain_potential):
    """The Poisson-equation variance and both SCGF curvature routes give
    the same central-limit variance to 1e-5, and the Monte Carlo Birkhoff
    variance at n = 1e5, 1000 replicas sits within three standard scores
    of it."""
    routes = [
        bt.asymptotic_variance(chain_potential),
        richardson_variance(chain_potential, "information"),
        richardson_variance(chain_potential, "entropy"),
    ]
    assert max(routes) - min(routes) < 1e-5, routes
    audit = bt.variance_audit(chain_potential, 100_000, 1000, seed=20260816)
    assert abs(audit.z) <= 3.0, (audit.theory, audit.empirical, audit.z)


def test_criterion_16_deterministic_reports(tmp_path):
    """Two runs of the shipped example configuration write byte-identical
    CSV reports."""
    with open("configs/ldp_example.json", encoding="utf-8") as fh:
        config = bt.ExperimentConfig.from_json_dict(json.load(fh))
    dirs = []
    for label in ("first", "second"):
        out = tmp_path / label
        out.mkdir()
        bt.write_report(bt.run_ldp(config), str(out))
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert names == ["audit.csv", "rate.csv", "samples.csv", "scgf.csv"]
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
