"""Transfer operators: pressure, equilibrium states, normalization."""

from __future__ import annotations

import importlib
import itertools
import math

import numpy as np
import pytest

import blocktropy as bt

from conftest import CHAIN_ENTROPY

# the package namespace binds ``pressure`` to the function
pressure_module = importlib.import_module("blocktropy.pressure")


def test_chain_closed_forms(chain_potential, chain_spectral):
    sd = chain_spectral
    assert sd.pressure == pytest.approx(0.0, abs=1e-12)
    assert sd.entropy == pytest.approx(CHAIN_ENTROPY, abs=1e-12)
    np.testing.assert_allclose(sd.vertex_stationary, [2 / 3, 1 / 3], atol=1e-12)
    # zero pressure forces mean potential == -entropy
    assert sd.potential_mean == pytest.approx(-CHAIN_ENTROPY, abs=1e-12)
    np.testing.assert_allclose(sd.kernel, [[0.9, 0.1], [0.2, 0.8]], atol=1e-12)
    np.testing.assert_allclose(
        sd.equilibrium.weights,
        [0.6, 1 / 15, 1 / 15, 4 / 15],
        atol=1e-12,
    )
    assert sd.equilibrium.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_transfer_matrix_hand_values(chain_potential):
    M = bt.transfer_matrix(chain_potential, 1.0)
    np.testing.assert_allclose(M, [[0.9, 0.1], [0.2, 0.8]], atol=1e-15)
    M2 = bt.transfer_matrix(chain_potential, 2.0)
    np.testing.assert_allclose(M2, [[0.81, 0.01], [0.04, 0.64]], atol=1e-15)
    # depth-one potential collapses to a single state
    bern = bt.MarkovPotential(2, 1, np.log([0.3, 0.7]), normalized=True)
    np.testing.assert_allclose(bt.transfer_matrix(bern, 1.0), [[1.0]], atol=1e-15)


def test_pressure_identity_and_variational_bound(make_potential, make_stationary):
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        phi = make_potential(rng, A, k)
        beta = float(rng.uniform(0.0, 3.0))
        sd = bt.pressure(phi, beta)
        # eigen identity P = h + beta * E[phi]
        assert sd.pressure == pytest.approx(
            sd.entropy + beta * sd.potential_mean, abs=1e-10
        )
        # equilibrium maximizes h + beta*E[phi] over stationary competitors
        for _ in range(4):
            nu = make_stationary(rng, A, int(rng.integers(1, 4)))
            nu_k = bt.markov_blocks(nu, max(k, nu.k))
            value = bt.conditional_block_entropy(nu_k) + beta * float(
                bt.markov_blocks(nu, k).weights @ phi.values
            )
            assert value <= sd.pressure + 1e-9


def test_normalize_potential(chain_potential):
    # scaling the chain's log kernel needs renormalizing; the conjugated
    # potential has zero defect and the same equilibrium state
    psi = bt.MarkovPotential(2, 2, 2.0 * chain_potential.values)
    phi2, p_top = bt.normalize_potential(psi)
    assert phi2.normalized and phi2.normalization_defect() < 1e-10
    assert p_top == pytest.approx(bt.pressure(psi, 1.0).pressure, abs=1e-12)
    rho_a = bt.pressure(psi, 1.0).equilibrium
    rho_b = bt.pressure(phi2, 1.0).equilibrium
    assert bt.tv_distance(rho_a, rho_b) < 1e-10
    assert bt.pressure(phi2, 1.0).pressure == pytest.approx(0.0, abs=1e-12)
    # an already-normalized potential comes back unchanged
    same, zero = bt.normalize_potential(chain_potential)
    np.testing.assert_allclose(same.values, chain_potential.values, atol=1e-9)
    assert zero == pytest.approx(0.0, abs=1e-12)


def test_normalize_potential_wide_spread():
    # spread 40 (A = 2, k = 3): each row is renormalized by its own
    # log-sum-exp, so the result passes its own normalized check
    for seed in range(20):
        raw = bt.MarkovPotential(2, 3, np.random.default_rng(seed).uniform(-20, 20, 8))
        phi, p_top = bt.normalize_potential(raw)
        assert phi.normalization_defect() <= 1e-12, seed
        sd_raw = bt.pressure(raw, 1.0)
        assert p_top == sd_raw.pressure
        rho = bt.pressure(phi, 1.0).equilibrium
        assert bt.tv_distance(sd_raw.equilibrium, rho) < 1e-9, seed


def test_pressure_strong_tilt_primitive(tilt_reproducer):
    phi = tilt_reproducer
    for beta in (56.0, 64.0, 80.0, 96.0, 128.0, 192.0, 256.0):
        sd = bt.pressure(phi, beta)
        assert np.isfinite(sd.pressure) and sd.right_vector.min() > 0.0, beta
        # the right vector is a Perron vector of the shifted transfer matrix
        psi = beta * phi.values
        M = bt.transfer_matrix(bt.MarkovPotential(4, 3, psi - psi.max()), 1.0)
        r = sd.right_vector
        lam = math.exp(sd.pressure - psi.max())
        assert np.max(np.abs(M @ r - lam * r)) <= 1e-12 * lam * r.max(), beta


@pytest.mark.xfail(
    strict=True,
    reason="_perron accepts an iterate whose tiny entries still move: both of "
    "its convergence tests are absolute",
)
def test_pressure_strong_tilt_variational_bounds():
    # beta * m <= P(beta) <= beta * m + ln A, with m the largest mean of the
    # potential around a cycle of the de Bruijn graph (here A = 3, k = 2)
    raw = [0.40109339, 2.11979523, -0.06680475, 1.13574549, 1.60440994,
           3.17882699, -0.3825874, -1.31709706, -3.11885237]
    phi = bt.normalize_potential(bt.MarkovPotential(3, 2, raw))[0]
    w = phi.values.reshape(3, 3)
    m = max(
        np.mean([w[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1])])
        for size in (1, 2, 3)
        for cycle in itertools.permutations(range(3), size)
    )
    for beta in (100.0, 170.0):
        p = bt.pressure(phi, beta).pressure
        assert beta * m - 1e-9 <= p <= beta * m + math.log(3) + 1e-9, beta


def test_potential_from_marginals_recovers_chain(chain_potential, chain_spectral):
    rho2 = bt.equilibrium_blocks(chain_spectral, 2)
    phi = bt.potential_from_marginals(rho2)
    np.testing.assert_allclose(phi.values, chain_potential.values, atol=1e-12)
    # explicit consistent rho_1 accepted, inconsistent rejected
    rho1 = bt.marginalize(rho2)
    bt.potential_from_marginals(rho2, rho1)
    bad = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        bt.potential_from_marginals(rho2, bad)
    # depth-one case: log of the weights
    phi1 = bt.potential_from_marginals(
        bt.BlockDistribution(2, 1, np.array([0.25, 0.75]), stationary=True)
    )
    np.testing.assert_allclose(phi1.values, np.log([0.25, 0.75]), atol=1e-15)
    with pytest.raises(ValueError):
        bt.potential_from_marginals(bt.BlockDistribution(2, 2, np.full(4, 0.25)))
    with pytest.raises(ValueError):
        bt.potential_from_marginals(
            bt.BlockDistribution(2, 2, np.array([0.5, 0, 0, 0.5]), stationary=True)
        )


def test_markov_blocks_extension(chain_spectral):
    rho2 = bt.equilibrium_blocks(chain_spectral, 2)
    rho3 = bt.markov_blocks(rho2, 3)
    # extension is consistent under right marginalization
    assert bt.tv_distance(bt.marginalize(rho3), rho2) < 1e-12
    # and keeps the conditional entropy of the generating kernel
    assert bt.conditional_block_entropy(rho3) == pytest.approx(
        bt.conditional_block_entropy(rho2), abs=1e-12
    )
    # k below the input depth marginalizes
    assert bt.tv_distance(bt.markov_blocks(rho3, 2), rho2) < 1e-12
    # i.i.d. extension of a 1-block law is the product law
    unif = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]), stationary=True)
    np.testing.assert_allclose(
        bt.markov_blocks(unif, 3).weights, np.full(8, 0.125), atol=1e-15
    )


def test_relative_entropy_rate_chain(chain_potential, chain_spectral):
    rho = chain_spectral.equilibrium
    assert bt.relative_entropy_rate(rho, chain_potential) == pytest.approx(
        0.0, abs=1e-12
    )
    unif = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]), stationary=True)
    value = bt.relative_entropy_rate(unif, chain_potential)
    hand = -math.log(0.9 * 0.1 * 0.2 * 0.8) / 4 - math.log(2.0)
    assert value == pytest.approx(hand, abs=1e-14)
    assert value == pytest.approx(0.3669845875401002, abs=1e-12)


def test_relative_entropy_rate_properties(chain_potential, make_stationary):
    rng = np.random.default_rng(12)
    for _ in range(40):
        nu = make_stationary(rng, 2, int(rng.integers(1, 4)))
        assert bt.relative_entropy_rate(nu, chain_potential) >= -1e-12
    raw = bt.MarkovPotential(2, 2, np.array([0.1, 0.0, -0.3, 0.2]))
    unif = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]), stationary=True)
    with pytest.raises(ValueError):
        bt.relative_entropy_rate(unif, raw)  # not normalized
    with pytest.raises(ValueError):
        bt.relative_entropy_rate(
            bt.BlockDistribution(3, 1, np.full(3, 1 / 3), stationary=True),
            chain_potential,
        )


def test_direct_pressure_estimate(chain_potential):
    # beta = 0: all strings weigh 1, the estimate is exactly ln A
    assert bt.direct_pressure_estimate(chain_potential, 0.0, 12) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    # normalized chain: true pressure 0, gap within C/n and shrinking
    gaps = [
        abs(bt.direct_pressure_estimate(chain_potential, 1.0, n))
        for n in (8, 12, 16, 20)
    ]
    assert gaps[-1] <= 5.0 / 20
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        bt.direct_pressure_estimate(chain_potential, 1.0, 1)
    # no enumeration cap: the transfer recursion runs at any length
    gap40 = abs(bt.direct_pressure_estimate(chain_potential, 1.0, 40))
    assert math.isfinite(gap40) and gap40 < gaps[-1]
    rng = np.random.default_rng(3)
    phi4 = bt.normalize_potential(bt.MarkovPotential(4, 3, rng.normal(size=64)))[0]
    assert math.isfinite(bt.direct_pressure_estimate(phi4, 1.0, 13))  # 4**13 > 2**24


def test_pressure_failure_modes(chain_potential):
    # large beta first makes the stationary solve singular ...
    with pytest.raises(bt.ConvergenceError):
        bt.pressure(chain_potential, 1e3)
    # ... and later underflows the transfer matrix itself
    with pytest.raises(bt.ReducibilityError):
        bt.pressure(chain_potential, 1e4)
    # dead vertex (all outgoing weight vanishes) is flagged as reducible
    dead = bt.MarkovPotential(2, 2, np.array([0.0, 0.0, -800.0, -800.0]))
    with pytest.raises(bt.ReducibilityError):
        bt.pressure(dead, 1.0)
    # two-periodic support ties the subdominant modulus to the Perron root;
    # the dense eigensolve fallback still resolves the eigenpair
    flip = bt.MarkovPotential(2, 2, np.array([-200.0, 0.0, math.log(2.0), -200.0]))
    sd_flip = bt.pressure(flip, 1.0)
    assert sd_flip.pressure == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)
    assert sd_flip.entropy == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sd_flip.equilibrium.weights, [0.0, 0.5, 0.5, 0.0], atol=1e-12)
    # the design range stays clean on the example chain
    assert np.isfinite(bt.pressure(chain_potential, 256.0).pressure)


class _CountedMatrix(np.ndarray):
    """A matrix that counts its matrix-vector products."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


def _plain_power_iteration(M):
    """Power iteration to the 2000-step cap with no stall test."""
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    lam = 0.0
    for _ in range(2000):
        w = M @ v
        s = float(w.sum())
        w /= s
        if np.max(np.abs(w - v)) < 1e-13 and abs(s - lam) < 1e-13 * max(1.0, abs(s)):
            for _ in range(2):
                w = M @ w
                s = float(w.sum())
                w /= s
            return s, w
        v, lam = w, s
    return None


def test_perron_stall_test():
    # a slowly mixing chain (second eigenvalue 0.97, about 900 steps) is
    # not cut short: it keeps the plain power iteration's bits
    slow = np.array([[0.99, 0.02], [0.01, 0.98]])
    _CountedMatrix.products = 0
    lam, v = pressure_module._perron(slow.view(_CountedMatrix))
    assert _CountedMatrix.products > 800
    want_lam, want_v = _plain_power_iteration(slow)
    assert lam == want_lam and np.array_equal(v, want_v)
    # a 3-cycle with a faint shortcut ties the subdominant moduli to the
    # Perron root to 1e-6: the stall test hands it to the eigensolve after
    # two windows instead of the 2000-step cap, with the same bits
    tie = np.roll(np.diag([1.0, 2.0, 3.0]), 1, axis=1) + 1e-6
    assert _plain_power_iteration(tie) is None
    _CountedMatrix.products = 0
    lam, v = pressure_module._perron(tie.view(_CountedMatrix))
    assert _CountedMatrix.products <= 2 * pressure_module._STALL_WINDOW + 3
    want_lam, want_v = pressure_module._perron_eig(tie)
    assert lam == want_lam and np.array_equal(v, want_v)


def test_spectral_json_dict(chain_spectral):
    data = bt.spectral_to_json_dict(chain_spectral)
    assert set(data) == {"beta", "pressure", "entropy", "mean_phi", "equilibrium"}
    assert data["equilibrium"]["k"] == 2
    assert len(data["equilibrium"]["weights"]) == 4
    assert sum(data["equilibrium"]["weights"]) == pytest.approx(1.0, abs=1e-12)


def test_markov_potential_validation():
    with pytest.raises(ValueError):
        bt.MarkovPotential(2, 2, np.zeros(3))  # wrong length
    with pytest.raises(ValueError):
        bt.MarkovPotential(2, 1, np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        bt.MarkovPotential(2, 1, np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        bt.MarkovPotential(2, 2, np.zeros(4), normalized=True)  # rows sum to 2
