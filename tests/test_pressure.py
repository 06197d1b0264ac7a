"""Transfer operators: pressure, equilibrium states, normalization."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _transfer_matrix(phi: bt.MarkovPotential, beta: float) -> np.ndarray:
    return pressure_module._arc_matrix(np.exp(beta * phi.values), phi.alphabet_size)


def test_transfer_matrix_hand_values(chain_potential):
    M = _transfer_matrix(chain_potential, 1.0)
    np.testing.assert_allclose(M, [[0.9, 0.1], [0.2, 0.8]], atol=1e-15)
    M2 = _transfer_matrix(chain_potential, 2.0)
    np.testing.assert_allclose(M2, [[0.81, 0.01], [0.04, 0.64]], atol=1e-15)
    # depth-one potential collapses to a single state
    bern = bt.MarkovPotential(2, 1, np.log([0.3, 0.7]))
    np.testing.assert_allclose(_transfer_matrix(bern, 1.0), [[1.0]], atol=1e-15)


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
        M = pressure_module._arc_matrix(np.exp(psi - psi.max()), 4)
        r = sd.right_vector
        lam = math.exp(sd.pressure - psi.max())
        assert np.max(np.abs(M @ r - lam * r)) <= 1e-12 * lam * r.max(), beta


#: An A = 3, k = 2 potential whose strong tilts _perron stops on too early.
STRONG_TILT = bt.MarkovPotential(3, 2, [
    0.40109339, 2.11979523, -0.06680475, 1.13574549, 1.60440994,
    3.17882699, -0.3825874, -1.31709706, -3.11885237,
])


@pytest.mark.xfail(
    strict=True,
    reason="_perron accepts an iterate whose tiny entries still move: both of "
    "its convergence tests are absolute",
)
def test_pressure_strong_tilt_variational_bounds():
    # beta * m <= P(beta) <= beta * m + ln A, with m the largest mean of the
    # potential around a cycle of the de Bruijn graph (here A = 3, k = 2)
    phi = bt.normalize_potential(STRONG_TILT)[0]
    w = phi.values.reshape(3, 3)
    m = max(
        np.mean([w[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1])])
        for size in (1, 2, 3)
        for cycle in itertools.permutations(range(3), size)
    )
    for beta in (100.0, 170.0):
        p = bt.pressure(phi, beta).pressure
        assert beta * m - 1e-9 <= p <= beta * m + math.log(3) + 1e-9, beta


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
    unif = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    np.testing.assert_allclose(
        bt.markov_blocks(unif, 3).weights, np.full(8, 0.125), atol=1e-15
    )


def test_relative_entropy_rate_chain(chain_potential, chain_spectral):
    rho = chain_spectral.equilibrium
    assert bt.relative_entropy_rate(rho, chain_potential) == pytest.approx(
        0.0, abs=1e-12
    )
    unif = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
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
    unif = bt.BlockDistribution(2, 1, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        bt.relative_entropy_rate(unif, raw)  # not normalized
    with pytest.raises(ValueError):
        bt.relative_entropy_rate(
            bt.BlockDistribution(3, 1, np.full(3, 1 / 3)),
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


def _reference_perron(M):
    """``_perron`` with the step change max|w - v| taken at every step and
    the stall window's maximum kept as a running scalar: the bitwise
    reference for ``_perron``."""
    _POWER_MAX_ITER = pressure_module._POWER_MAX_ITER
    _POWER_TOL = pressure_module._POWER_TOL
    _STALL_WINDOW = pressure_module._STALL_WINDOW
    _stalled = pressure_module._stalled
    _perron_eig = pressure_module._perron_eig
    ReducibilityError = bt.ReducibilityError
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


def _counted_solve(solve, M):
    """The bytes of (lambda, v), or the error type, and the product count."""
    _CountedMatrix.products = 0
    try:
        lam, v = solve(np.array(M, dtype=float).view(_CountedMatrix))
        out = (np.float64(lam).tobytes(), v.dtype.str, v.shape, v.tobytes())
    except (bt.ReducibilityError, bt.ConvergenceError) as exc:
        out = type(exc)
    return out, _CountedMatrix.products


def _assert_reference_bits(M):
    """``_perron`` returns the reference's bits after as many products;
    returns that count."""
    got = _counted_solve(pressure_module._perron, M)
    want = _counted_solve(_reference_perron, M)
    assert got == want
    return want[1]


def _tilted_matrix(values, A, beta):
    psi = beta * np.asarray(values, dtype=float)
    return pressure_module._arc_matrix(np.exp(psi - psi.max()), A)


#: a sticky A = 2, k = 2 potential whose tilts converge one step either
#: side of the first two stall windows' ends
STICKY = [0.0, -1.0, -1.5, -0.05]


@pytest.mark.parametrize(
    "beta, steps",
    [(1.262, 63), (1.275, 64), (1.288, 65), (1.918, 127), (1.927, 128), (1.936, 129)],
)
def test_perron_reference_bits_at_window_ends(beta, steps):
    # two polishing products follow the step that converged
    assert _assert_reference_bits(_tilted_matrix(STICKY, 2, beta)) == steps + 2


def test_perron_reference_bits_on_stalls_and_cap():
    # cyclic near-ties of every size stall at the end of the second window
    # and go to the eigensolve, which adds max(2, V) products
    for V in (3, 4, 8):
        tie = np.roll(np.diag(np.arange(1.0, V + 1)), 1, axis=1) + 1e-6
        assert _assert_reference_bits(tie) == 128 + V
    # a looser tie converges after 25 windows
    loose = np.roll(np.diag([1.0, 2.0, 3.0]), 1, axis=1) + 1e-2
    assert _assert_reference_bits(loose) == 1644
    # a gap of 0.5% runs to the 2000-step cap without stalling
    assert _assert_reference_bits(np.array([[1.0, 0.006], [0.003, 0.995]])) == 2002
    # either side of the stall threshold: at step 128 the projection reads
    # 4000.02 steps (stall) and 3999.63 steps (run on to the cap)
    for shortcut, products in ((0.0037056, 130), (0.003706, 2002)):
        flip = np.array([[1.0, shortcut], [shortcut / 2, 0.995]])
        assert _assert_reference_bits(flip) == products
    # a nilpotent matrix loses positivity on the second step
    assert _assert_reference_bits(np.array([[0.0, 1.0], [0.0, 0.0]])) == 2
    # the iterate that the strong-tilt defect stops on is kept, wrong bits
    # and all, until the stop test itself changes
    for beta in (100.0, 170.0):
        phi = bt.normalize_potential(STRONG_TILT)[0]
        assert _assert_reference_bits(_tilted_matrix(phi.values, 3, beta)) <= 8


#: (A, k) with V = A**(k-1) in {1, 2, 3, 4, 8, 9, 16, 27, 32, 64}
_SHAPES = [
    (2, 1), (2, 2), (3, 2), (4, 2), (2, 4), (3, 3), (4, 3), (3, 4), (2, 6), (4, 4)
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    beta=st.floats(-30.0, 200.0),
    tie=st.one_of(st.none(), st.floats(1e-9, 1e-1)),
)
def test_perron_reference_bits_property(shape, seed, beta, tie):
    A, k = shape
    rng = np.random.default_rng(seed)
    if tie is None:
        # a tilted potential, as ``pressure`` builds it
        M = _tilted_matrix(rng.normal(size=A**k) * rng.uniform(0.5, 2.0), A, beta)
    else:
        # a cyclic permutation with a faint shortcut: near-tied moduli
        V = A ** (k - 1)
        M = np.roll(np.diag(rng.uniform(0.5, 2.0, size=V)), 1, axis=1) + tie
    _assert_reference_bits(M)


def _outcome_bits(solve):
    """The bits of every field of a spectrum, or the error type it raised."""
    try:
        sd = solve()
    except (ValueError, bt.ConvergenceError) as exc:
        return type(exc)
    fields = (
        sd.beta, sd.pressure, sd.entropy, sd.potential_mean, sd.right_vector,
        sd.kernel, sd.vertex_stationary, sd.equilibrium.weights,
    )
    bits = [(type(x), np.shape(x), np.asarray(x).tobytes()) for x in fields]
    return bits + [sd.equilibrium.stationary, sd.equilibrium.k]


def _assert_spectra_bits(phi, betas):
    """``_spectra`` returns each beta's ``pressure`` bit for bit, or raises
    the error of the first beta whose own solve raises."""
    want = [_outcome_bits(lambda: bt.pressure(phi, beta)) for beta in betas]
    errors = [w for w in want if isinstance(w, type)]
    try:
        got = pressure_module._spectra(phi, betas)
    except (ValueError, bt.ConvergenceError) as exc:
        assert errors and type(exc) is errors[0], (betas, exc)
        return
    assert not errors, betas
    assert [sd.potential for sd in got] == [phi] * len(betas)
    assert [_outcome_bits(lambda: sd) for sd in got] == want, betas


#: betas every drawn stack may take: the zero and negative tilts, and
#: tilts whose ``_perron`` runs to the stall test and the eigensolve; from
#: ``_STACK_MIN`` betas on, the stack iterates as one
_EDGE_BETAS = [0.0, -0.0, -1.0, -7.5, 1.0, 16.0, 64.0, 256.0]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    A=st.sampled_from([2, 3, 4]),
    k=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    betas=st.lists(
        st.one_of(st.sampled_from(_EDGE_BETAS), st.floats(-40.0, 300.0)),
        min_size=1,
        max_size=8,
    ),
    duplicate=st.booleans(),
)
def test_spectra_match_pressure_bitwise(A, k, seed, betas, duplicate):
    rng = np.random.default_rng(seed)
    raw = bt.MarkovPotential(A, k, rng.normal(size=A**k) * rng.uniform(0.3, 2.0))
    phi = bt.normalize_potential(raw)[0]
    _assert_spectra_bits(phi, betas + betas[:1] if duplicate else betas)


def test_spectra_stalls_and_errors(chain_potential, tilt_reproducer, monkeypatch):
    # from beta = 16 on, the reproducer's power iteration stalls into the
    # eigensolve, so this stack mixes rows that stop and rows that stall;
    # the stack takes each row's stall-window tests with the row's own
    # numbers, as the betas solved one at a time do
    stall_tests, stalled = [], pressure_module._stalled

    def recorded(*args):
        stall_tests.append((*args, stalled(*args)))
        return stall_tests[-1][-1]

    monkeypatch.setattr(pressure_module, "_stalled", recorded)
    betas = [8.0, 16.0, 1.0, 64.0, 128.0, 16.0]
    one_at_a_time = [
        _outcome_bits(lambda: bt.pressure(tilt_reproducer, b)) for b in betas
    ]
    alone, stall_tests[:] = sorted(stall_tests), []
    stack = pressure_module._spectra(tilt_reproducer, betas)
    assert [_outcome_bits(lambda: sd) for sd in stack] == one_at_a_time
    assert sorted(stall_tests) == alone
    assert sum(test[-1] for test in alone) == 4
    monkeypatch.undo()
    # the strong tilts that ``_perron`` stops on too early keep their bits
    _assert_spectra_bits(bt.normalize_potential(STRONG_TILT)[0], [100.0, 170.0, 0.5])
    _assert_spectra_bits(bt.MarkovPotential(2, 1, np.log([0.5, 0.5])), [0.0, 3.0])
    # a failing beta fails the stack with its own error, in beta order,
    # whether the betas iterate one at a time or as one stack
    for betas in ([1.0, 1e4, 1e3], [2.0, math.inf], [1e3, math.nan]):
        _assert_spectra_bits(chain_potential, betas)
        _assert_spectra_bits(chain_potential, [0.5, 3.0, 1.5] + betas)


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
    # normalized is measured: rows summing to 2 are not, exact rows are
    assert not bt.MarkovPotential(2, 2, np.zeros(4)).normalized
    exact = bt.MarkovPotential(2, 2, np.log([0.9, 0.1, 0.2, 0.8]))
    assert exact.normalization_defect() == 0.0 and exact.normalized
    assert math.isfinite(bt.entropy_scgf(exact, 1.0))
    # an exp that overflows is an infinite defect, without a warning
    huge = bt.MarkovPotential(2, 1, np.array([1e3, 0.0]))
    assert huge.normalization_defect() == math.inf and not huge.normalized
    init = [f.name for f in dataclasses.fields(bt.MarkovPotential) if f.init]
    assert init == ["alphabet_size", "k", "values"]


def test_pressure_refuses_a_non_stationary_equilibrium(chain_potential, monkeypatch):
    # a stationary solve that returns the wrong vertex law
    solve = np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda lhs, rhs: solve(lhs, rhs) * [1.0, 1.01]
    )
    with pytest.raises(bt.ConvergenceError, match="not stationary"):
        bt.pressure(chain_potential, 1.0)


def test_normalize_refuses_rows_that_do_not_sum_to_one():
    # at 1e17 the row log-sum-exp 1e17 + ln 2 rounds to 1e17, so the
    # conjugated rows come out as (0, 0) and sum to 2
    with pytest.raises(bt.ConvergenceError, match="do not sum to one"):
        bt.normalize_potential(bt.MarkovPotential(2, 1, np.array([1e17, 1e17])))
    # a large but representable offset still normalizes
    raw = bt.MarkovPotential(2, 1, np.array([1e3, 1e3 + 1]))
    assert bt.normalize_potential(raw)[0].normalized
