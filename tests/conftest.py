"""Shared fixtures: the project's reference chain, random-instance makers,
and the brute-force oracles the library is checked against."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

import blocktropy as bt

#: Two-state reference chain used across the suite (stationary law (2/3, 1/3)).
CHAIN_CONFIG = {"type": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]}

#: Closed-form entropy rate of the reference chain, in nats.
CHAIN_ENTROPY = (2.0 / 3.0) * (
    -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
) + (1.0 / 3.0) * (-(0.2 * np.log(0.2) + 0.8 * np.log(0.8)))


@pytest.fixture(scope="session")
def chain_potential() -> bt.MarkovPotential:
    return bt.potential_from_config(CHAIN_CONFIG)


@pytest.fixture(scope="session")
def chain_spectral(chain_potential) -> bt.SpectralData:
    return bt.pressure(chain_potential, 1.0)


def _random_potential(
    rng: np.random.Generator, alphabet_size: int, k: int, spread: float = 1.0
) -> bt.MarkovPotential:
    values = rng.normal(scale=spread, size=alphabet_size**k)
    return bt.MarkovPotential(alphabet_size, k, values)


def _random_stationary(
    rng: np.random.Generator, alphabet_size: int, k: int
) -> bt.BlockDistribution:
    """Random full-support stationary k-block law via a Dirichlet kernel."""
    if k == 1:
        w = rng.dirichlet(np.ones(alphabet_size))
        return bt.BlockDistribution(alphabet_size, 1, w)
    vertex_count = alphabet_size ** (k - 1)
    kernel = rng.dirichlet(np.ones(alphabet_size), size=vertex_count)
    phi = bt.MarkovPotential(alphabet_size, k, np.log(kernel).ravel())
    return bt.equilibrium_blocks(bt.pressure(phi, 1.0), k)


@pytest.fixture(scope="session")
def tilt_reproducer() -> bt.MarkovPotential:
    """Normalized primitive A = 4, k = 3 potential whose tilted spectra once
    raised ReducibilityError at beta = 64 and 128 but not at 56, 80 or 96."""
    rng = np.random.default_rng(3)
    for size in (2, 2, 2, 8, 8, 8, 9, 9, 9):
        rng.normal(scale=0.5, size=size)
    raw = bt.MarkovPotential(4, 3, rng.normal(scale=0.5, size=64))
    return bt.normalize_potential(raw)[0]


@pytest.fixture(scope="session")
def make_potential():
    return _random_potential


@pytest.fixture(scope="session")
def make_stationary():
    return _random_stationary


#: Second-difference step of the Richardson curvature oracle.
_VARIANCE_STEP = 1e-3


def richardson_variance(phi: bt.MarkovPotential, route: str) -> float:
    """Central-limit variance as the curvature at t = 0 of an SCGF.

    Richardson-extrapolated central second difference (steps h and h/2,
    h = _VARIANCE_STEP) of ``information_scgf`` or, with
    ``route="entropy"``, of ``entropy_scgf``: six pressure solves, within
    about 1e-8 of the exact value.
    """
    fn = {"information": bt.information_scgf, "entropy": bt.entropy_scgf}[route]

    def second_diff(h: float) -> float:
        return (fn(phi, h) - 2.0 * fn(phi, 0.0) + fn(phi, -h)) / (h * h)

    h = _VARIANCE_STEP
    return (4.0 * second_diff(h / 2.0) - second_diff(h)) / 3.0


def fixed_k_rate_upper(
    phi: bt.MarkovPotential,
    k_fixed: int,
    functional: str,
    u: float,
    grid_size: int | None = None,
    tol: float = 1e-3,
) -> float:
    """Upper bound on the contracted fixed-block-length rate.

    Searches (k_fixed - 1)-step Markov measures over a transition-
    probability grid, minimizing the specific relative entropy against the
    equilibrium of ``phi`` subject to the chosen functional of the k_fixed-
    block marginal lying within ``tol`` of ``u``.  Restricted to binary
    alphabets and k_fixed <= 2, where the brute-force grid is dense enough
    to be informative; returns +inf when nothing on the grid is feasible.
    The true contracted rate need not be convex, and this search refines
    downward, so the result is an upper bound.
    """
    if phi.alphabet_size != 2 or k_fixed not in (1, 2):
        raise ValueError("fixed-k search supports alphabet size 2 and k_fixed <= 2")
    rho_ref = bt.equilibrium_blocks(bt.pressure(phi, 1.0), k_fixed)
    if k_fixed == 1:
        g = grid_size or 2000
        p = np.arange(1, g) / g
        laws = np.column_stack([1.0 - p, p])
    else:
        g = grid_size or 120
        a, b = np.meshgrid(np.arange(1, g) / g, np.arange(1, g) / g, indexing="ij")
        a, b = a.ravel(), b.ravel()  # a = P(1 | 0), b = P(0 | 1)
        p0 = b / (a + b)
        p1 = 1.0 - p0
        laws = np.column_stack([p0 * (1 - a), p0 * a, p1 * b, p1 * (1 - b)])
    best = math.inf
    for w in laws:
        nu = bt.BlockDistribution(2, k_fixed, w)
        if abs(bt.measure_functional(functional, nu, rho_ref) - u) > tol:
            continue
        best = min(best, bt.relative_entropy_rate(nu, phi))
    return best


@lru_cache(maxsize=None)
def enumerate_simple_cycles(alphabet_size: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All vertex-simple directed cycles of the full de Bruijn graph.

    Cycles are rooted at their smallest vertex and enumerated by depth-first
    search restricted to vertices >= the root, so each cycle appears exactly
    once (as a tuple of arc codes).  Exponential in general: desk-scale
    oracle work only.
    """
    A, V = alphabet_size, alphabet_size ** (k - 1)
    cycles: list[tuple[int, ...]] = []

    def extend(root: int, u: int, arcs: list[int], visited: set[int]) -> None:
        for b in range(A):
            arc = u * A + b
            v = arc % V
            if v == root:
                cycles.append(tuple(arcs + [arc]))
            elif v > root and v not in visited:
                visited.add(v)
                extend(root, v, arcs + [arc], visited)
                visited.remove(v)

    for root in range(V):
        extend(root, root, [], {root})
    return tuple(cycles)
