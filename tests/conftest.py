"""Shared fixtures: the project's reference chain and random-instance makers."""

from __future__ import annotations

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
        return bt.BlockDistribution(alphabet_size, 1, w, stationary=True)
    vertex_count = alphabet_size ** (k - 1)
    kernel = rng.dirichlet(np.ones(alphabet_size), size=vertex_count)
    phi = bt.MarkovPotential(
        alphabet_size, k, np.log(kernel).ravel(), normalized=True
    )
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
