"""Experiment harness: configs, exact/MC SCGFs, audits, report files."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import blocktropy as bt
from blocktropy import harness, rates
from blocktropy.harness import _exact_finite_scgf_grid, mc_scgf

from conftest import CHAIN_CONFIG

#: sha256 of the four CSVs ``blocktropy ldp`` writes for configs/ldp_example.json,
#: as recorded in perfbench/expected.json.
EXAMPLE_CSV_SHA256 = {
    "samples": "64336806aa10e3f084b65fc6a3827b62b01ccf5409df972d01ea11abecfdfe83",
    "scgf": "536f8b6d1c2e67509468236a22734e24891158a71c5d4615a7c8791131ab842e",
    "rate": "5928884d5ce2497eb96141ca3d06df3bd18fc36fd64a88d119c94a3fc06158a2",
    "audit": "60ef3ed470724161b66b7be47b83ae9c430346758d3955784763b5303d42a39a",
}


def _exact_scgf_oracle(phi, sd, n, k, t, functional="conditional"):
    """Slow itertools enumeration of (1/n) ln E[exp(n t F)]."""
    A = phi.alphabet_size
    rho_k = bt.equilibrium_blocks(sd, k)
    total = 0.0
    for x in itertools.product(range(A), repeat=n):
        nu = bt.empirical_block_measure(np.array(x), k, A)
        f = bt.measure_functional(functional, nu, rho_k)
        mass = sd.vertex_stationary[x[0]]
        for a, b in zip(x, x[1:]):
            mass *= sd.kernel[a, b]
        total += mass * math.exp(n * t * f)
    return math.log(total) / n


def test_config_round_trip_and_unknown_keys():
    config = bt.ExperimentConfig.from_json_dict(
        {"potential": CHAIN_CONFIG, "seed": 5, "n_grid": [16, 64]}
    )
    assert config.n_grid == (16, 64)
    back = bt.ExperimentConfig.from_json_dict(config.to_json_dict())
    assert back == config
    with pytest.raises(ValueError):
        bt.ExperimentConfig.from_json_dict({"potential": CHAIN_CONFIG, "nn": 1})
    # the former "threads" worker hint is no longer part of the schema
    with pytest.raises(ValueError, match="unknown config keys: threads"):
        bt.ExperimentConfig.from_json_dict({"potential": CHAIN_CONFIG, "threads": 1})
    with pytest.raises(ValueError):
        bt.ExperimentConfig.from_json_dict({"seed": 5})


@pytest.mark.parametrize(
    "override",
    [
        {"seed": -1},
        {"seed": 1 << 64},
        {"beta": math.inf},
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"n_grid": ()},
        {"n_grid": (1, 8)},
        {"n_grid": (64, 16)},
        {"replicas": 0},
        {"t_grid": ()},
        {"functional": "entropy"},
        {"exact_n": 1, "exact_k": 2},
        {"exact_k": 0},
        {"scgf_n": 1, "exact_k": 2},
        {"scgf_replicas": 1},
        {"bin_width": 0.0},
        {"variance_n": 1},
        {"variance_replicas": 1},
        {"n_grid": 5},
        {"replicas": "3"},
        {"seed": 1.5},
        {"beta": "x"},
        {"epsilon": None},
        {"bin_width": True},
        {"t_grid": ("a",)},
        {"u_grid": (0.1, None)},
        {"t_grid": (math.nan,)},
        {"t_grid": (0.5, math.inf)},
        {"u_grid": (math.nan, 0.3)},
        {"u_grid": (-math.inf,)},
        {"bin_width": math.inf},
        {"t_grid": (10**400,)},  # an integer past float range
        {"beta": 10**400},
    ],
)
def test_config_validation(override):
    with pytest.raises(ValueError):
        bt.ExperimentConfig(potential=CHAIN_CONFIG, **override)


def test_potential_from_config_forms(chain_potential):
    markov = bt.potential_from_config(CHAIN_CONFIG)
    np.testing.assert_allclose(markov.values, chain_potential.values, atol=1e-15)
    bern = bt.potential_from_config({"type": "bernoulli", "p": [0.25, 0.75]})
    assert bern.k == 1 and bern.normalized
    p = np.array([0.25, 0.75])
    np.testing.assert_array_equal(bern.values, np.log(p / p.sum()))
    # explicit values: accepted when already normalized ...
    vals = bt.potential_from_config(
        {
            "type": "values",
            "alphabet_size": 2,
            "k": 1,
            "values": [math.log(0.5), math.log(0.5)],
        }
    )
    assert vals.normalized
    # ... and a "normalized" key changes nothing, on either kind of table ...
    flagged = {"type": "values", "alphabet_size": 2, "k": 1, "normalized": True}
    same = bt.potential_from_config({**flagged, "values": [math.log(0.5)] * 2})
    assert same.normalized
    np.testing.assert_array_equal(same.values, vals.values)
    with pytest.raises(ValueError, match="normalize"):
        bt.potential_from_config({**flagged, "values": [0.4, -0.2]})
    # ... normalized on request ...
    fixed = bt.potential_from_config(
        {
            "type": "values",
            "alphabet_size": 2,
            "k": 2,
            "values": [0.4, -0.2, 0.1, 0.3],
            "normalize": True,
        }
    )
    assert fixed.normalization_defect() < 1e-10
    # ... and rejected with a pointer to the flag otherwise
    with pytest.raises(ValueError, match="normalize"):
        bt.potential_from_config(
            {
                "type": "values",
                "alphabet_size": 2,
                "k": 2,
                "values": [0.4, -0.2, 0.1, 0.3],
            }
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"type": "markov", "transition": [[0.9, 0.1]]},
        {"type": "markov", "transition": [[0.9, 0.2], [0.2, 0.8]]},
        {"type": "markov", "transition": [[1.0, 0.0], [0.2, 0.8]]},
        {"type": "bernoulli", "p": [0.5]},
        {"type": "bernoulli", "p": [0.6, 0.6]},
        {"type": "bernoulli", "p": [1.0, 0.0]},
        {"type": "markov", "transition": [[1.0]]},
        {"type": "bernoulli", "p": [[0.5, 0.5]]},
        {"type": "gibbs"},
        {"type": ["markov"], "transition": [[0.9, 0.1], [0.2, 0.8]]},
        {**CHAIN_CONFIG, "tranistion_typo": 1},
        {**CHAIN_CONFIG, "beta": 2},
        {**CHAIN_CONFIG, "normalize": True},
        {"type": "bernoulli", "p": [0.5, 0.5], "transition": [[1.0]]},
        {"type": "values", "alphabet_size": 2, "k": 1,
         "values": [-math.log(2)] * 2, "normalise": True},
        {**CHAIN_CONFIG, "normalized": "yes"},
        {"type": "bernoulli", "p": [0.5, 0.5], "normalized": 1},
        {"type": "markov", "transition": {"a": 1}},
        {"type": "bernoulli", "p": {"a": 1}},
        {"type": "values", "alphabet_size": 2, "k": 1, "values": {"a": 1}},
    ],
)
def test_potential_from_config_rejects(bad):
    with pytest.raises(ValueError):
        bt.potential_from_config(bad)


@pytest.mark.parametrize("key", ["transition", "p", "values"])
def test_potential_from_config_names_a_non_numeric_entry(key):
    spec = {
        "transition": {"type": "markov"},
        "p": {"type": "bernoulli"},
        "values": {"type": "values", "alphabet_size": 2, "k": 1},
    }[key]
    with pytest.raises(ValueError, match=f"{key} must hold numbers"):
        bt.potential_from_config({**spec, key: {"a": 1}})


def test_exact_finite_scgf_matches_oracle(chain_potential, chain_spectral):
    for n, k, t, functional in [
        (6, 2, 0.7, "conditional"),
        (6, 2, -0.4, "conditional"),
        (6, 1, 0.5, "average"),
        (5, 2, 1.0, "relative_conditional"),
        (5, 2, 0.8, "relative_average"),
    ]:
        assert _exact_finite_scgf_grid(
            chain_spectral, n, k, (t,), functional
        )[0] == pytest.approx(
            _exact_scgf_oracle(chain_potential, chain_spectral, n, k, t, functional),
            abs=1e-12,
        )
    # t = 0 is exactly zero: the weights sum to one
    assert bt.exact_finite_scgf(chain_potential, 10, 2, 0.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_exact_finite_scgf_guards(chain_potential, chain_spectral):
    with pytest.raises(ValueError):
        bt.exact_finite_scgf(chain_potential, 4, 5, 0.5)
    with pytest.raises(ValueError):
        bt.exact_finite_scgf(chain_potential, 30, 2, 0.5)  # 2**30 strings
    # a huge n is refused on its exponent, without building 3**n
    phi_a3 = bt.potential_from_config({"type": "bernoulli", "p": [0.2, 0.3, 0.5]})
    with pytest.raises(ValueError):
        bt.exact_finite_scgf(phi_a3, 10**9, 2, 0.5)
    with pytest.raises(ValueError):
        _exact_finite_scgf_grid(chain_spectral, 6, 2, (0.5,), "entropy")
    raw = bt.MarkovPotential(2, 2, np.array([0.1, 0.0, -0.3, 0.2]))
    with pytest.raises(ValueError):
        bt.exact_finite_scgf(raw, 6, 2, 0.5)


def test_exact_finite_scgf_relative_needs_full_support():
    # normalized, but the block 01 has weight exp(-800) == 0 at equilibrium
    phi = bt.potential_from_config(
        {
            "type": "values",
            "alphabet_size": 2,
            "k": 2,
            "values": [0.0, -800.0, math.log(0.5), math.log(0.5)],
        }
    )
    with pytest.raises(ValueError, match="full-support"):
        _exact_finite_scgf_grid(
            bt.pressure(phi, 1.0), 6, 2, (0.5,), "relative_conditional"
        )


#: the golden-mean chain: the word 11 never occurs, so its equilibrium
#: 2-block law (1/3, 1/3, 1/3, 0) misses a word
GOLDEN_MEAN = {
    "type": "values",
    "alphabet_size": 2,
    "k": 2,
    "values": [math.log(0.5), math.log(0.5), 0.0, -800.0],
}


@pytest.mark.parametrize("functional", ["relative_conditional", "relative_average"])
@pytest.mark.parametrize("t", [1.0, -0.5])
def test_mc_scgf_relative_needs_full_support(functional, t):
    # a sample whose wrap-around window is 11 has an infinite divergence,
    # which used to give NaN at t > 0 and be dropped silently at t < 0
    sd = bt.pressure(bt.potential_from_config(GOLDEN_MEAN), 1.0)
    assert bt.equilibrium_blocks(sd, 2).weights[3] == 0.0
    with pytest.raises(ValueError, match="full-support"):
        mc_scgf(sd, 64, 2, t, functional, 64, seed=3)
    assert math.isfinite(mc_scgf(sd, 64, 2, t, "conditional", 64, seed=3).estimate)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_finite_n_scgfs_reject_non_finite_t(chain_potential, chain_spectral, t):
    with pytest.raises(ValueError, match="finite real"):
        bt.exact_finite_scgf(chain_potential, 6, 2, t)
    with pytest.raises(ValueError, match="finite real"):
        mc_scgf(chain_spectral, 64, 2, t, "conditional", 16, seed=3)


@pytest.mark.parametrize("replicas", [0, 1])
def test_replica_stages_need_two_replicas(chain_potential, chain_spectral, replicas):
    # one replica has no spread to give a stderr or a variance from
    with pytest.raises(ValueError, match="at least 2 replicas"):
        mc_scgf(chain_spectral, 64, 2, 0.5, "conditional", replicas, seed=3)
    with pytest.raises(ValueError, match="at least 2 replicas"):
        bt.variance_audit(chain_potential, 64, replicas, 3, sd=chain_spectral)


def test_mc_scgf_basics(chain_spectral):
    out = mc_scgf(chain_spectral, 64, 2, 0.0, "conditional", 16, seed=3)
    assert out.estimate == pytest.approx(0.0, abs=1e-12)
    assert out.stderr == pytest.approx(0.0, abs=1e-12)
    assert not out.high_variance
    # a mild t on short paths stays near the exact finite-n value
    exact = bt.exact_finite_scgf(chain_spectral.potential, 12, 2, 0.3)
    out2 = mc_scgf(chain_spectral, 12, 2, 0.3, "conditional", 4000, seed=4)
    assert out2.estimate == pytest.approx(exact, abs=6 * max(out2.stderr, 1e-4))
    # relative functionals score paths against the equilibrium k-blocks
    flat = mc_scgf(chain_spectral, 64, 2, 0.0, "relative_conditional", 16, seed=3)
    assert flat.estimate == 0.0
    tilted = mc_scgf(chain_spectral, 64, 2, 1.0, "relative_conditional", 16, seed=3)
    assert math.isfinite(tilted.estimate) and math.isfinite(tilted.stderr)
    assert tilted.estimate >= 0.0  # E[exp(n D)] >= 1 for a divergence D >= 0


def test_empirical_rate_hand_histogram():
    centers, rates = bt.empirical_rate([0.1, 0.1, 0.3], n=10, bin_width=0.2)
    np.testing.assert_allclose(centers, [0.1, 0.3], atol=1e-12)
    np.testing.assert_allclose(
        rates, [-math.log(2 / 3) / 10, -math.log(1 / 3) / 10], atol=1e-12
    )
    # interior bins nothing hit carry +inf
    _, gap_rates = bt.empirical_rate([0.1, 0.5], n=10, bin_width=0.2)
    assert math.isinf(gap_rates[1])
    with pytest.raises(ValueError):
        bt.empirical_rate([], n=10, bin_width=0.2)
    with pytest.raises(ValueError):
        bt.empirical_rate([0.1], n=10, bin_width=0.0)


@pytest.mark.parametrize("n", [0, -3])
def test_empirical_rate_needs_positive_n(n):
    with pytest.raises(ValueError, match="positive"):
        bt.empirical_rate([0.1, 0.3], n=n, bin_width=0.2)


def test_decomposition_audit(chain_potential, chain_spectral):
    x = bt.sample_paths(chain_spectral, 4096, seed=77)[0]
    row = bt.decomposition_audit(x, chain_potential, 3, chain_spectral)
    assert row.delta <= 1e-12  # minus a nonnegative divergence
    assert row.lhs == pytest.approx(row.birkhoff + row.delta + row.residual, abs=1e-15)
    assert abs(row.residual) <= row.bound
    assert row.bound == pytest.approx(10 * 3 / 4096, abs=1e-15)
    with pytest.raises(ValueError):
        bt.decomposition_audit(x, chain_potential, 1, chain_spectral)  # k < depth
    # without a spectrum the audit solves its own, to the same row
    assert bt.decomposition_audit(x, chain_potential, 3) == row


#: the uniform chain: normalized, on the reference chain's block space
UNIFORM_CHAIN = {"type": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]]}


def test_stages_refuse_the_spectrum_of_another_potential(
    chain_potential, chain_spectral
):
    x = bt.sample_paths(chain_spectral, 256, seed=77)[0]
    psi = bt.potential_from_config(UNIFORM_CHAIN)
    psi_sd = bt.pressure(psi, 1.0)
    hot = bt.pressure(chain_potential, 2.0)
    for sd in (psi_sd, hot):
        with pytest.raises(ValueError, match="not the spectrum"):
            bt.decomposition_audit(x, chain_potential, 3, sd)
        with pytest.raises(ValueError, match="not the spectrum"):
            bt.variance_audit(chain_potential, 64, 8, 3, sd)
    with pytest.raises(ValueError, match="not the spectrum"):
        _exact_finite_scgf_grid(hot, 8, 2, (0.5,), "conditional")
    # the grid reads its potential off the spectrum, so psi's spectrum is psi's
    assert _exact_finite_scgf_grid(psi_sd, 8, 2, (0.5,), "conditional") == [
        bt.exact_finite_scgf(psi, 8, 2, 0.5)
    ]
    # an equal potential built separately shares the spectrum
    twin = bt.potential_from_config(CHAIN_CONFIG)
    assert twin is not chain_potential
    assert bt.decomposition_audit(x, twin, 3, chain_spectral) == (
        bt.decomposition_audit(x, chain_potential, 3, chain_spectral)
    )
    assert bt.variance_audit(twin, 64, 8, 3, chain_spectral) == (
        bt.variance_audit(chain_potential, 64, 8, 3)
    )


def test_variance_audit(chain_potential, chain_spectral):
    out = bt.variance_audit(chain_potential, 2048, 200, seed=1, sd=chain_spectral)
    assert out.theory == pytest.approx(0.4985408392082033, abs=1e-6)
    assert math.isfinite(out.z)
    assert abs(out.z) < 5.0
    assert out.empirical == pytest.approx(out.theory, rel=0.5)


def test_variance_audit_constant_potential():
    # every path has the same Birkhoff sum, so both variances and z are zero
    phi = bt.potential_from_config({"type": "bernoulli", "p": [0.5, 0.5]})
    out = bt.variance_audit(phi, 64, 8, seed=1)
    assert (out.theory, out.empirical, out.z) == (0.0, 0.0, 0.0)


def test_variance_audit_memory_is_bounded(chain_potential, chain_spectral):
    # replicas come from the sampler in groups of at most 2**20 symbols,
    # and Birkhoff sums run in blocks of 2**16; as one group of 2**22
    # symbols, this call's window codes and potential gather peaked near
    # 69 MiB, and with whole groups of 2**20 symbols near 17 MiB (about
    # 4-5 MiB in blocks)
    tracemalloc.start()
    try:
        bt.variance_audit(chain_potential, 2**16, 64, seed=1, sd=chain_spectral)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak} bytes"


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", ["mc_scgf", "run_lln"])
def test_replica_stages_memory_is_bounded(chain_spectral, stage):
    # 1024 replicas of 4096 symbols (4 Mi symbols) are scored group by
    # group as the sampler yields them; holding them all at once would
    # take 4 MiB of paths and 32 MiB of window codes
    n, replicas = 4096, 1024
    if stage == "mc_scgf":
        peak = _peak_bytes(
            lambda: mc_scgf(chain_spectral, n, 2, 0.5, "conditional", replicas, seed=3)
        )
    else:
        config = bt.ExperimentConfig(
            potential=CHAIN_CONFIG, n_grid=(n,), replicas=replicas, seed=9
        )
        peak = _peak_bytes(lambda: bt.run_lln(config))
    assert peak < 8 << 20, f"peak {peak} bytes"


def test_run_lln_structure(chain_spectral):
    config = bt.ExperimentConfig(
        potential=CHAIN_CONFIG, n_grid=(256, 1024), replicas=8, seed=9
    )
    report = bt.run_lln(config)
    assert len(report.samples) == 16
    assert len(report.lln) == 2
    for row in report.lln:
        assert row.k == bt.block_schedule(row.n, 2, config.epsilon)
        assert row.reference_entropy == pytest.approx(
            chain_spectral.entropy, abs=1e-12
        )
    # per-replica seeds are the stage seed xor the replica index
    seeds = {r.seed for r in report.samples if r.n == 256}
    assert len(seeds) == 8
    # deviations sit at the expected scale on both grids (the decades-long
    # convergence claim is exercised by the acceptance suite at full size)
    for row in report.lln:
        assert 0.0 < row.median_abs_dev < 0.1
        assert abs(row.median_cond - row.reference_entropy) < 0.1


def test_run_ldp_report_files(tmp_path):
    with open("configs/ldp_example.json", encoding="utf-8") as fh:
        config = bt.ExperimentConfig.from_json_dict(json.load(fh))
    report = bt.run_ldp(config)
    paths = bt.write_report(report, str(tmp_path))
    expected_headers = {
        "samples": "n,k,replica,seed,block_entropy,cond_entropy,rel_entropy,rel_cond_entropy",
        "scgf": "t,exact_n,mc,stderr,entropy_scgf,information_scgf",
        "rate": "u,emp_rate,entropy_rate_theory,relative_rate_theory",
        "audit": "n,k,lhs,birkhoff,delta,residual,bound",
    }
    for name, header in expected_headers.items():
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
    with open(paths["report"], encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload) == {"config", "rng", "summary", "timestamp"}
    assert payload["config"] == config.to_json_dict()
    # the frozen reference summary from the shipped example run
    with open("configs/ldp_example.summary.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert payload["rng"] == golden["rng"]
    assert payload["summary"] == golden["summary"]
    # timestamps never leak into the tables
    for name in expected_headers:
        assert "T" not in (tmp_path / f"{name}.csv").read_text().splitlines()[0]
    # the tables are byte-identical to the recorded example run
    digests = {
        name: hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
        for name in EXAMPLE_CSV_SHA256
    }
    assert digests == EXAMPLE_CSV_SHA256


def test_example_rate_levels_solve_in_lockstep(monkeypatch):
    # the example's 24 rate levels replay their bisections together, one
    # stacked solve per round: at most 30 rounds, where solving one level
    # after another took 284 one-beta solves
    with open("configs/ldp_example.json", encoding="utf-8") as fh:
        config = bt.ExperimentConfig.from_json_dict(json.load(fh))
    grids, rounds = [], []
    entropy_rates, spectra = harness._entropy_rates, rates._spectra

    def grid(phi, levels, probe=None):
        grids.append(len(levels))
        monkeypatch.setattr(
            rates, "_spectra", lambda phi, b: rounds.append(b) or spectra(phi, b)
        )
        try:
            return entropy_rates(phi, levels, probe)
        finally:
            monkeypatch.setattr(rates, "_spectra", spectra)

    monkeypatch.setattr(harness, "_entropy_rates", grid)
    bt.run_ldp(config)
    assert grids == [24] and len(rounds) <= 30, len(rounds)


def test_run_ldp_leaves_exact_column_blank_beyond_the_string_cap(tmp_path):
    # A = 3 at the default exact_n = 14: 3**14 strings exceed the 2**22
    # cap, so the exact finite-n SCGF is not enumerated and its cells stay
    # empty, while the Monte Carlo and theory cells are filled
    config = bt.ExperimentConfig(
        potential={
            "type": "markov",
            "transition": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        },
        n_grid=(64, 128),
        replicas=4,
        scgf_n=16,
        scgf_replicas=4,
        variance_n=32,
        variance_replicas=4,
    )
    bt.write_report(bt.run_ldp(config), str(tmp_path))
    header, *rows = (tmp_path / "scgf.csv").read_text().splitlines()
    assert header == "t,exact_n,mc,stderr,entropy_scgf,information_scgf"
    assert len(rows) == len(config.t_grid)
    for row in rows:
        t, exact, mc, _, h_scgf, i_scgf = row.split(",")
        assert exact == ""
        assert all(math.isfinite(float(cell)) for cell in (t, mc, h_scgf, i_scgf))


def test_run_ldp_audit_and_scgf_content(tmp_path):
    config = bt.ExperimentConfig(
        potential=CHAIN_CONFIG,
        n_grid=(128, 512),
        replicas=8,
        t_grid=(-0.5, 0.0, 1.0),
        exact_n=10,
        exact_k=2,
        scgf_n=64,
        scgf_replicas=32,
        variance_n=512,
        variance_replicas=64,
        seed=2,
    )
    report = bt.run_ldp(config)
    assert [row.t for row in report.scgf] == [-0.5, 0.0, 1.0]
    for row in report.scgf:
        assert row.exact is not None
        assert row.entropy_scgf is not None
        # exact finite-n values and the limit SCGF share sign and scale
        assert abs(row.exact - row.entropy_scgf) < 0.2
    zero = report.scgf[1]
    assert zero.exact == pytest.approx(0.0, abs=1e-12)
    assert zero.mc == pytest.approx(0.0, abs=1e-12)
    assert len(report.audit) == len(config.n_grid)
    for row in report.audit:
        assert abs(row.residual) <= row.bound
    assert report.summary["sigma2_theory"] == pytest.approx(
        0.4985408392082033, abs=1e-6
    )