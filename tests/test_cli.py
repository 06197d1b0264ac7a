"""Command-line interface: exit codes, file outputs, overrides."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import blocktropy as bt
from blocktropy import rates
from blocktropy.cli import main

from conftest import CHAIN_CONFIG, CHAIN_ENTROPY


@pytest.fixture()
def config_file(tmp_path):
    target = tmp_path / "config.json"
    target.write_text(
        json.dumps(
            {
                "potential": CHAIN_CONFIG,
                "seed": 11,
                "n_grid": [64, 256],
                "replicas": 4,
                "t_grid": [-0.5, 0.0, 1.0],
                "exact_n": 8,
                "exact_k": 2,
                "scgf_n": 32,
                "scgf_replicas": 8,
                "variance_n": 256,
                "variance_replicas": 16,
            }
        )
    )
    return str(target)


def test_pressure_echo(config_file, capsys):
    assert main(["pressure", "--config", config_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pressure"] == pytest.approx(0.0, abs=1e-12)
    assert payload["entropy"] == pytest.approx(0.38352279010702806, abs=1e-12)
    assert payload["seed"] == 11


def test_exit_code_bad_flag_value(config_file, capsys):
    assert main(["estimate", "--config", config_file, "--epsilon", "1.5"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--epsilon", "0.3"),
        ("estimate", "--out", "."),
        ("pressure", "--out", "."),
        ("pressure", "--seed", "3"),
        ("pressure", "--epsilon", "0.3"),
        ("rate", "--seed", "3"),
        ("rate", "--epsilon", "0.3"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(
    config_file, capsys, command, flag, value
):
    assert main([command, "--config", config_file, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments")


def test_exit_code_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"potential": CHAIN_CONFIG, "rho": 3}))
    assert main(["pressure", "--config", str(bad)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path, capsys):
    assert main(["pressure", "--config", str(tmp_path / "none.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_exit_code_malformed_json(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["pressure", "--config", str(broken)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_exit_code_config_not_an_object(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([{"potential": CHAIN_CONFIG}]))
    assert main(["pressure", "--config", str(listed)]) == 1
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


@pytest.mark.parametrize(
    "entries",
    [
        {"potential": {"type": "markov"}},
        {"potential": {"type": "values", "alphabet_size": 2, "k": 2}},
        {"n_grid": 5},
        {"n_grid": "64"},
        {"replicas": "3"},
        {"seed": 1.5},
        {"beta": "x"},
        {"epsilon": None},
        {"bin_width": True},
        {"t_grid": ["a"]},
        {"u_grid": [0.1, None]},
        {"u_grid": [math.nan, 0.3]},
        {"t_grid": [math.nan]},
        {"t_grid": [math.inf]},
        {"t_grid": [10**400]},  # a JSON integer past float range
        {"beta": 10**400},
        {"potential": {**CHAIN_CONFIG, "tranistion_typo": 1}},
        {"potential": {**CHAIN_CONFIG, "beta": 2}},
        {"potential": {**CHAIN_CONFIG, "normalized": "yes"}},
        {"potential": {"type": "markov", "transition": {"a": 1}}},
        {"potential": {"type": "bernoulli", "p": {"a": 1}}},
        {"potential": {"type": "values", "alphabet_size": 2, "k": 1, "values": {"a": 1}}},
    ],
)
def test_exit_code_malformed_config(tmp_path, capsys, entries):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"potential": CHAIN_CONFIG, **entries}))
    out = str(tmp_path / "out")
    for argv in (["ldp", "--out", out], ["rate", "--out", out], ["pressure"]):
        assert main([*argv, "--config", str(bad)]) == 1, argv
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_numeric_failure(config_file, capsys):
    assert main(["pressure", "--config", config_file, "--beta", "10000"]) == 2
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries",
    [
        {"k": 0, "values": [0.0]},
        {"alphabet_size": None},
        {"alphabet_size": 2.7},
        {"values": [0.0, 0.0], "normalize": "no"},
    ],
)
def test_values_potential_entry_types_exit_1(tmp_path, capsys, entries):
    # integer alphabet_size and k, boolean normalize; nothing is coerced
    fair = {"type": "values", "alphabet_size": 2, "k": 1, "values": [-math.log(2)] * 2}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"potential": {**fair, **entries}}))
    assert main(["pressure", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_failed_property_checks_exit_2(config_file, tmp_path, capsys, monkeypatch):
    # normalize_potential: the row log-sum-exp rounds away at 1e17
    huge = tmp_path / "huge.json"
    potential = {"type": "values", "alphabet_size": 2, "k": 1, "values": [1e17, 1e17]}
    huge.write_text(json.dumps({"potential": {**potential, "normalize": True}}))
    assert main(["pressure", "--config", str(huge)]) == 2
    assert "do not sum to one" in capsys.readouterr().err
    # pressure: a stationary solve that returns the wrong vertex law
    solve = np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda lhs, rhs: solve(lhs, rhs) * [1.0, 1.01]
    )
    assert main(["pressure", "--config", config_file]) == 2
    assert "not stationary" in capsys.readouterr().err


def test_exit_code_cli_usage_error(config_file, capsys):
    # argparse errors are downgraded to exit 1 instead of SystemExit
    assert main(["pressure"]) == 1
    capsys.readouterr()


def test_simulate_estimate_round_trip(config_file, tmp_path, capsys):
    out_dir = str(tmp_path / "sim")
    assert main(["simulate", "--config", config_file, "--out", out_dir, "--n", "500"]) == 0
    sim = json.loads(capsys.readouterr().out)
    assert sim["n"] == 500 and len(sim["first_symbols"]) == 16
    assert (
        main(
            ["estimate", "--config", config_file, "--path", sim["path_file"], "--k", "2"]
        )
        == 0
    )
    est = json.loads(capsys.readouterr().out)
    assert est["n"] == 500 and est["k"] == 2
    assert est["seed"] == 11  # carried through the path file
    assert est["rel_cond_entropy"] >= -1e-12
    assert abs(est["cond_entropy"] - est["reference_entropy"]) < 0.2
    # --n route without a file agrees on the record structure
    assert main(["estimate", "--config", config_file, "--n", "300"]) == 0
    est2 = json.loads(capsys.readouterr().out)
    assert est2["n"] == 300
    assert est2["k"] == 6  # schedule at n=300, eps=0.2


@pytest.mark.parametrize(
    "n, k, message",
    [
        ("100", "0", "need 1 <= k <= n"),
        ("100", "-1", "need 1 <= k <= n"),
        ("100", "200", "need 1 <= k <= n"),
        ("100", "40", "A**k <= 2**24"),
        ("100", "25", "A**k <= 2**24"),
    ],
)
def test_estimate_block_order_is_checked_first(config_file, capsys, n, k, message):
    # k is refused before any k-block array exists: 2**40 words would not fit
    assert main(["estimate", "--config", config_file, "--n", n, "--k", k]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_simulate_path_shorter_than_memory(config_file, tmp_path, capsys):
    out_dir = str(tmp_path / "sim")
    assert main(["simulate", "--config", config_file, "--out", out_dir, "--n", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_alphabet_mismatch(config_file, tmp_path, capsys):
    other = tmp_path / "trit.json"
    other.write_text(
        json.dumps(
            {
                "potential": {"type": "bernoulli", "p": [0.2, 0.3, 0.5]},
                "seed": 1,
            }
        )
    )
    out_dir = str(tmp_path / "sim3")
    assert main(["simulate", "--config", str(other), "--out", out_dir, "--n", "64"]) == 0
    sim = json.loads(capsys.readouterr().out)
    assert main(["estimate", "--config", config_file, "--path", sim["path_file"]]) == 1
    assert "alphabet" in capsys.readouterr().err


def test_estimate_unreadable_path_file(config_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.bin")
    assert main(["estimate", "--config", config_file, "--path", missing]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read path file")
    out_dir = str(tmp_path / "sim4")
    assert main(["simulate", "--config", config_file, "--out", out_dir, "--n", "64"]) == 0
    sim = json.loads(capsys.readouterr().out)
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(Path(sim["path_file"]).read_bytes()[:10])
    assert main(["estimate", "--config", config_file, "--path", str(truncated)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_rate_outputs(config_file, tmp_path, capsys):
    out_dir = tmp_path / "rate"
    assert main(["rate", "--config", config_file, "--out", str(out_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zero_temperature_converged"] is True
    assert abs(payload["zero_temperature_entropy"]) < 1e-6
    scgf_lines = (out_dir / "scgf_theory.csv").read_text().splitlines()
    assert scgf_lines[0] == "t,entropy_scgf,information_scgf,relative_scgf"
    assert len(scgf_lines) == 4  # header + three t points
    t0 = dict(zip(scgf_lines[0].split(","), scgf_lines[2].split(",")))
    assert float(t0["t"]) == 0.0
    assert float(t0["entropy_scgf"]) == pytest.approx(0.0, abs=1e-12)
    rate_lines = (out_dir / "rate_theory.csv").read_text().splitlines()
    assert rate_lines[0] == "u,entropy_rate_theory,relative_rate_theory"
    assert len(rate_lines) == 22  # default 21-point grid


def test_beta_override_folds_into_the_potential(config_file, tmp_path, capsys):
    out_dir = str(tmp_path / "rate")
    assert main(["rate", "--config", config_file, "--out", out_dir, "--beta", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    phi = bt.potential_from_config(CHAIN_CONFIG)
    assert payload["entropy"] == pytest.approx(bt.pressure(phi, 2.0).entropy, abs=1e-12)
    assert payload["entropy"] != pytest.approx(CHAIN_ENTROPY, abs=1e-3)
    out_dir = str(tmp_path / "ldp")
    assert main(["ldp", "--config", config_file, "--out", out_dir, "--beta", "2"]) == 0
    capsys.readouterr()


def test_rate_and_ldp_tabulate_the_same_theory(config_file, tmp_path, capsys):
    with open(config_file, encoding="utf-8") as fh:
        config = json.load(fh)
    config["u_grid"] = [0.5, 0.1, 0.1, -0.2, 0.9]  # unsorted, a duplicate, u < 0
    levels_file = tmp_path / "levels.json"
    levels_file.write_text(json.dumps(config))
    rate_dir, ldp_dir = tmp_path / "rate", tmp_path / "ldp"
    assert main(["rate", "--config", str(levels_file), "--out", str(rate_dir)]) == 0
    assert main(["ldp", "--config", str(levels_file), "--out", str(ldp_dir)]) == 0
    capsys.readouterr()

    def rows(path):
        lines = path.read_text().splitlines()
        return [line.split(",") for line in lines[1:]]

    theory = rows(rate_dir / "rate_theory.csv")
    assert [float(row[0]) for row in theory] == [-0.2, 0.1, 0.5, 0.9]
    assert theory[0][1:] == ["inf", "inf"]
    merged = {row[0]: [row[0], *row[2:]] for row in rows(ldp_dir / "rate.csv")}
    for row in theory:
        assert merged[row[0]] == row
    scgf_theory = rows(rate_dir / "scgf_theory.csv")
    scgf = rows(ldp_dir / "scgf.csv")
    assert [row[:3] for row in scgf_theory] == [[row[0], *row[4:]] for row in scgf]


def test_example_runs_probe_the_tilt_once(tmp_path, monkeypatch, capsys):
    betas = []
    solve = rates.pressure

    def counted(phi, beta):
        betas.append(beta)
        return solve(phi, beta)

    monkeypatch.setattr(rates, "pressure", counted)
    for command in ("ldp", "rate"):
        betas.clear()
        out_dir = str(tmp_path / command)
        argv = [command, "--config", "configs/ldp_example.json", "--out", out_dir]
        assert main(argv) == 0
        assert betas.count(256.0) == 1, command
    capsys.readouterr()


#: sha256 of the theory tables ``blocktropy rate`` writes for the example
#: config, recorded before those tables moved onto the shared CSV writer.
EXAMPLE_THEORY_SHA256 = {
    "scgf_theory.csv": "eafebbb6cedc864ebc53aa35b0b95ba953a04bde5ab2cc1ab546f9f2700e1962",
    "rate_theory.csv": "b7ddcf9821ec22563e58f0decef264f18081dde32b21aa4e54e0312993f10389",
}


def test_rate_outputs_example_digests(tmp_path, capsys):
    out_dir = tmp_path / "rate"
    argv = ["rate", "--config", "configs/ldp_example.json", "--out", str(out_dir)]
    assert main(argv) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXAMPLE_THEORY_SHA256
    }
    assert digests == EXAMPLE_THEORY_SHA256


def test_types_audit_output(tmp_path, capsys):
    out_dir = tmp_path / "types"
    assert main(
        ["types-audit", "--out", str(out_dir), "--n", "4", "--k", "2", "--alphabet", "2"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = (out_dir / "types_audit.csv").read_text().splitlines()
    assert lines[0] == "n,k,type_id,exact_size,euler_lo,euler_hi,entropy_lo,entropy_hi"
    assert payload["type_count"] == len(lines) - 1
    total = 0
    for line in lines[1:]:
        cells = line.split(",")
        exact = int(cells[3])
        assert float(cells[4]) <= exact <= float(cells[5])
        assert float(cells[6]) <= exact <= float(cells[7])
        total += exact
    assert total == 2**4  # every string belongs to exactly one type
    # the type census refuses 2**25 strings before it enumerates any
    assert main(["types-audit", "--out", str(out_dir), "--n", "25"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # exact sizes reach as far as the census does: 2**18 strings
    wide_dir = tmp_path / "wide"
    assert main(["types-audit", "--out", str(wide_dir), "--n", "18"]) == 0
    capsys.readouterr()
    wide = (wide_dir / "types_audit.csv").read_text().splitlines()[1:]
    assert sum(int(line.split(",")[3]) for line in wide) == 2**18
    for flag, value in (("--alphabet", "1"), ("--alphabet", "0"), ("--k", "-1")):
        assert main(["types-audit", flag, value]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_ldp_files_and_seed_override(config_file, tmp_path, capsys):
    out_dir = tmp_path / "ldp"
    assert (
        main(["ldp", "--config", config_file, "--out", str(out_dir), "--seed", "99"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 99
    assert payload["config"]["seed"] == 99
    for name in ("report.json", "samples.csv", "scgf.csv", "rate.csv", "audit.csv"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["seed"] == 99
    assert math.isfinite(report["summary"]["sigma2_empirical"])