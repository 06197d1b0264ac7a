"""Command-line front end.

Subcommands cover the pipeline stages: ``simulate`` writes a seeded sample
path, ``estimate`` runs the plug-in estimators on a sampled or stored path,
``pressure`` prints spectral data for a potential, ``rate`` tabulates the
theoretical cumulant and rate curves, ``types-audit`` cross-checks exact
type-class sizes against their combinatorial bounds, and ``ldp`` runs the
full experiment harness into a report directory.

Each subcommand accepts only the flags it reads and prints one JSON object
on stdout: runs that read a ``--config`` echo the resolved configuration
and seed with their results, and ``types-audit`` echoes its n, k and
alphabet size.
Exit codes: 0 on success, 1 for validation problems (bad config, bad
flags), 2 for numeric failures (non-convergence, reducible transfer
matrix).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .blocks import _MAX_WORDS, _too_many_strings, block_schedule
from .entropy import plug_in_estimates
from .harness import (
    ExperimentConfig,
    _effective_spectral,
    _theory,
    _write_csv,
    potential_from_config,
    run_ldp,
    write_report,
)
from .pressure import (
    ConvergenceError,
    ReducibilityError,
    equilibrium_blocks,
    pressure,
    spectral_to_json_dict,
)
from .simulate import read_path_file, sample_paths, write_path_file
from .typegraphs import CountTable, enumerate_types, type_class_size

__all__ = ["build_parser", "main"]


class _CliError(ValueError):
    """Validation failure surfaced as exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _CliError("config must be a JSON object")
    for key in ("seed", "beta", "epsilon"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    return ExperimentConfig.from_json_dict(data)


def _sample_one(args: argparse.Namespace, config: ExperimentConfig, sd) -> np.ndarray:
    """One path at the config's seed, of length ``--n`` or the largest n_grid."""
    n = args.n if args.n is not None else config.n_grid[-1]
    return sample_paths(sd, n, config.seed, 1)[0]


def _cmd_simulate(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    phi, sd = _effective_spectral(config)
    path = _sample_one(args, config, sd)
    os.makedirs(args.out, exist_ok=True)
    out_file = os.path.join(args.out, "path.bin")
    write_path_file(out_file, path, phi.alphabet_size, config.seed)
    first = [int(s) for s in path[:16]]
    return {"n": path.size, "path_file": out_file, "first_symbols": first}


def _cmd_estimate(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    phi, sd = _effective_spectral(config)
    A = phi.alphabet_size
    if args.path is not None:
        try:
            x, file_alphabet, seed = read_path_file(args.path)
        except OSError as exc:
            raise _CliError(f"cannot read path file: {exc}") from exc
        if file_alphabet != A:
            raise _CliError("path file alphabet does not match the potential")
    else:
        x, seed = _sample_one(args, config, sd), config.seed
    n = int(x.size)
    k = args.k if args.k is not None else block_schedule(n, A, config.epsilon)
    if not 1 <= k <= n:
        raise _CliError(f"need 1 <= k <= n, got k={k}, n={n}")
    if _too_many_strings(A, k, _MAX_WORDS):
        raise _CliError("block order limited to A**k <= 2**24 words")
    record = plug_in_estimates(x, k, A, equilibrium_blocks(sd, k))
    return {"seed": seed, **dataclasses.asdict(record), "reference_entropy": sd.entropy}


def _cmd_pressure(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    phi = potential_from_config(config.potential)
    return spectral_to_json_dict(pressure(phi, config.beta))


def _cmd_rate(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    phi, sd = _effective_spectral(config)
    os.makedirs(args.out, exist_ok=True)
    scgf_rows, rate_rows, (zero_temp, converged) = _theory(config, phi)
    scgf_file = os.path.join(args.out, "scgf_theory.csv")
    _write_csv(
        scgf_file, "t,entropy_scgf,information_scgf,relative_scgf", scgf_rows
    )
    rate_file = os.path.join(args.out, "rate_theory.csv")
    _write_csv(rate_file, "u,entropy_rate_theory,relative_rate_theory", rate_rows)
    return {
        "entropy": sd.entropy,
        "zero_temperature_entropy": zero_temp,
        "zero_temperature_converged": converged,
        "scgf_file": scgf_file,
        "rate_file": rate_file,
    }


def _cmd_types_audit(args: argparse.Namespace, config: None) -> dict:
    n = 8 if args.n is None else args.n
    k = 2 if args.k is None else args.k
    A = args.alphabet
    os.makedirs(args.out, exist_ok=True)
    out_file = os.path.join(args.out, "types_audit.csv")
    types = enumerate_types(n, k, A)
    rows = []
    for type_id, nu in enumerate(types):
        counts = np.rint(nu.weights * n).astype(np.int64)
        table = CountTable(A, k, n, counts)
        exact = type_class_size(table, mode="exact")
        bounds = type_class_size(table, mode="bounds")
        rows.append(
            (n, k, type_id, exact, bounds.euler_lower, bounds.euler_upper,
             bounds.entropy_lower, bounds.entropy_upper)
        )
    _write_csv(
        out_file,
        "n,k,type_id,exact_size,euler_lo,euler_hi,entropy_lo,entropy_hi",
        rows,
    )
    return {
        "n": n,
        "k": k,
        "alphabet_size": A,
        "type_count": len(types),
        "audit_file": out_file,
    }


def _cmd_ldp(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    report = run_ldp(config)
    return {"outputs": write_report(report, args.out), "summary": report.summary}


#: Every flag a subcommand may read, as ``add_argument`` keywords.
_FLAGS = {
    "config": dict(required=True, help="experiment JSON file"),
    "out": dict(default=".", help="output directory"),
    "seed": dict(type=int, help="override seed"),
    "beta": dict(type=float, help="override beta"),
    "epsilon": dict(type=float, help="override epsilon"),
    "n": dict(type=int, help="path or string length (types-audit default 8)"),
    "k": dict(type=int, help="block order (types-audit default 2)"),
    "path": dict(help="estimate a stored path file instead of sampling"),
    "alphabet": dict(type=int, default=2, help="alphabet size"),
}

#: name -> (command, help line, the flags it reads).
_COMMANDS = {
    "simulate": (
        _cmd_simulate, "sample one path to a binary file", "config out seed beta n"
    ),
    "estimate": (
        _cmd_estimate,
        "plug-in estimates for one path",
        "config seed beta epsilon n k path",
    ),
    "pressure": (_cmd_pressure, "spectral data for the potential", "config beta"),
    "rate": (_cmd_rate, "tabulate theory cumulant/rate curves", "config out beta"),
    "types-audit": (
        _cmd_types_audit,
        "exact type-class sizes vs combinatorial bounds",
        "out n k alphabet",
    ),
    "ldp": (
        _cmd_ldp, "run the full experiment harness", "config out seed beta epsilon"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blocktropy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command, _, flags = _COMMANDS[args.command]
        if "config" in flags.split():
            config = _load_config(args)
            echo = {"config": config.to_json_dict(), "seed": config.seed}
            payload = {**echo, **command(args, config)}
        else:
            payload = command(args, None)
    except (ConvergenceError, ReducibilityError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=float)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
