"""Command-line front end.

Subcommands cover the pipeline stages: ``simulate`` writes a seeded sample
path, ``estimate`` runs the plug-in estimators on a sampled or stored path,
``pressure`` prints spectral data for a potential, ``rate`` tabulates the
theoretical cumulant and rate curves, ``types-audit`` cross-checks exact
type-class sizes against their combinatorial bounds, and ``ldp`` runs the
full experiment harness into a report directory.

Every run echoes the resolved configuration and seed as JSON on stdout.
Exit codes: 0 on success, 1 for validation problems (bad config, bad
flags), 2 for numeric failures (non-convergence, reducible transfer
matrix).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .blocks import block_schedule
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blocktropy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--beta", type=float, default=None, help="override beta")
        p.add_argument(
            "--epsilon", type=float, default=None, help="override epsilon"
        )

    p_sim = sub.add_parser("simulate", help="sample one path to a binary file")
    add_common(p_sim)
    p_sim.add_argument("--n", type=int, default=None, help="path length")

    p_est = sub.add_parser("estimate", help="plug-in estimates for one path")
    add_common(p_est)
    p_est.add_argument("--n", type=int, default=None, help="path length")
    p_est.add_argument("--k", type=int, default=None, help="block order")
    p_est.add_argument(
        "--path", default=None, help="estimate a stored path file instead of sampling"
    )

    p_pre = sub.add_parser("pressure", help="spectral data for the potential")
    add_common(p_pre)

    p_rate = sub.add_parser("rate", help="tabulate theory cumulant/rate curves")
    add_common(p_rate)

    p_types = sub.add_parser(
        "types-audit", help="exact type-class sizes vs combinatorial bounds"
    )
    p_types.add_argument("--out", default=".", help="output directory")
    p_types.add_argument("--n", type=int, default=8, help="string length")
    p_types.add_argument("--k", type=int, default=2, help="block order")
    p_types.add_argument("--alphabet", type=int, default=2, help="alphabet size")

    p_ldp = sub.add_parser("ldp", help="run the full experiment harness")
    add_common(p_ldp)
    return parser


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


def _echo(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=float)
    sys.stdout.write("\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    phi, sd = _effective_spectral(config)
    n = args.n if args.n is not None else config.n_grid[-1]
    path = sample_paths(sd, n, config.seed, 1)[0]
    os.makedirs(args.out, exist_ok=True)
    out_file = os.path.join(args.out, "path.bin")
    write_path_file(out_file, path, phi.alphabet_size, config.seed)
    _echo(
        {
            "config": config.to_json_dict(),
            "seed": config.seed,
            "n": n,
            "path_file": out_file,
            "first_symbols": [int(s) for s in path[: min(16, n)]],
        }
    )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    phi, sd = _effective_spectral(config)
    A = phi.alphabet_size
    if args.path is not None:
        try:
            x, file_alphabet, file_seed = read_path_file(args.path)
        except OSError as exc:
            raise _CliError(f"cannot read path file: {exc}") from exc
        if file_alphabet != A:
            raise _CliError("path file alphabet does not match the potential")
        seed = file_seed
    else:
        n = args.n if args.n is not None else config.n_grid[-1]
        x = sample_paths(sd, n, config.seed, 1)[0]
        seed = config.seed
    n = int(x.size)
    k = args.k if args.k is not None else block_schedule(n, A, config.epsilon)
    record = plug_in_estimates(x, k, A, equilibrium_blocks(sd, k))
    _echo(
        {
            "config": config.to_json_dict(),
            "seed": seed,
            "n": n,
            "k": k,
            "block_entropy": record.block_entropy,
            "cond_entropy": record.cond_entropy,
            "rel_entropy": record.rel_entropy,
            "rel_cond_entropy": record.rel_cond_entropy,
            "reference_entropy": sd.entropy,
        }
    )
    return 0


def _cmd_pressure(args: argparse.Namespace) -> int:
    config = _load_config(args)
    phi = potential_from_config(config.potential)
    sd = pressure(phi, config.beta)
    payload = spectral_to_json_dict(sd)
    payload["config"] = config.to_json_dict()
    payload["seed"] = config.seed
    _echo(payload)
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    phi, sd = _effective_spectral(config)
    os.makedirs(args.out, exist_ok=True)
    scgf_rows, rate_rows, (zero_temp, converged) = _theory(config, phi)
    scgf_file = os.path.join(args.out, "scgf_theory.csv")
    _write_csv(
        scgf_file, "t,entropy_scgf,information_scgf,relative_scgf", scgf_rows
    )
    rate_file = os.path.join(args.out, "rate_theory.csv")
    _write_csv(rate_file, "u,entropy_rate_theory,relative_rate_theory", rate_rows)
    _echo(
        {
            "config": config.to_json_dict(),
            "seed": config.seed,
            "entropy": sd.entropy,
            "zero_temperature_entropy": zero_temp,
            "zero_temperature_converged": converged,
            "scgf_file": scgf_file,
            "rate_file": rate_file,
        }
    )
    return 0


def _cmd_types_audit(args: argparse.Namespace) -> int:
    n, k, A = args.n, args.k, args.alphabet
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
    _echo(
        {
            "n": n,
            "k": k,
            "alphabet_size": A,
            "type_count": len(types),
            "audit_file": out_file,
        }
    )
    return 0


def _cmd_ldp(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_ldp(config)
    paths = write_report(report, args.out)
    _echo(
        {
            "config": config.to_json_dict(),
            "seed": config.seed,
            "outputs": paths,
            "summary": report.summary,
        }
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "pressure": _cmd_pressure,
    "rate": _cmd_rate,
    "types-audit": _cmd_types_audit,
    "ldp": _cmd_ldp,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConvergenceError, ReducibilityError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
