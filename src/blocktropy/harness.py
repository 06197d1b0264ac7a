"""End-to-end experiment harness.

Wires the sampler, the plug-in estimators, and the spectral theory into one
reproducible pipeline: draw seeded equilibrium paths over a grid of lengths,
estimate block/conditional/relative entropies against the exact equilibrium
references, compare scaled-cumulant curves three ways (exhaustive finite-n
enumeration, Monte Carlo, spectral formula), histogram estimates into
empirical rate points, and run decomposition/variance audits.  Everything is
driven by a single JSON-serializable ExperimentConfig and lands in a report
directory as report.json plus four CSV tables.

Seed discipline: every stage derives its generator seed from the master seed
via a fixed 64-bit mix of a stage tag and the path length, and each table row
records the exact per-replica seed that produced it.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, astuple, dataclass, field, fields
from datetime import datetime, timezone
from typing import Callable, Mapping, Optional, Sequence, cast

import numpy as np

from .blocks import (
    _MAX_WORDS,
    _is_int,
    _require_int,
    _too_many_strings,
    block_counts,
    block_schedule,
    window_codes,
)
from .entropy import (
    MEASURE_FUNCTIONALS,
    EntropyRecord,
    functionals_from_counts,
    plug_in_estimates,
    select_functional,
)
from .pressure import (
    MarkovPotential,
    SpectralData,
    _require_normalized,
    equilibrium_blocks,
    normalize_potential,
    pressure,
)
from .rates import (
    _entropy_rates,
    _largest_feasible_tilt,
    _poisson_variance,
    _scgf_columns,
    _zero_temperature,
    relative_rate_function,
    relative_scgf,
)
from .simulate import RNG_NAME, _replica_groups, birkhoff_sums
from .typegraphs import _chunked_count_matrices

__all__ = [
    "AuditRow",
    "ExperimentConfig",
    "LdpReport",
    "LlnSummary",
    "McScgf",
    "RateRow",
    "SampleRow",
    "ScgfRow",
    "VarianceAudit",
    "decomposition_audit",
    "empirical_rate",
    "exact_finite_scgf",
    "mc_scgf",
    "potential_from_config",
    "run_ldp",
    "run_lln",
    "variance_audit",
    "write_report",
]

_MASK64 = (1 << 64) - 1
_EXACT_STRING_CAP = 1 << 22
_STAGE_LLN = 1
_STAGE_SCGF = 2
_STAGE_VARIANCE = 3


def _is_real(value: object) -> bool:
    """True for finite Python and numpy reals (integers included), False
    for nan, infinities, integers past float range, bool, None and str."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one full experiment run."""

    potential: Mapping[str, object]
    seed: int = 20260816
    beta: float = 1.0
    epsilon: float = 0.2
    n_grid: tuple[int, ...] = (512, 2048, 8192)
    replicas: int = 64
    t_grid: tuple[float, ...] = (-0.5, -0.25, 0.0, 0.5, 1.0, 2.0)
    u_grid: tuple[float, ...] = ()
    functional: str = "conditional"
    exact_n: int = 14
    exact_k: int = 2
    scgf_n: int = 256
    scgf_replicas: int = 512
    bin_width: float = 0.02
    variance_n: int = 4096
    variance_replicas: int = 500

    def __post_init__(self) -> None:
        if not isinstance(self.potential, Mapping):
            raise ValueError("potential must be a mapping")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        for name, is_entry, kind in _GRID_FIELDS:
            grid = getattr(self, name)
            if not isinstance(grid, Sequence) or not all(map(is_entry, grid)):
                raise ValueError(f"{name} must list {kind}, got {grid!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if any(n < 2 for n in self.n_grid):
            raise ValueError("every n in n_grid must be at least 2")
        if any(b >= a for b, a in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if not self.t_grid:
            raise ValueError("t_grid must be nonempty")
        if self.functional not in MEASURE_FUNCTIONALS:
            raise ValueError(f"unknown functional {self.functional!r}")
        if self.exact_k < 1 or self.exact_n < self.exact_k:
            raise ValueError("need exact_n >= exact_k >= 1")
        if self.scgf_n < self.exact_k:
            raise ValueError("scgf_n must be at least exact_k")
        if self.scgf_replicas < 2:
            raise ValueError("scgf_replicas must be at least 2")
        if not self.bin_width > 0:
            raise ValueError("bin_width must be positive")
        if self.variance_n < 2 or self.variance_replicas < 2:
            raise ValueError("variance stage needs n >= 2 and replicas >= 2")

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "ExperimentConfig":
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "potential" not in data:
            raise ValueError("config requires a potential entry")
        kwargs = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        }
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_json_dict(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for key in _CONFIG_KEYS:
            value = getattr(self, key)
            out[key] = list(value) if isinstance(value, tuple) else value
        out["potential"] = dict(self.potential)
        return out


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_INT_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.type == "int")
_REAL_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.type == "float")
_GRID_FIELDS = (
    ("n_grid", _is_int, "integers"),
    ("t_grid", _is_real, "finite real numbers"),
    ("u_grid", _is_real, "finite real numbers"),
)


#: The keys each potential form reads.  Every form also accepts a boolean
#: "normalized", which changes nothing: normalized values are detected.
_POTENTIAL_KEYS = {
    "markov": {"type", "normalized", "transition"},
    "bernoulli": {"type", "normalized", "p"},
    "values": {"type", "normalized", "alphabet_size", "k", "values", "normalize"},
}


def _log_stochastic(rows: np.ndarray) -> np.ndarray:
    """Log of a row-stochastic matrix with strictly positive entries and
    rows summing to 1 within 1e-9, renormalized."""
    if np.any(rows <= 0):
        raise ValueError("probabilities must be strictly positive")
    if np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("probabilities must sum to 1 in every row")
    return np.log(rows / rows.sum(axis=1, keepdims=True))


def potential_from_config(spec: Mapping[str, object]) -> MarkovPotential:
    """Build a normalized potential from its JSON description.

    Forms: {"type": "markov", "transition": rows} for a k=2 chain potential
    ln P[a, b]; {"type": "bernoulli", "p": probs} for k=1; or
    {"type": "values", "alphabet_size": A, "k": k, "values": [...]} with
    integer A and k, which must already sum to one row-wise in exponential
    (within 1e-8) unless the boolean "normalize" is true and folds the
    correction in here.  A boolean "normalized" key is accepted on every
    form and changes nothing: normalized values are detected.  Any other
    key is refused.
    """
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _POTENTIAL_KEYS:
        raise ValueError(f"unknown potential type {kind!r}")
    unknown = sorted(set(spec) - _POTENTIAL_KEYS[kind])
    if unknown:
        raise ValueError(f"unknown {kind} potential keys: {', '.join(unknown)}")
    for flag in ("normalize", "normalized"):
        if not isinstance(spec.get(flag, False), bool):
            raise ValueError(f"{flag} must be true or false, got {spec[flag]!r}")

    def entry(key: str) -> object:
        if key not in spec:
            raise ValueError(f"{kind} potential needs a {key!r} entry")
        return spec[key]

    def numbers(key: str) -> np.ndarray:
        value = entry(key)
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{key} must hold numbers, got {value!r}") from None

    if kind == "markov":
        rows = numbers("transition")
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError("transition must be a square matrix")
        return MarkovPotential(rows.shape[0], 2, _log_stochastic(rows).ravel())
    if kind == "bernoulli":
        p = numbers("p")
        if p.ndim != 1:
            raise ValueError("p must be a flat list of probabilities")
        return MarkovPotential(p.size, 1, _log_stochastic(p[None, :])[0])
    raw = MarkovPotential(entry("alphabet_size"), entry("k"), numbers("values"))
    if spec.get("normalize", False):
        return normalize_potential(raw)[0]
    if raw.normalized:
        return raw
    raise ValueError(
        "potential values are not normalized; set \"normalize\": true "
        "to fold the correction in"
    )


def _effective_spectral(
    config: ExperimentConfig,
) -> tuple[MarkovPotential, SpectralData]:
    """Resolve the config to a normalized potential (with beta folded in)
    and its spectral data at inverse temperature 1."""
    phi = potential_from_config(config.potential)
    if config.beta != 1.0:
        raw = MarkovPotential(
            phi.alphabet_size, phi.k, config.beta * phi.values
        )
        phi = normalize_potential(raw)[0]
    return phi, pressure(phi, 1.0)


def _stage_seed(seed: int, stage: int, n: int) -> int:
    """Deterministic 64-bit stream selector: one stream per (stage, n)."""
    mixed = (stage * 0x9E3779B97F4A7C15 + n * 0xBF58476D1CE4E5B9) & _MASK64
    return (seed ^ mixed) & _MASK64


@dataclass(frozen=True)
class SampleRow:
    n: int
    k: int
    replica: int
    seed: int
    record: EntropyRecord


@dataclass(frozen=True)
class LlnSummary:
    n: int
    k: int
    mean_abs_dev: float
    median_abs_dev: float
    median_cond: float
    reference_entropy: float


@dataclass(frozen=True)
class McScgf:
    estimate: float
    stderr: float
    high_variance: bool


@dataclass(frozen=True)
class ScgfRow:
    t: float
    exact: Optional[float]
    mc: float
    stderr: float
    high_variance: bool
    entropy_scgf: float
    information_scgf: float


@dataclass(frozen=True)
class RateRow:
    u: float
    empirical: Optional[float]
    entropy_rate: float
    relative_rate: float


@dataclass(frozen=True)
class AuditRow:
    n: int
    k: int
    lhs: float
    birkhoff: float
    delta: float
    residual: float
    bound: float


@dataclass(frozen=True)
class VarianceAudit:
    theory: float
    empirical: float
    z: float


@dataclass(frozen=True)
class LdpReport:
    config: ExperimentConfig
    samples: tuple[SampleRow, ...] = ()
    lln: tuple[LlnSummary, ...] = ()
    scgf: tuple[ScgfRow, ...] = ()
    rate: tuple[RateRow, ...] = ()
    audit: tuple[AuditRow, ...] = ()
    variance: Optional[VarianceAudit] = None
    summary: Mapping[str, object] = field(default_factory=dict)


def run_lln(config: ExperimentConfig) -> LdpReport:
    """Estimate entropies over the n-grid and summarize the convergence.

    For each path length n the block order is k(n) from the schedule, every
    replica gets its own recorded seed, and the per-replica records carry
    all four plug-in estimates against the exact equilibrium k-blocks.
    """
    return _run_lln(config, _effective_spectral(config)[1])[0]


def _run_lln(
    config: ExperimentConfig, sd: SpectralData
) -> tuple[LdpReport, list[np.ndarray]]:
    """:func:`run_lln` on the config's resolved spectrum ``sd``, and the
    path of replica 0 at each n of the grid."""
    A = sd.potential.alphabet_size
    samples: list[SampleRow] = []
    summaries: list[LlnSummary] = []
    first_paths: list[np.ndarray] = []
    for n in config.n_grid:
        k = block_schedule(n, A, config.epsilon)
        rho_k = equilibrium_blocks(sd, k)
        seed_n = _stage_seed(config.seed, _STAGE_LLN, n)
        parts = []
        for paths in _replica_groups(sd, n, seed_n, config.replicas):
            parts.append(functionals_from_counts(block_counts(paths, k, A), k, rho_k))
            if len(parts) == 1:
                first_paths.append(paths[0].copy())
        values = np.concatenate(parts)
        samples.extend(
            SampleRow(n, k, r, (seed_n ^ r) & _MASK64, EntropyRecord(n, k, *row))
            for r, row in enumerate(values.tolist())
        )
        conds = values[:, 1]
        devs = np.abs(conds - sd.entropy)
        summaries.append(
            LlnSummary(
                n=n,
                k=k,
                mean_abs_dev=float(np.mean(devs)),
                median_abs_dev=float(np.median(devs)),
                median_cond=float(np.median(conds)),
                reference_entropy=sd.entropy,
            )
        )
    report = LdpReport(config=config, samples=tuple(samples), lln=tuple(summaries))
    return report, first_paths


def _logsumexp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    top = float(np.max(values))
    if not math.isfinite(top):
        return top  # all -inf (or a genuine +inf dominates everything)
    return top + math.log(float(np.exp(values - top).sum()))


def _spectrum(phi: MarkovPotential, sd: Optional[SpectralData]) -> SpectralData:
    """The spectrum of the normalized ``phi`` at beta = 1: solved when ``sd``
    is None, else ``sd`` itself, which must be that spectrum (a potential
    with the same alphabet, order and values); any other raises ValueError."""
    _require_normalized(phi)
    if sd is None:
        return pressure(phi, 1.0)
    # equal alphabets and equal value vectors (A**k entries) mean equal k
    if sd.beta != 1.0 or not (
        sd.potential.alphabet_size == phi.alphabet_size
        and np.array_equal(sd.potential.values, phi.values)
    ):
        raise ValueError("sd is not the spectrum of this potential at beta = 1")
    return sd


def exact_finite_scgf(phi: MarkovPotential, n: int, k: int, t: float) -> float:
    """Exhaustive finite-n scaled cumulant generating value.

    Enumerates every string of length n, weights it by its exact equilibrium
    probability, and returns (1/n) ln E[exp(n t F)] for the conditional
    block entropy F computed from cyclic k-block counts.  Feasible only
    while A**n stays at or below 2**22 strings.
    """
    return _exact_finite_scgf_grid(_spectrum(phi, None), n, k, (t,), "conditional")[0]


def _exact_finite_scgf_grid(
    sd: SpectralData,
    n: int,
    k: int,
    t_grid: Sequence[float],
    functional: str,
) -> list[float]:
    """``exact_finite_scgf`` at every t of a grid from one enumeration, for
    any estimate functional, on the potential of the beta = 1 spectrum
    ``sd``.

    The strings, their counts, functionals and masses do not depend on t, so
    each chunk is enumerated once and summed once per t.
    """
    phi = _spectrum(sd.potential, sd).potential  # normalized, at beta = 1
    A = phi.alphabet_size
    if not all(map(_is_real, t_grid)):
        raise ValueError("t must be a finite real number")
    _require_int("path length n", n, 1)
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if _too_many_strings(A, n, _EXACT_STRING_CAP):
        raise ValueError("alphabet**n exceeds the exhaustive enumeration cap")

    rho_k = equilibrium_blocks(sd, k)
    d = phi.k
    with np.errstate(divide="ignore"):
        log_q = np.log(sd.vertex_stationary)
        log_kernel = np.log(sd.kernel).ravel()

    chunk_sums: list[list[float]] = [[] for _ in t_grid]
    mass_sums: list[float] = []
    for x, counts in _chunked_count_matrices(n, k, A):
        f_vals = select_functional(functional, counts, k, rho_k)
        path_codes = window_codes(x, d, A)
        log_mass = log_q[path_codes[:, 0] // A] + log_kernel[path_codes].sum(
            axis=1
        )
        for sums, t in zip(chunk_sums, t_grid):
            sums.append(_logsumexp(log_mass + n * t * f_vals))
        mass_sums.append(_logsumexp(log_mass))
    # Dividing by the enumerated total mass (exactly 1 in exact arithmetic)
    # cancels the shared rounding of the normalization, so t = 0 returns 0.0.
    log_total = _logsumexp(np.array(mass_sums))
    return [(_logsumexp(np.array(sums)) - log_total) / n for sums in chunk_sums]


def mc_scgf(
    sd: SpectralData,
    n: int,
    k: int,
    t: float,
    functional: str,
    replicas: int,
    seed: int,
) -> McScgf:
    """Monte Carlo scaled cumulant estimate with a delta-method stderr.

    Averages exp(n t F) over seeded replicas; the relative spread of those
    exponential weights drives both the standard error and the high-variance
    flag (flagged when a few paths dominate the average, the usual failure
    mode of naive tilted-mean estimation at large t).  F is scored by
    :func:`select_functional` against the equilibrium k-block law, so a
    relative functional raises ValueError when that law misses a k-word.
    """
    if not _is_real(t):
        raise ValueError("t must be a finite real number")
    _require_int("path length n", n, 1)
    _require_int("replicas", replicas, 0)
    if replicas < 2:
        raise ValueError("mc_scgf needs at least 2 replicas")
    A = sd.potential.alphabet_size
    rho_k = equilibrium_blocks(sd, k)
    scaled = n * t * np.concatenate(
        [
            select_functional(functional, block_counts(paths, k, A), k, rho_k)
            for paths in _replica_groups(sd, n, seed, replicas)
        ]
    )
    top = float(scaled.max())
    weights = np.exp(scaled - top)
    mean_w = float(weights.mean())
    estimate = (top + math.log(mean_w)) / n
    spread = float(weights.std(ddof=1)) / mean_w
    stderr = spread / math.sqrt(replicas) / n
    return McScgf(
        estimate=estimate,
        stderr=stderr,
        high_variance=bool(spread / math.sqrt(replicas) > 0.5),
    )


def empirical_rate(
    values: Sequence[float] | np.ndarray, n: int, bin_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram estimates into aligned bins and return rate points.

    Bins are [i*w, (i+1)*w); each observed range bin yields the decay
    exponent -(1/n) ln(frequency), with +inf marking interior bins no
    replica hit.  Values whose bin index i leaves the int64 range, or
    whose histogram would span more than 2**24 bins, raise ValueError.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if not _is_int(n) or n < 1:
        raise ValueError(f"path length n must be a positive integer, got {n!r}")
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise ValueError("bin_width must be positive and finite")
    with np.errstate(over="ignore"):
        bins = np.floor(values / bin_width)
    if not (-(2.0**63) <= bins.min() and bins.max() < 2.0**63):
        raise ValueError("values / bin_width leaves the int64 range")
    idx = bins.astype(np.int64)
    lo, hi = int(idx.min()), int(idx.max())
    if hi - lo + 1 > _MAX_WORDS:
        raise ValueError("the histogram would span more than 2**24 bins")
    counts = np.bincount(idx - lo, minlength=hi - lo + 1)
    centers = (np.arange(lo, hi + 1) + 0.5) * bin_width
    with np.errstate(divide="ignore"):
        rates = -np.log(counts / values.size) / n
    return centers, rates


def decomposition_audit(
    x: np.ndarray,
    phi: MarkovPotential,
    k: int,
    sd: Optional[SpectralData] = None,
) -> AuditRow:
    """Split the conditional-entropy estimation error into its three parts.

    lhs is the plug-in error h_hat_k - h(rho); the Birkhoff term is minus
    the centered running average of the potential; the delta term is minus
    the relative conditional entropy of the empirical blocks against the
    equilibrium; the residual is whatever the two tracked terms leave over,
    reported next to the 10*k/n yardstick.
    """
    sd = _spectrum(phi, sd)
    x = np.asarray(x)
    n = x.size
    d = phi.k
    if k < d:
        raise ValueError("audit block order must be at least the potential's")
    record = plug_in_estimates(
        x, k, phi.alphabet_size, equilibrium_blocks(sd, k)
    )
    assert record.rel_cond_entropy is not None
    if record.rel_cond_entropy < -1e-9:
        raise RuntimeError("relative conditional entropy came out negative")
    lhs = record.cond_entropy - sd.entropy
    birkhoff = -(float(birkhoff_sums(x, phi)) - (n - d + 1) * sd.potential_mean) / n
    delta = -record.rel_cond_entropy
    residual = lhs - birkhoff - delta
    return AuditRow(n, k, lhs, birkhoff, delta, residual, bound=10.0 * k / n)


def variance_audit(
    phi: MarkovPotential,
    n: int,
    replicas: int,
    seed: int,
    sd: Optional[SpectralData] = None,
) -> VarianceAudit:
    """Compare the spectral asymptotic variance against replica scatter.

    The empirical side is n times the variance of the per-path running
    averages of the potential; the z-score scales the gap by the normal
    sampling error of a variance over that many replicas.
    """
    _require_int("path length n", n, 1)
    _require_int("replicas", replicas, 0)
    if replicas < 2:
        raise ValueError("variance_audit needs at least 2 replicas")
    sd = _spectrum(phi, sd)
    theory = _poisson_variance(sd)
    sums = np.concatenate(
        [birkhoff_sums(paths, phi) for paths in _replica_groups(sd, n, seed, replicas)]
    )
    empirical = float(np.var(sums / n, ddof=1)) * n
    scale = theory * math.sqrt(2.0 / (replicas - 1))
    if scale > 0:
        z = (empirical - theory) / scale
    else:
        z = 0.0 if abs(empirical) < 1e-12 else math.inf
    return VarianceAudit(theory=theory, empirical=empirical, z=float(z))


def _theory(
    config: ExperimentConfig,
    phi: MarkovPotential,
    extra_levels: Sequence[float] | np.ndarray = (),
) -> tuple[list[tuple], list[tuple], tuple[float, bool]]:
    """The spectral side of a report, from one tilt probe of ``phi``.

    Returns the rows (t, entropy_scgf, information_scgf, relative_scgf) over
    the config's ``t_grid``; the rows (u, entropy_rate, relative_rate) over
    the sorted distinct levels of ``u_grid`` (21 equally spaced points on
    [0, ln A] when it is empty) and ``extra_levels``; and the
    zero-temperature entropy with its convergence flag.
    """
    grid = config.u_grid or np.linspace(0.0, math.log(phi.alphabet_size), 21)
    levels = sorted({float(u) for u in (*grid, *extra_levels)})
    probe = _largest_feasible_tilt(phi)
    columns = _scgf_columns(phi, config.t_grid)
    scgf = [
        (t, h_scgf, i_scgf, relative_scgf(phi, t))
        for t, (h_scgf, i_scgf) in zip(config.t_grid, columns)
    ]
    rates = [
        (u, rate, relative_rate_function(phi, u))
        for u, rate in zip(levels, _entropy_rates(phi, levels, probe))
    ]
    return scgf, rates, _zero_temperature(phi, probe)


def _worker_available() -> bool:
    """True when :func:`run_ldp` forks its Monte Carlo worker: on Linux,
    with at least two usable CPUs and no other Python thread (a fork copies
    only the calling thread, so a lock another thread holds would stay held
    in the child)."""
    # imported where the worker uses them, so `import blocktropy` imports no more
    import sys
    import threading

    return (
        sys.platform.startswith("linux")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


class _Worker:
    """Run ``stages``, zero-argument callables, in a forked process while
    the caller runs its own, when :func:`_worker_available`.

    The child runs the stages in order until one raises, sends the results
    of those that returned down a pipe as one pickle, and ends with
    ``os._exit`` on every path, so it flushes no inherited stdio buffer and
    runs no atexit hook.  ``result(i)`` returns stage i's result, reading
    the pipe to EOF on first use.  A stage the child did not finish (it
    raised, or the child died) runs in the caller when its result is asked
    for, so its error is raised there, in the caller's order; without a
    child (none is available, or the fork failed), every stage runs that
    way.  On exit the child is reaped, after a SIGKILL when the block
    raised.
    """

    def __init__(self, stages: Sequence[Callable[[], object]]) -> None:
        self._stages = stages
        self._results: Optional[list] = []
        self._pid = 0
        self._fd = -1

    def __enter__(self) -> "_Worker":
        if not _worker_available():
            return self
        import pickle

        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the stages run in the caller
            os.close(read_fd)
            os.close(write_fd)
            return self
        if pid == 0:
            try:
                os.close(read_fd)
                results = []
                try:
                    for stage in self._stages:
                        results.append(stage())
                except Exception:
                    pass  # the caller runs this stage again and raises its error
                with open(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(results))
            finally:
                os._exit(0)
        os.close(write_fd)
        self._pid, self._fd, self._results = pid, read_fd, None
        return self

    def result(self, index: int) -> object:
        if self._results is None:
            import pickle

            chunks = []
            while chunk := os.read(self._fd, 1 << 16):
                chunks.append(chunk)
            self._results = pickle.loads(b"".join(chunks)) if chunks else []
        if index < len(self._results):
            return self._results[index]
        return self._stages[index]()

    def __exit__(self, kind: object, value: object, traceback: object) -> None:
        if not self._pid:
            return
        if kind is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
        os.close(self._fd)
        os.waitpid(self._pid, 0)


def _monte_carlo_stages(
    config: ExperimentConfig, phi: MarkovPotential, sd: SpectralData
) -> tuple[Callable[[], list[McScgf]], Callable[[], VarianceAudit]]:
    """The two stages of :func:`run_ldp` that read only the config and the
    beta = 1 spectrum, in serial order: ``mc_scgf`` at every t of the
    t-grid, then the variance audit."""

    def scgf() -> list[McScgf]:
        return [
            mc_scgf(
                sd,
                config.scgf_n,
                config.exact_k,
                t,
                config.functional,
                config.scgf_replicas,
                _stage_seed(
                    config.seed, _STAGE_SCGF + 100 * (index + 1), config.scgf_n
                ),
            )
            for index, t in enumerate(config.t_grid)
        ]

    def variance() -> VarianceAudit:
        return variance_audit(
            phi,
            config.variance_n,
            config.variance_replicas,
            _stage_seed(config.seed, _STAGE_VARIANCE, config.variance_n),
            sd,
        )

    return scgf, variance


def run_ldp(config: ExperimentConfig) -> LdpReport:
    """Run the whole pipeline and assemble the report.

    Stages: the LLN pass over the n-grid, the theory columns and h_inf
    (``_theory``), the three-way SCGF table over the t-grid, the rate table
    (empirical histogram points at the largest n merged with the theory
    grid), one decomposition audit per n (on replica 0's path, kept from
    the LLN pass), and the variance audit.

    The Monte Carlo SCGF and variance stages read only the config and the
    beta = 1 spectrum, so on Linux with two or more usable CPUs and no
    other Python thread they run in one forked worker process while this
    process runs the LLN pass, the theory and the exact SCGF grid; the
    worker's memory is a second process's.  Otherwise they run here, in
    serial order.  Either way the report is bit for bit the same, and an
    error is the one the serial order (LLN, theory, exact grid, mc_scgf,
    audits, variance) raises first.
    """
    phi, sd = _effective_spectral(config)
    A = phi.alphabet_size
    with _Worker(_monte_carlo_stages(config, phi, sd)) as worker:
        lln_report, first_paths = _run_lln(config, sd)

        n_max = config.n_grid[-1]
        cond_values = [
            row.record.cond_entropy for row in lln_report.samples if row.n == n_max
        ]
        centers, emp_rates = empirical_rate(cond_values, n_max, config.bin_width)
        scgf_theory, rate_theory, (zero_temp, zero_temp_converged) = _theory(
            config, phi, centers
        )

        exact_ok = not _too_many_strings(A, config.exact_n, _EXACT_STRING_CAP)
        exact_values: Sequence[Optional[float]] = (
            _exact_finite_scgf_grid(
                sd, config.exact_n, config.exact_k, config.t_grid, config.functional
            )
            if exact_ok
            else [None] * len(config.t_grid)
        )
        mc_values = cast(list[McScgf], worker.result(0))
        audit_rows = [
            decomposition_audit(x, phi, row.k, sd)
            for x, row in zip(first_paths, lln_report.lln)
        ]
        var_audit = cast(VarianceAudit, worker.result(1))

    scgf_rows = [
        ScgfRow(
            t=t,
            exact=exact,
            mc=mc.estimate,
            stderr=mc.stderr,
            high_variance=mc.high_variance,
            entropy_scgf=h_scgf,
            information_scgf=i_scgf,
        )
        for (t, h_scgf, i_scgf, _), exact, mc in zip(
            scgf_theory, exact_values, mc_values
        )
    ]

    empirical = dict(zip(centers.tolist(), emp_rates.tolist()))
    rate_rows = [
        RateRow(u, empirical.get(u), entropy_rate, relative_rate)
        for u, entropy_rate, relative_rate in rate_theory
    ]

    summary: dict[str, object] = {
        "pressure": sd.pressure,
        "entropy": sd.entropy,
        "mean_potential": sd.potential_mean,
        "zero_temperature_entropy": zero_temp,
        "zero_temperature_converged": zero_temp_converged,
        "sigma2_theory": var_audit.theory,
        "sigma2_empirical": var_audit.empirical,
        "variance_z": var_audit.z,
        "lln": [asdict(row) for row in lln_report.lln],
        "max_audit_ratio": max(
            abs(row.residual) * row.n / row.k for row in audit_rows
        ),
        "high_variance_t": [
            row.t for row in scgf_rows if row.high_variance
        ],
    }
    return LdpReport(
        config=config,
        samples=lln_report.samples,
        lln=lln_report.lln,
        scgf=tuple(scgf_rows),
        rate=tuple(rate_rows),
        audit=tuple(audit_rows),
        variance=var_audit,
        summary=summary,
    )


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: str, header: str, rows: Sequence[Sequence[object]]) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(report: LdpReport, out_dir: str) -> dict[str, str]:
    """Write report.json and the four CSV tables into out_dir.

    All floats carry 12 significant digits; the timestamp lives only in
    report.json so the tables stay byte-identical across reruns.
    """
    tables = {
        "samples": (
            "n,k,replica,seed,"
            "block_entropy,cond_entropy,rel_entropy,rel_cond_entropy",
            [
                (r.n, r.k, r.replica, r.seed, *astuple(r.record)[2:])
                for r in report.samples
            ],
        ),
        "scgf": (
            "t,exact_n,mc,stderr,entropy_scgf,information_scgf",
            [
                (r.t, r.exact, r.mc, r.stderr, r.entropy_scgf, r.information_scgf)
                for r in report.scgf
            ],
        ),
        "rate": (
            "u,emp_rate,entropy_rate_theory,relative_rate_theory",
            [astuple(r) for r in report.rate],
        ),
        "audit": (
            "n,k,lhs,birkhoff,delta,residual,bound",
            [astuple(r) for r in report.audit],
        ),
    }
    os.makedirs(out_dir, exist_ok=True)
    paths = {"report": os.path.join(out_dir, "report.json")}
    paths.update((name, os.path.join(out_dir, f"{name}.csv")) for name in tables)
    payload = {
        "config": report.config.to_json_dict(),
        "rng": RNG_NAME,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "summary": report.summary,
    }
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, (header, rows) in tables.items():
        _write_csv(paths[name], header, rows)
    return paths
