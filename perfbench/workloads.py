"""The four benchmark workloads and their correctness checks.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up the benchmark times), then ``run_pass`` makes one full pass of calls
into ``blocktropy`` through an ``Ops`` log.  Every call is one operation: it
fails if it raises or if its output fails the check attached to it.  Calls
go through the package namespaces at call time, so the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import shutil
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import blocktropy as bt

HERE = Path(__file__).resolve().parent


class Ops:
    """Closed-loop operation log: outcomes per pass, errors, op timings.

    The passes of a run repeat the same operations on the same inputs, so
    ``attempted`` and ``failed`` count the operations of the first pass and
    of the untimed checks after the passes, not of every repeat: the counts
    then depend on the seed alone, not on how many passes fit in the
    window.  A later pass whose outcomes differ from the first counts as
    one more failed operation, and as a wrong output.
    """

    def __init__(self):
        self.passes = []  # per timed pass: [(label, error kind or None)]
        self.after = []  # the untimed checks after the passes
        self._log = self.after
        self.first_error = {}
        self.wrong = []
        self.samples = defaultdict(list)

    def start_pass(self):
        self._log = []
        self.passes.append(self._log)

    def end_passes(self):
        self._log = self.after

    def outcomes(self):
        """The counted operations: first pass, mismatching repeats, checks."""
        counted = list(self.passes[0]) if self.passes else []
        for i, outcomes in enumerate(self.passes[1:], start=2):
            if outcomes != self.passes[0]:
                counted.append((f"pass {i}", "WrongOutput"))
        return counted + self.after

    @property
    def attempted(self):
        return len(self.outcomes())

    @property
    def failures(self):
        return Counter(kind for _, kind in self.outcomes() if kind)

    @property
    def failures_by_op(self):
        return Counter(f"{label} {kind}" for label, kind in self.outcomes() if kind)

    @property
    def failed(self):
        return sum(self.failures.values())

    def finish(self):
        """Record as wrong outputs the repeats that differ from the first pass."""
        for i, outcomes in enumerate(self.passes[1:], start=2):
            if outcomes != self.passes[0]:
                self.wrong.append(f"pass {i}: outcomes differ from pass 1 at one seed")

    def run(self, label, fn, *args, check=None, sample=None):
        """Call ``fn(*args)`` as one operation; None if it raised.

        ``check(result)`` returns None for a correct output or a message;
        ``sample`` names the timing series the call's duration joins.
        """
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any raise is a failed op, counted by type
            kind = type(exc).__name__
            self._log.append((label, kind))
            self.first_error.setdefault(kind, f"{label}: {exc!r}")
            return None
        finally:
            if sample:
                self.samples[sample].append(time.perf_counter() - start)
        self.check(label, check(result) if check else None)
        return result

    def check(self, label, problem):
        """One operation whose output is correct if ``problem`` is None."""
        self._log.append((label, "WrongOutput" if problem else None))
        if problem:
            self.wrong.append(f"{label}: {problem}")


def _sha256_files(paths):
    return {name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for name, p in paths}


class Workload:
    """Base: ``verify`` runs untimed checks after the timed passes and
    ``close`` removes what the passes wrote."""

    def verify(self, ops):
        pass

    def close(self):
        pass


class LdpExample(Workload):
    """``blocktropy ldp`` on the shipped example config, in-process."""

    name = "ldp_example"
    CSVS = ("samples", "scgf", "rate", "audit")

    def __init__(self, root, seed):
        self.root = Path(root)
        self.seed = seed
        self.config = self.root / "configs" / "ldp_example.json"
        self.config_seed = json.loads(self.config.read_text())["seed"]
        reference = json.loads((self.root / "configs" / "ldp_example.summary.json").read_text())
        self.reference_summary = reference["summary"]
        self.reference_digests = json.loads((HERE / "expected.json").read_text())[
            "ldp_example_csv_sha256"
        ]
        self.out_root = self.root / ".bench_out" / "ldp"
        self.pass_digests = None

    def _ldp(self, seed, tag):
        out = self.out_root / tag
        shutil.rmtree(out, ignore_errors=True)
        cli = importlib.import_module("blocktropy.cli")
        argv = ["ldp", "--config", str(self.config), "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        digests = _sha256_files((name, out / f"{name}.csv") for name in self.CSVS) if code == 0 else {}
        return code, out, digests

    def _check_pass(self, outcome):
        code, out, digests = outcome
        if code != 0:
            return f"exit code {code}"
        if self.pass_digests is None:
            self.pass_digests = digests
        elif digests != self.pass_digests:
            return "CSV bytes differ between two passes at one seed"
        lines = (out / "audit.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            if not abs(row["residual"]) <= row["bound"]:
                return f"audit residual {row['residual']} exceeds bound {row['bound']}"
        return None

    def _check_reference(self, outcome):
        code, out, digests = outcome
        if code != 0:
            return f"exit code {code}"
        summary = json.loads((out / "report.json").read_text())["summary"]
        if summary != self.reference_summary:
            return "report summary differs from configs/ldp_example.summary.json"
        if digests != self.reference_digests:
            return "CSV digests differ from the recorded reference"
        return None

    def run_pass(self, ops):
        ops.run("cli.main", self._ldp, self.seed, "pass", check=self._check_pass)

    def verify(self, ops):
        """Untimed pass at the config's own seed against the shipped results."""
        ops.run("cli.main@config-seed", self._ldp, self.config_seed, "reference",
                check=self._check_reference)

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


class PathsLong(Workload):
    """``run_lln`` on few long paths of a seed-drawn A = 4, k = 3 potential,
    then ``decomposition_audit`` on replica 0 at each n."""

    name = "paths_long"
    N_GRID = (16384, 131072)
    REPLICAS = 4

    def __init__(self, root, seed):
        rng = np.random.default_rng(seed)
        raw = bt.MarkovPotential(4, 3, rng.uniform(0.5, 2.0) * rng.standard_normal(64))
        self.phi = bt.normalize_potential(raw)[0]
        self.sd = bt.pressure(self.phi, 1.0)
        potential = {
            "type": "values",
            "alphabet_size": 4,
            "k": 3,
            "values": [float(v) for v in self.phi.values],
            "normalized": True,
        }
        self.config = bt.ExperimentConfig(
            potential=potential,
            seed=int(rng.integers(1 << 63)),
            n_grid=self.N_GRID,
            replicas=self.REPLICAS,
        )
        self.lln_digest = None
        self.path_digests = {}

    def _check_lln(self, report):
        records = [(r.n, r.k, r.replica, r.seed, r.record) for r in report.samples]
        if len(records) != len(self.N_GRID) * self.REPLICAS:
            return f"{len(records)} sample rows"
        for *_, rec in records:
            if not all(math.isfinite(v) for v in (rec.block_entropy, rec.cond_entropy,
                                                  rec.rel_entropy, rec.rel_cond_entropy)):
                return "non-finite estimate"
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        if self.lln_digest is None:
            self.lln_digest = digest
        elif digest != self.lln_digest:
            return "LLN records differ between two passes at one seed"
        return None

    def _audit(self, row):
        path = bt.sample_paths(self.sd, row.n, row.seed, 1)[0]
        digest = hashlib.sha256(path.tobytes()).hexdigest()
        return row, digest, bt.decomposition_audit(path, self.phi, row.k, self.sd)

    def _check_audit(self, outcome):
        row, digest, audit = outcome
        if self.path_digests.setdefault(row.n, digest) != digest:
            return f"replica-0 path at n={row.n} differs between two passes"
        if abs(audit.lhs + self.sd.entropy - row.record.cond_entropy) > 1e-12:
            return f"audit path at n={row.n} is not the LLN replica 0"
        if not abs(audit.residual) <= audit.bound:
            return f"residual {audit.residual} exceeds bound {audit.bound} at n={row.n}"
        return None

    def run_pass(self, ops):
        report = ops.run("harness.run_lln", bt.run_lln, self.config, check=self._check_lln)
        if report is None:
            return
        for row in report.samples:
            if row.replica == 0:
                ops.run("harness.decomposition_audit", self._audit, row, check=self._check_audit)


def _finite_nonnegative(value):
    if math.isnan(value) or value < 0:
        return f"rate {value}"
    return None


class RateTheory(Workload):
    """Rate points, SCGFs, variances and zero-temperature entropies on a pool
    of drawn potentials, then pressure and normalization of two large raw
    potentials."""

    name = "rate_theory"
    SHAPES = ((2, 3), (3, 3), (4, 3), (2, 6))
    #: The rate-point pool is drawn from this fixed seed; see README.md.
    POOL_SEED = 2004
    U_FRACTIONS = (0.25, 0.75)
    T_GRID = (-0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)  # configs/ldp_example.json
    LARGE_SHAPES = ((4, 4), (4, 5))  # V = 64 and V = 256

    def __init__(self, root, seed):
        pool = np.random.default_rng(self.POOL_SEED)
        self.potentials = []
        for A, k in self.SHAPES:
            raw = bt.MarkovPotential(A, k, pool.uniform(0.5, 2.0) * pool.standard_normal(A**k))
            self.potentials.append(bt.normalize_potential(raw)[0])
        rng = np.random.default_rng(seed)
        self.order = [int(i) for i in rng.permutation(len(self.potentials))]
        self.large = [
            bt.MarkovPotential(A, k, rng.uniform(0.5, 2.0) * rng.standard_normal(A**k))
            for A, k in self.LARGE_SHAPES
        ]

    def _potential_ops(self, ops, phi):
        ln_a = math.log(phi.alphabet_size)
        for frac in self.U_FRACTIONS:
            ops.run("rates.entropy_rate_function", bt.entropy_rate_function, phi, frac * ln_a,
                    check=_finite_nonnegative, sample="rate_point")
        for fn in (bt.entropy_scgf, bt.information_scgf, bt.relative_scgf):
            for t in self.T_GRID:
                ops.run(f"rates.{fn.__name__}", fn, phi, t, check=_scgf_check(t))
        info = ops.run("rates.asymptotic_variance", bt.asymptotic_variance, phi, "information",
                       check=_finite_check)
        ops.run("rates.asymptotic_variance", bt.asymptotic_variance, phi, "entropy",
                check=_routes_agree(info))

        def zero_temp_check(outcome):
            h, _converged = outcome
            if not -1e-9 <= h <= ln_a + 1e-9:
                return f"zero-temperature entropy {h} outside [0, ln A]"
            return None

        ops.run("rates.zero_temperature_entropy", bt.zero_temperature_entropy, phi,
                check=zero_temp_check)

    def run_pass(self, ops):
        for i in self.order:
            self._potential_ops(ops, self.potentials[i])
        for raw in self.large:
            sd = ops.run("pressure.pressure", bt.pressure, raw, 1.0,
                         check=lambda sd: _finite_check(sd.pressure))
            if sd is None:
                continue

            def same_pressure(outcome, p=sd.pressure):
                phi, p_top = outcome
                if abs(p_top - p) > 1e-9 * max(1.0, abs(p)):
                    return f"normalize_potential pressure {p_top} != {p}"
                return None

            ops.run("pressure.normalize_potential", bt.normalize_potential, raw,
                    check=same_pressure)


def _finite_check(value):
    return None if math.isfinite(value) else f"non-finite value {value}"


def _scgf_check(t):
    def check(value):
        if not math.isfinite(value):
            return f"non-finite SCGF {value} at t={t}"
        if t == 0.0 and abs(value) > 1e-9:
            return f"SCGF {value} at t=0"
        return None

    return check


def _routes_agree(info):
    def check(value):
        if not math.isfinite(value):
            return f"non-finite variance {value}"
        if info is not None and abs(value - info) > 1e-5:
            return f"variance routes disagree: {info} vs {value}"
        return None

    return check


def _cyclic_counts(x, k, A):
    """Cyclic k-block counts, computed independently of blocktropy."""
    x = np.asarray(x, dtype=np.int64)
    padded = np.concatenate([x, x[: k - 1]])
    codes = np.zeros(x.size, dtype=np.int64)
    for j in range(k):
        codes = codes * A + padded[j : j + x.size]
    return np.bincount(codes, minlength=A**k)


class TypesCensus(Workload):
    """Type census with exact and bounded class sizes, then rounding, cycle
    decomposition and realization of seed-drawn equilibrium laws."""

    name = "types_census"
    CENSUS = ((14, 3, 2), (8, 2, 3))  # (n, k, A)
    ROUND_ALPHABETS = (2, 3)
    ROUND_ORDERS = (3, 4, 5)
    DRAWS = 4
    ROUND_LENGTH = 16  # rounding denominator n = ROUND_LENGTH * A**k

    def __init__(self, root, seed):
        rng = np.random.default_rng(seed)
        self.potentials = []
        for A in self.ROUND_ALPHABETS:
            for k in self.ROUND_ORDERS:
                for _ in range(self.DRAWS):
                    # Raw potentials: the equilibrium law needs no normalization.
                    self.potentials.append(
                        bt.MarkovPotential(A, k, rng.uniform(0.5, 2.0) * rng.standard_normal(A**k))
                    )

    @staticmethod
    def _size(table):
        return bt.type_class_size(table, "exact"), bt.type_class_size(table, "bounds")

    @staticmethod
    def _sandwich(outcome):
        exact, b = outcome
        if not b.euler_lower - 1e-9 <= exact <= b.euler_upper + 1e-9:
            return f"size {exact} outside [{b.euler_lower}, {b.euler_upper}]"
        if not b.entropy_lower - 1e-9 <= exact <= b.entropy_upper + 1e-9:
            return f"size {exact} outside [{b.entropy_lower}, {b.entropy_upper}]"
        return None

    def _census(self, ops, n, k, A):
        types = ops.run("typegraphs.enumerate_types", bt.enumerate_types, n, k, A)
        if types is None:
            return
        total = 0
        for nu in types:
            table = bt.CountTable(A, k, n, np.rint(nu.weights * n).astype(np.int64))
            sized = ops.run("typegraphs.type_class_size", self._size, table,
                            check=self._sandwich, sample="type_class")
            if sized is not None:
                total += sized[0]
        problem = None
        if total != A**n:
            problem = f"exact sizes at (n, k, A) = {(n, k, A)} sum to {total}, not {A**n}"
        ops.check("typegraphs.census_total", problem)

    def _rounding(self, ops, phi):
        A, k = phi.alphabet_size, phi.k
        n = self.ROUND_LENGTH * A**k
        sd = ops.run("pressure.pressure", bt.pressure, phi, 1.0)
        if sd is None:
            return
        nu = bt.equilibrium_blocks(sd, k)
        cap = (k + 2) * A**k / n + 1e-12

        def within_cap(mu):
            tv = bt.tv_distance(mu, nu)
            return None if tv <= cap else f"rounded type at tv {tv} > {cap}"

        mu = ops.run("typegraphs.round_to_type", bt.round_to_type, nu, n, check=within_cap)

        def recombines(parts):
            mixed = sum(weight * cycle.distribution.weights for weight, cycle in parts)
            error = float(np.abs(mixed - nu.weights).sum())
            return None if error <= 1e-9 else f"cycle recombination error {error}"

        ops.run("typegraphs.cycle_decompose", bt.cycle_decompose, nu, check=recombines)
        if mu is None:
            return
        counts = np.rint(mu.weights * n).astype(np.int64)

        def reproduces(x):
            if x.size != n or not np.array_equal(_cyclic_counts(x, k, A), counts):
                return "realized sample does not reproduce its table"
            return None

        ops.run("typegraphs.realize_sample", bt.realize_sample, bt.CountTable(A, k, n, counts),
                check=reproduces)

    def run_pass(self, ops):
        for n, k, A in self.CENSUS:
            self._census(ops, n, k, A)
        for phi in self.potentials:
            self._rounding(ops, phi)


WORKLOADS = {w.name: w for w in (LdpExample, PathsLong, RateTheory, TypesCensus)}
