"""Benchmark for blocktropy: one workload, one seed, one measuring window.

Run from the repository root:

    python3 perfbench/run.py --workload ldp_example --seed 1 --seconds 25 --trace 0

The load is a closed loop from one process and one client: each call into
blocktropy starts after the previous one returns, and passes over the
workload repeat back to back until the next pass would end after
``--seconds``.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` passes alternate
untraced and traced, and it holds the per-layer metrics.  Every metric the
run measured is printed above that line with its unit and sample count,
and written with the machine facts to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("ldp_example", "paths_long", "rate_theory", "types_census")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MIN_PASSES = 3

#: Known defects of blocktropy that make workload operations raise, by the
#: failed op's label prefix and error type.  Their failures count against
#: fail_ratio like any other; they are not excluded.
_TILT_DEFECT = (
    "ROADMAP item 2: pressure() feasibility is not monotone in the tilt, so "
    "entropy_rate_function's halving probe and bisection, and "
    "zero_temperature_entropy, raise on primitive matrices"
)
_NEAR_ZERO_LAW = "on some A = 3, k >= 4 equilibrium laws with block weights below 1e-9"
KNOWN_CAUSES = {
    ("rates.", "ReducibilityError"): _TILT_DEFECT,
    ("rates.", "ConvergenceError"): _TILT_DEFECT,
    ("pressure.normalize_potential", "ValueError"): (
        "ROADMAP item 2: normalize_potential can fail its own normalization check"
    ),
    ("typegraphs.round_to_type", "StopIteration"): (
        "_find_fractional_cycle finds no cycle " + _NEAR_ZERO_LAW
    ),
    ("typegraphs.cycle_decompose", "ValueError"): (
        "'support is not strongly connected along the needed path' " + _NEAR_ZERO_LAW
    ),
}


def known_cause(failed_op):
    """The known defect behind a ``"<label> <error type>"`` failure, or None."""
    label, kind = failed_op.rsplit(" ", 1)
    for (prefix, known_kind), cause in KNOWN_CAUSES.items():
        if kind == known_kind and label.startswith(prefix):
            return cause
    return None


UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "ratio",
    "rate_point_p50_ms": "ms",
    "type_class_p50_ms": "ms",
    "simulate.msym_per_s": "Msym/s",
    "entropy.estimates_per_s": "1/s",
    "pressure.ok_ratio": "ratio",
    "pressure.solve_ms_p50": "ms",
    "rates.solves_per_point": "solves/point",
    "typegraphs.size_ms_p50": "ms",
    "typegraphs.size_ms_p95": "ms",
    "typegraphs.size_useful_ratio": "ratio",
    "harness.report_bytes": "bytes",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload inputs and exit (timed as setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def time_setup(args):
    """Fresh interpreters that import blocktropy and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as child:
            # A blocking wait returns at exit; wait(timeout) would poll in
            # 50 ms steps and quantize the measurement.
            watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                code = child.wait()
            finally:
                watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up child exited with code {code}")
    return times


def measure(work, ops, seconds, recorder):
    """Back-to-back passes; with a recorder, every second pass is traced."""
    untraced, traced, summaries = [], [], []
    min_passes = 5 if recorder else MIN_PASSES  # traced: U T U T U
    window_start = time.perf_counter()
    while True:
        tracing = recorder is not None and len(untraced) > len(traced)
        if tracing:
            recorder.reset()
            recorder.install()
        ops.start_pass()
        start = time.perf_counter()
        try:
            work.run_pass(ops)
        finally:
            if tracing:
                recorder.uninstall()
        elapsed = time.perf_counter() - start
        if tracing:
            traced.append(elapsed)
            summaries.append(recorder.summary())
        else:
            untraced.append(elapsed)
        passes = untraced + traced
        used = time.perf_counter() - window_start
        if len(passes) >= min_passes and used + statistics.median(passes) > seconds:
            return untraced, traced, summaries


def high_percentile(values):
    """Highest of p99/p95/p90/p75 with at least ten samples above it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(values)
            return p, ordered[max(0, -(-p * n // 100) - 1)]
    return None


def machine_facts(seed):
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": None,
        "src_sha256": None,
        "seed": seed,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        suffix = "" if kind == "Unified" else kind[0].lower()
        facts["caches"][f"L{level}{suffix}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            facts["git_commit"] = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "blocktropy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "blocktropy" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no blocktropy source tree under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads, here and in setup children
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs the BLAS setting and sys.path above)

    if args.setup_only:
        workloads.WORKLOADS[args.workload](ROOT, args.seed)
        return 0

    setup_times = [] if args.trace else time_setup(args)
    work = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    ops = workloads.Ops()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
    OUT.mkdir(exist_ok=True)
    try:
        untraced, traced, summaries = measure(work, ops, args.seconds, recorder)
        ops.end_passes()
        work.verify(ops)
        ops.finish()
    finally:
        work.close()

    metrics = {}  # name -> (value, sample count)
    metrics["wall_s"] = (statistics.median(untraced), len(untraced))
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times), len(setup_times))
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    metrics["fail_ratio"] = (ops.failed / ops.attempted, ops.attempted)
    tails = {}
    for series, name in (("rate_point", "rate_point_p50_ms"), ("type_class", "type_class_p50_ms")):
        samples = ops.samples[series]
        if samples:
            metrics[name] = (1e3 * statistics.median(samples), len(samples))
            tails[name] = high_percentile(samples)
    if recorder is not None:
        for name, value in spans.median_metrics(summaries).items():
            metrics[name] = (value, len(summaries))
        # Each traced pass is compared with the untraced pass right after it:
        # neighbours share the host's slow speed drift, and the first, cold
        # pass of the run stays out of the comparison.
        pairs = list(zip(traced, untraced[1:]))
        metrics["bench.trace_overhead_s"] = (statistics.median(t - u for t, u in pairs), len(pairs))
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(span_file)

    facts = machine_facts(args.seed)
    correct = not ops.wrong
    known = {op: known_cause(op) for op in ops.failures_by_op if known_cause(op)}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("load: closed loop, one process, one client; each call starts after the previous returns")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"{'metric':<44} {'value':>16} {'unit':<13} samples")
    idle = []
    for name, (value, count) in metrics.items():
        if value == 0 and name != "fail_ratio":
            idle.append(name)
            continue
        extra = ""
        tail = tails.get(name)
        if tail:
            extra = f"  p{tail[0]}={1e3 * tail[1]:.6g} ms"
        print(f"{name:<44} {value:>16.6g} {unit_of(name):<13} {count}{extra}")
    if idle:
        print(f"zero (layer not exercised here): {' '.join(idle)}")
    print(f"operations: attempted={ops.attempted} failed={ops.failed}")
    for op, count in sorted(ops.failures_by_op.items()):
        print(f"  failed {count}: {op}")
    for kind, message in sorted(ops.first_error.items()):
        print(f"  first {kind}: {message}")
    for op, cause in sorted(known.items()):
        print(f"  known cause of {op}: {cause}")
    for message in ops.wrong[:10]:
        print(f"  wrong output: {message}")
    print(f"correct: {str(correct).lower()}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if unit_of(name) != unit:
            raise ValueError(f"{name}: BENCHMARK.json unit {unit} != measured unit {unit_of(name)}")
        reported[name] = {"value": metrics[name][0], "unit": unit}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "load": "closed loop, single process, single client",
        "metrics": {n: {"value": v, "unit": unit_of(n), "samples": c} for n, (v, c) in metrics.items()},
        "pass_wall_s": {"untraced": untraced, "traced": traced},
        "setup_s_samples": setup_times,
        "attempted": ops.attempted,
        "failures_by_type": dict(ops.failures),
        "failures_by_op": dict(ops.failures_by_op),
        "first_errors": ops.first_error,
        "known_causes": known,
        "wrong_outputs": ops.wrong,
        "correct": correct,
    }
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
