"""Seeded end-to-end benchmark of the polymom checkout this file sits in.

    python3 perfbench/run.py --workload invert-strong --seed 1 --seconds 20 --trace 0

Workloads: invert-strong, invert-weak-svg, forward-series (see README.md).
The run is a closed loop, one case at a time: the workload's seeded case
pool is built first, untimed, then replayed in whole passes until --seconds
have passed (and at least the workload's minimum number of passes).
Invert cases start `python -m polymom.cli` as a child; forward cases call
the library in this process.  Every case is checked exactly.  Its latency
is the median of its replays, each scaled to a reference speed by
calibrations timed around it (see REFERENCE_CALIBRATION_S).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the pool in this process, once untraced and then traced until
--seconds have passed, and reports per-layer metrics.  The last line of
standard output is the result object; the line before it is the full
record, with the commit, interpreter, core count and the metrics that have
no place in the result.  `polymom` must resolve to this checkout's `src/`,
or the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 11
# The host's speed drifts by a third or more, for seconds to minutes at a
# time, in CPU time as well as wall time.  So every timed call runs between
# two timings of a calibration task, pure-Python exact arithmetic like the
# program's own, and its time is scaled by REFERENCE_CALIBRATION_S over the
# calibration's time around it: the time it would take at the reference
# speed, where the task takes REFERENCE_CALIBRATION_S.  That is about the
# task's fastest time on the 2-vCPU x86-64 host, Python 3.11, this benchmark
# was tuned on.
CALIBRATION_TERMS = 1500
REFERENCE_CALIBRATION_S = 0.004
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_cases_per_s": "1/s",
    "failed_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Only in the record: failed_share is 0 whenever the code is correct, and the
# result's `failed` count carries it; throughput is counted in raw seconds,
# so it follows the machine's drift, which the scaled times leave out.
RECORD_ONLY = ("failed_share", "throughput_cases_per_s")
RESULT_END_TO_END = tuple(name for name in END_TO_END_UNITS if name not in RECORD_ONLY)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _inside(path, directory) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def resolve_polymom(env):
    """Put this checkout's src/ first and check both this process and a child use it."""
    package = SRC / "polymom"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no polymom package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import polymom

    if not _inside(polymom.__file__, package):
        raise BenchError(f"polymom resolves to {polymom.__file__}, not {package}")
    probe = subprocess.run(
        [sys.executable, "-c", "import polymom.cli; print(polymom.cli.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    where = probe.stdout.strip()
    if probe.returncode != 0 or not _inside(where, package):
        raise BenchError(f"a child resolves polymom.cli to {where or probe.stderr.strip()!r}")


def provenance():
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            git = None
        if git is not None and git.returncode == 0:
            commit = git.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "polymom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibration_s():
    """Median of three timings of the calibration task: the machine's speed now."""
    times = []
    for _ in range(3):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, CALIBRATION_TERMS):
            total += Fraction(1, i)
        times.append(perf_counter() - start)
    return statistics.median(times)


def scaled_calls(calls):
    """Run each call between two calibrations; yield (its result, its scale).

    A wall time measured in the call, times its scale, is the time at the
    reference speed.
    """
    before = calibration_s()
    for call in calls:
        result = call()
        after = calibration_s()
        yield result, 2 * REFERENCE_CALIBRATION_S / (before + after)
        before = after


def measure_setup(env):
    """Median wall time, raw and scaled, of a fresh interpreter that imports polymom.cli and exits."""
    argv = [sys.executable, "-c", "import polymom.cli"]

    def once():
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL)
        return perf_counter() - start

    timed = list(scaled_calls([once] * SETUP_RUNS))
    return statistics.median(t for t, _ in timed), statistics.median(t * scale for t, scale in timed)


def tail(latencies, base):
    """(value, percentile) at the highest percentile with TAIL_BEYOND of `base` samples beyond it.

    `base` is the sample count of a run of the workload's minimum number of
    passes.  So the percentile is the same in every run of a workload, and a
    run with more passes has more samples beyond it.  With too few samples
    for that, the slowest stands in (percentile 100).
    """
    ordered = sorted(latencies)
    if base <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = -(-(base - TAIL_BEYOND) * len(ordered) // base)
    return ordered[rank - 1], 100.0 * (base - TAIL_BEYOND) / base


def timed_run(cases, seconds, min_passes, env):
    import workloads

    allowed = os.sched_getaffinity(0)
    # The calibrations and the calls they scale run on one core, children too.
    os.sched_setaffinity(0, {min(allowed)})
    try:
        setup_raw, setup_s = measure_setup(env)
        samples = []
        start = perf_counter()
        passes = 0
        while passes < min_passes or perf_counter() - start < seconds:
            calls = (partial(workloads.run_timed, case, env, ROOT) for case in cases)
            samples.extend((*sample, scale) for sample, scale in scaled_calls(calls))
            passes += 1
        elapsed = perf_counter() - start
    finally:
        os.sched_setaffinity(0, allowed)
    errors = [error for _, _, error, _ in samples if error is not None]
    # Each replay counts as its case's median scaled replay, which keeps the
    # machine's jitter from reordering cases of close cost.
    replays = [[] for _ in cases]
    for i, (taken, _, error, scale) in enumerate(samples):
        if error is None:
            replays[i % len(cases)].append((taken, scale))
    case_raw = [statistics.median(t for t, _ in r) if r else None for r in replays]
    case_scaled = [statistics.median(t * scale for t, scale in r) if r else None for r in replays]
    valued = [case_scaled[i] for i in range(len(cases)) for _ in replays[i]]
    raw = [case_raw[i] for i in range(len(cases)) for _ in replays[i]]
    p50 = statistics.median(valued) if valued else 0.0
    base = len(cases) * min_passes
    slow, percentile = tail(valued, base) if valued else (0.0, 0.0)
    values = {
        "latency_p50_ms": 1000 * p50,
        "latency_tail_ms": 1000 * slow,
        "throughput_cases_per_s": len(valued) / elapsed,
        "failed_share": len(errors) / len(samples),
        "peak_rss_mb": max(rss for _, rss, _, _ in samples) / 1024,
        "setup_s": setup_s,
    }
    record = {
        "passes": passes,
        "samples": len(valued),
        "tail_percentile": percentile,
        "elapsed_s": elapsed,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "median_scale": statistics.median(scale for *_, scale in samples),
        "raw": {
            "latency_p50_ms": 1000 * statistics.median(raw) if raw else 0.0,
            "latency_tail_ms": 1000 * tail(raw, base)[0] if raw else 0.0,
            "setup_s": setup_raw,
        },
        "case_raw_p50_ms": [[case.shape, t and 1000 * t] for case, t in zip(cases, case_raw)],
        "case_p50_ms": [[case.shape, t and 1000 * t] for case, t in zip(cases, case_scaled)],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()},
    }
    result = {name: record["metrics"][name] for name in RESULT_END_TO_END}
    return len(samples), errors, record, result


def traced_run(cases, seconds):
    import tracer
    import workloads

    start = perf_counter()
    errors = [e for e in map(workloads.run_inprocess, cases) if e is not None]
    untraced = perf_counter() - start
    trace = tracer.Tracer()
    trace.install()
    passes = []
    try:
        while True:
            trace.reset()
            begin = perf_counter()
            for case in cases:
                error = workloads.run_inprocess(case)
                if error is not None:
                    errors.append(error)
                elif isinstance(case, workloads.InvertCase):
                    trace.add("jsonio.dump.bytes", case.out.stat().st_size)
            passes.append((perf_counter() - begin, trace.metrics()))
            if perf_counter() - start >= seconds:
                break
    finally:
        trace.uninstall()
    first = passes[0][1]
    counts_repeat = all(
        m[name] == first[name] for _, m in passes for name in m if not name.endswith("self_s")
    )
    metrics = {
        name: statistics.median(m[name] for _, m in passes) if name.endswith("self_s") else first[name]
        for name in first
    }
    metrics["trace.overhead_ratio"] = statistics.median(t for t, _ in passes) / untraced
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in tracer.PER_LAYER}
    record = {
        "passes": len(passes),
        "untraced_pass_s": untraced,
        "traced_pass_s": [t for t, _ in passes],
        "counts_repeat": counts_repeat,
        "absent": sorted(trace.absent),
        "metrics": result,
    }
    return len(cases) * (1 + len(passes)), errors, record, result


def main(argv=None, pool_limit=None) -> int:
    """Run one workload and print its record and result; `pool_limit` keeps
    only the pool's first cases (the self-check runs one)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = child_env()
    try:
        resolve_polymom(env)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cases = workloads.build(args.workload, args.seed, workdir, pool_limit)
        if args.trace:
            attempted, errors, record, result = traced_run(cases, args.seconds)
        else:
            min_passes = workloads.MIN_PASSES[args.workload]
            attempted, errors, record, result = timed_run(cases, args.seconds, min_passes, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **provenance(),
        "pool": dict(Counter(case.shape for case in cases)),
        "attempted": attempted,
        "failed": len(errors),
        "failures": errors[:5],
        **record,
    }
    for error in errors[:5]:
        print(f"perfbench: failed case: {error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
