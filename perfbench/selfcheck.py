"""Self-check of the benchmark: one case per workload, every output checked.

    python3 perfbench/selfcheck.py

For each workload it runs one case untraced and traced and checks that the
last line printed is a result object that matches BENCHMARK.json: exactly
its keys, a correct run with no failed case, and every metric with its
unit.  It also checks BENCHMARK.json against the benchmark's format, and
that a copy of the benchmark without the source tree exits non-zero without
printing a result.  It prints the end-to-end metrics it saw and exits 1 on
any problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec_problems():
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(SPEC) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(SPEC)}")
    for w in SPEC["workloads"]:
        if set(w) != {"name", "why"} or not NAME.fullmatch(w["name"]) or len(w["why"]) > 200:
            problems.append(f"workload entry {w}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
            problems.append(f"metric name or unit {m}")
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()) or bounds.get("setup_s") != max(bounds.values()):
        problems.append(f"bounds {bounds}")
    if [(m["name"], m["unit"]) for m in SPEC["per_layer"]] != list(tracer.PER_LAYER):
        problems.append("per_layer differs from tracer.PER_LAYER")
    expected = [(name, run.END_TO_END_UNITS[name]) for name in run.RESULT_END_TO_END]
    if [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] != expected:
        problems.append("end_to_end differs from run.RESULT_END_TO_END")
    return problems


def result_problems(lines, metrics):
    """Problems with the last printed line, the one a harness reads."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics differ: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != want.get(name) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: {entry}")
    return problems


def bare_copy_problems():
    """A checkout holding only BENCHMARK.json and the benchmark must refuse to run."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-selfcheck-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}"]
    return []


def main() -> int:
    problems = spec_problems() + bare_copy_problems()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                    pool_limit=1,
                )
            lines = out.getvalue().splitlines()
            found = result_problems(lines, metrics) if code == 0 else [f"exit {code}"]
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            if trace == 0 and code == 0:
                record = json.loads(lines[-2])
                shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in record["metrics"].items())
                print(f"{workload}: {shown}")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
