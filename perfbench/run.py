#!/usr/bin/env python3
"""Build and run the repository benchmark; print one JSON result line.

    python3 perfbench/run.py --workload consolidate|largescale|elastic \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
rebuild incrementally. The workload runs in its own process with every
GREENPS_* variable cleared and the simulator and CRAM thread counts pinned,
so an inherited shell variable cannot change the program being measured.

A run's work is fixed by the workload, not by the clock: 15 to 50 s of
measured CPU time depending on the workload, about run_seconds on average.
--seconds is accepted and checked but changes nothing (perfbench/README.md).

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit code is 0 only when every
correctness check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RECORDS = ROOT / ".bench_build" / "perfbench-records"
WORKLOADS = ("consolidate", "largescale", "elastic")
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build the benchmark; exit 1 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, nproc())))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(PKG), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def pinned_env(workload):
    """The parent environment minus every GREENPS_* variable, plus the pins.

    Cleared: GREENPS_TRACE, GREENPS_MATCH_THRESHOLD, GREENPS_CRAM_REBASELINE,
    GREENPS_HEADROOM_SCALE, GREENPS_OBS_SAMPLE_MS, GREENPS_OBS_SAMPLES,
    GREENPS_FULL, GREENPS_TINY, GREENPS_BENCH_BUDGET_S and any other.
    Pinned: simulator shards (1) and CRAM threads (1), so every run is one
    thread and its CPU time is its work: the benchmark times with the
    process CPU clock, which leaves out time the host gave to others.
    Several threads on a shared 4-vCPU host measured the scheduler: spinning
    shard threads burn CPU while a peer waits for a vCPU, and CRAM's
    parallel search was no faster than one thread and several times noisier
    (README.md).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("GREENPS_")}
    env["GREENPS_SIM_WORKERS"] = "1"
    env["GREENPS_CRAM_THREADS"] = "1"
    return env


def run_binary(workload, seed, trace, extra=()):
    """Run one workload; returns (exit code, parsed last JSON line or None)."""
    RECORDS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", *extra]
    if trace:
        cmd += ["--trace-out", str(RECORDS / f"trace-{workload}-{seed}.json")]
    try:
        p = subprocess.run(cmd, env=pinned_env(workload), cwd=ROOT, capture_output=True,
                           text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {BINARY_TIMEOUT_S} s")
        return 1, None
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload} printed no result (exit {p.returncode})")
        return p.returncode or 1, None


def check_metrics(result, specs, trace):
    """Problems with the emitted metrics against BENCHMARK.json."""
    got = result["per_layer" if trace else "end_to_end"]
    problems = []
    for spec in specs:
        m = got.get(spec["name"])
        if m is None:
            problems.append(f"metric {spec['name']} not emitted")
        elif m.get("unit") != spec["unit"]:
            problems.append(f"metric {spec['name']} has unit {m.get('unit')}, "
                            f"BENCHMARK.json says {spec['unit']}")
        elif not math.isfinite(m.get("value", float("nan"))):
            problems.append(f"metric {spec['name']} is not a finite number")
        elif not trace and m["value"] == 0:
            problems.append(f"end-to-end metric {spec['name']} is 0")
    return problems


def check_repeatable(result, workload):
    """Sim-time results of one binary, workload, scenario instance and scale
    must repeat exactly in every run that covers the instance; the first
    run's are kept under .bench_build."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    problems = []
    for seed, outcome in sorted(result["deterministic"].items()):
        path = RECORDS / f"deterministic-{workload}-{seed}-{result['scale']}-{digest}.json"
        current = json.dumps(outcome, sort_keys=True)
        if not path.is_file():
            path.write_text(current)
        elif path.read_text() != current:
            problems.append(f"sim-time results of instance seed {seed} differ from an "
                            f"earlier run: {current} vs {path.read_text()}")
    return problems


def measure(args, spec):
    build()
    code, result = run_binary(args.workload, args.seed, args.trace)
    if result is None:
        sys.exit(code or 1)
    specs = spec["per_layer" if args.trace else "end_to_end"]
    problems = list(result.get("failures", []))
    problems += check_metrics(result, specs, args.trace)
    if result["correct"]:
        problems += check_repeatable(result, args.workload)
    for p in problems:
        log(f"FAILED: {p}")
    log("env " + json.dumps(result["env"]))
    correct = code == 0 and result["correct"] and not problems
    got = result["per_layer" if args.trace else "end_to_end"]
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]) or (0 if correct else 1),
        "metrics": {s["name"]: got[s["name"]] for s in specs if s["name"] in got},
    }
    print(json.dumps(out), flush=True)
    sys.exit(0 if correct else 1)


def self_test(spec):
    """Seconds-long small-scale run of every workload, traced and untraced:
    every metric BENCHMARK.json names is emitted with its unit, and the
    correctness gate trips on an empty delivery audit."""
    build()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_binary(workload, 42, trace, ("--scale", "small"))
            label = f"{workload} trace={int(trace)}"
            if result is None or code != 0 or not result["correct"]:
                problems.append(f"{label}: run failed (exit {code})")
                continue
            specs = spec["per_layer" if trace else "end_to_end"]
            problems += [f"{label}: {p}" for p in check_metrics(result, specs, trace)]
        # Leaving the publication ledger off after a redeploy empties the
        # audit; the gate must refuse that run.
        code, result = run_binary(workload, 42, False,
                                  ("--scale", "small", "--self-test-empty-audit", "1"))
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{workload}: the gate passed a run whose audit was empty")
        elif not any("0 (subscription, publication) pairs" in f for f in result["failures"]):
            problems.append(f"{workload}: the gate failed, but not on the empty audit: "
                            f"{result['failures']}")
    for p in problems:
        log(f"SELF-TEST FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"), flush=True)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.self_test:
        self_test(spec)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")
    measure(args, spec)


if __name__ == "__main__":
    main()
