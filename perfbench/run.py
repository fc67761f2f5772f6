#!/usr/bin/env python3
"""End-to-end benchmark of the SLAM pipeline, the multi-tenant service and
the design-space exploration (see perfbench/README.md).

Builds the C++ benchmark program in this directory together with the program's
libraries (from ../src, into .bench_build/perfbench), runs one workload,
checks its outputs and prints a report. The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1), each as {"value", "unit"}.

Usage:
    python3 perfbench/run.py --workload slam_dense|serve_sparse|dse \\
        --seed N --seconds S --trace 0|1
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("slam_dense", "serve_sparse", "dse")

# Seed whose outputs are recorded in expected.json.
DEFAULT_SEED = 1
# Workloads whose input does not depend on the seed, so their recorded
# outputs hold on every seed.
SEED_INDEPENDENT = ("dse",)
# Bound on the traced run's unattributed share of wall time: the layer
# self times must add up to the traced wall time within it.
LAYER_SUM_BOUND = 0.05
# A whole run, build check included, must end within 180 s.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark program; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"program sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / "perfbench"


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unavailable"


def cpu_times():
    """Aggregate CPU time counters from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_fraction(before, after):
    """Share of CPU time the hypervisor gave to other guests meanwhile."""
    if not before or not after or len(before) < 8:
        return "unavailable"
    total = sum(after) - sum(before)
    return round((after[7] - before[7]) / total, 4) if total > 0 else 0.0


def provenance():
    """Which host and build produced the numbers."""
    git = ""
    # Only this tree's own history: a checkout without .git may sit inside
    # an unrelated repository.
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                 "--tags"], capture_output=True, text=True, timeout=10)
            if describe.returncode == 0:
                git = describe.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "host": platform.node(),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "scaling_governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "build_type": BUILD_TYPE,
        "git_describe": git or "unknown (not a git checkout)",
    }


def expected_outputs(workload, tiny):
    with open(BENCH_DIR / "expected.json") as f:
        recorded = json.load(f)
    return recorded["tiny" if tiny else "full"][workload]


def check(result, seed, tiny):
    """Output checks; returns a list of (name, ok, detail)."""
    workload = result["workload"]
    out = result["outputs"]
    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), detail))

    def finite(key):
        value = out.get(key)
        return value is not None and math.isfinite(value)

    for name, metric in result["metrics"].items():
        if metric["value"] is None or not metric["unit"]:
            add(f"metric {name} has a value and a unit", False, metric)

    if workload == "slam_dense":
        add("max ATE < 50 mm", finite("ate_max_mm") and
            out["ate_max_mm"] < 50.0, out.get("ate_max_mm"))
        add("every pass gives the same outputs",
            out.get("passes_identical") == 1, out.get("passes_identical"))
    elif workload == "serve_sparse":
        add("no shed frames", out.get("shed_frames") == 0,
            out.get("shed_frames"))
        add("live ATE is finite", finite("ate_max_mm"),
            out.get("ate_max_mm"))
    elif workload == "dse":
        add("hypervolume > 0", finite("dse_hypervolume") and
            out["dse_hypervolume"] > 0.0, out.get("dse_hypervolume"))
        add("a configuration meets the 5 cm limit",
            finite("dse_best_xu3_ms"), out.get("dse_best_xu3_ms"))
        add("every pass gives the same outputs",
            out.get("passes_identical") == 1, out.get("passes_identical"))

    if seed == DEFAULT_SEED or workload in SEED_INDEPENDENT:
        for key, want in expected_outputs(workload, tiny).items():
            got = out.get(key)
            ok = got is not None and math.isclose(got, want, rel_tol=1e-9,
                                                  abs_tol=1e-12)
            add(f"{key} equals the recorded value", ok,
                f"got {got}, recorded {want}")

    if result["trace"]:
        metrics = result["metrics"]
        unattributed = metrics["trace.unattributed_frac"]["value"]
        add(f"layers add up to the traced wall time within "
            f"{LAYER_SUM_BOUND:.0%}", abs(unattributed) <= LAYER_SUM_BOUND,
            f"unattributed {unattributed:+.4f}")
        negative = [n for n, m in metrics.items()
                    if n.endswith(".self_frac")
                    and m["value"] < -LAYER_SUM_BOUND]
        add("no layer self time is negative", not negative, negative)
    return checks


def samples_beyond(name, samples):
    """Samples beyond a percentile metric (name ending in _pNN)."""
    tail = name.rsplit("_p", 1)
    if len(tail) != 2 or not tail[1].isdigit() or int(tail[1]) < 90:
        return None
    return int(samples * (1.0 - int(tail[1]) / 100.0))


def print_report(result, prov, checks):
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("properties " + json.dumps(result["properties"]))
    print("outputs " + json.dumps(result["outputs"]))
    print(f"{'metric':44s} {'value':>14s} {'unit':8s} {'samples':>8s}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:14.6g}"
        note = ""
        beyond = samples_beyond(name, metric["samples"])
        if beyond is not None:
            note = f"  ({beyond} beyond)" + ("" if beyond >= 10 else
                                             " fewer than 10")
        print(f"{name:44s} {shown:>14s} {metric['unit']:8s} "
              f"{metric['samples']:8d}{note}")
    metrics = result["metrics"]
    if "setup_s" in metrics and "pass_s" in metrics:
        wall = metrics["setup_s"]["value"] + metrics["pass_s"]["value"]
        print(f"{'wall_s (setup_s + pass_s, unbounded)':44s} {wall:14.6g} "
              f"{'s':8s} {metrics['pass_s']['samples']:8d}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes (the benchmark's own test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    prov = provenance()
    try:
        exe = build()
    except RuntimeError as err:
        log(f"perfbench: {err}")
        return 2

    command = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)] + (["--tiny"] if args.tiny else [])
    cpu_before = cpu_times()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"perfbench: benchmark program exited with {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    # A shared host shows up as steal time; it explains outlying runs.
    prov["cpu_steal_frac_during_run"] = steal_fraction(cpu_before,
                                                       cpu_times())

    checks = check(result, args.seed, args.tiny)
    print_report(result, prov, checks)
    print(json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
