#!/usr/bin/env python3
"""The repository benchmark: train one workload for a fixed time, check it,
print its metrics as one JSON line.

    python3 perfbench/run.py --workload cnn-fig3 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call builds the library and the
benchmark binary from source into .bench_build/perfbench (Release, Ninja
when available); later calls only re-check the build.

Each repetition runs two fresh processes on the same seed: an untraced
training run (the end-to-end metrics, and peak RSS of a process that ran
the workload alone) and a traced run that trains through forwarding
decorators on the program's seams (the per-layer metrics). Repetitions run
until --seconds have elapsed; every metric is the median over repetitions.
With --trace 1 the run also times direct layer calls and writes the traced
run's spans as a Chrome trace to .bench_build/traces/.

An operation is one training run (untraced or traced) or one correctness
check; every repetition attempts the same operations. The last stdout line
is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fedvr_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
MAX_BUILD_JOBS = 4
# Training pool size per workload (capped at nproc). proxskip-comm's
# parallel sections are one minibatch step per device: on four threads of a
# shared 4-vCPU host any preempted vCPU stalls every barrier, and its
# run-to-run CV was 11% against 4% on two threads in a contended period.
POOL_THREADS = {"cnn-fig3": 4, "fleet-sampled": 4, "proxskip-comm": 2}

# A check that fails on every run because of a known program fault: counted
# in `failed`, but it does not make the run incorrect. make_synthetic_virtual
# draws the fleet's "pooled" test set from one reserved device, so on a
# non-IID fleet the score describes that device alone (README, "Known
# fault").
KNOWN_FAILURES = {("fleet-sampled", "pooled_test_above_chance")}

# Per-layer metrics from the traced run's span totals: metric -> (span
# name, field, unit). Busy seconds are summed over threads.
LAYER_METRICS = {
    "nn.grad_s": ("nn.grad", "busy_s", "s"),
    "nn.grad_samples": ("nn.grad", "items", "count"),
    "nn.eval_s": ("nn.eval", "busy_s", "s"),
    "data.shard_s": ("data.shard", "busy_s", "s"),
    "data.shard_calls": ("data.shard", "calls", "count"),
    "fl.aggregate_s": ("fl.aggregate", "busy_s", "s"),
    "fl.aggregate_calls": ("fl.aggregate", "calls", "count"),
    "comm.compress_s": ("comm.compress", "busy_s", "s"),
    "comm.compress_calls": ("comm.compress", "calls", "count"),
}
MICRO_UNITS = {
    "tensor.gemm_gflops": "GFLOP/s",
    "opt.solve_ms": "ms",
    "comm.uplink_us": "us",
    "comm.uplink_bytes": "B",
    "data.shard_us": "us",
    "fl.schedule_us": "us",
    "util.fork_join_us": "us",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no fedvr source tree under {ROOT}")
    jobs = str(max(1, min(MAX_BUILD_JOBS, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)


def run_child(args):
    """Runs the binary; returns (its last stdout line parsed, or None on
    failure; its peak RSS in MiB)."""
    with open(os.path.join(BUILD_DIR, "child.log"), "w+b") as err:
        proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4, not wait: its rusage is this child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            log(f"fedvr_perfbench {' '.join(args)} exited {proc.returncode}: "
                f"{err.read().decode(errors='replace').strip()[-2000:]}")
            return None, None
    lines = out.decode().strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=POOL_THREADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int,
                    help="training pool size (default: the workload's "
                         "POOL_THREADS entry, capped at nproc)")
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the self-check")
    args = ap.parse_args()
    if args.threads is None:
        args.threads = min(POOL_THREADS[args.workload], os.cpu_count() or 1)
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        ap.error("--seed must be >= 0, --seconds and --threads positive")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(args.threads)] + (["--small"] if args.small
                                                 else [])
    # Direct layer calls take a sixth of a traced run's time budget.
    micro_seconds = args.seconds / 6.0 if args.trace else 0.0
    deadline = time.monotonic() + args.seconds - micro_seconds

    attempted = failed = 0
    correct = True
    reps = []
    trace_path = None
    while True:
        untraced, rss = run_child(common)
        extra = []
        if args.trace and trace_path is None:
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_path = os.path.join(
                TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
            extra = ["--trace-out", trace_path]
        traced, _ = run_child(common + ["--traced"] + extra)
        attempted += 2
        if untraced is None or traced is None:
            failed += (untraced is None) + (traced is None)
            correct = False
            break
        checks = untraced["checks"] + traced["checks"]
        checks.append({
            "name": "traced_hash_equal",
            "ok": untraced["final_param_hash"] == traced["final_param_hash"],
            "detail": f"{untraced['final_param_hash']} vs "
                      f"{traced['final_param_hash']}"})
        for c in checks:
            attempted += 1
            if not c["ok"]:
                failed += 1
                if (args.workload, c["name"]) not in KNOWN_FAILURES:
                    correct = False
                    log(f"check {c['name']} failed: {c['detail']}")
        reps.append((untraced, traced, rss))
        if time.monotonic() >= deadline:
            break

    metrics = {}
    median = statistics.median
    if reps and args.trace == 0:
        def grad_evals(u, t):
            count = u["trace_grad_evals"]
            if count is None:  # no eval row: count from the traced twin
                count = t["layers"]["nn.grad"]["items"]
            return count / u["train_s"]
        metrics = {
            "setup_s": (median([u["setup_s"] for u, _, _ in reps]), "s"),
            "train_s": (median([u["train_s"] for u, _, _ in reps]), "s"),
            "grad_evals_per_s": (median([grad_evals(u, t)
                                         for u, t, _ in reps]), "1/s"),
            "peak_rss_mb": (median([r for _, _, r in reps]), "MiB"),
        }
    elif reps:
        for name, (span, field, unit) in LAYER_METRICS.items():
            metrics[name] = (median([t["layers"][span][field]
                                     for _, t, _ in reps]), unit)
        def model_busy(t):
            return (t["layers"]["nn.grad"]["busy_s"]
                    + t["layers"]["nn.eval"]["busy_s"])
        metrics["nn.concurrency"] = (median(
            [model_busy(t) / t["train_s"] for _, t, _ in reps]), "threads")
        metrics["engine.self_s"] = (median(
            [t["train_s"] - t["covered_s"] for _, t, _ in reps]), "s")
        metrics["bench.trace_overhead_s"] = (median(
            [t["train_s"] - u["train_s"] for u, t, _ in reps]), "s")
        micro, _ = run_child(common + ["--micro", f"{micro_seconds:.3f}"])
        if micro is None:
            correct = False
        else:
            for name, value in micro["micro"].items():
                metrics[name] = (value, MICRO_UNITS[name])

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
