#!/usr/bin/env python3
"""Reduced-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload at small sizes and confirms that
  * the traced and untraced runs end on the same parameter hash, at pool
    sizes 1 and 4 alike, and every check passes except the known fault;
  * run.py prints exactly the metric names and units BENCHMARK.json
    declares: the end-to-end set with --trace 0, the per-layer set with
    --trace 1.
Exits 0 when all of it holds. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py, beside this file)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.build()
    problems = []
    for w in (entry["name"] for entry in spec["workloads"]):
        hashes = {}
        for threads in (1, 4):
            for traced in (False, True):
                args = ["--workload", w, "--seed", "7", "--small",
                        "--threads", str(threads)] + (["--traced"] if traced
                                                      else [])
                result, _ = run.run_child(args)
                if result is None:
                    problems.append(f"{w}: {' '.join(args)} failed")
                    continue
                hashes[(threads, traced)] = result["final_param_hash"]
                for c in result["checks"]:
                    if not c["ok"] and (w, c["name"]) not in run.KNOWN_FAILURES:
                        problems.append(f"{w} threads={threads} traced="
                                        f"{traced}: {c['name']}: {c['detail']}")
        if len(set(hashes.values())) != 1:
            problems.append(f"{w}: hashes differ {hashes}")
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--small"], capture_output=True, text=True, cwd=run.ROOT)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{w} --trace {trace}: exit {out.returncode}")
                continue
            result = json.loads(lines[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{w} --trace {trace}: printed {printed}, "
                                f"declared {declared[trace]}")
            if not result["correct"]:
                problems.append(f"{w} --trace {trace}: not correct")
        print(f"{w}: hashes {sorted(set(hashes.values()))}", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: " + ("ok" if not problems else
                            f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
