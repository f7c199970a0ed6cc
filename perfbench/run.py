"""Benchmark entry point.

    python3 perfbench/run.py --workload order_flow --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter with ``PYTHONHASHSEED`` fixed.  ``--trace 0`` runs the
workload untraced, plus set-up-only interpreters, and reports the
end-to-end metrics; ``--trace 1`` runs it untraced and then traced, and
reports the per-layer metrics, the tracing overhead among them.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Set-up is timed in this many interpreters per run; the median is reported.
SETUP_RUNS = 3
#: Whole-run deadline; children are killed past it.
DEADLINE_S = 170.0
HASH_SEED = "0"

END_TO_END_UNITS = {
    "throughput_eps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(options: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    options = dict(options, out_dir=OUT_DIR, spawned=time.perf_counter())
    command = [sys.executable, os.path.abspath(__file__), "--child", json.dumps(options)]
    completed = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"benchmark process exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.gettrace() is not None or sys.getprofile() is not None:
        print("refusing to run under a tracer or profiler", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.harness import PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = {"name": args.workload, "seed": args.seed, "seconds": args.seconds}
    measured = run_child(dict(base, mode="measure"), deadline)
    print(
        f"# {args.workload} seed={args.seed} sha={git_sha()} nproc={os.cpu_count()}"
        f" python={platform.python_version()} hashseed={HASH_SEED}"
    )
    print(
        f"# events={measured['events']} chunks={measured['chunks']}"
        f" latency_samples={measured['samples']}"
        f" attempted={measured['attempted']} failed={measured['failed']}"
        f" error_rate={measured['error_rate']}"
    )
    print(
        f"# wall (not gated): throughput_eps={measured['throughput_wall_eps']:.1f}"
        f" latency_p50_ms={measured['latency_wall_p50_ms']:.4f}"
        f" latency_p99_ms={measured['latency_wall_p99_ms']:.4f}"
        f" timed_s={measured['timed_wall_s']:.3f} setup_s={measured['setup_wall_s']:.4f}"
    )
    print(
        f"# kernel: median_us={measured['kernel_us']:.2f}"
        f" iqr={measured['kernel_iqr']:.4f}"
    )
    if args.trace:
        traced = run_child(dict(base, mode="trace"), deadline)
        layers = traced["layers"]
        layers["trace.overhead"] = (
            measured["throughput_eps"] / traced["throughput_eps"] - 1.0
        )
        layers["ref.kernel_us"] = traced["kernel_us"]
        layers["ref.kernel_iqr"] = traced["kernel_iqr"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        print(f"# traced: spans={traced['spans']} written to {OUT_DIR}")
        failed = measured["failed"] + traced["failed"]
        attempted = measured["attempted"] + traced["attempted"]
    else:
        setups = [measured["setup_s"]]
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_child(dict(base, mode="setup"), deadline)["setup_s"])
        measured["setup_s"] = statistics.median(setups)
        print(f"# setup_s runs: {' '.join(f'{s:.4f}' for s in setups)}")
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        failed, attempted = measured["failed"], measured["attempted"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        sys.path.insert(0, ROOT)
        from perfbench.harness import main as child_main

        sys.exit(child_main(sys.argv[2:]))
    sys.exit(main())
