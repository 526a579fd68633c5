"""The repository benchmark command.

Run from the repository root::

    python3 perfbench/run.py --workload dense_qft --seed 1 --seconds 30 --trace 0

Workloads: ``dense_qft``, ``sparse_deep``, ``serving_mixed`` (or ``all``).
Each runs in a fresh interpreter.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` first runs the same workload
untraced for half the time, then traced for the other half, and reports
the per-layer metrics plus the tracing overhead.  ``--smoke`` shrinks every
input so that a run takes seconds.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dense_qft", "sparse_deep", "serving_mixed")
#: Wall-clock budget of one workload's measurement, workers included.
BUDGET_S = 170.0
#: Native thread pools pinned to one thread each.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Program switches left unset, so every run sees the defaults.
UNSET = ("REPRO_MEMDB_PARALLEL", "REPRO_TRACE", "REPRO_TRACE_JSONL",
         "REPRO_TRACE_SLOW_MS", "REPRO_MEMDB_DICT")


class WorkerFailed(RuntimeError):
    pass


def worker_env(traced: bool, workload: str) -> dict:
    env = dict(os.environ)
    for name in UNSET:
        env.pop(name, None)
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    if traced and workload == "serving_mixed":
        # Engines in the server's pool take no tracer argument; the
        # process-shared tracer is how their query spans reach the trace.
        env["REPRO_TRACE"] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
               deadline: float) -> dict:
    """Run one workload in a fresh interpreter and return its report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"{workload}: no time left in the {BUDGET_S:.0f}s budget")
    command = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(traced))]
    if smoke:
        command.append("--smoke")
    command += ["--spawned-at", repr(time.perf_counter())]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=worker_env(traced, workload),
            stdout=subprocess.PIPE, text=True, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}: worker did not finish within {timeout:.0f}s") from exc
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload's result in the output form (traced runs add the overhead)."""
    deadline = time.monotonic() + BUDGET_S
    if not trace:
        reports = [run_worker(workload, seed, seconds, False, smoke, deadline)]
        metrics = reports[0]["metrics"]
    else:
        untraced = run_worker(workload, seed, seconds / 2, False, smoke, deadline)
        traced = run_worker(workload, seed, seconds / 2, True, smoke, deadline)
        reports = [untraced, traced]
        metrics = traced["metrics"]
        metrics["obs.trace_overhead_s"]["value"] = traced["primary_p50_s"] - untraced["primary_p50_s"]
    for report in reports:
        lanes = ", ".join(
            f"{lane} p50 {item['p50_s'] * 1e3:.2f} ms p90 {item['p90_s'] * 1e3:.2f} ms (n={item['samples']})"
            for lane, item in report["lanes"].items()
        )
        print(f"{workload}: host factor {report['host_factor']:.3f}; wall-clock {lanes}", file=sys.stderr)
        for failure in report["failures"]:
            print(f"{workload}: FAILED {failure}", file=sys.stderr)
    return {
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check; runs in seconds")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        for workload, result in results.items():
            print(f"{workload}: {json.dumps(result)}")
        result = {
            "correct": all(item["correct"] for item in results.values()),
            "attempted": sum(item["attempted"] for item in results.values()),
            "failed": sum(item["failed"] for item in results.values()),
            "metrics": {f"{workload}.{name}": metric for workload, item in results.items()
                        for name, metric in item["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
