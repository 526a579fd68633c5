"""One workload in one fresh interpreter; the last stdout line is its JSON.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker`` from the
repository root with ``src`` on ``PYTHONPATH``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import subprocess
import sys
import time

from .common import END_TO_END, PER_LAYER, SETUP_REPEATS, host_factor, median, peak_rss_mb, percentile, probe_buffer

#: Per workload: the lane behind ``memdb_p50_s`` and the lane behind
#: ``memdb_alt_p50_s``.
PRIMARY_LANES = {
    "dense_qft": ("memdb_cte", "memdb_mat"),
    "sparse_deep": ("memdb_cte", "memdb_mat"),
    "serving_mixed": ("interactive", "sweep"),
}


#: The program's modules each workload uses, imported before the first set-up.
PROGRAM_MODULES = {
    "dense_qft": ("repro.backends.memdb_backend", "repro.circuits.qft", "repro.simulators.statevector"),
    "sparse_deep": ("repro.backends.memdb_backend", "repro.backends.sqlite_backend",
                    "repro.circuits.random_circuits", "repro.simulators.sparse"),
    "serving_mixed": ("repro.service.server", "repro.circuits.ansatz", "repro.circuits.qft",
                      "repro.io.json_io"),
}


def import_program(workload: str) -> None:
    for module in PROGRAM_MODULES[workload]:
        importlib.import_module(module)


def interpreter_start(workload: str) -> float:
    """Wall time of another fresh interpreter that imports what ``workload`` uses."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"from perfbench.worker import import_program; import_program({workload!r})"],
                   check=True, timeout=60)
    return time.perf_counter() - started


def _workload(name: str, seed: int, smoke: bool, traced: bool):
    if name == "serving_mixed":
        from .serving import ServingMixed

        return ServingMixed(seed, smoke, traced)
    from .library import DenseQFT, SparseDeep

    return {"dense_qft": DenseQFT, "sparse_deep": SparseDeep}[name](seed, smoke, traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(PRIMARY_LANES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter reading of the parent just before it started this process")
    args = parser.parse_args(argv)
    # Resident for the whole run, so that ``peak_rss_mb`` can leave it out.
    probe_buffer()

    import_program(args.workload)  # import time belongs to set-up

    starts = [time.perf_counter() - args.spawned_at]
    repeats = 1 if args.smoke else SETUP_REPEATS
    for _ in range(repeats - 1):
        starts.append(interpreter_start(args.workload))
    traced = bool(args.trace)
    workload = _workload(args.workload, args.seed, args.smoke, traced)
    setups = []
    for repeat in range(repeats):
        if repeat:
            workload.teardown()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    # Everything set-up allocated is long-lived: keep it out of the
    # collections run between samples.
    gc.collect()
    gc.freeze()

    clock = None
    if traced:
        from .layers import LayerClock

        clock = LayerClock()
        clock.install()
    try:
        phase = workload.run(args.seconds, clock)
    finally:
        if clock is not None:
            clock.uninstall()
        workload.teardown()

    primary, alternate = PRIMARY_LANES[args.workload]
    if traced:
        metrics = {name: {"value": float(phase.layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": median(starts) + median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "memdb_p50_s": phase.rescaled_median(primary),
            "memdb_alt_p50_s": phase.rescaled_median(alternate),
            "results_per_s": phase.rescaled_rate(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    report = {
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
        "failures": list(dict.fromkeys(phase.failures))[:20],
        "primary_p50_s": phase.rescaled_median(primary),
        "host_factor": host_factor(phase.probes),
        "lanes": {lane: {"samples": len(samples), "p50_s": median(samples),
                         "p90_s": percentile(samples, 0.9)}
                  for lane, samples in sorted(phase.lanes.items())},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
