"""Shared pieces of the benchmark workloads: timing, statistics, metric names."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field

#: End-to-end metrics every workload reports from an untraced run, with units.
#: The lanes behind the ``memdb_*`` names differ per workload (see README.md).
#: Latencies and the rate are rescaled to the reference host speed (see
#: :func:`host_probe` and README.md); set-up time is wall time.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "memdb_p50_s": "s",
    "memdb_alt_p50_s": "s",
    "results_per_s": "1/s",
}

#: Per-layer metrics every workload reports from a traced run, with units.
#: A layer the workload leaves idle reads 0.
PER_LAYER = {
    "sql.translate_s": "s",
    "sql.setup_statements": "count",
    "sql.cte_blocks": "count",
    "core.bind_s": "s",
    "simulators.compile_s": "s",
    "simulators.unreported_s": "s",
    "simulators.baseline_run_s": "s",
    "backends.setup_s": "s",
    "backends.query_s": "s",
    "backends.handoff_s": "s",
    "backends.sqlite_run_s": "s",
    "memdb.parse_s": "s",
    "memdb.optimize_s": "s",
    "memdb.plan_s": "s",
    "memdb.execute_s": "s",
    "memdb.op.scan_s": "s",
    "memdb.op.hash_join_s": "s",
    "memdb.op.filter_s": "s",
    "memdb.op.aggregate_s": "s",
    "memdb.op.project_s": "s",
    "memdb.op.fused_gate_s": "s",
    "memdb.blocks": "count",
    "memdb.rows": "count",
    "memdb.plan_cache.hits": "count",
    "memdb.plan_cache.misses": "count",
    "memdb.plan_cache.evictions": "count",
    "memdb.plan_cache.hit_ratio": "ratio",
    "output.prune_s": "s",
    "output.nonzeros": "count",
    "server.submit_rtt_s": "s",
    "server.admission_s": "s",
    "server.queue_wait_s": "s",
    "server.stream_tail_s": "s",
    "scheduler.submit_s": "s",
    "scheduler.pick_wait_s": "s",
    "service.execute_s": "s",
    "journal.append_s": "s",
    "journal.bytes_per_point": "B",
    "obs.trace_overhead_s": "s",
    "unattributed_s": "s",
}

#: Interpreter starts and fixture set-ups per run; ``setup_s`` adds the
#: median of each.
SETUP_REPEATS = 3

#: Tolerance every amplitude check uses.
ATOL = 1e-9

#: What one :func:`host_probe` takes on the reference host: a 2-core VM
#: whose speed was in its usual range (see README.md).
REFERENCE_PROBE_S = 0.025
#: Words in the probe's read buffer: 16 MB, four times a core's L2 cache.
PROBE_WORDS = 1 << 21
#: The buffer's share of the worker's resident set, left out of ``peak_rss_mb``.
PROBE_BUFFER_MB = PROBE_WORDS * 8 / 2**20
_PROBE_BUFFER = None


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports kilobytes),
    less the probe buffer the worker allocates before anything else."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - PROBE_BUFFER_MB


class _ProbeNode:
    __slots__ = ("kind", "value", "children")

    def __init__(self, kind, value, children=()) -> None:
        self.kind = kind
        self.value = value
        self.children = list(children)


def probe_buffer() -> array:
    """The probe's read buffer, allocated once (``PROBE_BUFFER_MB``)."""
    global _PROBE_BUFFER
    if _PROBE_BUFFER is None:
        _PROBE_BUFFER = array("q", [1]) * PROBE_WORDS
    return _PROBE_BUFFER


def host_probe() -> float:
    """Thread CPU time of a fixed pure-Python workload that uses nothing
    from the program: dict updates, random reads over a buffer larger than
    a core's L2 cache, and short-lived small objects.

    Its time tracks only the speed the shared host gives this process
    (neighbours on the same cores and L3 cache), which drifts by a half or
    more over minutes.  Thread CPU time leaves out time spent waiting for
    the GIL or for other threads of the process.
    """
    buffer = probe_buffer()
    table: dict = {}
    nodes = []
    started = time.thread_time()
    for i in range(20_000):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + i * 3 % 11
    position = total = 0
    for _ in range(40_000):
        position = (position * 1103515245 + 12345) & (PROBE_WORDS - 1)
        total += buffer[position]
    for i in range(2_000):
        leaves = [_ProbeNode("column", i + j) for j in range(4)]
        nodes.append(_ProbeNode("select", i, [_ProbeNode("=", 0, leaves[:2]), _ProbeNode(">", 1, leaves[2:])]))
    return time.thread_time() - started


def host_factor(probes) -> float:
    """How much slower than the reference host this run's host was."""
    return median(probes) / REFERENCE_PROBE_S if probes else 1.0


def quiesce() -> None:
    """Collect garbage between samples, outside every timed interval."""
    gc.collect()


def rotated(items: list, round_index: int) -> list:
    """``items`` rotated by the round number, so no method always runs first."""
    shift = round_index % len(items)
    return items[shift:] + items[:shift]


class CheckFailed(AssertionError):
    """An output disagreed with the benchmark's own reference."""


@dataclass
class Phase:
    """What a workload's timed phase measured.

    ``lanes`` maps an operation kind to its latency samples (seconds);
    ``layers`` holds per-layer values for traced runs; ``failures`` names
    each failed operation and each wrong output (``wrong`` counts those);
    ``probes`` holds one :func:`host_probe` time per round, taken before the
    round, ``rounds`` the round of every sample in ``lanes`` and
    ``busy`` every stretch of operation time with its round.
    """

    lanes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)
    results: int = 0
    layers: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    rounds: dict = field(default_factory=dict)
    busy: list = field(default_factory=list)

    def sample(self, lane: str, seconds: float) -> None:
        self.lanes.setdefault(lane, []).append(seconds)
        self.rounds.setdefault(lane, []).append(len(self.probes) - 1)

    def add_busy(self, seconds: float) -> None:
        self.busy.append((seconds, len(self.probes) - 1))

    def round_factor(self, index: int) -> float:
        """The host factor of round ``index``: the median probe of the five
        rounds around it."""
        return host_factor(self.probes[max(0, index - 2):index + 3])

    def rescaled_median(self, lane: str) -> float:
        """Median of ``lane``'s samples, each rescaled by its round's factor."""
        return median([seconds / self.round_factor(index)
                       for seconds, index in zip(self.lanes.get(lane, []), self.rounds.get(lane, []))])

    def rescaled_rate(self) -> float:
        """Results per second of busy time, each part rescaled by its round's factor."""
        busy = sum(seconds / self.round_factor(index) for seconds, index in self.busy)
        return self.results / busy if busy else 0.0


class Deadline:
    """A timed phase of ``seconds`` that always runs at least ``min_rounds`` rounds."""

    def __init__(self, seconds: float, min_rounds: int = 1) -> None:
        self.started = time.perf_counter()
        self.seconds = float(seconds)
        self.min_rounds = int(min_rounds)

    def more(self, rounds_done: int) -> bool:
        if rounds_done < self.min_rounds:
            return True
        return time.perf_counter() - self.started < self.seconds
