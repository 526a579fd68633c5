"""Per-layer instrumentation for traced runs.

Two sources, both from outside ``src/``:

* :class:`LayerClock` wraps public functions of each layer on their
  classes (``SQLTranslator.translate``, ``MemDatabase.execute``,
  ``SparseState.from_rows`` ...) and sums their wall time per metric;
* :func:`span_times` reads the engine's own span trees (a ``Tracer``
  passed to ``MemDBBackend``, or the serving tier's tracer) into operator
  self times, block counts and rows.

Untraced runs install none of these wrappers.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

#: Operator span kinds and the metric their self time lands in.
OPERATOR_METRICS = {
    "scan": "memdb.op.scan_s",
    "hash-join": "memdb.op.hash_join_s",
    "filter": "memdb.op.filter_s",
    "aggregate": "memdb.op.aggregate_s",
    "project": "memdb.op.project_s",
}
FUSED_METRIC = "memdb.op.fused_gate_s"

#: Layer self times that partition a memdb simulation's wall time; what is
#: left over is ``unattributed_s``.
SELF_TIME_KEYS = (
    "sql.translate_s",
    "core.bind_s",
    "backends.setup_s",
    "backends.query_s",
    "backends.handoff_s",
    "output.prune_s",
)


def _is_setup_statement(sql: str) -> bool:
    """Gate/state table DDL and INSERTs, as opposed to the simulation queries."""
    head = sql[:80].lstrip().upper()
    if head.startswith("INSERT"):
        return True
    return head.startswith("CREATE TABLE") and " AS " not in head


class LayerClock:
    """Sums wall time and counts of wrapped calls, per metric name."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[type, str, object]] = []
        self._enqueued: dict[int, float] = {}

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[key] += value

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.totals)

    # ------------------------------------------------------------ wrapping

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _timer(self, key: str):
        """A wrapper factory adding each call's wall time to ``key``."""
        def make(function):
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    self.add(key, time.perf_counter() - started)
            return wrapper
        return make

    def timed(self, owner, attr: str, key: str) -> None:
        self._patch(owner, attr, self._timer(key))

    def install(self) -> None:
        """Wrap every layer's entry points; :meth:`uninstall` undoes it."""
        from repro.backends.memdb import engine
        from repro.backends.memdb.engine import MemDatabase
        from repro.backends.memdb.optimizer import Optimizer
        from repro.core.circuit import QuantumCircuit
        from repro.output.result import SparseState
        from repro.service.server.admission import AdmissionController
        from repro.service.server.journal import JobJournal
        from repro.service.server.scheduler import FairScheduler
        from repro.simulators.base import BaseSimulator
        from repro.sql.translator import SQLTranslator

        self.timed(QuantumCircuit, "bind_parameters", "core.bind_s")
        self.timed(BaseSimulator, "compile", "simulators.compile_s")
        self.timed(SparseState, "pruned", "output.prune_s")
        self.timed(MemDatabase, "prepare", "backends.query_s")
        self.timed(Optimizer, "optimize", "memdb.optimize_s")
        self.timed(AdmissionController, "assess", "server.admission_s")
        for record in ("record_submitted", "record_started", "record_point", "record_terminal"):
            self.timed(JobJournal, record, "journal.append_s")
        self._wrap_module_function(engine, "parse_sql", "memdb.parse_s")
        self._wrap_module_function(engine, "compile_statement", "memdb.plan_s")
        self._patch(SQLTranslator, "translate", self._translate_wrapper)
        self._patch(MemDatabase, "execute", self._execute_wrapper)
        self._patch(SparseState, "from_rows", self._from_rows_wrapper)
        self._patch(FairScheduler, "submit", self._submit_wrapper)
        self._patch(FairScheduler, "next_job", self._next_job_wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap_module_function(self, module, name: str, key: str) -> None:
        function = getattr(module, name)
        setattr(module, name, self._timer(key)(function))
        self._undo.append((module, name, function))

    def _translate_wrapper(self, function):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            translation = function(*args, **kwargs)
            elapsed = time.perf_counter() - started
            with self._lock:
                self.totals["sql.translate_s"] += elapsed
                # setup_statements(): one DDL + one INSERT per gate table,
                # plus the initial state table's pair.
                self.totals["sql.setup_statements"] += 2 * len(translation.gate_tables) + 2
                self.totals["sql.cte_blocks"] += len(translation.steps)
            return translation
        return wrapper

    def _execute_wrapper(self, function):
        local = self._local

        def wrapper(database, sql, *args, **kwargs):
            started = time.perf_counter()
            try:
                return function(database, sql, *args, **kwargs)
            finally:
                ended = time.perf_counter()
                if _is_setup_statement(sql):
                    self.add("backends.setup_s", ended - started)
                else:
                    self.add("backends.query_s", ended - started)
                    local.query_ended = ended
        return wrapper

    def _from_rows_wrapper(self, function):
        local = self._local

        def wrapper(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            finally:
                # Hand-off: from the end of the engine's last query to the
                # state object (re-tupling rows, dropping tables, from_rows).
                query_ended = getattr(local, "query_ended", None)
                if query_ended is not None:
                    self.add("backends.handoff_s", time.perf_counter() - query_ended)
                    local.query_ended = None
        return wrapper

    def _submit_wrapper(self, function):
        def wrapper(scheduler, handle, *args, **kwargs):
            started = time.perf_counter()
            try:
                return function(scheduler, handle, *args, **kwargs)
            finally:
                ended = time.perf_counter()
                with self._lock:
                    self.totals["scheduler.submit_s"] += ended - started
                    self._enqueued[id(handle)] = ended
        return wrapper

    def _next_job_wrapper(self, function):
        def wrapper(scheduler, *args, **kwargs):
            handle = function(scheduler, *args, **kwargs)
            if handle is not None:
                picked = time.perf_counter()
                with self._lock:
                    enqueued = self._enqueued.pop(id(handle), None)
                    if enqueued is not None:
                        self.totals["scheduler.pick_wait_s"] += picked - enqueued
            return handle
        return wrapper


def span_times(roots) -> dict[str, float]:
    """Operator self times, execute time, blocks and rows of span trees."""
    totals: dict[str, float] = defaultdict(float)
    for root in roots:
        for span in root.walk():
            children = sum(child.duration_s for child in span.children)
            self_time = span.duration_s - children
            if span.name == "operator":
                key = OPERATOR_METRICS.get(span.attrs.get("op"))
                if key is not None:
                    totals[key] += self_time
            elif span.name == "block":
                totals["memdb.blocks"] += 1
                totals["memdb.rows"] += span.attrs.get("rows", 0) or 0
                if span.attrs.get("op") == "fused-join-aggregate":
                    totals[FUSED_METRIC] += self_time
            elif span.name == "execute":
                totals["memdb.execute_s"] += span.duration_s
    return totals


def cache_delta(before: dict, after: dict) -> dict[str, float]:
    """Plan-cache counter deltas between two ``PlanCache.stats()`` readings."""
    return {
        f"memdb.plan_cache.{name}": float(after[name] - before[name])
        for name in ("hits", "misses", "evictions")
    }
