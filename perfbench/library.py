"""The two library workloads: ``dense_qft`` and ``sparse_deep``.

Both time calls into the simulator API round by round, one operation per
method per round, with the method order rotated every round.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from .common import CheckFailed, Deadline, Phase, host_probe, quiesce, rotated
from .layers import SELF_TIME_KEYS, cache_delta, span_times
from .reference import check_dense, check_sparse, evolve, qft_amplitudes

#: Lanes whose samples feed the memdb end-to-end metrics and layer means.
MEMDB_LANES = ("memdb_cte", "memdb_mat")


class LibraryWorkload:
    """Shared timed loop of the library workloads.

    Subclasses set ``lanes`` (round-robin order), build their methods in
    :meth:`setup` and return ``(call, check)`` for one operation from
    :meth:`operation`.  ``baseline_lanes`` maps a non-memdb lane to the
    per-layer metric its mean latency is reported as.
    """

    lanes: tuple[str, ...] = ()
    baseline_lanes: dict[str, str] = {}

    def __init__(self, seed: int, smoke: bool, traced: bool) -> None:
        self.seed = int(seed)
        self.traced = traced
        self.tracer = None

    def _memdb(self, **options):
        from repro.backends.memdb_backend import MemDBBackend

        if self.traced:
            return MemDBBackend(tracer=self.tracer, **options)
        return MemDBBackend(**options)

    def _fresh_engine_state(self) -> None:
        from repro.backends.memdb.engine import shared_plan_cache
        from repro.obs.tracing import Tracer

        shared_plan_cache().clear()
        self.tracer = Tracer() if self.traced else None

    def teardown(self) -> None:
        """Library workloads hold no processes, threads or files."""

    def warm_up(self) -> None:
        for lane in self.lanes:
            call, check = self.operation(lane, -1)
            check(call())

    def operation(self, lane: str, round_index: int):
        raise NotImplementedError

    def run(self, seconds: float, clock=None) -> Phase:
        from repro.backends.memdb.engine import shared_plan_cache

        phase = Phase()
        cache = shared_plan_cache()
        layer_sums: dict[str, float] = {}
        memdb_samples = 0
        if self.tracer is not None:
            self.tracer.ring.drain()
        deadline = Deadline(seconds, min_rounds=2)
        round_index = 0
        while deadline.more(round_index):
            quiesce()
            phase.probes.append(host_probe())
            for lane in rotated(list(self.lanes), round_index):
                call, check = self.operation(lane, round_index)
                traced = clock is not None and lane in MEMDB_LANES
                quiesce()
                if traced:
                    before, cache_before = clock.snapshot(), cache.stats()
                root = self.tracer.span("simulation", lane=lane) if traced else nullcontext()
                started = time.perf_counter()
                with root:
                    outcome = self._attempt(call)
                elapsed = time.perf_counter() - started
                phase.attempted += 1
                if isinstance(outcome, Exception):
                    phase.failed += 1
                    phase.failures.append(f"{lane} round {round_index}: {outcome!r}")
                    continue
                try:
                    check(outcome)
                except CheckFailed as exc:
                    phase.failures.append(str(exc))
                    phase.wrong += 1
                phase.sample(lane, elapsed)
                phase.results += 1
                phase.add_busy(elapsed)
                if traced:
                    memdb_samples += 1
                    values = _sample_layers(
                        clock, before, cache, cache_before, self.tracer, outcome, elapsed
                    )
                    for key, value in values.items():
                        layer_sums[key] = layer_sums.get(key, 0.0) + value
            round_index += 1
        if clock is not None:
            phase.layers = self._layer_means(phase, layer_sums, memdb_samples)
        return phase

    @staticmethod
    def _attempt(call):
        """Run one operation; an exception from the program is its outcome."""
        try:
            return call()
        except Exception as exc:  # counted as a failed operation
            return exc

    def _layer_means(self, phase: Phase, sums: dict, samples: int) -> dict:
        layers = {key: value / samples for key, value in sums.items()} if samples else {}
        lookups = sums.get("memdb.plan_cache.hits", 0.0) + sums.get("memdb.plan_cache.misses", 0.0)
        layers["memdb.plan_cache.hit_ratio"] = (
            sums.get("memdb.plan_cache.hits", 0.0) / lookups if lookups else 0.0
        )
        for lane, key in self.baseline_lanes.items():
            values = phase.lanes.get(lane, [])
            layers[key] = sum(values) / len(values) if values else 0.0
        return layers


def _sample_layers(clock, before, cache, cache_before, tracer, result, elapsed) -> dict:
    """Per-layer values of one traced memdb simulation."""
    after = clock.snapshot()
    values = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
    values.update(span_times(tracer.ring.drain()))
    values.update(cache_delta(cache_before, cache.stats()))
    values["simulators.unreported_s"] = elapsed - result.wall_time_s
    values["output.nonzeros"] = float(result.state.num_nonzero)
    values["unattributed_s"] = elapsed - sum(values.get(key, 0.0) for key in SELF_TIME_KEYS)
    return values


def _basis_index(num_qubits: int, seed: int) -> int:
    """A seeded basis index with exactly half of its bits set."""
    rng = random.Random(seed)
    index = 0
    for qubit in rng.sample(range(num_qubits), num_qubits // 2):
        index |= 1 << qubit
    return index


class DenseQFT(LibraryWorkload):
    """Warm executables of the QFT of a basis state, every amplitude nonzero."""

    name = "dense_qft"
    lanes = ("memdb_cte", "memdb_mat", "statevector")
    baseline_lanes = {"statevector": "simulators.baseline_run_s"}

    def __init__(self, seed: int, smoke: bool, traced: bool) -> None:
        super().__init__(seed, smoke, traced)
        self.num_qubits = 6 if smoke else 14
        self.basis_index = _basis_index(self.num_qubits, self.seed)
        self.expected = qft_amplitudes(self.num_qubits, self.basis_index)
        self.executables: dict = {}

    def setup(self) -> None:
        from repro.circuits.qft import qft_on_basis_state
        from repro.simulators.statevector import StatevectorSimulator

        self._fresh_engine_state()
        circuit = qft_on_basis_state(self.num_qubits, self.basis_index)
        methods = {
            "memdb_cte": self._memdb(),
            "memdb_mat": self._memdb(mode="materialized"),
            "statevector": StatevectorSimulator(),
        }
        self.executables = {lane: method.compile(circuit) for lane, method in methods.items()}
        self.warm_up()

    def operation(self, lane: str, round_index: int):
        executable = self.executables[lane]

        def call():
            return executable.bind().execute()

        def check(result) -> None:
            check_dense(f"{lane} qft", list(result.state.items()), self.expected)

        return call, check


class SparseDeep(LibraryWorkload):
    """One-shot runs of distinct seeded deep sparse circuits."""

    name = "sparse_deep"
    lanes = ("memdb_cte", "memdb_mat", "sqlite", "sparse")
    baseline_lanes = {"sparse": "simulators.baseline_run_s", "sqlite": "backends.sqlite_run_s"}

    def __init__(self, seed: int, smoke: bool, traced: bool) -> None:
        super().__init__(seed, smoke, traced)
        self.num_qubits, self.depth, self.branching = (10, 3, 2) if smoke else (32, 8, 3)
        self.methods: dict = {}

    def setup(self) -> None:
        from repro.backends.sqlite_backend import SQLiteBackend
        from repro.simulators.sparse import SparseSimulator

        self._fresh_engine_state()
        self.methods = {
            "memdb_cte": self._memdb(),
            "memdb_mat": self._memdb(mode="materialized"),
            "sqlite": SQLiteBackend(),
            "sparse": SparseSimulator(),
        }
        self.warm_up()

    def circuit(self, lane: str, round_index: int):
        """Every (round, lane) pair gets its own circuit; round -1 warms up."""
        from repro.circuits.random_circuits import random_sparse_circuit

        slot = (round_index + 1) * len(self.lanes) + self.lanes.index(lane)
        return random_sparse_circuit(
            self.num_qubits,
            depth=self.depth,
            max_branching=self.branching,
            seed=self.seed * 1_000_003 + slot,
        )

    def operation(self, lane: str, round_index: int):
        method = self.methods[lane]
        circuit = self.circuit(lane, round_index)
        expected = evolve(circuit)
        branching = sum(1 for instruction in circuit.instructions if instruction.name == "h")

        def call():
            return method.run(circuit)

        def check(result) -> None:
            if result.state.num_qubits != self.num_qubits:
                raise CheckFailed(f"{lane} {circuit.name}: wrong qubit count")
            check_sparse(f"{lane} {circuit.name}", list(result.state.items()), expected, 2 ** branching)

        return call, check
