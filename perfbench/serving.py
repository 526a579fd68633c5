"""The ``serving_mixed`` workload: two tenants over real HTTP, plus a probe.

An in-process ``build_server`` (thread tier, 2 workers, 1 shard, journal
on with its default flush policy) serves two closed-loop clients on two
threads.  One round is: the interactive tenant submits ``INTERACTIVE_PER_ROUND``
QFTs one after another, each drained from ``/stream``, while the batch
tenant submits one 8-point ansatz grid and drains it; then, with the
server idle, one 10-qubit QFT probe is submitted.  The probe is refused by
admission every time (see README.md), so every round attempts the same
operations and fails the same one.  The probe stays out of every latency
and rate metric.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .common import CheckFailed, Deadline, Phase, host_probe, quiesce
from .layers import cache_delta, span_times
from .reference import check_dense, check_sparse, evolve, json_rows, qft_amplitudes

#: Interactive requests per round: together they take about half of one
#: sweep's duration, so every one of them runs while the sweep does.  One
#: that ran past the sweep's end would run alone, at about half the latency,
#: and how many did so would change from run to run.
INTERACTIVE_PER_ROUND = 4
#: Distinct sweep grids per run (cycled); references are computed once each.
GRIDS_PER_RUN = 4
#: Width of the admission probe: priced over ``build_server``'s ceiling.
PROBE_QUBITS = 10


class Client:
    """Blocking HTTP client that reads ``/stream`` line by line, timing each."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def submit(self, payload: dict) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            body = json.dumps(payload).encode("utf-8")
            connection.request("POST", "/v1/jobs", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()

    def stream(self, job_id: int) -> list[tuple[float, dict]]:
        """Every streamed record with the time its line arrived."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/stream?rows=1&timeout=60")
            response = connection.getresponse()
            records = []
            while True:
                line = response.readline()
                if not line:
                    return records
                if line.strip():
                    records.append((time.perf_counter(), json.loads(line)))
        finally:
            connection.close()


class Request:
    """One submitted job as the client saw it."""

    __slots__ = ("tenant", "job_id", "started", "submitted", "arrivals", "records", "grid")

    def __init__(self, tenant: str, grid: int | None = None) -> None:
        self.tenant = tenant
        self.grid = grid
        self.job_id = None
        self.started = time.perf_counter()
        self.submitted = 0.0
        self.arrivals: list[float] = []
        self.records: list[dict] = []

    @property
    def latency(self) -> float:
        """Submit to the last result line (the interactive job has one)."""
        return self.arrivals[-1] - self.started


class ServingMixed:
    """Interactive QFTs and ansatz sweeps against one in-process server."""

    name = "serving_mixed"

    def __init__(self, seed: int, smoke: bool, traced: bool) -> None:
        self.seed = int(seed)
        self.traced = traced
        self.qft_qubits, self.ansatz_qubits, self.grid_points = (4, 4, 3) if smoke else (6, 8, 8)
        self.per_round = 1 if smoke else INTERACTIVE_PER_ROUND
        rng = random.Random(self.seed)
        self.basis_index = sum(1 << q for q in rng.sample(range(self.qft_qubits), self.qft_qubits // 2))
        self.grid_seed = rng.randrange(1 << 30)
        self.server = None
        self.thread = None
        self.workdir = None
        self._inputs()
        self.interactive_expected = qft_amplitudes(self.qft_qubits, self.basis_index)
        #: Per grid, the reference states of its points (computed on first use).
        self.sweep_expected: list = [None] * len(self.grids)

    # ------------------------------------------------------------- fixture

    def _inputs(self) -> None:
        from repro.circuits.ansatz import hardware_efficient_ansatz
        from repro.circuits.qft import qft_circuit, qft_on_basis_state
        from repro.io.json_io import circuit_to_dict

        interactive = qft_on_basis_state(self.qft_qubits, self.basis_index)
        self.template = hardware_efficient_ansatz(self.ansatz_qubits, rotation_gates=("ry",))
        names = sorted(parameter.name for parameter in self.template.parameters)
        rng = random.Random(self.grid_seed)
        self.grids = [
            [{name: rng.uniform(0.0, 2.0 * np.pi) for name in names} for _ in range(self.grid_points)]
            for _ in range(GRIDS_PER_RUN)
        ]
        self.interactive_payload = {"circuit": circuit_to_dict(interactive), "tenant": "interactive"}
        self.sweep_payloads = [
            {"circuit": circuit_to_dict(self.template), "tenant": "batch", "param_grid": grid}
            for grid in self.grids
        ]
        self.probe_payload = {"circuit": circuit_to_dict(qft_circuit(PROBE_QUBITS)), "tenant": "probe"}

    def setup(self) -> None:
        from repro.backends.memdb.engine import shared_plan_cache
        from repro.service.server import ServerThread, build_server

        shared_plan_cache().clear()
        scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="serving-", dir=scratch)
        self.journal_path = os.path.join(self.workdir, "journal.jsonl")
        self.server = build_server(
            journal_path=self.journal_path,
            max_workers=2,
            shards=1,
            tracing=self.traced,
            trace_capacity=1024,
        )
        self.thread = ServerThread(self.server)
        host, port = self.thread.start()
        self.client = Client(host, port)
        warm: list[Request] = []
        self._interactive(warm)
        self._sweep(0, warm)
        checked = Phase()
        self._verify(warm, checked)
        if checked.failures:
            raise CheckFailed(f"warm-up: {checked.failures[0]}")

    def teardown(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None
        if self.server is not None:
            service = self.server.service
            service.shutdown(wait=True, drain_timeout=30.0)
            if service.journal is not None:
                service.journal.close()
            self.server = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.workdir))
            except OSError:  # another run still uses it
                pass
            self.workdir = None

    # ------------------------------------------------------------- clients

    def _run_request(self, request: Request, payload: dict) -> Request:
        status, body = self.client.submit(payload)
        request.submitted = time.perf_counter()
        if status != 202:
            raise CheckFailed(f"{request.tenant} submit refused: {status} {body}")
        request.job_id = body["job_id"]
        for arrived, record in self.client.stream(request.job_id):
            if "rows" in record:
                request.arrivals.append(arrived)
                request.records.append(record)
            elif record.get("status") != "done":
                raise CheckFailed(f"{request.tenant} job {request.job_id} ended {record}")
        return request

    def _interactive(self, done: list, start: threading.Barrier | None = None) -> None:
        if start is not None:
            start.wait()
        for _ in range(self.per_round):
            done.append(self._run_request(Request("interactive"), self.interactive_payload))

    def _sweep(self, grid: int, done: list, start: threading.Barrier | None = None) -> None:
        if start is not None:
            start.wait()
        done.append(self._run_request(Request("batch", grid), self.sweep_payloads[grid]))

    def _probe(self, phase: Phase) -> None:
        """Submit the probe to the idle server; a refusal is a failed operation."""
        phase.attempted += 1
        request = Request("probe")
        status, body = self.client.submit(self.probe_payload)
        if status == 202:
            request.job_id = body["job_id"]
            rows = [record["rows"] for _, record in self.client.stream(request.job_id) if "rows" in record]
            if len(rows) != 1:
                raise CheckFailed(f"probe job {request.job_id} streamed {len(rows)} results")
            check_dense("probe qft", json_rows(rows[0]), qft_amplitudes(PROBE_QUBITS, 0))
            return
        phase.failed += 1
        phase.failures.append(
            f"probe qft_{PROBE_QUBITS} refused on an idle server: HTTP {status} "
            f"{body.get('error', body)} -- MemdbCostEstimator sums log2 of UES bounds "
            f"that compound block to block and never caps a block at 2^n rows"
        )

    # ------------------------------------------------------------- checks

    def _verify(self, requests: list, phase: Phase) -> None:
        """Compare every streamed result with the benchmark's references."""
        for request in requests:
            try:
                if request.tenant == "interactive":
                    if len(request.records) != 1:
                        raise CheckFailed(f"interactive job {request.job_id}: {len(request.records)} results")
                    check_dense("interactive qft", json_rows(request.records[0]["rows"]),
                                self.interactive_expected)
                    continue
                grid = self.grids[request.grid]
                if len(request.records) != len(grid):
                    raise CheckFailed(f"sweep job {request.job_id}: {len(request.records)} of {len(grid)} points")
                if self.sweep_expected[request.grid] is None:
                    self.sweep_expected[request.grid] = [evolve(self.template, point) for point in grid]
                for index, (record, point) in enumerate(zip(request.records, grid)):
                    if record["metadata"].get("parameter_binding") != point:
                        raise CheckFailed(f"sweep job {request.job_id}: point {index} out of grid order")
                    check_sparse(f"sweep job {request.job_id} point {index}", json_rows(record["rows"]),
                                 self.sweep_expected[request.grid][index])
            except CheckFailed as exc:
                phase.wrong += 1
                phase.failures.append(str(exc))

    # ------------------------------------------------------------- phase

    def run(self, seconds: float, clock=None) -> Phase:
        from repro.backends.memdb.engine import shared_plan_cache

        phase = Phase()
        tracer = self.server.service.tracer
        if tracer is not None:
            tracer.ring.drain()
        journal_start = os.path.getsize(self.journal_path)
        before = clock.snapshot() if clock is not None else {}
        cache_before = shared_plan_cache().stats()
        requests_done = 0
        layer_sums: dict[str, float] = {}
        deadline = Deadline(seconds, min_rounds=2)
        round_index = 0
        with ThreadPoolExecutor(max_workers=2, thread_name_prefix="tenant") as clients:
            while deadline.more(round_index):
                quiesce()
                phase.probes.append(host_probe())
                requests: list[Request] = []
                # Both tenants start together, also in the first round,
                # before the pool has started its threads.
                start = threading.Barrier(2)
                started = time.perf_counter()
                interactive = clients.submit(self._interactive, requests, start)
                sweep = clients.submit(self._sweep, round_index % len(self.grids), requests, start)
                for future in (interactive, sweep):
                    try:
                        future.result()
                    except Exception as exc:  # a refused or broken request
                        phase.failed += 1
                        phase.failures.append(repr(exc))
                phase.add_busy(time.perf_counter() - started)
                phase.attempted += self.per_round + 1
                for request in requests:
                    phase.sample("interactive" if request.tenant == "interactive" else "sweep",
                                 request.latency)
                    phase.results += len(request.records)
                if clock is not None:
                    self._request_layers(requests, layer_sums)
                requests_done += len(requests)
                # The server is idle: check this round's outputs, then drop them.
                self._verify(requests, phase)
                self._probe(phase)
                round_index += 1
        if clock is not None:
            after = clock.snapshot()
            requests = requests_done
            for key in after:
                layer_sums[key] = layer_sums.get(key, 0.0) + after[key] - before.get(key, 0.0)
            layer_sums.update(cache_delta(cache_before, shared_plan_cache().stats()))
            phase.layers = {key: value / requests for key, value in layer_sums.items()}
            hits, misses = layer_sums.get("memdb.plan_cache.hits", 0.0), layer_sums.get("memdb.plan_cache.misses", 0.0)
            phase.layers["memdb.plan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            phase.layers["journal.bytes_per_point"] = (
                (os.path.getsize(self.journal_path) - journal_start) / max(1, phase.results)
            )
        return phase

    def _request_layers(self, requests: list, sums: dict) -> None:
        """Read the request traces of one round (the server is idle now)."""
        service = self.server.service
        store = service.tracer.request_store
        for request in requests:
            trace = _sealed_trace(store, request.job_id)
            breakdown = trace["breakdown"]
            job_end = max(
                (span["start_s"] + span["duration_s"] for span in _walk(trace["root"]) if span["name"] == "job"),
                default=request.arrivals[-1],
            )
            tail = request.arrivals[-1] - job_end
            reported = sum(record["wall_time_s"] for record in request.records)
            values = {
                "server.submit_rtt_s": request.submitted - request.started,
                "server.queue_wait_s": breakdown["queue_wait_s"],
                "service.execute_s": breakdown["execute_s"],
                "server.stream_tail_s": tail,
                "simulators.unreported_s": request.latency - reported,
                "output.nonzeros": sum(record["nonzero_amplitudes"] for record in request.records),
                "unattributed_s": request.latency - breakdown["admission_s"] - breakdown["queue_wait_s"]
                - breakdown["execute_s"] - tail,
            }
            for key, value in values.items():
                sums[key] = sums.get(key, 0.0) + value
        for key, value in span_times(service.tracer.ring.drain()).items():
            sums[key] = sums.get(key, 0.0) + value


def _sealed_trace(store, job_id: int, timeout: float = 5.0) -> dict:
    """The job's assembled request trace once the service has sealed it.

    The stream's final line can reach the client before the worker thread
    seals the trace (the terminal status is published first), so wait.
    """
    deadline = time.monotonic() + timeout
    while True:
        trace = store.for_job(job_id)
        if trace is not None and "breakdown" in trace:
            return trace
        if time.monotonic() > deadline:
            raise RuntimeError(f"the trace of job {job_id} was not sealed within {timeout}s")
        time.sleep(0.001)


def _walk(node):
    if node is None:
        return
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)
