"""Reference outputs computed apart from the simulators under test.

* The QFT of a basis state has a closed form (a column of the DFT matrix),
  computed here with numpy.
* Any other circuit is evolved as a dict of basis states, gate by gate,
  from each gate's ``matrix()``: the bit ``p`` of a gate's local index is
  the gate's ``p``-th qubit argument.
"""

from __future__ import annotations

import numpy as np

from .common import ATOL, CheckFailed


def qft_amplitudes(num_qubits: int, basis_index: int) -> np.ndarray:
    """``2^{-n/2} exp(2 pi i b k / 2^n)`` for every ``k``."""
    dimension = 1 << num_qubits
    k = np.arange(dimension, dtype=np.float64)
    return np.exp(2j * np.pi * basis_index * k / dimension) / np.sqrt(dimension)


def evolve(circuit, assignment=None) -> dict[int, complex]:
    """Evolve ``|0...0>`` through ``circuit`` as a dict of basis states.

    ``assignment`` maps the circuit's free parameters (by name) to values.
    """
    by_parameter = {}
    if assignment:
        by_parameter = {p: float(assignment[p.name]) for p in circuit.parameters}
    state: dict[int, complex] = {0: 1.0 + 0.0j}
    for instruction in circuit.instructions:
        if not instruction.is_gate:
            continue
        qubits = instruction.qubits
        matrix = instruction.gate.matrix(by_parameter or None)
        mask = 0
        for qubit in qubits:
            mask |= 1 << qubit
        nxt: dict[int, complex] = {}
        for index, amplitude in state.items():
            local = 0
            for position, qubit in enumerate(qubits):
                local |= ((index >> qubit) & 1) << position
            rest = index & ~mask
            column = matrix[:, local]
            for out_local in range(len(column)):
                factor = column[out_local]
                if factor == 0:
                    continue
                target = rest
                for position, qubit in enumerate(qubits):
                    if (out_local >> position) & 1:
                        target |= 1 << qubit
                nxt[target] = nxt.get(target, 0j) + amplitude * factor
        state = {index: value for index, value in nxt.items() if abs(value) > 1e-12}
    return state


def check_dense(label: str, rows, expected: np.ndarray) -> None:
    """``rows`` ((index, amplitude) pairs) must equal ``expected`` everywhere."""
    indices = np.fromiter((index for index, _ in rows), dtype=np.int64)
    amplitudes = np.fromiter((value for _, value in rows), dtype=np.complex128)
    if len(indices) != len(expected):
        raise CheckFailed(f"{label}: {len(indices)} nonzero amplitudes, expected {len(expected)}")
    error = float(np.max(np.abs(amplitudes - expected[indices])))
    if not error <= ATOL:
        raise CheckFailed(f"{label}: amplitude error {error:.3g} exceeds {ATOL}")


def check_sparse(label: str, rows, expected: dict[int, complex], max_nonzero: int | None = None) -> None:
    """``rows`` must match the dict reference, have unit norm and few nonzeros."""
    got = {int(index): complex(value) for index, value in rows if abs(value) > 1e-12}
    norm = sum(abs(value) ** 2 for value in got.values())
    if abs(norm - 1.0) > ATOL:
        raise CheckFailed(f"{label}: norm {norm!r} is not 1")
    if max_nonzero is not None and len(got) > max_nonzero:
        raise CheckFailed(f"{label}: {len(got)} nonzero amplitudes, at most {max_nonzero} allowed")
    for index in set(got) | set(expected):
        if abs(got.get(index, 0j) - expected.get(index, 0j)) > ATOL:
            raise CheckFailed(f"{label}: amplitude of |{index}> differs from the reference")


def json_rows(rows) -> list[tuple[int, complex]]:
    """(index, amplitude) pairs of streamed ``[s, r, i]`` rows."""
    return [(int(s), complex(r, i)) for s, r, i in rows]
