"""The benchmark's own tests: every workload end to end, at smoke size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.common import END_TO_END, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "src"))


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", ["dense_qft", "sparse_deep", "serving_mixed"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload: str, trace: str) -> None:
    completed = run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    if workload == "serving_mixed":
        # One round: one interactive request, one sweep, one refused probe.
        assert result["failed"] * 3 == result["attempted"]
        assert "FAILED probe" in completed.stderr
    else:
        assert result["failed"] == 0


def test_seed_fixes_the_inputs() -> None:
    from perfbench.library import SparseDeep, _basis_index

    assert _basis_index(14, 3) == _basis_index(14, 3)
    assert bin(_basis_index(14, 3)).count("1") == 7
    first = SparseDeep(3, smoke=True, traced=False).circuit("sqlite", 4)
    again = SparseDeep(3, smoke=True, traced=False).circuit("sqlite", 4)
    other = SparseDeep(4, smoke=True, traced=False).circuit("sqlite", 4)
    assert first.instructions == again.instructions
    assert first.instructions != other.instructions


def test_reference_matches_closed_form() -> None:
    import numpy as np

    from perfbench.reference import evolve, qft_amplitudes
    from repro.circuits.qft import qft_on_basis_state

    state = evolve(qft_on_basis_state(5, 11))
    expected = qft_amplitudes(5, 11)
    assert max(abs(state[index] - expected[index]) for index in range(32)) < 1e-12
    assert np.isclose(sum(abs(value) ** 2 for value in state.values()), 1.0)


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_qft", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
