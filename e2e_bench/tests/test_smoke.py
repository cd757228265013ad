"""Every workload runs end to end at a tiny size, traced and untraced,
and prints the metrics ``BENCHMARK.json`` names; without the program's
sources the benchmark fails before printing a result.

Run from the repository root::

    python3 -m pytest e2e_bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, timeout: float = 240):
    return subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2e_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "handoff-large", 0, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_leaves_no_process_behind():
    """The sweep's workers and the resource tracker its shared-memory
    transport starts are ended and reaped before the result is printed."""
    import run
    from e2e_common import child_pids

    assert run.main(["--workload", "paper-sweep", "--seed", "7",
                     "--seconds", "0.5", "--scale", "tiny"]) == 0
    assert child_pids() == []
