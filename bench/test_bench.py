"""Smoke test of the benchmark itself: every workload on a tiny corpus.

    python -m pytest bench/test_bench.py

Each workload runs untraced and traced with a one-unit persona mix (200
users); every metric declared in BENCHMARK.json must be printed with its
unit, error_rate must be 0, and the result line must follow the contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_no_errors(workload: str, trace: int) -> None:
    proc = _run(HERE.parent, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--mix", "1")
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    printed = {fields[0]: fields[1:3] for fields in (line.split() for line in table)
               if len(fields) >= 3}
    for metric in [*SPEC["end_to_end"], *(SPEC["per_layer"] if trace else [])]:
        assert printed[metric["name"]][1] == metric["unit"], metric["name"]
    assert printed["error_rate"] == ["0", "ratio"]


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
