"""The benchmark's own tests: every workload at a small size, oracles on.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  Each test
runs a workload for about a second on shrunken data and requires every
op to pass its oracle check; the traced test runs the command itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.data import TrafficData  # noqa: E402
from perfbench.oracle import Oracle, QuerySpec  # noqa: E402
from perfbench.workloads import WORKLOADS, run_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _command(*args: str):
    return [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean_against_its_oracles(name, tmp_path):
    workload = run_workload(name, seed=11, seconds=1.0, workdir=tmp_path, small=True)
    assert workload.rec.failures == []
    assert workload.problems == []
    assert workload.correct
    assert workload.rec.attempted > 0 and workload.rec.failed == 0
    metrics = workload.end_to_end()
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values()), metrics
    assert list(tmp_path.glob("*.db*")) == []


def test_traced_remote_run_prints_every_per_layer_metric(tmp_path):
    completed = subprocess.run(
        _command("--workload", "remote_mixed", "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--small"),
        cwd=str(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in ("daemon.server_ms_per_op", "protocol.encode_ms_per_publish",
                 "codec.encode_ms_per_1k_readings", "stream.deliveries"):
        assert result["metrics"][name]["value"] > 0, name
    assert "unattributed remainder" in completed.stdout
    assert not (tmp_path / ".perfbench_work").exists()


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_oracle_walks_the_generators_edges():
    data = TrafficData(5, ["london"], 1, 3)
    oracle = Oracle()
    oracle.add(data.sets)
    newest = data.rollups[-1].pname.digest
    # three hours: 3 x (12 raw + merged + filtered + aggregated) + 2 earlier rollups
    assert len(oracle.ancestors(newest)) == 3 * 15 + 2
    first_raw = data.batches[0][0].pname.digest
    assert len(oracle.descendants(first_raw)) == 3 + 3
    everything = oracle.select(QuerySpec("all", city="london"))
    assert len(everything) == len(data.sets)
