"""Smoke tests of the benchmark: every workload in its tiny mode.

Run with ``python3 -m pytest -q perfbench/tests`` from the checkout root.
They are not part of the repository's Tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# remote-loopback is runnable but not listed in BENCHMARK.json (see README).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["remote-loopback"]


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "0.2",
         "--size", "smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema_names_and_digests(workload: str, trace: str) -> None:
    proc = run_bench(ROOT, "--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_counts_repeat() -> None:
    runs = [last_json(run_bench(ROOT, "--workload", "evaluate-compare", "--trace", "1"))
            for _ in range(2)]
    counts = [
        {n: m["value"] for n, m in r["metrics"].items() if m["unit"] in ("count", "1/query")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["metrics.first_relevant_rank.calls_per_query"] == 15


def test_stub_counts_one_connection_per_query() -> None:
    proc = run_bench(ROOT, "--workload", "remote-loopback", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(
        (ROOT / ".bench_out" / "results" / "remote-loopback-smoke-seed0-trace1.json").read_text()
    )
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["remote.connections_per_query"] == 1.0
    assert metrics["execution.standardize_results.dropped"] > 0
    assert metrics["remote.server_s_per_request"] > 0


def _copy_bench(tmp_path: Path) -> Path:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_digest_mismatch_fails(tmp_path: Path) -> None:
    root = _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src" / "patbench", root / "src" / "patbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    digests = json.loads((root / "perfbench" / "digests.json").read_text())
    digests["retrieve"]["smoke"]["0"]["output"] = "0" * 64
    (root / "perfbench" / "digests.json").write_text(json.dumps(digests))
    proc = run_bench(root, "--workload", "retrieve")
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_outside_a_checkout(tmp_path: Path) -> None:
    root = _copy_bench(tmp_path)
    proc = run_bench(root, "--workload", "retrieve")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
