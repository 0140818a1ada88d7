"""Tests of the benchmark itself: ``python -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cli_session  # noqa: E402
import harness_suites  # noqa: E402
import query_bulk  # noqa: E402
import run  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402

TIME_UNITS = ("s", "ratio")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("workload"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_prints_every_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {k: unit for k, (unit, _better, _bound) in END_TO_END.items()}
    printed = printed_metrics(proc.stdout)
    for name, (unit, _better, _bound) in END_TO_END.items():
        assert printed[name][1] == unit
        assert printed[name][0] > 0
        if unit in ("s", "1/s"):  # the wall-clock value behind a normalised time
            assert printed[f"wall.{name}"][1] == unit
            assert printed[f"wall.{name}"][0] > 0
    assert printed["fail_ratio"] == (0.0, "ratio")


def test_all_runs_every_workload_in_its_own_process():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "0.2", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in END_TO_END}
    for w in WORKLOADS:
        assert f"{w}: fail_ratio 0.0 ratio" in proc.stdout


def _corrupt_query_bulk(monkeypatch):
    score = query_bulk.Reference.score
    monkeypatch.setattr(query_bulk.Reference, "score",
                        lambda self, kind, r: 1.0 - score(self, kind, r))


def _corrupt_harness(monkeypatch):
    init = harness_suites.HarnessSuites.__init__

    def flipped(self, *args):
        init(self, *args)
        self.expected = [not e for e in self.expected]
    monkeypatch.setattr(harness_suites.HarnessSuites, "__init__", flipped)


def _corrupt_cli(monkeypatch):
    monkeypatch.setattr(cli_session, "SAVED", {"x.csv": "PROJECT[A](R)"})


@pytest.mark.parametrize("workload, corrupt", [
    ("query-bulk", _corrupt_query_bulk),
    ("harness-suites", _corrupt_harness),
    ("cli-session", _corrupt_cli),
])
def test_wrong_reference_counts_as_failed(workload, corrupt, monkeypatch, capsys):
    corrupt(monkeypatch)
    result = run.run_workload(workload, 3, 0.2, False, "tiny")
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
    assert f"fail_ratio {result['failed'] / result['attempted']} ratio" in capsys.readouterr().out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "7", "--trace", "1", "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        assert set(result["metrics"]) == set(PER_LAYER)
        runs.append(result["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] not in TIME_UNITS}
              for m in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    if workload == "harness-suites":
        assert counts[0]["harness.latsearch.structures"] == 179


def test_witness_file_is_the_search_result():
    from gradix.harness.latsearch import search_distributivity_counterexample
    from gradix.lattice import load_lattice_file

    witness, *_gap = search_distributivity_counterexample(harness_suites.MAX_CARRIER)
    assert load_lattice_file(cli_session.WITNESS_FILE) == witness


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == benchmark_json()


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-session", "--seed", "1", "--size", "tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
