"""Tests of the benchmark itself, at tiny scope: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import Tracer, tail  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "60", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def assert_metrics(res: dict, kind: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert list(res["metrics"]) == list(want)
    for name, got in res["metrics"].items():
        assert got["unit"] == want[name], name
        assert isinstance(got["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    res, detail = result(bench("--workload", workload, "--trace", "0", "--scale", "tiny"))
    assert_metrics(res, "end_to_end")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 44
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert detail["fail_ratio"] == 0
    assert detail["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    res, detail = result(bench("--workload", workload, "--trace", "1", "--scale", "tiny"))
    assert_metrics(res, "per_layer")
    assert res["correct"], detail["failures"]
    assert detail["self_s"]
    for path in detail["spans_files"]:
        spans = json.loads((REPO / path).read_text(encoding="utf-8"))
        assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) > 0


def copy_benchmark(dest: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_answer_from_the_program_counts_as_failure(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    oracle = tmp_path / "src" / "sublattices" / "oracle.py"
    with oracle.open("a", encoding="utf-8") as fh:
        fh.write(
            "\n_right_cocyclic_bruteforce = cocyclic_bruteforce\n\n\n"
            "def cocyclic_bruteforce(n, m, **kwargs):\n"
            "    return _right_cocyclic_bruteforce(n, m, **kwargs) + 1\n"
        )
    res, detail = result(
        bench("--workload", "library", "--trace", "0", "--scale", "tiny", cwd=tmp_path)
    )
    assert not res["correct"]
    assert res["failed"] > 0
    assert detail["fail_ratio"] > 0
    assert all("cocyclic_bruteforce" in f for f in detail["failures"])


def test_refuses_a_directory_without_the_package(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("--workload", "cli", "--trace", "0", "--scale", "tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_leaves_ten_samples_above():
    value, pct = tail(range(1, 34))
    assert value == 23
    assert pct == pytest.approx(100 * 23 / 33)


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    root = tr.begin("bench.pass")
    child = tr.begin("oracle.census_bruteforce", root)
    tr.finish(child)
    tr.finish(root)
    tr.start, tr.end = array("d", [0.0, 1.0]), array("d", [5.0, 3.0])
    assert tr.self_seconds() == {"bench": 3.0, "oracle": 2.0}
