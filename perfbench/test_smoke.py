"""Smoke test of the benchmark at small sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once in smoke mode, with and without tracing, and shows
that a corrupted report is counted as a failed command.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]


def bench(*args) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0",
         "--seed", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Result of a smoke run, and a copy of its outputs."""
    result = bench()
    saved = tmp_path_factory.mktemp("outputs")
    shutil.copytree(ROOT / ".perfbench_work", saved, dirs_exist_ok=True)
    return result, saved


def declared(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def test_every_workload_runs_correctly(e2e):
    e2e, _ = e2e
    assert e2e["correct"] and e2e["failed"] == 0
    names = {key.split("/")[1] for key in e2e["metrics"]}
    assert names == declared("end_to_end")
    assert all(v["value"] > 0 for v in e2e["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = bench("--workload", "gof-toy-n4000", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
    assert result["metrics"]["kernels.hamming_s"]["value"] > 0


def _flip_reject(report):
    report["reject"] = not report["reject"]


def _perturb_statistic(report):
    report["statistic"] *= 1 + 1e-6


@pytest.mark.parametrize("corrupt", [_flip_reject, _perturb_statistic])
def test_corrupted_report_is_a_failure(e2e, corrupt, tmp_path):
    w = workloads.get("gof-toy-n4000", smoke=True)
    good = e2e[1] / w.name / "out-0.json"
    report = json.loads(good.read_text())
    corrupt(report)
    bad = tmp_path / "out-0.json"
    bad.write_text(json.dumps(report))
    ref = run.load_reference(smoke=True)[w.name]
    failed, notes = run.count_failures(
        w, 1, [{"code": 0, "out": str(good)}, {"code": 0, "out": str(bad)}],
        ref)
    assert failed == 1, notes


def test_corrupted_sweep_row_is_a_failure(e2e, tmp_path):
    w = workloads.get("sweep-level-n200", smoke=True)
    good = e2e[1] / w.name / "out-0.csv"
    rows = list(csv.reader(good.open(newline="")))
    rows[1][5] = str(1 - int(rows[1][5]))
    bad = tmp_path / "out-0.csv"
    with bad.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    bad.with_suffix(".summary.json").write_text(
        good.with_suffix(".summary.json").read_text())
    ref = run.load_reference(smoke=True)[w.name]
    failed, _ = run.count_failures(
        w, 1, [{"code": 0, "out": str(good)}, {"code": 0, "out": str(bad)}],
        ref)
    assert failed == 1


def test_failed_exit_code_is_a_failure():
    w = workloads.get("gof-toy-n4000", smoke=True)
    ref = run.load_reference(smoke=True)[w.name]
    failed, _ = run.count_failures(w, 1, [{"code": 2, "out": "none"}], ref)
    assert failed == 1
