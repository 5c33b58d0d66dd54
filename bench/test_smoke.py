"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, with all of its output checks.  A broken workload fails here in
seconds rather than in a full benchmark run.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_surecov()

import workloads  # noqa: E402  (needs surecov on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(name, trace):
    return run.run_workload(name, seed=7, seconds=0.01, trace=trace, scale_name="smoke", probes=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, trace):
    result = smoke(name, trace)
    assert result["correct"] and result["failed"] == 0, result["errors"]
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    if trace and workloads.WORKLOADS[name].sim:
        assert result["metrics"]["sim.self_ms"]["value"] >= 0


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_wrong_cli_output_counts_as_failed(monkeypatch):
    wrong = "tau,risk,var_n\n1,1.0,1.0\n# oracle_tau = 1\n"
    monkeypatch.setattr(workloads.RiskVar, "run", lambda self: (0, wrong))
    result = smoke("risk-var", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_wrong_report_counts_as_failed(monkeypatch):
    experiment = workloads.CltSmall.experiment

    def skewed(config):
        report = experiment(config)
        if config.threads != 1:  # differs from the threads=1 reference
            report.results["standardized_mean"] += 1e-12
        return report

    monkeypatch.setattr(workloads.CltSmall, "experiment", staticmethod(skewed))
    result = smoke("clt-small", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
