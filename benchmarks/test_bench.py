"""Tests of the benchmark itself: `python -m pytest benchmarks`.

Each workload runs once at a small size; a traced run must report every
per-layer metric; metric and workload names must match BENCHMARK.json; a
wrong reference value must show up as a failed operation.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Small sizes: one pass each, one set-up. exrec-grid keeps its full pass so
# that the acceptance band check on the fitted c has enough failures.
SMALL = {"exrec-grid": 1.0, "lifetime": 0.05, "construct-verify": 1.0, "exrec-parallel": 0.5}


def small_run(name, trace=False):
    return run.run_benchmark(name, seed=11, seconds=0, trace=trace, scale=SMALL[name],
                             setup_reps=1, rate_calls=2000)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == dict(run.E2E_METRICS)
    assert layers == dict(run.per_layer_names(workloads.CODES))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_small_and_passes_its_checks(name):
    out = small_run(name)
    result = out["result"]
    assert out["messages"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = small_run("exrec-parallel", trace=True)
    metrics = out["result"]["metrics"]
    assert out["result"]["correct"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for layer in run.LAYERS:
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer
    names = {sp["name"] for sp in out["trace"]["spans"]}
    assert {"engine.Simulator", "engine._parallel_failures", "decoder.build_lookup_table",
            "frames.compute_signatures"} <= names


def test_tracer_skips_call_sites_the_library_lacks():
    class Owner:
        @staticmethod
        def present():
            return 1

    tracer = Tracer(True)
    with tracer.patched([(Owner, "present", "x.present"), (Owner, "gone", "x.gone")]):
        assert Owner.present() == 1
    assert tracer.skipped == ["Owner.gone"]
    assert [sp.name for sp in tracer.spans] == ["x.present"]


def test_wrong_reference_fails_the_run(monkeypatch, capsys):
    reference = copy.deepcopy(workloads.load_reference())
    reference["lifetime"]["ssd"]["mean_rounds"] *= 3
    monkeypatch.setattr(workloads, "load_reference", lambda: reference)
    code = run.main(["--workload", "lifetime", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "exrec-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
