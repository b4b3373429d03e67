"""Tests of the benchmark itself, on a tiny platform and ISA subset."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = harness.Scale(
    instr_reps=4, app_seeds=1, chains=1, anneal_steps=40, probe_steps=40,
    graph_actors=7, cli_sizes=(4, 60, 12), cli_reps=2,
    setup_repeats=1,
    config_json='{"mesh_cols": 2, "mesh_rows": 2, "cpus_per_cluster": 1}',
    isa_keep=("nop", "add", "vadd", "mul", "ldw", "stw", "br"))


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["pipeline", "cli-noc"])
def test_tiny_run_passes_its_checks_and_emits_the_declared_metrics(
        workload, trace, tmp_path):
    result = harness.measure(workload, seed=3, seconds=0, trace=trace,
                             work_dir=str(tmp_path / "work"), scale=TINY,
                             spans_path=str(tmp_path / "spans.jsonl"))
    assert result.checks.attempted > 0
    assert result.checks.failures == []
    assert set(result.metrics) == _declared("per_layer" if trace else "end_to_end")
    assert all(v > 0 for k, v in result.metrics.items() if not trace)
    if trace:   # both workloads run the oracle and the estimator
        for name in ("refsim.programs", "refsim.events", "refsim.cpu_cycles",
                     "refsim.us_per_cpu_cycle", "estimator.events", "modelfit.rank"):
            assert result.metrics[name] > 0, name
    assert not (tmp_path / "work").exists()


def test_in_process_build_is_the_shipped_build(tmp_path):
    wl = harness.PipelineWorkload(0, TINY, Tracer(), str(tmp_path))
    wl.setup(reimport=False)
    model, _runs, _obs = wl.build()
    shipped, _reports = wl.em.pipeline.build_simplified_model(
        wl.config, wl.isa, wl.api, wl.params, reps=TINY.instr_reps)
    assert harness.model_parts(model) == harness.model_parts(shipped)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
