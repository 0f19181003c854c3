"""Tests of the benchmark itself: each workload at a tiny size.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
from baggedcnn import layers  # noqa: E402

WORKLOADS = ("desk", "paper", "serve")


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    lines = proc.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_checks_metrics_and_digests(workload):
    plain = bench(workload, 0)
    assert plain.returncode == 0, plain.stderr
    result, digest = parse(plain)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in spec()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(np.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())

    traced = bench(workload, 1)
    assert traced.returncode == 0, traced.stderr
    traced_result, traced_digest = parse(traced)
    assert traced_result["correct"] and traced_result["failed"] == 0
    assert list(traced_result["metrics"]) == [m["name"] for m in spec()["per_layer"]]
    assert traced_digest == digest


def test_spec_lists_the_emitted_per_layer_metrics():
    listed = [(m["name"], m["unit"], m["better"]) for m in spec()["per_layer"]]
    assert listed == tracing.per_layer_names()


def test_name_bound_before_tracing_records_no_calls():
    early = layers.relu  # bound before install, as an import-time layer table would be
    tracer = tracing.Tracer(tracing.ALL_SPANS)
    tracer.install()
    try:
        early(np.ones((2, 3)))
        layers.flatten(np.ones((1, 2, 2, 1)))
    finally:
        tracer.uninstall()
    stats = tracer.take()
    assert tracing.unreached(stats, ["layers.relu.fwd", "layers.flatten.fwd"]) == [
        "layers.relu.fwd"]
    assert layers.relu is early


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("desk", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
