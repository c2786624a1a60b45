"""BENCHMARK.json agrees with the code, and each workload emits exactly
its metrics.

Runs ``hostbench/run.py`` the way a caller does, from the repository
root, with short runs (each still makes at least three rounds).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("hostbench", "run.py")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace=0, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_mirrors_the_code():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_exactly_its_end_to_end_metrics(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Simulated metrics are printed by name only where produced.
    printed = {match.group(1) for line in lines[:-1]
               for match in [re.match(r"\s+(sim_\w+|paper_\w+)\s", line)]
               if match}
    assert printed == set(workloads.SIM_METRICS[workload])


def test_traced_run_emits_the_per_layer_table_and_same_digest():
    proc = _run("elastic_spike_faults", trace=1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == {n: u for n, u, _, _ in layers.PER_LAYER}
    assert "accounting: unaccounted" in proc.stdout
    assert result["metrics"]["scale.loop_self_s"]["value"] > 0
    assert result["metrics"]["simcore.scan_s"]["value"] == 0
    untraced = _run("elastic_spike_faults")
    digests = [re.findall(r"digest sha256:(\w+)", p.stdout)
               for p in (proc, untraced)]
    assert digests[0] and digests[0] == digests[1]


def test_exits_nonzero_without_a_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "hostbench"), tmp_path / "hostbench")
    proc = _run("paper_kernels", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
