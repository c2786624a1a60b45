"""Sensitivity self-test: ``run_s`` follows the work a workload does.

A fixed delay added from outside the program to the dominant public
function of one workload must raise that workload's ``run_s`` by about
the delay times its calls per round, and must leave ``run_s`` of a
workload that bypasses the function within the benchmark's bound.
"""

import json
import os
import time

import pytest

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# (delayed function, seconds per call, calls per round on the workload
#  it moves, the workload it moves, a workload that bypasses it)
PAIRS = [
    ("repro.telemetry.build:build_run_telemetry", 1.0, 1,
     "observed_serve", "serve_ladder"),
    ("repro.simcore.arrays:ArraySchedule.to_schedule_result", 0.25,
     len(workloads.LADDER_QPS), "serve_ladder", "elastic_spike_faults"),
    ("repro.scale.simulator:ScaleSimulator.run", 1.0, 1,
     "elastic_spike_faults", "paper_kernels"),
]


def _bound(metric):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return next(m["bound"] for m in bench["end_to_end"]
                if m["name"] == metric)


@pytest.fixture(scope="module")
def measure():
    cache = {}

    def run_s(workload, delay=None):
        key = (workload, delay)
        if key not in cache:
            args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--mode", "measure"]
            if delay:
                args += ["--delay", f"{delay[0]}={delay[1]}"]
            result = run.run_worker(args, run.worker_env(ROOT),
                                    time.monotonic() + 300)
            assert result["correct"] and result["failed"] == 0
            cache[key] = result["run_s"]
        return cache[key]
    return run_s


@pytest.mark.parametrize("target,seconds,calls,moved,bypassed", PAIRS,
                         ids=[p[0].rpartition(":")[2] for p in PAIRS])
def test_delay_moves_only_the_workload_that_calls_it(
        monkeypatch, measure, target, seconds, calls, moved, bypassed):
    monkeypatch.chdir(ROOT)
    expected = seconds * calls
    rise = measure(moved, (target, seconds)) - measure(moved)
    assert 0.6 * expected <= rise <= 1.4 * expected, (rise, expected)
    base = measure(bypassed)
    drift = abs(measure(bypassed, (target, seconds)) - base) / base
    assert drift <= _bound("run_s"), drift
