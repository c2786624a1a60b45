"""Host-time benchmark of the program's public entry points.

Run from the root of a checkout::

    python3 hostbench/run.py --workload serve_ladder --seed 1 \\
        --seconds 15 --trace 0

Each run starts fresh single-threaded worker interpreters
(``hostbench/worker.py``) against the checkout's ``src``.  With
``--trace 0`` it starts several set-up-only workers plus one measuring
worker and prints the end-to-end metrics (``setup_s`` is the median
set-up over all of them); with ``--trace 1`` one traced worker prints
the per-layer table.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("serve_ladder", "observed_serve", "elastic_spike_faults",
             "paper_kernels")
#: Fresh interpreters whose set-up times make up one ``setup_s``.
SETUP_SAMPLES = 5
#: Wall-clock limits: per set-up worker, and for the whole run, so a
#: hung program cannot hang the caller.
SETUP_TIMEOUT_S, RUN_BUDGET_S = 30.0, 170.0
#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


class WorkerError(Exception):
    """A worker exited badly or printed no result."""


def worker_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: List[str], env: Dict[str, str], deadline: float,
               timeout: float = RUN_BUDGET_S) -> Dict[str, Any]:
    """Run one worker to completion; its result, plus its set-up time."""
    started = time.monotonic()
    timeout = min(timeout, deadline - started)
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env,
                              stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def end_to_end(base: List[str], env: Dict[str, str], deadline: float
               ) -> Dict[str, Any]:
    setups = [run_worker(base + ["--mode", "setup"], env, deadline,
                         SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(base + ["--mode", "measure"], env, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    result["metrics"] = {name: {"value": result[name], "unit": unit}
                         for name, unit in END_TO_END}
    return result


def per_layer(base: List[str], env: Dict[str, str], deadline: float,
              trace_out: str) -> Dict[str, Any]:
    import layers

    result = run_worker(base + ["--mode", "trace", "--trace-out", trace_out],
                        env, deadline)
    result["metrics"] = {name: {"value": result["per_layer"][name],
                                "unit": unit}
                         for name, unit, _, _ in layers.PER_LAYER}
    return result


def print_block(workload: str, seed: int, result: Dict[str, Any]) -> None:
    print(f"hostbench {workload} seed={seed}: {result['attempted']} "
          f"operations, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    for name, (value, unit, note) in result.get("sim", {}).items():
        print(f"  {name:28s} {value!r:>14} {unit}  ({note})")
    if "round_s" in result:
        print(f"  rounds: {len(result['round_s'])}, round_s "
              + " ".join(f"{t:.4f}" for t in result["round_s"]))
    if "setup_samples" in result:
        print("  setup samples: "
              + " ".join(f"{t:.4f}" for t in result["setup_samples"]))
    if "by_layer" in result:
        print("  self time by layer (last traced round):")
        for layer, seconds in sorted(result["by_layer"].items(),
                                     key=lambda kv: -kv[1]):
            print(f"    {layer:20s} {seconds:10.4f} s")
        print(f"  accounting: unaccounted "
              f"{result['per_layer']['trace.unaccounted_frac']:.4f} of "
              f"traced round time -> "
              f"{'OK' if result['accounting_ok'] else 'FAILED'}")
        for name in result["unaccounted"]:
            print(f"    untraced: {name}")
        print(f"  traced digest matches untraced: {result['digest_match']}")
    for digest in result["digests"]:
        print(f"  digest sha256:{digest}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("hostbench: no program at src/repro; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    env = worker_env(root)
    try:
        if args.trace:
            trace_out = os.path.join(
                root, ".hostbench",
                f"{args.workload}-seed{args.seed}.host_trace.json")
            result = per_layer(base, env, deadline, trace_out)
        else:
            result = end_to_end(base, env, deadline)
    except WorkerError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    print_block(args.workload, args.seed, result)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
