"""One benchmark worker: a fresh interpreter that runs one workload.

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src`` and reads the JSON object it prints as its last stdout line.

Modes:

* ``setup``   -- set the workload up and report when it was ready;
* ``measure`` -- set up, then run untraced rounds for ``--seconds`` and
  report round times, peak memory, simulated metrics and digests;
* ``trace``   -- set up under the tracer, run untraced rounds, traced
  rounds, and traced rounds at half size, and report the per-layer
  table, the tracer's overhead and the layer accounting check.

``--delay TARGET=SECONDS`` adds a fixed sleep to a program function
(``module:qualname``) before any round; the sensitivity self-test uses
it to show that ``run_s`` follows the work a workload really does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

MIN_ROUNDS = 3
#: Largest share of a traced round that may fall outside every traced
#: call (benchmark glue, loop overhead) before the accounting fails.
ACCOUNTING_SLACK = 0.03


class Round:
    """Timings, failures and summary of one round."""

    def __init__(self) -> None:
        #: (op name, start, end) in perf_counter seconds.
        self.ops: List[Tuple[str, float, float]] = []
        self.failures: List[str] = []
        self.summary: Any = None

    @property
    def seconds(self) -> float:
        return sum(end - start for _, start, end in self.ops)


def run_round(workload: Any) -> Round:
    from workloads import CheckError, combine

    result = Round()
    parts = []
    clock = time.perf_counter
    for phase in workload.phases:
        outs: Dict[str, Any] = {}
        failed = len(result.failures)
        for op in phase.ops:
            start = clock()
            try:
                out = op.call(outs)
            except Exception as exc:  # a failed call is a failed operation
                result.ops.append((op.name, start, clock()))
                result.failures.append(
                    f"{op.name}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            result.ops.append((op.name, start, clock()))
            try:
                op.check(out, outs)
            except CheckError as exc:
                result.failures.append(f"{op.name}: {exc}")
                continue
            outs[op.name] = out
        if len(result.failures) == failed:
            parts.append(phase.summarize(outs))
        del outs
        workload.release(phase.sims)
        gc.collect()
    if not result.failures:
        result.summary = combine(parts)
    return result


def run_rounds(workload: Any, seconds: float, tracer: Any = None
               ) -> Tuple[List[Round], List[Any]]:
    """Rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``).

    With a tracer, also returns each round's spans.
    """
    rounds: List[Round] = []
    spans: List[Any] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        workload.start_round()
        if tracer is not None:
            tracer.take()  # simulator construction is set-up, not round work
        rounds.append(run_round(workload))
        if tracer is not None:
            spans.append(tracer.take())
    return rounds, spans


def tally(rounds: List[Round]) -> Dict[str, Any]:
    failures = [f for r in rounds for f in r.failures]
    digests = sorted({r.summary.digest for r in rounds
                      if r.summary is not None})
    return {
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": len(failures),
        "failures": failures[:10],
        "digests": digests,
        "correct": not failures and len(digests) == 1,
    }


def uncovered(rnd: Round, table: Any) -> Dict[str, float]:
    """Per op, the seconds of its call outside every top-level span."""
    from tracer import END, PARENT, START

    tops = [(s[START], s[END]) for s in table.spans if s[PARENT] < 0]
    return {name: (end - start) - sum(
                min(e, end) - max(s, start) for s, e in tops
                if s < end and e > start)
            for name, start, end in rnd.ops}


def measure(workload: Any, seconds: float) -> Dict[str, Any]:
    rounds, _ = run_rounds(workload, seconds)
    out = tally(rounds)
    out["round_s"] = [r.seconds for r in rounds]
    out["run_s"] = statistics.median(out["round_s"])
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = rounds[-1].summary
    if last is not None:
        out["sim"] = last.sim
    return out


def trace(name: str, seed: int, seconds: float, workload: Any,
          tracer: Any, setup_spans: List[Any],
          trace_out: Optional[str]) -> Dict[str, Any]:
    import layers
    import workloads
    from tracer import SpanTable, write_chrome_trace

    phase = seconds / 3.0
    n_requests = workload.n_requests
    untraced, _ = run_rounds(workload, phase)
    tracer.install()
    traced, traced_spans = run_rounds(workload, phase, tracer)
    del workload
    gc.collect()
    half_workload = workloads.WORKLOADS[name](seed, 0.5)
    half_workload.prepare_checks()
    half, half_spans = run_rounds(half_workload, phase, tracer)
    tracer.uninstall()

    out = tally(untraced + traced + half)
    digests = [tally(rounds)["digests"] for rounds in (untraced, traced, half)]
    out["digests"] = digests[0]
    out["digest_match"] = digests[0] == digests[1]
    full_tables = [SpanTable(s) for s in traced_spans]
    lost: Dict[str, float] = {}
    spent: Dict[str, float] = {}
    for rnd, table in zip(traced, full_tables):
        for name, gap in uncovered(rnd, table).items():
            lost[name] = lost.get(name, 0.0) + gap
        for name, start, end in rnd.ops:
            spent[name] = spent.get(name, 0.0) + (end - start)
    unaccounted = sum(lost.values()) / sum(spent.values())
    out["accounting_ok"] = unaccounted <= ACCOUNTING_SLACK
    # Ops whose own untraced share exceeds the slack, by name.
    out["unaccounted"] = [
        f"{name}: {lost[name] / spent[name]:.1%} untraced"
        for name in spent if lost[name] > ACCOUNTING_SLACK * spent[name]]
    out["correct"] = (not out["failures"] and out["digest_match"]
                      and all(len(d) == 1 for d in digests)
                      and out["accounting_ok"])

    summary = traced[-1].summary
    counts = dict(summary.counts) if summary is not None else {}
    counts["workload.requests"] = n_requests
    overhead = (statistics.median(r.seconds for r in traced)
                / statistics.median(r.seconds for r in untraced) - 1.0)
    out["per_layer"] = layers.per_layer(
        SpanTable(setup_spans), full_tables,
        [SpanTable(s) for s in half_spans], counts, overhead, unaccounted)
    out["by_layer"] = full_tables[-1].by_layer()
    if trace_out:
        os.makedirs(os.path.dirname(trace_out) or ".", exist_ok=True)
        write_chrome_trace(trace_out, traced_spans[-1])
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        default="measure")
    parser.add_argument("--delay", action="append", default=[],
                        metavar="TARGET=SECONDS")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    tracer = None
    if args.mode == "trace":
        import layers
        from tracer import Tracer

        tracer = Tracer(layers.targets())
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, 1.0)
    ready_at = time.monotonic()
    result: Dict[str, Any] = {"ready_at": ready_at}
    if args.mode != "setup":
        setup_spans = []
        if tracer is not None:
            setup_spans = tracer.take()
            tracer.uninstall()
        from tracer import Rebinder, delay_wrapper

        delays = Rebinder()
        for spec in args.delay:
            target, _, seconds = spec.rpartition("=")
            delays.wrap(target, delay_wrapper(float(seconds)))
        workload.prepare_checks()
        if tracer is None:
            result.update(measure(workload, args.seconds))
        else:
            result.update(trace(args.workload, args.seed, args.seconds,
                                workload, tracer, setup_spans,
                                args.trace_out))
        delays.undo()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
