"""Which program functions the traced run wraps, and the per-layer table.

:func:`targets` maps each wrapped public function ("module:qualname")
to its layer.  ``PER_LAYER`` is the per-layer metric registry: name, unit,
which direction is better, and the end-to-end metric and workload the
layer metric should move ("moves").  ``BENCHMARK.json``'s ``per_layer``
list mirrors it (the benchmark's tests check that it does).
"""

from __future__ import annotations

import inspect
import math
import statistics
from typing import Dict, List, Sequence

from tracer import SpanTable

_CONTROLLER = ("note_completion", "note_fault", "recent_faults",
               "class_windows", "window", "burn_rate", "decide",
               "decide_failover")

WORKLOAD_FNS = ("poisson_arrivals", "poisson_arrival_times",
                "spike_arrival_times", "trace_arrivals")
INIT_FNS = ("ServingSimulator.__init__", "ScaleSimulator.__init__")
SCALE_LOOP_FNS = ("ScaleSimulator.run", "ScaleSimulator.run_with_telemetry",
                  "ScaleSimulator.run_with_monitor")
CONTROLLER_FNS = tuple(f"BurnRateController.{m}" for m in _CONTROLLER)
MICROCODE_FNS = ("add_u16", "mul_u16", "eq_16")
ECC_FNS = ("SECDEDCodec.encode", "SECDEDCodec.decode", "BCHCodec.encode",
           "BCHCodec.decode")
BUNDLE_FNS = ("bundle_from_run", "write_run_bundle")
CHROME_FNS = ("counter_tracks", "chrome_trace_json")

#: Layers of observability, and of simulation (event core + report), as
#: ``observe.over_sim_x`` divides them.
OBSERVE_LAYERS = ("telemetry", "scale.telemetry", "monitor", "export")
SIMULATE_LAYERS = ("serve.simulator", "serve.scheduler", "simcore", "scale")


def targets() -> Dict[str, str]:
    """Every wrapped function, "module:qualname" -> layer."""
    from repro.apu.gvml import GVML

    out = {f"repro.serve.workload:{fn}": "serve.workload"
           for fn in WORKLOAD_FNS}
    out.update({
        "repro.serve.simulator:ServingSimulator.__init__": "serve.simulator",
        "repro.serve.simulator:ServingSimulator.run": "serve.simulator",
        "repro.serve.simulator:ServingSimulator.run_with_telemetry":
            "serve.simulator",
        "repro.serve.simulator:ServingSimulator.run_with_monitor":
            "serve.simulator",
        "repro.simcore.vectorized:VectorizedScheduler.run": "simcore",
        "repro.simcore.arrays:ArraySchedule.to_schedule_result": "simcore",
        "repro.serve.scheduler:DiscreteEventScheduler.run": "serve.scheduler",
        "repro.telemetry.build:build_run_telemetry": "telemetry",
        "repro.telemetry.build:build_query_traces": "telemetry",
        "repro.telemetry.build:build_serve_metrics": "telemetry",
        "repro.telemetry.critical:critical_path": "telemetry",
        "repro.scale.telemetry:build_scale_telemetry": "scale.telemetry",
        "repro.scale.telemetry:build_scale_traces": "scale.telemetry",
        "repro.scale.telemetry:build_scale_metrics": "scale.telemetry",
        "repro.monitor.build:build_run_monitor": "monitor",
        "repro.monitor.openmetrics:openmetrics_text": "export",
        "repro.monitor.bundle:bundle_from_run": "export",
        "repro.monitor.bundle:write_run_bundle": "export",
        "repro.monitor.dashboard:render_dashboard": "export",
        "repro.monitor.counters:counter_tracks": "export",
        "repro.obs.export:chrome_trace_json": "export",
        "repro.scale.simulator:ScaleSimulator.__init__": "scale",
        "repro.core.estimator:LatencyEstimator.record": "core",
        "repro.hbm.dram:DRAMModel.transfer_seconds": "hbm",
        "repro.phoenix.base:PhoenixApp.run_functional": "phoenix",
        "repro.phoenix.suite:PhoenixSuite.table7_validation": "phoenix",
        "repro.rag.retrieval:APURetriever.__init__": "rag",
        "repro.rag.retrieval:APURetriever.retrieve": "rag",
        "repro.rag.retrieval:APURetriever.latency_breakdown": "rag",
        "repro.opt.matmul:run_all_stages": "opt",
        "repro.validation:validate_reproduction": "validation",
    })
    out.update({f"repro.scale.simulator:{fn}": "scale"
                for fn in SCALE_LOOP_FNS})
    out.update({f"repro.scale.controller:{fn}": "scale"
                for fn in CONTROLLER_FNS})
    out.update({f"repro.apu.microcode:{fn}": "apu.bitproc"
                for fn in MICROCODE_FNS})
    out["repro.apu.bitproc:BitProcessorArray.read_u16"] = "apu.bitproc"
    out.update({f"repro.ecc.codecs:{fn}": "ecc" for fn in ECC_FNS})
    out.update({f"repro.apu.gvml:GVML.{name}": "apu.gvml"
                for name, value in vars(GVML).items()
                if not name.startswith("_") and inspect.isfunction(value)})
    return out


def gvml_fns() -> List[str]:
    return [t.partition(":")[2] for t, layer in targets().items()
            if layer == "apu.gvml"]


# (name, unit, better, moves)
PER_LAYER = (
    ("workload.gen_s", "s", "lower", "setup_s on the serving workloads"),
    ("workload.requests", "count", "higher",
     "setup_s on the serving workloads"),
    ("serve.init_s", "s", "lower", "setup_s"),
    ("serve.report_self_s", "s", "lower", "run_s on serve_ladder"),
    ("simcore.scan_s", "s", "lower", "run_s on serve_ladder"),
    ("simcore.materialise_s", "s", "lower",
     "run_s and peak_rss_mb on serve_ladder"),
    ("simcore.events_per_s", "1/s", "higher", "run_s on serve_ladder"),
    ("simcore.size_exp", "exponent", "lower", "run_s on serve_ladder"),
    ("scheduler.run_s", "s", "lower", "run_s on observed_serve (small)"),
    ("scheduler.events", "count", "lower", "run_s on observed_serve"),
    ("scheduler.events_per_s", "1/s", "higher", "run_s on observed_serve"),
    ("scheduler.batches", "count", "lower", "run_s on observed_serve"),
    ("scheduler.mean_batch_size", "requests", "higher",
     "run_s on observed_serve"),
    ("telemetry.traces_s", "s", "lower", "run_s on observed_serve"),
    ("telemetry.critical_s", "s", "lower", "run_s on observed_serve"),
    ("telemetry.metrics_s", "s", "lower", "run_s on observed_serve"),
    ("telemetry.build_self_s", "s", "lower", "run_s on observed_serve"),
    ("telemetry.spans", "count", "lower",
     "run_s and peak_rss_mb on observed_serve"),
    ("telemetry.spans_per_s", "1/s", "higher", "run_s on observed_serve"),
    ("telemetry.size_exp", "exponent", "lower", "run_s on observed_serve"),
    ("scale_telemetry.build_s", "s", "lower", "run_s on observed_serve"),
    ("scale_telemetry.spans", "count", "lower",
     "run_s and peak_rss_mb on observed_serve"),
    ("monitor.build_s", "s", "lower", "run_s on observed_serve"),
    ("monitor.points", "count", "lower", "run_s on observed_serve"),
    ("export.openmetrics_s", "s", "lower", "run_s on observed_serve"),
    ("export.bundle_s", "s", "lower", "run_s on observed_serve"),
    ("export.dashboard_s", "s", "lower", "run_s on observed_serve"),
    ("export.chrome_s", "s", "lower", "run_s on observed_serve"),
    ("export.bytes", "bytes", "lower", "run_s on observed_serve"),
    ("observe.over_sim_x", "x", "lower", "run_s on observed_serve"),
    ("scale.loop_self_s", "s", "lower",
     "run_s on elastic_spike_faults (dominant), observed_serve (small)"),
    ("scale.controller_s", "s", "lower", "run_s on elastic_spike_faults"),
    ("scale.loop_size_exp", "exponent", "lower",
     "run_s on elastic_spike_faults"),
    ("scale.ticks", "count", "lower", "run_s on elastic_spike_faults"),
    ("scale.attaches", "count", "lower", "sim_goodput"),
    ("scale.failovers", "count", "lower", "sim_goodput"),
    ("scale.shed_share", "ratio", "lower", "sim_goodput"),
    ("scale.pool_max", "devices", "lower", "sim_goodput"),
    ("faults.retries", "count", "lower",
     "sim_goodput and sim_tti_p99_ms on elastic_spike_faults"),
    ("faults.timeouts", "count", "lower",
     "sim_goodput and sim_tti_p99_ms on elastic_spike_faults"),
    ("faults.deaths", "count", "lower",
     "sim_goodput and sim_tti_p99_ms on elastic_spike_faults"),
    ("integrity.detected", "count", "lower",
     "sim_goodput and sim_tti_p99_ms on elastic_spike_faults"),
    ("integrity.recomputes", "count", "lower",
     "sim_goodput and sim_tti_p99_ms on elastic_spike_faults"),
    ("faults.useful_batch_share", "ratio", "higher",
     "sim_goodput and sim_tti_p99_ms on elastic_spike_faults"),
    ("bitproc.micro_ops", "count", "lower", "run_s on paper_kernels"),
    ("bitproc.micro_ops_per_s", "1/s", "higher", "run_s on paper_kernels"),
    ("gvml.ops", "count", "lower", "run_s on paper_kernels"),
    ("gvml.ops_per_s", "1/s", "higher", "run_s on paper_kernels"),
    ("estimator.records", "count", "lower", "run_s on paper_kernels"),
    ("estimator.records_per_s", "1/s", "higher", "run_s on paper_kernels"),
    ("hbm.transfers", "count", "lower", "run_s on paper_kernels"),
    ("hbm.transfers_per_s", "1/s", "higher", "run_s on paper_kernels"),
    ("phoenix.functional_s", "s", "lower", "run_s on paper_kernels"),
    ("rag.retrieve_s", "s", "lower", "run_s on paper_kernels"),
    ("ecc.codewords_per_s", "1/s", "higher", "run_s on paper_kernels"),
    ("claims.validate_s", "s", "lower",
     "run_s on paper_kernels; its values set paper_rel_error_mean"),
    ("trace.overhead_frac", "ratio", "lower", "none: the tracer's own cost"),
    ("trace.unaccounted_frac", "ratio", "lower",
     "none: round time outside every traced call"),
)

#: Per-layer metrics that are counts or shares read off the outputs.
_COUNT_KEYS = {name for name, unit, _, _ in PER_LAYER
               if unit not in ("s", "1/s", "x", "exponent")
               and not name.startswith("trace.")}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def round_timings(t: SpanTable, counts: Dict[str, float],
                  gvml: Sequence[str]) -> Dict[str, float]:
    """Timing metrics of one traced round."""
    vec = t.inclusive(["VectorizedScheduler.run"])
    sched = t.inclusive(["DiscreteEventScheduler.run"])
    run_telemetry = t.inclusive(["build_run_telemetry"])
    micro = t.inclusive(MICROCODE_FNS)
    observe = t.layer_self(OBSERVE_LAYERS)
    simulate = t.layer_self(SIMULATE_LAYERS)
    return {
        "serve.report_self_s": t.self_time(["ServingSimulator.run"]),
        "simcore.scan_s": t.self_time(["VectorizedScheduler.run"]),
        "simcore.materialise_s":
            t.inclusive(["ArraySchedule.to_schedule_result"]),
        "simcore.events_per_s": _rate(counts.get("simcore.events", 0), vec),
        "scheduler.run_s": sched,
        "scheduler.events_per_s":
            _rate(counts.get("scheduler.events", 0), sched),
        "telemetry.traces_s": t.inclusive(["build_query_traces"]),
        "telemetry.critical_s": t.inclusive(["critical_path"]),
        "telemetry.metrics_s": t.inclusive(["build_serve_metrics"]),
        "telemetry.build_self_s": t.self_time(["build_run_telemetry"]),
        "telemetry.spans_per_s":
            _rate(counts.get("telemetry.spans", 0), run_telemetry),
        "scale_telemetry.build_s": t.inclusive(["build_scale_telemetry"]),
        "monitor.build_s": t.inclusive(["build_run_monitor"]),
        "export.openmetrics_s": t.inclusive(["openmetrics_text"]),
        "export.bundle_s": t.inclusive(BUNDLE_FNS),
        "export.dashboard_s": t.inclusive(["render_dashboard"]),
        "export.chrome_s": t.inclusive(CHROME_FNS),
        "observe.over_sim_x": observe / simulate if simulate > 0 else 0.0,
        "scale.loop_self_s": t.self_time(SCALE_LOOP_FNS),
        "scale.controller_s": t.inclusive(CONTROLLER_FNS),
        "bitproc.micro_ops_per_s":
            _rate(counts.get("bitproc.micro_ops", 0), micro),
        "gvml.ops": t.calls(gvml),
        "gvml.ops_per_s": _rate(t.calls(gvml), t.inclusive(gvml)),
        "estimator.records": t.calls(["LatencyEstimator.record"]),
        "estimator.records_per_s": _rate(
            t.calls(["LatencyEstimator.record"]),
            t.inclusive(["LatencyEstimator.record"])),
        "hbm.transfers": t.calls(["DRAMModel.transfer_seconds"]),
        "hbm.transfers_per_s": _rate(
            t.calls(["DRAMModel.transfer_seconds"]),
            t.inclusive(["DRAMModel.transfer_seconds"])),
        "phoenix.functional_s": t.inclusive(["PhoenixApp.run_functional"]),
        "rag.retrieve_s": t.inclusive(["APURetriever.retrieve"]),
        "ecc.codewords_per_s": _rate(t.calls(ECC_FNS), t.inclusive(ECC_FNS)),
        "claims.validate_s": t.inclusive(["validate_reproduction"]),
    }


#: Size-exponent metric -> the timing it fits.
SIZE_EXPONENTS = {
    "simcore.size_exp": lambda t: t.inclusive(["VectorizedScheduler.run"]),
    "telemetry.size_exp": lambda t: t.layer_self(["telemetry"]),
    "scale.loop_size_exp": lambda t: t.self_time(SCALE_LOOP_FNS),
}


def size_exponent(full: Sequence[SpanTable], half: Sequence[SpanTable],
                  key: str) -> float:
    """log2(t(n) / t(n/2)) of the medians; 0 where the layer is idle."""
    fit = SIZE_EXPONENTS[key]
    t_full = statistics.median(fit(t) for t in full)
    t_half = statistics.median(fit(t) for t in half)
    if t_full <= 0 or t_half <= 0:
        return 0.0
    return math.log2(t_full / t_half)


def per_layer(setup: SpanTable, full: Sequence[SpanTable],
              half: Sequence[SpanTable], counts: Dict[str, float],
              overhead_frac: float, unaccounted_frac: float
              ) -> Dict[str, float]:
    """The whole per-layer table, in ``PER_LAYER`` order."""
    gvml = gvml_fns()
    rounds = [round_timings(t, counts, gvml) for t in full]
    values = {key: statistics.median(r[key] for r in rounds)
              for key in rounds[0]}
    values.update({key: size_exponent(full, half, key)
                   for key in SIZE_EXPONENTS})
    values.update({key: float(counts.get(key, 0)) for key in _COUNT_KEYS
                   if key not in values})
    values["workload.gen_s"] = setup.inclusive(WORKLOAD_FNS)
    values["serve.init_s"] = setup.inclusive(INIT_FNS)
    values["trace.overhead_frac"] = overhead_frac
    values["trace.unaccounted_frac"] = unaccounted_frac
    return {name: values[name] for name, _, _, _ in PER_LAYER}
