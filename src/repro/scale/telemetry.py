"""Span trees and metrics for elastic serving runs.

Under autoscaling a request's scatter-gather width is the pool size *at
its admission*, so its top-k merge cost varies per request:
:func:`build_scale_traces` runs the static builder
(:func:`repro.telemetry.build.build_query_traces`) with a per-record
merge lookup, so a fixed-size elastic run yields the static trees
exactly.

Everything here is derivational (post-run, from the synthesized
:class:`~repro.serve.scheduler.ScheduleResult` and the action log), so
telemetry-on and telemetry-off elastic runs stay bit-identical -- the
same property the static pipeline pins.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from ..telemetry.build import (
    BATCH_SIZE_BOUNDS,
    RunTelemetry,
    StageTable,
    build_query_traces,
)
from ..telemetry.critical import (
    CriticalPath,
    critical_path,
    stage_attribution,
)
from ..telemetry.metrics import (
    DEFAULT_LATENCY_BOUNDS_S,
    MetricsRegistry,
    slo_burn_windows,
)
from ..telemetry.spans import SPAN_QUEUE_WAIT, QueryTrace

__all__ = [
    "build_scale_traces",
    "build_scale_metrics",
    "build_scale_telemetry",
]


def build_scale_traces(result: Any,
                       merge_by_required: Mapping[int, float],
                       prefill_s: float,
                       stage_tables: Optional[Sequence[StageTable]] = None,
                       ) -> List[QueryTrace]:
    """One :class:`QueryTrace` per admitted request, in req-id order.

    The static builder, with ``merge_by_required`` (the simulator's
    memo from a record's scatter-gather width to its top-k merge cost)
    as the per-record merge lookup.
    """
    return build_query_traces(result, merge_by_required, prefill_s,
                              stage_tables)


def build_scale_metrics(report: Any, result: Any,
                        paths: Sequence[CriticalPath],
                        traces: Sequence[QueryTrace],
                        priorities: Mapping[int, int],
                        n_burn_windows: int = 4) -> MetricsRegistry:
    """Populate a registry from one elastic run.

    The serve-level series keep their static names (throughput,
    attainment, latency histograms, burn windows) so dashboards span
    both modes; the elastic control plane adds ``repro_scale_*``
    series for admission, shedding, pool motion, and warm-up cost.
    """
    registry = MetricsRegistry()
    cfg = report.config.serve
    policy = report.config.policy
    classes = policy.priorities

    offered = registry.counter(
        "repro_scale_offered_total", "Requests offered to admission")
    offered.inc(report.n_offered)
    admitted = registry.counter(
        "repro_scale_admitted_total", "Requests admitted, by class")
    for cls_name, count in report.completed_by_class:
        admitted.inc(count, **{"class": cls_name})
    shed = registry.counter(
        "repro_scale_shed_total", "Requests shed at admission, by class")
    for cls_name, count in report.shed_by_class:
        shed.inc(count, **{"class": cls_name})

    attaches = registry.counter(
        "repro_scale_attaches_total", "Autoscaler attach decisions")
    attaches.inc(report.n_attaches)
    detaches = registry.counter(
        "repro_scale_detaches_total", "Autoscaler detach decisions")
    detaches.inc(report.n_detaches)
    warmup = registry.counter(
        "repro_scale_warmup_seconds_total",
        "Corpus DMA-in seconds charged to cold attaches")
    warmup.inc(report.warmup_total_s)
    pool = registry.gauge(
        "repro_scale_pool_size", "Serving devices over the run")
    pool.set(report.pool_min, bound="min")
    pool.set(report.pool_max, bound="max")
    pool.set(report.pool_final, bound="final")
    peak_burn = registry.gauge(
        "repro_scale_peak_burn_rate",
        "Highest burn rate any control tick observed")
    peak_burn.set(report.peak_burn_rate)
    class_burn = registry.gauge(
        "repro_scale_class_burn_peak",
        "Highest per-class burn rate any control tick observed")
    for cls_name, peak in report.class_burn_peaks:
        class_burn.set(peak, **{"class": cls_name})
    if result.fault_log or result.death_times:
        fault_events = registry.counter(
            "repro_scale_fault_events_total",
            "Dynamic fault-handling actions, by kind")
        for entry in result.fault_log:
            fault_events.inc(kind=entry.kind, shard=str(entry.shard_id))
        deaths = registry.counter(
            "repro_scale_shard_deaths_total",
            "Devices declared dead and removed from the pool")
        deaths.inc(report.n_shard_failures)
        failovers = registry.counter(
            "repro_scale_failover_attaches_total",
            "Cooldown-bypassing replacement attaches after a death")
        failovers.inc(report.n_failovers)
        degraded = registry.counter(
            "repro_scale_degraded_total",
            "Requests that lost at least one shard answer to a death")
        degraded.inc(report.degraded_requests)
    goodput = registry.gauge(
        "repro_scale_goodput_ratio",
        "Offered requests completed within the SLO")
    goodput.set(report.goodput)

    batches = registry.counter(
        "repro_batches_total", "Executed batch attempts by outcome")
    for batch in result.batches:
        batches.inc(shard=str(batch.shard_id), outcome=batch.outcome)

    critical = registry.counter(
        "repro_critical_path_seconds_total",
        "Critical-path seconds attributed per stage")
    for stage, seconds in sorted(stage_attribution(paths).items()):
        critical.inc(seconds, stage=stage)

    throughput = registry.gauge(
        "repro_throughput_qps", "Sustained queries per second")
    throughput.set(report.throughput_qps)
    makespan = registry.gauge(
        "repro_makespan_seconds", "Simulated makespan")
    makespan.set(report.makespan_s)
    attainment = registry.gauge(
        "repro_slo_attainment_ratio",
        "Fraction of completed requests at or under the TTI SLO")
    attainment.set(report.slo_attainment)
    util = registry.gauge(
        "repro_shard_utilization_ratio",
        "Per-slot busy fraction of the simulated horizon")
    for slot_id, value in enumerate(report.shard_utilization):
        util.set(value, shard=str(slot_id))

    tti_hist = registry.histogram(
        "repro_tti_seconds",
        "Time-to-interactive distribution, by priority class",
        DEFAULT_LATENCY_BOUNDS_S)
    retrieval_hist = registry.histogram(
        "repro_retrieval_seconds",
        "Arrival-to-merged-top-k latency distribution",
        DEFAULT_LATENCY_BOUNDS_S)
    queue_hist = registry.histogram(
        "repro_queue_wait_seconds",
        "Per-request queue-wait on the critical path",
        DEFAULT_LATENCY_BOUNDS_S)
    size_hist = registry.histogram(
        "repro_batch_size", "Executed batch sizes", BATCH_SIZE_BOUNDS)
    for trace in traces:
        cls_name = classes[priorities[trace.req_id]].name
        tti_hist.observe(trace.tti_s, **{"class": cls_name})
        retrieval_hist.observe(trace.retrieval_latency_s + trace.merge_s)
    for path in paths:
        waited = path.stage_totals().get(SPAN_QUEUE_WAIT, 0.0)
        queue_hist.observe(waited)
    for batch in result.batches:
        size_hist.observe(batch.batch_size, shard=str(batch.shard_id))

    burn = registry.gauge(
        "repro_slo_burn_rate",
        f"SLO error-budget burn rate per window "
        f"(target {policy.autoscale.slo_target:g})")
    budget = policy.autoscale.error_budget
    windows = slo_burn_windows(
        [t.arrival_s for t in traces], [t.tti_s for t in traces],
        cfg.slo_s, report.makespan_s, n_burn_windows)
    for window in windows:
        burn.set(window.burn_rate(budget), window=str(window.index))
    return registry


def build_scale_telemetry(run: Any, prefill_s: float,
                          clock_hz: float) -> RunTelemetry:
    """Derive the full telemetry bundle from one elastic run.

    ``run`` is the simulator's internal ``_ElasticRun`` artifact; the
    result is the same :class:`~repro.telemetry.build.RunTelemetry`
    bundle the static pipeline produces, so every downstream renderer
    (span reports, attribution, flamegraphs, Perfetto export) works
    unchanged.
    """
    traces = build_scale_traces(run.result, run.merge_by_required,
                                prefill_s, run.stage_tables)
    paths = tuple(critical_path(trace) for trace in traces)
    registry = build_scale_metrics(run.report, run.result, paths, traces,
                                   run.priorities)
    return RunTelemetry(
        traces=tuple(traces),
        critical_paths=paths,
        registry=registry,
        clock_hz=clock_hz,
    )
