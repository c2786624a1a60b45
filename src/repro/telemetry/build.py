"""Build span trees, critical paths, and metrics from a schedule.

The builder is strictly *derivational*: it consumes the scheduler's
causal record (:class:`~repro.serve.scheduler.ScheduleResult` --
executed batch attempts, per-request scatter-gather progress, death
times) plus the per-dispatch stage tables the simulator captured, and
reconstructs every request's span tree after the fact.  Nothing here
runs during the event loop, so telemetry-on and telemetry-off
simulations are bit-identical by construction (and the property suite
proves it).

Every boundary in a tree is a float the event loop itself produced
(arrival times, dispatch times, ``dispatch + service`` completions,
death times), so sibling spans partition their parent bitwise and the
critical path conserves the reported TTI
(:mod:`repro.telemetry.critical`).

:func:`reconcile_with_trace` cross-checks the trees against the
``repro.obs`` TraceEvents the simulator emits -- spans are an *account*
of the same cycles, not a parallel accounting, and the reconciliation
proves it event by event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, \
    Union

from .critical import CriticalPath, critical_path, stage_attribution
from .metrics import (
    DEFAULT_LATENCY_BOUNDS_S,
    MetricsRegistry,
    slo_burn_windows,
)
from .spans import (
    SPAN_BACKOFF,
    SPAN_BATCH,
    SPAN_FAILOVER_WAIT,
    SPAN_MERGE,
    SPAN_PREFILL,
    SPAN_QUERY,
    SPAN_QUEUE_WAIT,
    SPAN_SHARD,
    QueryTrace,
    Span,
)

__all__ = [
    "StageTable",
    "RunTelemetry",
    "ReconcileReport",
    "build_query_traces",
    "build_run_telemetry",
    "build_serve_metrics",
    "reconcile_with_trace",
]

#: The SLO target the static serving burn rate is reported against:
#: the registry's ``repro_slo_burn_rate`` and the monitor's burn series.
SERVE_SLO_TARGET = 0.99

#: Batch-size histogram boundaries (dynamic batches cap at powers of 2).
BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class StageTable:
    """One dispatch's stage decomposition, captured at dispatch time.

    ``stages`` sums (to float associativity) to the service model's
    un-multiplied batch seconds; the fault multiplier's stretch is
    attributed separately as ``slowdown`` when the tree is built.
    """

    shard_id: int
    batch_size: int
    stages: Tuple[Tuple[str, float], ...]

    def base_seconds(self) -> float:
        total = 0.0
        for _, seconds in self.stages:
            total += seconds
        return total


def _batch_span(batch: Any, stage_table: Optional[StageTable]) -> Span:
    """The span of one executed attempt, with stage children when the
    attempt ran to completion (truncated attempts stay leaves)."""
    end_s = batch.dispatch_s + batch.service_s
    outcome = batch.outcome
    if batch.recompute and outcome == "ok":
        outcome = "recompute"
    labels = {
        "outcome": outcome,
        "batch_size": str(batch.batch_size),
        "attempt": str(batch.attempt),
    }
    if batch.corrupted:
        labels["corrupted"] = "1"
    span = Span(name=SPAN_BATCH, start_s=batch.dispatch_s, end_s=end_s,
                shard_id=batch.shard_id, labels=labels)
    full_service = batch.outcome in ("ok", "corrupted")
    if stage_table is None or not full_service:
        return span
    cursor = batch.dispatch_s
    for stage_name, seconds in stage_table.stages:
        if seconds <= 0:
            continue
        span.children.append(Span(
            name=stage_name, start_s=cursor, end_s=cursor + seconds,
            shard_id=batch.shard_id))
        cursor += seconds
    # A fold of the stage seconds can miss the exact service time by an
    # ulp; only a genuinely fault-stretched batch (multiplier != 1)
    # carries a slowdown span, so residue never masquerades as a fault.
    slowdown = end_s - cursor
    if slowdown > 0 and float(batch.multiplier) != 1.0:
        span.children.append(Span(
            name="slowdown", start_s=cursor, end_s=end_s,
            shard_id=batch.shard_id,
            labels={"multiplier": repr(float(batch.multiplier))}))
    return span


def _shard_chain(record: Any, shard_id: int,
                 attempts: Sequence[Any],
                 stage_tables: Mapping[Tuple[int, int], StageTable],
                 death_time: Optional[float]) -> Span:
    """One shard leg: spans that partition [arrival, leg end] bitwise."""
    failed = shard_id in record.failed_shards
    if failed:
        if death_time is None:  # pragma: no cover - scheduler invariant
            raise ValueError(
                f"request {record.req_id}: shard {shard_id} failed "
                f"without a recorded death time")
        leg_end = death_time
    else:
        leg_end = record.shard_done_s[shard_id]
    shard_span = Span(name=SPAN_SHARD, start_s=record.arrival_s,
                      end_s=leg_end, shard_id=shard_id,
                      labels={"failed": "1"} if failed else {})
    cursor = record.arrival_s
    previous_failed = False
    for batch in attempts:
        if batch.dispatch_s > cursor:
            gap_name = SPAN_BACKOFF if previous_failed else SPAN_QUEUE_WAIT
            shard_span.children.append(Span(
                name=gap_name, start_s=cursor, end_s=batch.dispatch_s,
                shard_id=shard_id))
        table = stage_tables.get((batch.shard_id, batch.seq))
        span = _batch_span(batch, table)
        shard_span.children.append(span)
        cursor = span.end_s
        previous_failed = not batch.succeeded
    if failed and leg_end > cursor:
        shard_span.children.append(Span(
            name=SPAN_FAILOVER_WAIT, start_s=cursor, end_s=leg_end,
            shard_id=shard_id))
    return shard_span


def build_query_traces(result: Any,
                       merge_s: Union[float, Mapping[int, float]],
                       prefill_s: float,
                       stage_tables: Optional[Sequence[StageTable]] = None,
                       ) -> List[QueryTrace]:
    """One :class:`QueryTrace` per completed request, in req-id order.

    ``merge_s`` is the host top-k merge cost: one number when every
    request fans out to the same shards, or a map from a record's
    scatter-gather width (``n_required``) to its merge cost when the
    width varies per request (elastic pools).  ``stage_tables`` is the
    dispatch-ordered capture from ``run_with_telemetry`` (one entry per
    executed batch); omitted, batch spans stay leaves.
    """
    merge_by_width: Optional[Mapping[int, float]] = None
    fixed_merge = 0.0
    if isinstance(merge_s, Mapping):
        merge_by_width = merge_s
    else:
        fixed_merge = merge_s
    tables: Dict[Tuple[int, int], StageTable] = {}
    if stage_tables is not None:
        if len(stage_tables) != len(result.batches):
            raise ValueError(
                f"{len(stage_tables)} stage tables for "
                f"{len(result.batches)} executed batches")
        for batch, table in zip(result.batches, stage_tables):
            if table.shard_id != batch.shard_id \
                    or table.batch_size != batch.batch_size:
                raise ValueError(
                    f"stage table ({table.shard_id}, {table.batch_size}) "
                    f"does not match batch ({batch.shard_id}, "
                    f"{batch.batch_size})")
            tables[(batch.shard_id, batch.seq)] = table

    by_request: Dict[int, Dict[int, List[Any]]] = {}
    for batch in result.batches:
        for req_id in batch.request_ids:
            by_request.setdefault(req_id, {}).setdefault(
                batch.shard_id, []).append(batch)

    traces: List[QueryTrace] = []
    for record in result.records:
        done = record.retrieval_done_s
        if done is None:  # pragma: no cover - scheduler invariant
            raise ValueError(f"request {record.req_id} never resolved")
        merge = fixed_merge if merge_by_width is None \
            else merge_by_width[record.n_required]
        tti_end = (done + merge) + prefill_s
        root = Span(name=SPAN_QUERY, start_s=record.arrival_s,
                    end_s=tti_end,
                    labels={"n_required": str(record.n_required)})
        shard_ids = sorted(set(record.shard_done_s)
                           | set(record.failed_shards))
        leg_ends: Dict[int, float] = {}
        for shard_id in shard_ids:
            attempts = sorted(
                by_request.get(record.req_id, {}).get(shard_id, []),
                key=lambda b: b.dispatch_s)
            leg = _shard_chain(record, shard_id, attempts, tables,
                               result.death_times.get(shard_id))
            leg_ends[shard_id] = leg.end_s
            root.children.append(leg)
        determining: Optional[int] = None
        for shard_id in shard_ids:
            if leg_ends[shard_id] == done:
                determining = shard_id
                break
        if determining is None and shard_ids:
            # pragma: no cover - every resolution is a shard event
            raise ValueError(
                f"request {record.req_id}: no shard leg ends at the "
                f"recorded resolution time {done!r}")
        merge_end = done + merge
        root.children.append(Span(name=SPAN_MERGE, start_s=done,
                                  end_s=merge_end))
        root.children.append(Span(name=SPAN_PREFILL, start_s=merge_end,
                                  end_s=merge_end + prefill_s))
        traces.append(QueryTrace(
            req_id=record.req_id,
            arrival_s=record.arrival_s,
            retrieval_done_s=done,
            merge_s=merge,
            prefill_s=prefill_s,
            root=root,
            determining_shard=determining,
            n_required=record.n_required,
            failed_shards=tuple(sorted(record.failed_shards)),
            corrupted_shards=tuple(sorted(record.corrupted_shards)),
        ))
    return traces


# ----------------------------------------------------------------------
# Metrics pipeline
# ----------------------------------------------------------------------
def build_serve_metrics(report: Any, result: Any,
                        paths: Sequence[CriticalPath],
                        traces: Sequence[QueryTrace],
                        n_burn_windows: int = 4) -> MetricsRegistry:
    """Populate a registry from one serving run.

    The same derivational hooks as the span trees: everything comes
    from the schedule record and the report, so the registry is
    bit-deterministic and golden-pinnable.
    """
    registry = MetricsRegistry()
    cfg = report.config

    requests = registry.counter(
        "repro_requests_total", "Completed requests")
    requests.inc(report.n_completed)
    degraded = registry.counter(
        "repro_requests_degraded_total",
        "Requests answered with less than full corpus coverage")
    degraded.inc(report.degraded_requests)

    batches = registry.counter(
        "repro_batches_total", "Executed batch attempts by outcome")
    retries = registry.counter(
        "repro_retries_total", "Backoff-gated retry rounds")
    deaths = registry.counter(
        "repro_shard_deaths_total", "Shards declared dead")
    detected = registry.counter(
        "repro_integrity_detected_total",
        "Corrupted batches caught by ABFT verification")
    recomputes = registry.counter(
        "repro_integrity_recomputes_total",
        "Recompute attempts dispatched to heal detections")
    escapes = registry.counter(
        "repro_sdc_escapes_total",
        "Corrupted batches shipped undetected")
    # Registered only when protection is on: a registered counter
    # exposes HELP/TYPE headers even at zero, and ECC-off runs must
    # stay byte-identical to the pre-ECC registry.
    ecc_corrected = ecc_detected = ecc_miscorrected = None
    if cfg.ecc.enabled:
        ecc_corrected = registry.counter(
            "repro_ecc_corrected_total",
            "Codewords the ECC decoder corrected in place")
        ecc_detected = registry.counter(
            "repro_ecc_detected_total",
            "Codewords the ECC decoder flagged detected-uncorrectable")
        ecc_miscorrected = registry.counter(
            "repro_ecc_miscorrections_total",
            "Codewords the ECC decoder silently miscorrected")
    for batch in result.batches:
        batches.inc(shard=str(batch.shard_id), outcome=batch.outcome)
    for entry in result.fault_log:
        shard = str(entry.shard_id)
        if entry.kind == "backoff":
            retries.inc(shard=shard)
        elif entry.kind == "dead":
            deaths.inc(shard=shard)
        elif entry.kind == "corrupted":
            detected.inc(shard=shard)
        elif entry.kind == "recompute":
            recomputes.inc(shard=shard)
        elif entry.kind == "sdc":
            escapes.inc(shard=shard)
        elif entry.kind == "ecc_corrected" and ecc_corrected is not None:
            ecc_corrected.inc(shard=shard)
        elif entry.kind == "ecc_detected" and ecc_detected is not None:
            ecc_detected.inc(shard=shard)
        elif entry.kind == "ecc_miscorrect" \
                and ecc_miscorrected is not None:
            ecc_miscorrected.inc(shard=shard)

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
        "Fraction of requests at or under the TTI SLO")
    attainment.set(report.slo_attainment)
    utilization = registry.gauge(
        "repro_shard_utilization_ratio",
        "Per-shard busy fraction of the simulated horizon")
    for shard_id, value in enumerate(report.shard_utilization):
        utilization.set(value, shard=str(shard_id))
    coverage = registry.gauge(
        "repro_coverage_mean_ratio",
        "Mean fraction of corpus chunks scanned per request")
    coverage.set(report.mean_coverage)
    intact = registry.gauge(
        "repro_intact_coverage_mean_ratio",
        "Mean fraction of shard answers neither lost nor corrupted")
    intact.set(report.mean_intact_coverage)

    tti_hist = registry.histogram(
        "repro_tti_seconds", "Time-to-interactive distribution",
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
        tti_hist.observe(trace.tti_s)
        retrieval_hist.observe(trace.retrieval_latency_s + trace.merge_s)
    for path in paths:
        waited = path.stage_totals().get(SPAN_QUEUE_WAIT, 0.0)
        queue_hist.observe(waited)
    for batch in result.batches:
        size_hist.observe(batch.batch_size, shard=str(batch.shard_id))

    burn = registry.gauge(
        "repro_slo_burn_rate",
        f"SLO error-budget burn rate per window "
        f"(target {SERVE_SLO_TARGET:g})")
    budget = 1.0 - SERVE_SLO_TARGET
    windows = slo_burn_windows(
        [t.arrival_s for t in traces], [t.tti_s for t in traces],
        cfg.slo_s, report.makespan_s, n_burn_windows)
    for window in windows:
        burn.set(window.burn_rate(budget), window=str(window.index))
    return registry


# ----------------------------------------------------------------------
# Reconciliation against the obs TraceEvents
# ----------------------------------------------------------------------
@dataclass
class ReconcileReport:
    """Span-vs-TraceEvent cross-check results."""

    n_batch_spans: int = 0
    n_batch_matched: int = 0
    n_merge_spans: int = 0
    n_merge_events: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"
        return (f"reconciliation: {self.n_batch_matched}/"
                f"{self.n_batch_spans} batch spans matched trace events, "
                f"{self.n_merge_spans} merge spans vs "
                f"{self.n_merge_events} merge events -> {status}")


def reconcile_with_trace(traces: Sequence[QueryTrace], collector: Any,
                         clock_hz: float,
                         rel_tol: float = 1e-9) -> ReconcileReport:
    """Verify spans are an account of the emitted TraceEvents.

    Every ``batch`` span must coincide (start and duration, within
    ``rel_tol`` relative cycles) with a ``serve_batch`` event on the
    same shard, and the per-request merge spans must agree in number
    with the ``serve_merge`` events.  ``collector`` is a
    :class:`~repro.obs.collector.TraceCollector` (its ring must have
    retained the run -- use a capacity above the event count) or any
    iterable of :class:`~repro.obs.events.TraceEvent`.
    """
    report = ReconcileReport()
    batch_events: Dict[int, List[Tuple[float, float]]] = {}
    n_merge_events = 0
    events = collector.events if hasattr(collector, "events") \
        else collector
    for event in events:
        if event.name == "serve_batch":
            batch_events.setdefault(event.core_id, []).append(
                (event.start_cycle, event.total_cycles))
        elif event.name == "serve_merge":
            n_merge_events += 1
    report.n_merge_events = n_merge_events

    def close(a: float, b: float, scale: float) -> bool:
        return abs(a - b) <= rel_tol * max(1.0, abs(scale))

    for trace in traces:
        for shard_id, leg in sorted(trace.shard_spans.items()):
            for span in leg.children:
                if span.name != SPAN_BATCH:
                    continue
                report.n_batch_spans += 1
                start = span.start_s * clock_hz
                cycles = span.duration_s * clock_hz
                candidates = batch_events.get(shard_id, ())
                if any(close(start, s, s) and close(cycles, c, c)
                       for s, c in candidates):
                    report.n_batch_matched += 1
                else:
                    report.mismatches.append(
                        f"req {trace.req_id} shard {shard_id}: batch span "
                        f"at cycle {start:.0f} ({cycles:.0f} cycles) has "
                        f"no serve_batch event")
        report.n_merge_spans += sum(
            1 for child in trace.root.children
            if child.name == SPAN_MERGE)
    if n_merge_events and report.n_merge_spans != n_merge_events:
        report.mismatches.append(
            f"{report.n_merge_spans} merge spans vs "
            f"{n_merge_events} serve_merge events")
    return report


# ----------------------------------------------------------------------
# The run-level bundle
# ----------------------------------------------------------------------
@dataclass
class RunTelemetry:
    """Everything one telemetry-enabled serving run derived."""

    traces: Tuple[QueryTrace, ...]
    critical_paths: Tuple[CriticalPath, ...]
    registry: MetricsRegistry
    clock_hz: float

    def path_for(self, req_id: int) -> CriticalPath:
        for path in self.critical_paths:
            if path.req_id == req_id:
                return path
        raise KeyError(f"no critical path for request {req_id}")

    def trace_for(self, req_id: int) -> QueryTrace:
        for trace in self.traces:
            if trace.req_id == req_id:
                return trace
        raise KeyError(f"no query trace for request {req_id}")

    @property
    def n_spans(self) -> int:
        return sum(trace.n_spans() for trace in self.traces)


def build_run_telemetry(report: Any, result: Any, merge_s: float,
                        prefill_s: float,
                        stage_tables: Optional[Sequence[StageTable]],
                        clock_hz: float) -> RunTelemetry:
    """Derive the full telemetry bundle from one completed run."""
    traces = build_query_traces(result, merge_s, prefill_s, stage_tables)
    paths = tuple(critical_path(trace) for trace in traces)
    registry = build_serve_metrics(report, result, paths, traces)
    return RunTelemetry(
        traces=tuple(traces),
        critical_paths=paths,
        registry=registry,
        clock_hz=clock_hz,
    )
