"""The sharded serving simulator: corpus -> shards -> scheduler -> report.

:class:`ServingSimulator` runs a request stream against ``N`` simulated
APU shard devices.  Per-shard batch service times come from the
:class:`~repro.serve.costs.SliceCostModel` of each shard's corpus
slice, *anchored* so that a batch of one costs exactly the
single-device Table 8 latency (``APURetriever.latency_breakdown(...)
.total``) and each extra query in a batch adds the
:class:`repro.rag.batching.BatchedAPURetrieval` amortized per-query
increment.  Completed
requests pay the host top-k merge plus the generator prefill, giving a
**time-to-interactive** distribution; with one shard and batches of one
the simulated TTI is cycle-identical to
``RAGPipeline.time_to_interactive``.

A :class:`~repro.faults.FaultPlan` in the config turns the run into a
scripted chaos experiment: the scheduler gets a
:class:`~repro.faults.FaultInjector` plus the config's
:class:`~repro.serve.scheduler.RetryPolicy`, and when a shard is
declared dead the simulator applies its **failover policy**:

* ``"reroute"`` -- survivors take over the dead shard's chunk slice
  (their batches are priced on the enlarged slices), so requests
  arriving after the death regain full corpus coverage;
* ``"degraded"`` -- the dead slice is dropped and later requests merge
  partial top-k from the live shards only.

Either way, requests in flight at the death lose the dead shard's
slice; the report's **coverage** numbers are the exact fraction of
corpus chunks scanned per request, which for round-robin placement is
also the expected recall@k against the unsharded oracle (exactly --
see :mod:`repro.serve.degraded`).  An empty fault plan takes none of
these paths and reproduces the fault-free simulation bit-for-bit.

Bit-flip faults in the plan add the silent-data-corruption dimension.
With :attr:`ServeConfig.integrity` enabled the scheduler runs
*protected*: corrupted batches are detected at completion and recomputed
through the retry machinery (so answers stay bit-identical to the
fault-free baseline, at a latency/throughput cost charged through the
calibrated :class:`~repro.integrity.IntegrityCostModel` -- per-query
checksum verification plus the periodic scrub duty cycle).  Disabled,
the same plan ships corrupted answers: the report counts the escapes
(``n_sdc_escapes``) and the **intact coverage** -- the fraction of each
request's shard answers that were neither lost nor corrupted.

When a :mod:`repro.obs` collector is active, every executed batch and
host merge is emitted as a shard-tagged
:class:`~repro.obs.events.TraceEvent` (``core_id`` = shard id), so the
Chrome-trace export shows one Perfetto lane per device; faults and the
stack's reactions (stalls, outages, timeouts, backoff, failover) land
on the dedicated ``FAULT`` lane, and the corruption story (scripted
flips, detections, recomputes, scrub passes, SDC escapes) on the
``INTEGRITY`` lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.params import APUParams, DEFAULT_PARAMS
from ..ecc import ECCConfig, ECCModel
from ..faults import BitFlipFault, FaultInjector, FaultPlan, OutageFault, \
    StallFault
from ..integrity.config import IntegrityConfig, get_cost_model
from ..obs import collector as _trace_collector
from ..obs.events import LANE_FAULT, LANE_INTEGRITY, LANE_VCU, TraceEvent
from ..rag.corpus import CorpusSpec, PAPER_CORPORA
from ..rag.generation import GenerationModel
from ..simcore.engine import DEFAULT_ENGINE, validate_engine
from .costs import SliceCostModel
from .metrics import LatencyStats, slo_attainment, utilization
from .scheduler import (
    BatchPolicy,
    DiscreteEventScheduler,
    ExecutedBatch,
    RequestRecord,
    RetryPolicy,
    ScheduleResult,
)
from .sharding import merge_cycles, merge_seconds, shard_chunk_counts
from .workload import Request, poisson_arrivals

__all__ = [
    "FAILOVER_POLICIES",
    "ServeConfig",
    "ShardServiceModel",
    "ServeReport",
    "ServingSimulator",
    "emit_batch_trace",
    "emit_fault_trace",
    "emit_integrity_trace",
    "stage_recorder",
    "golden_serve_config",
    "golden_fault_config",
    "golden_integrity_config",
    "golden_ecc_config",
]

#: Supported responses to a shard death.
FAILOVER_POLICIES = ("reroute", "degraded")


@dataclass(frozen=True)
class ServeConfig:
    """One serving deployment + workload configuration."""

    spec: CorpusSpec
    n_shards: int = 4
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    k: int = 5
    qps: float = 100.0
    n_requests: int = 256
    seed: int = 0
    #: Time-to-interactive SLO for attainment accounting.
    slo_s: float = 1.0
    #: Scripted faults; the empty default plan is bit-identical to a
    #: fault-free run.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Per-batch timeout + bounded-retry policy (consulted only when
    #: the fault plan is non-empty).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: What to do when a shard dies: ``"reroute"`` or ``"degraded"``.
    failover: str = "reroute"
    #: ABFT protection knobs.  Disabled (the default) keeps every code
    #: path bit-identical to the pre-integrity simulator; enabled, the
    #: scheduler detects and recomputes corrupted batches and the
    #: service model charges the verification + scrub overhead.
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)
    #: Code-based memory protection.  Disabled (the default) keeps every
    #: code path bit-identical to the pre-ECC simulator; enabled,
    #: injected upsets land in codewords (corrected / detected /
    #: miscorrected by the configured codec) and the service model
    #: charges the check-bit storage inflation plus the per-query
    #: encode/decode cycles.
    ecc: ECCConfig = field(default_factory=ECCConfig)
    #: Static scheduler backend: ``"scalar"`` (the reference event
    #: loop) or ``"vectorized"`` (the NumPy core, validated
    #: bit-identical against it by ``tests/simcore``).  Elastic runs
    #: (a :class:`~repro.scale.ScaleConfig` with a policy) always use
    #: the one elastic loop and ignore it.
    engine: str = DEFAULT_ENGINE

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        if not (math.isfinite(self.slo_s) and self.slo_s > 0):
            raise ValueError(
                f"slo_s must be finite and positive, got {self.slo_s!r}")
        if self.n_shards > self.spec.n_chunks:
            raise ValueError(
                f"{self.n_shards} shards for {self.spec.n_chunks} chunks "
                f"would leave shards empty")
        if not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan, "
                f"got {type(self.faults).__name__}")
        self.faults.validate_for(self.n_shards)
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy, "
                f"got {type(self.retry).__name__}")
        if self.failover not in FAILOVER_POLICIES:
            raise ValueError(
                f"unknown failover policy {self.failover!r}; "
                f"choose from {FAILOVER_POLICIES}")
        if not isinstance(self.integrity, IntegrityConfig):
            raise ValueError(
                f"integrity must be an IntegrityConfig, "
                f"got {type(self.integrity).__name__}")
        if not isinstance(self.ecc, ECCConfig):
            raise ValueError(
                f"ecc must be an ECCConfig, "
                f"got {type(self.ecc).__name__}")
        validate_engine(self.engine)


class ShardServiceModel:
    """Static placement of the corpus over ``n_shards`` devices.

    Each shard holds a balanced slice of the corpus and every batch is
    priced by the shared :class:`~repro.serve.costs.SliceCostModel`
    (:attr:`costs`) on that shard's slice: ``batch_seconds(shard, 1)``
    is exactly the single-device Table 8 latency of the slice, with the
    ABFT, scrub and ECC taxes on top when configured.

    The placement is mutable under failover: :meth:`apply_takeover`
    redistributes a dead shard's chunks over the survivors (so their
    batches cost what scanning the enlarged slices costs), and
    :meth:`reset` restores the original placement (so one simulator can
    replay runs).  :attr:`chunk_counts` is what each shard serves now (a
    dead shard serves nothing); :attr:`resident_counts` is the slice
    each device last held -- a dead shard keeps its last slice, and the
    trace and monitor bytes of every shard come from it.
    """

    def __init__(self, spec: CorpusSpec, n_shards: int, k: int = 5,
                 params: APUParams = DEFAULT_PARAMS,
                 integrity: Optional[IntegrityConfig] = None,
                 ecc: Optional[ECCConfig] = None):
        self.spec = spec
        self.n_shards = n_shards
        self.costs = SliceCostModel(spec, k, params, integrity, ecc)
        self._base = tuple(shard_chunk_counts(spec.n_chunks, n_shards))
        if min(self._base) == 0:
            raise ValueError(
                f"{n_shards} shards for {spec.n_chunks} chunks would "
                f"leave shard {self._base.index(0)} empty; use fewer shards")
        for count in set(self._base):
            # Calibrate up front, outside any simulated run.
            self.costs.service_seconds(count, 1)
        self.reset()

    def batch_seconds(self, shard_id: int, batch_size: int) -> float:
        """Service time of one batch on one shard's device."""
        return self.costs.service_seconds(self.resident_counts[shard_id],
                                          batch_size)

    def stage_seconds(self, shard_id: int, batch_size: int
                      ) -> Tuple[Tuple[str, float], ...]:
        """Table 8 stage decomposition of one batch on one shard, on the
        placement *now* (call at dispatch time so takeovers mid-run are
        honored)."""
        return self.costs.stage_seconds(self.resident_counts[shard_id],
                                        batch_size)

    def reset(self) -> None:
        """Undo every takeover (back to the calibrated placement)."""
        self.chunk_counts: List[int] = list(self._base)
        self.resident_counts: List[int] = list(self._base)

    def apply_takeover(self, dead_id: int, live_ids: Sequence[int]) -> None:
        """Redistribute ``dead_id``'s chunks over ``live_ids``.

        The orphaned slice splits as evenly as chunks allow (earlier
        survivors take the remainder), one death at a time.
        """
        if not live_ids:
            raise ValueError("takeover needs at least one live shard")
        orphaned = self.chunk_counts[dead_id]
        self.chunk_counts[dead_id] = 0
        extra = shard_chunk_counts(orphaned, len(live_ids))
        for live_id, gained in zip(live_ids, extra):
            self.chunk_counts[live_id] += gained
            self.resident_counts[live_id] = self.chunk_counts[live_id]


@dataclass(frozen=True)
class ServeReport:
    """Everything one simulation run produced."""

    config: ServeConfig
    n_completed: int
    #: Last request's full completion (retrieval + merge + prefill).
    makespan_s: float
    throughput_qps: float
    #: Arrival -> merged top-k (queueing + batches + host merge).
    retrieval: LatencyStats
    #: Arrival -> first generated token.
    tti: LatencyStats
    slo_attainment: float
    shard_utilization: Tuple[float, ...]
    n_batches: int
    mean_batch_size: float
    #: Batch attempts aborted at the per-batch timeout.
    n_timeouts: int = 0
    #: Backoff-gated retry rounds.
    n_retries: int = 0
    #: Shards declared dead during the run.
    n_shard_failures: int = 0
    #: Requests answered with less than full corpus coverage.
    degraded_requests: int = 0
    #: Mean/min fraction of corpus chunks scanned per request; under
    #: round-robin placement this is the exact expected recall@k vs the
    #: unsharded oracle.
    mean_coverage: float = 1.0
    min_coverage: float = 1.0
    #: Corrupted batch attempts caught by ABFT verification.
    n_corruptions_detected: int = 0
    #: Corrupted batches that shipped undetected (unprotected runs).
    n_sdc_escapes: int = 0
    #: Recompute attempts dispatched to heal detections.
    n_recomputes: int = 0
    #: Codewords the ECC decoder corrected in place (clean batches).
    n_ecc_corrected: int = 0
    #: Codewords the ECC decoder flagged detected-uncorrectable.
    n_ecc_detected: int = 0
    #: Codewords the ECC decoder silently miscorrected (beyond-
    #: capability upsets that landed within distance t of a wrong
    #: codeword).
    n_ecc_miscorrections: int = 0
    #: Mean fraction of each request's shard answers that were neither
    #: lost to failover nor silently corrupted (1.0 = every answer
    #: trustworthy).
    mean_intact_coverage: float = 1.0

    def format(self) -> str:
        """Human-readable report block for the CLI."""
        cfg = self.config
        lines = [
            f"serving {cfg.spec.label} over {cfg.n_shards} shard(s), "
            f"{cfg.qps:g} qps offered, {cfg.n_requests} requests "
            f"(seed {cfg.seed})",
            f"  batching: max {cfg.batch.max_batch}/batch, "
            f"max wait {cfg.batch.max_wait_s * 1e3:g} ms "
            f"-> {self.n_batches} batches, "
            f"mean size {self.mean_batch_size:.2f}",
            f"  throughput: {self.throughput_qps:8.1f} qps sustained "
            f"({self.n_completed} completed in {self.makespan_s:.3f} s)",
        ]
        retrieval, tti = self.retrieval.as_ms(), self.tti.as_ms()
        lines.append(
            "  retrieval ms: "
            + "  ".join(f"{name} {retrieval[name]:8.2f}"
                        for name in ("p50", "p95", "p99", "max")))
        lines.append(
            "  tti       ms: "
            + "  ".join(f"{name} {tti[name]:8.2f}"
                        for name in ("p50", "p95", "p99", "max")))
        lines.append(
            f"  SLO {cfg.slo_s * 1e3:g} ms: "
            f"{self.slo_attainment * 100:.1f}% attained")
        lines.append(
            "  utilization: "
            + "  ".join(f"shard{i} {u * 100:5.1f}%"
                        for i, u in enumerate(self.shard_utilization)))
        if cfg.faults:
            lines.append(
                f"  faults: {cfg.faults.n_faults} scripted "
                f"({cfg.failover} failover) -> {self.n_timeouts} timeouts, "
                f"{self.n_retries} retries, "
                f"{self.n_shard_failures} shard death(s)")
            lines.append(
                f"  coverage: mean {self.mean_coverage * 100:.2f}%  "
                f"min {self.min_coverage * 100:.2f}%  "
                f"(expected recall; {self.degraded_requests} degraded "
                f"request(s))")
        if cfg.faults.bit_flips or cfg.integrity.enabled:
            mode = "protected" if cfg.integrity.enabled else "UNPROTECTED"
            lines.append(
                f"  integrity ({mode}): "
                f"{len(cfg.faults.bit_flips)} scripted flip(s) -> "
                f"{self.n_corruptions_detected} detected, "
                f"{self.n_recomputes} recomputed, "
                f"{self.n_sdc_escapes} escaped; "
                f"intact coverage {self.mean_intact_coverage * 100:.2f}%")
        if cfg.ecc.enabled:
            tier = cfg.ecc.tier
            if tier == "bch":
                tier = f"bch t={cfg.ecc.t}"
            lines.append(
                f"  ecc ({tier}, {cfg.ecc.data_bits}b codewords): "
                f"{self.n_ecc_corrected} corrected, "
                f"{self.n_ecc_detected} detected-uncorrectable, "
                f"{self.n_ecc_miscorrections} miscorrected")
        return "\n".join(lines)


class ServingSimulator:
    """Drive a request stream through the sharded serving stack."""

    def __init__(self, config: ServeConfig,
                 params: APUParams = DEFAULT_PARAMS,
                 generator: Optional[GenerationModel] = None):
        self.config = config
        self.params = params
        self.generator = generator or GenerationModel()
        self.service_model = ShardServiceModel(
            config.spec, config.n_shards, config.k, params,
            integrity=config.integrity, ecc=config.ecc)
        self.merge_s = merge_seconds(config.n_shards, config.k, params)
        self.prefill_s = self.generator.prefill_seconds()
        self.injector = (FaultInjector(config.faults, config.n_shards)
                         if config.faults else None)
        #: Dead shard id -> chunks that went dark with it (slice at death).
        self._chunks_lost_at_death: Dict[int, int] = {}
        #: Deaths nobody took over (degraded mode, or no survivors):
        #: these chunks stay missing for every later arrival.
        self._permanent_loss: Dict[int, int] = {}
        #: Causal record of the last telemetry run (monitor input).
        self._last_result: Optional[ScheduleResult] = None
        if config.engine == "vectorized":
            # Imported lazily to keep repro.serve importable while
            # repro.simcore (which imports the scalar scheduler) loads.
            from ..simcore.vectorized import VectorizedScheduler

            scheduler_cls = VectorizedScheduler
        else:
            scheduler_cls = DiscreteEventScheduler
        self.scheduler = scheduler_cls(
            config.n_shards, config.batch, self.service_model.batch_seconds,
            injector=self.injector, retry=config.retry,
            on_death=self._on_shard_death
            if self.injector is not None else None,
            protected=config.integrity.enabled,
            ecc=ECCModel(config.ecc) if config.ecc.enabled else None)

    # ------------------------------------------------------------------
    def _on_shard_death(self, shard_id: int, t_s: float) -> None:
        """Failover hook: apply the configured policy to a shard death."""
        lost = self.service_model.chunk_counts[shard_id]
        self._chunks_lost_at_death[shard_id] = lost
        live = [i for i in range(self.config.n_shards)
                if i not in self._chunks_lost_at_death]
        if self.config.failover == "reroute" and live:
            self.service_model.apply_takeover(shard_id, live)
        else:
            self.service_model.chunk_counts[shard_id] = 0
            self._permanent_loss[shard_id] = lost

    def _coverage(self, record: RequestRecord,
                  death_times: Dict[int, float]) -> float:
        """Fraction of corpus chunks that served this request.

        In-flight failures lose the dead shard's slice at death;
        permanent losses (degraded mode, or a death with no survivors)
        stay missing for every later arrival.  Overlapping multi-death
        windows clamp at zero rather than double-count.
        """
        total = self.config.spec.n_chunks
        missing = sum(self._chunks_lost_at_death[d]
                      for d in record.failed_shards)
        missing += sum(lost for d, lost in self._permanent_loss.items()
                       if death_times[d] <= record.arrival_s
                       and d not in record.failed_shards)
        return max(0.0, 1.0 - min(missing, total) / total)

    # ------------------------------------------------------------------
    def run(self, requests: Optional[Sequence[Request]] = None) -> ServeReport:
        """Simulate the configured (or a supplied) request stream."""
        report, _ = self._simulate(requests)
        return report

    def run_with_telemetry(self, requests: Optional[Sequence[Request]] = None):
        """Simulate and derive request-level causal telemetry.

        Returns ``(report, telemetry)`` where the report is **bit-
        identical** to :meth:`run` on the same stream.  Each executed
        batch gets its stage decomposition (one
        :class:`~repro.telemetry.build.StageTable`, against the
        placement it ran on, so takeover re-anchors are honored; see
        :meth:`_simulate_capturing`); span trees, critical paths, and
        the metrics registry are all derived after the run from the
        scheduler's causal record.
        """
        from ..telemetry.build import RunTelemetry, build_run_telemetry

        report, result, tables = self._simulate_capturing(requests)
        self._last_result = result
        telemetry: RunTelemetry = build_run_telemetry(
            report, result, self.merge_s, self.prefill_s, tables,
            self.params.clock_hz)
        if self.injector is not None:
            # Annotate slowdown spans with *why* the batch stretched
            # (stall window vs slow-start recovery), evaluated at the
            # same dispatch instant the scheduler used.
            for query_trace in telemetry.traces:
                for shard_id, leg in query_trace.shard_spans.items():
                    for span in leg.children:
                        for child in span.children:
                            if child.name != "slowdown":
                                continue
                            sources = self.injector.multiplier_sources(
                                shard_id, span.start_s)
                            child.labels["source"] = \
                                ",".join(sources) or "unknown"
        return report, telemetry

    def run_with_monitor(self, requests: Optional[Sequence[Request]] = None,
                         *, cadence_s: Optional[float] = None,
                         workload: str = "serve"):
        """Simulate, derive telemetry, and sample the monitor series.

        Returns ``(report, telemetry, monitor)`` where report and
        telemetry are **bit-identical** to :meth:`run_with_telemetry`
        on the same stream: the monitor is derived post-hoc from the
        same causal record, with no extra instrumentation inside the
        event loop (the differential suite pins monitoring-off
        byte-identity on both engines).
        """
        from ..monitor import DEFAULT_CADENCE_S, build_run_monitor

        report, telemetry = self.run_with_telemetry(requests)
        result = self._last_result
        assert result is not None
        batch_bytes = self._batch_bytes(result)
        # Bitwise the report's TTI arithmetic: retrieval latency plus
        # merge, plus prefill.
        tti_by_req = {
            r.req_id: (r.retrieval_done_s - r.arrival_s + self.merge_s)
            + self.prefill_s
            for r in result.records if r.retrieval_done_s is not None}
        monitor = build_run_monitor(
            workload=workload,
            result=result,
            slo_s=self.config.slo_s,
            # The registry's default SLO burn budget (slo_target=0.99).
            error_budget=1.0 - 0.99,
            class_names=("all",),
            priorities={},
            tti_by_req=tti_by_req,
            batch_bytes=batch_bytes,
            pool_initial=self.config.n_shards,
            registry_exposition=telemetry.registry.expose(),
            cadence_s=(cadence_s if cadence_s is not None
                       else DEFAULT_CADENCE_S),
        )
        return report, telemetry, monitor

    def _simulate_capturing(self, requests: Optional[Sequence[Request]]
                            = None):
        """Simulate and record one stage table per batch (no span build).

        Without faults the placement never changes, so on either engine
        the tables are built after the run from the batch list, one per
        ``(shard, batch size)``.  A fault run wraps the service-time
        callable instead (:func:`stage_recorder`), so each table is
        taken at dispatch and honors takeover re-anchors.  Split out so
        the overhead benchmark can time collection separately from the
        post-hoc trace build.
        """
        from ..telemetry.build import StageTable

        model = self.service_model
        tables: List[StageTable] = []
        if self.injector is None:
            report, result = self._simulate(requests)
            memo: Dict[Tuple[int, int], StageTable] = {}
            for batch in result.batches:
                key = (batch.shard_id, batch.batch_size)
                table = memo.get(key)
                if table is None:
                    table = memo[key] = StageTable(
                        shard_id=key[0], batch_size=key[1],
                        stages=model.stage_seconds(*key))
                tables.append(table)
            return report, result, tables

        orig = self.scheduler.service_time
        self.scheduler.service_time = stage_recorder(
            orig, lambda shard_id: model.resident_counts[shard_id],
            model.costs, tables)
        try:
            report, result = self._simulate(requests)
        finally:
            self.scheduler.service_time = orig
        return report, result, tables

    def _simulate(self, requests: Optional[Sequence[Request]] = None
                  ) -> Tuple[ServeReport, ScheduleResult]:
        """One full simulation: (report, raw schedule record)."""
        cfg = self.config
        if requests is None:
            requests = poisson_arrivals(cfg.qps, cfg.n_requests, cfg.seed)
        if self.injector is not None:
            # Replays must start from the calibrated placement.
            self.service_model.reset()
            self._chunks_lost_at_death.clear()
            self._permanent_loss.clear()
        result = self.scheduler.run(requests)
        self._emit_trace(result)

        retrieval_lat = [r.retrieval_latency_s + self.merge_s
                         for r in result.records]
        tti_lat = [lat + self.prefill_s for lat in retrieval_lat]
        makespan = result.horizon_s + self.merge_s + self.prefill_s
        sizes = [batch.batch_size for batch in result.batches]
        if self.injector is None:
            coverages = None
            intact = None
        else:
            coverages = [self._coverage(r, result.death_times)
                         for r in result.records]
            intact = [
                max(0, r.n_required - len(r.failed_shards)
                    - len(r.corrupted_shards)) / r.n_required
                for r in result.records if r.n_required > 0]
        report = ServeReport(
            config=cfg,
            n_completed=len(result.records),
            makespan_s=makespan,
            throughput_qps=len(result.records) / makespan,
            retrieval=LatencyStats.from_samples(retrieval_lat),
            tti=LatencyStats.from_samples(tti_lat),
            slo_attainment=slo_attainment(tti_lat, cfg.slo_s),
            shard_utilization=tuple(
                utilization(result.busy_seconds, result.horizon_s)),
            n_batches=len(result.batches),
            mean_batch_size=sum(sizes) / len(sizes) if sizes else 0.0,
            n_timeouts=result.n_timeouts,
            n_retries=result.n_retries,
            n_shard_failures=len(result.death_times),
            degraded_requests=0 if coverages is None
            else sum(1 for c in coverages if c < 1.0),
            mean_coverage=1.0 if coverages is None
            else sum(coverages) / len(coverages),
            min_coverage=1.0 if coverages is None else min(coverages),
            n_corruptions_detected=result.n_corruptions_detected,
            n_sdc_escapes=result.n_sdc,
            n_recomputes=result.n_recomputes,
            n_ecc_corrected=result.n_ecc_corrected,
            n_ecc_detected=result.n_ecc_detected,
            n_ecc_miscorrections=result.n_ecc_miscorrections,
            mean_intact_coverage=1.0 if not intact
            else sum(intact) / len(intact),
        )
        return report, result

    # ------------------------------------------------------------------
    def _batch_bytes(self, result: ScheduleResult) -> List[int]:
        """Per-batch embedding bytes of the device's resident slice."""
        model = self.service_model
        shard_bytes = [model.costs.embedding_bytes(count)
                       for count in model.resident_counts]
        return [shard_bytes[b.shard_id] for b in result.batches]

    def _emit_trace(self, result: ScheduleResult) -> None:
        """Shard-tagged trace events (one Perfetto lane per device)."""
        trace = _trace_collector.ACTIVE
        if trace is None or not trace.enabled:
            return
        clock = self.params.clock_hz
        emit_batch_trace(trace, result.batches, self._batch_bytes(result),
                         clock)
        cycles_per_merge = merge_cycles(self.config.n_shards, self.config.k,
                                        self.params)
        if cycles_per_merge > 0:
            for record in result.records:
                if record.retrieval_done_s is None:  # pragma: no cover
                    continue
                trace.emit(TraceEvent(
                    name="serve_merge", lane=LANE_VCU,
                    start_cycle=record.retrieval_done_s * clock,
                    cycles=cycles_per_merge,
                    section="serve/merge",
                    core_id=self.config.n_shards))
        if self.injector is not None:
            emit_fault_trace(trace, result, clock, self.config.faults)
            emit_integrity_trace(trace, result, clock, self.config.faults,
                                 self.config.integrity, self.params,
                                 self.config.n_shards)


def stage_recorder(service_time: Callable[[int, int], float],
                   slice_of: Callable[[int], int], costs: SliceCostModel,
                   tables: List[Any]) -> Callable[[int, int], float]:
    """Pass-through wrapper on a ``service_time(shard_id, batch_size)``
    callable that appends each dispatch's stage decomposition to
    ``tables`` (one :class:`~repro.telemetry.build.StageTable` per
    batch).

    ``slice_of(shard_id)`` is the chunk count the shard scans at that
    instant.  Decompositions only change when a takeover or a topology
    change resizes a slice, so memoizing them keeps the in-loop
    collection cost to a dict probe per dispatch.  Static fault runs
    and elastic runs capture through it.
    """
    from ..telemetry.build import StageTable

    memo: Dict[Tuple[int, int, int], StageTable] = {}

    def recording_service_time(shard_id: int, batch_size: int) -> float:
        seconds = service_time(shard_id, batch_size)
        count = slice_of(shard_id)
        key = (shard_id, batch_size, count)
        table = memo.get(key)
        if table is None:
            table = memo[key] = StageTable(
                shard_id=shard_id, batch_size=batch_size,
                stages=costs.stage_seconds(count, batch_size))
        tables.append(table)
        return seconds

    return recording_service_time


def emit_batch_trace(trace, batches: Sequence[ExecutedBatch],
                     batch_bytes: Sequence[int], clock: float) -> None:
    """Serve-lane queue-wait and batch events (one lane per device).

    Shared between the static and elastic simulators; ``batch_bytes``
    holds each batch's resident slice bytes, in batch order.
    """
    for batch, nbytes in zip(batches, batch_bytes):
        wait = batch.dispatch_s - batch.head_enqueue_s
        if wait > 0:
            trace.emit(TraceEvent(
                name="serve_queue_wait", lane=LANE_VCU,
                start_cycle=batch.head_enqueue_s * clock,
                cycles=wait * clock,
                section=f"serve/shard{batch.shard_id}",
                core_id=batch.shard_id))
        trace.emit(TraceEvent(
            name="serve_batch", lane=LANE_VCU,
            start_cycle=batch.dispatch_s * clock,
            cycles=batch.service_s * clock,
            count=1,
            section=f"serve/shard{batch.shard_id}",
            bytes_moved=nbytes,
            core_id=batch.shard_id))


def emit_fault_trace(trace, result: ScheduleResult, clock: float,
                     plan: FaultPlan) -> None:
    """FAULT-lane events: the scripted plan plus the stack's reactions.

    Shared between the static and elastic simulators so the one fault
    story renders identically on both paths (``core_id`` is always the
    shard/slot id, so the Perfetto lanes line up with the serve lanes).
    """
    horizon = result.horizon_s

    def clamped(start_s: float, end_s: float) -> Optional[float]:
        """Duration of ``[start, end)`` visible inside the horizon."""
        if start_s >= horizon:
            return None
        return min(end_s, horizon) - start_s

    for stall in plan.stalls:
        span = clamped(stall.start_s, stall.end_s)
        if span is None:
            continue
        trace.emit(TraceEvent(
            name="fault_stall", lane=LANE_FAULT,
            start_cycle=stall.start_s * clock, cycles=span * clock,
            section=f"fault/shard{stall.shard_id}",
            core_id=stall.shard_id))
    for outage in plan.outages:
        span = clamped(outage.start_s, outage.end_s)
        if span is None:
            continue
        trace.emit(TraceEvent(
            name="fault_outage", lane=LANE_FAULT,
            start_cycle=outage.start_s * clock, cycles=span * clock,
            section=f"fault/shard{outage.shard_id}",
            core_id=outage.shard_id))
        if not outage.permanent and outage.recovery_s > 0:
            span = clamped(outage.end_s,
                           outage.end_s + outage.recovery_s)
            if span is not None:
                trace.emit(TraceEvent(
                    name="fault_recovery", lane=LANE_FAULT,
                    start_cycle=outage.end_s * clock,
                    cycles=span * clock,
                    section=f"fault/shard{outage.shard_id}",
                    core_id=outage.shard_id))
    #: Corruption kinds belong to the INTEGRITY lane; everything
    #: else stays on FAULT.
    integrity_names = {"corrupted": "integrity_detect",
                       "sdc": "integrity_sdc",
                       "recompute": "integrity_recompute",
                       "ecc_corrected": "integrity_ecc_correct",
                       "ecc_detected": "integrity_ecc_detect",
                       "ecc_miscorrect": "integrity_ecc_miscorrect"}
    for entry in result.fault_log:
        name = integrity_names.get(entry.kind)
        if name is None:
            name = (f"fault_{entry.kind}" if entry.kind != "dead"
                    else "fault_failover")
            lane = LANE_FAULT
            section = f"fault/shard{entry.shard_id}"
        else:
            lane = LANE_INTEGRITY
            section = f"integrity/shard{entry.shard_id}"
        trace.emit(TraceEvent(
            name=name,
            lane=lane,
            start_cycle=entry.t_s * clock,
            cycles=entry.duration_s * clock,
            section=section,
            core_id=entry.shard_id))


def emit_integrity_trace(trace, result: ScheduleResult, clock: float,
                         plan: FaultPlan, integrity: IntegrityConfig,
                         params: APUParams, scrub_core_id: int) -> None:
    """INTEGRITY-lane events for the script itself: flips + scrubs.

    ``scrub_core_id`` is the host lane id (the static simulator uses
    ``n_shards``, the elastic one its pool capacity)."""
    horizon = result.horizon_s
    for flip in plan.bit_flips:
        if flip.t_s >= horizon:
            continue
        trace.emit(TraceEvent(
            name="integrity_stuck" if flip.persistent
            else "integrity_flip",
            lane=LANE_INTEGRITY,
            start_cycle=flip.t_s * clock,
            cycles=0.0,
            section=f"integrity/shard{flip.shard_id}",
            core_id=flip.shard_id))
    if integrity.scrubbing:
        scrub_s = get_cost_model(params).scrub_pass_seconds(
            integrity.scrub_vrs)
        tick = integrity.scrub_interval_s
        t = tick
        while t < horizon:
            trace.emit(TraceEvent(
                name="integrity_scrub",
                lane=LANE_INTEGRITY,
                start_cycle=t * clock,
                cycles=scrub_s * clock,
                section="integrity/scrub",
                core_id=scrub_core_id))
            t += tick


def golden_serve_config() -> ServeConfig:
    """The canonical serving workload pinned by the golden trace.

    Small enough to simulate in milliseconds, busy enough (offered load
    near one shard-batch per max-wait window) to exercise queueing,
    under-full timers, and full batches.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
    )


def golden_fault_config() -> ServeConfig:
    """The canonical chaos workload pinned by the fault golden trace.

    The golden serving workload plus one of each fault model: an early
    stall on shard 1 severe enough that the per-batch timeout trips
    the circuit breaker (timeouts -> backoff retries -> declared
    dead), a crash-and-restart with slow-start on shard 2 (interrupted
    batch, then recovery), and a permanent failure of shard 3 mid-run;
    both deaths reroute onto the survivors.  Exercises every
    FAULT-lane event kind in one sub-second run.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
        faults=FaultPlan(
            stalls=(StallFault(shard_id=1, start_s=0.010, duration_s=0.040,
                               slowdown=6.0),),
            outages=(
                OutageFault(shard_id=2, start_s=0.040, duration_s=0.030,
                            recovery_s=0.020, recovery_slowdown=2.0),
                OutageFault(shard_id=3, start_s=0.080),
            ),
        ),
        retry=RetryPolicy(timeout_s=0.008, max_retries=2,
                          backoff_base_s=1e-3, backoff_cap_s=8e-3),
        failover="reroute",
    )


def golden_integrity_config() -> ServeConfig:
    """The canonical SDC workload pinned by the integrity golden trace.

    The golden serving workload with protection enabled and one of each
    bit-flip model: a transient VR upset on shard 1 (one detection, one
    recompute), a DMA burst error on shard 2 (same dance on the DMA
    channel), and a stuck-at cell on shard 3 -- whose every batch
    verifies corrupt, so the recompute budget burns out and the shard
    fails over to the survivors.  A 50 ms scrub cadence keeps periodic
    ``integrity_scrub`` events on the lane.  Exercises every
    INTEGRITY-lane event kind in one sub-second run.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
        faults=FaultPlan(
            bit_flips=(
                BitFlipFault(shard_id=1, t_s=0.020, target="vr",
                             vr=4, bit=9, element=1234),
                BitFlipFault(shard_id=2, t_s=0.050, target="dma",
                             bit=4, element=100, burst_bits=3),
                BitFlipFault(shard_id=3, t_s=0.080, target="stuck",
                             vr=5, bit=0, element=7),
            ),
        ),
        retry=RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                          backoff_cap_s=8e-3),
        failover="reroute",
        integrity=IntegrityConfig(enabled=True, max_recomputes=3,
                                  scrub_interval_s=0.050, scrub_vrs=8),
    )


def golden_ecc_config() -> ServeConfig:
    """The canonical ECC workload pinned by the ECC golden trace.

    The golden serving workload with SEC-DED (72,64) protection and one
    upset of each decode class: a single-bit VR flip on shard 1
    (corrected in place, the batch stays clean), a 3-bit DMA burst on
    shard 2 (beyond SEC-DED's capability -- the decoder miscorrects,
    and with ABFT off the damage ships as an SDC), and **two** stuck-at
    cells in the same 64-bit codeword on shard 3 -- every batch decodes
    detected-uncorrectable, the retry budget burns out, and the shard
    escalates to death/failover.  Exercises every ECC event kind plus
    the escalation path in one sub-second run.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
        faults=FaultPlan(
            bit_flips=(
                BitFlipFault(shard_id=1, t_s=0.020, target="vr",
                             vr=4, bit=9, element=1234),
                BitFlipFault(shard_id=2, t_s=0.050, target="dma",
                             bit=4, element=100, burst_bits=3),
                BitFlipFault(shard_id=3, t_s=0.080, target="stuck",
                             vr=5, bit=0, element=7),
                BitFlipFault(shard_id=3, t_s=0.080, target="stuck",
                             vr=5, bit=1, element=7),
            ),
        ),
        retry=RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                          backoff_cap_s=8e-3),
        failover="reroute",
        ecc=ECCConfig(enabled=True, tier="secded"),
    )
