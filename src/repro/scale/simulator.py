"""Closed-loop elastic serving: autoscaling, admission, load shedding.

:class:`ScaleSimulator` drives a request stream through an *elastic*
pool of simulated APU shard devices.  With no :class:`ScalePolicy` the
configuration is a plain static deployment and the simulator delegates
wholesale to :class:`~repro.serve.simulator.ServingSimulator` -- same
event loop, same engines, same reports, traces, and spans, bit for bit
(the differential suite in ``tests/scale`` proves it).  With a policy
attached, the run becomes a closed control loop:

* arrivals carry a **priority class** (assigned by a seeded draw over
  the policy's class shares) and pass **admission control**: when the
  pool's queue pressure exceeds the class's shed threshold the request
  is shed instead of enqueued -- low-weight background traffic sheds
  first, protecting interactive traffic;
* a :class:`~repro.scale.controller.BurnRateController` ticks at a
  fixed cadence, reading the trailing window's SLO error-budget burn
  from its :class:`~repro.monitor.signal.BurnSignal` (the one signal
  the monitor replays) and attaching or detaching shard devices within
  the policy's pool bounds;
* a newly attached device is **cold**: it serves nothing until its
  corpus slice has streamed in through the simulated HBM (the
  :meth:`~repro.scale.pool.ElasticAPUDevicePool.warmup_seconds` DMA-in
  cost), after which every serving slot is priced on its slice of the
  new topology;
* a detached device **drains**: queued sub-queries finish on its frozen
  slice (the mirror image of the static simulator's shard-death
  takeover), while new arrivals fan out to the remaining devices.

The elastic run *is* the static
:class:`~repro.serve.scheduler.DiscreteEventScheduler` plus hooks: one
scalar event loop owns the heap, the per-shard state, the records and
the fault log, and the elastic subclass supplies admission (priority
and shedding), the per-request completion bookkeeping, the reaction to
a death, the drain check, and the warm-up, closed-loop issue and
controller-tick events.  Batches are priced on each slot's slice of the
current topology by the shared :class:`~repro.serve.costs.SliceCostModel`.
Every random draw (arrival process, priority classes, closed-loop think
times) comes from seeded generators, so runs are bit-deterministic --
including across processes and ``PYTHONHASHSEED`` values.  The
controller's feedback makes the elastic path inherently sequential, so
every elastic run takes this loop whatever
:attr:`~repro.serve.simulator.ServeConfig.engine` says (the flag selects
only the static scheduler); the per-tick overdue count comes from the
controller's :class:`~repro.monitor.signal.BurnSignal`, which the loop
feeds every admission and completion (amortised ``O(1)`` per request).

**Fault plans and ABFT integrity compose with the elastic loop**, since
timeouts, outages, bit flips, ECC, ABFT, retries and deaths are the
static loop's own; the elastic hooks close the control loop over them:

* each :class:`PriorityClass` carries its own trailing burn window and
  the controller scales on the **worst** class, so a starving
  background class asks for capacity even while interactive is green;
* shard deaths and sustained stalls feed the controller as *violation
  pressure* -- pressure forces the scale-up branch and vetoes
  scale-down;
* a shard death triggers an immediate **failover attach** (bypassing
  the cooldown): the dead slice is redistributed over the survivors
  (the static reroute's split, for one death), and a cold spare
  streams its corpus slice in through the HBM model before joining;
* a stuck-at cell under protection burns the retry budget and
  escalates to the same replace-and-drain, so integrity faults cost
  latency, not permanent capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    Union

import numpy as np

from ..core.params import APUParams, DEFAULT_PARAMS
from ..ecc import ECCModel
from ..faults import BitFlipFault, FaultInjector, FaultPlan, OutageFault, \
    StallFault
from ..integrity.config import IntegrityConfig
from ..obs import collector as _trace_collector
from ..obs.events import LANE_SCALE, LANE_VCU, TraceEvent
from ..rag.corpus import PAPER_CORPORA
from ..rag.generation import GenerationModel
from ..serve.metrics import LatencyStats, slo_attainment, utilization
from ..serve.scheduler import (
    EXTENSION_KIND,
    BatchPolicy,
    DiscreteEventScheduler,
    LoopHooks,
    RequestRecord,
    RetryPolicy,
    ScheduleResult,
    _ShardState,
)
from ..serve.sharding import merge_cycles, merge_seconds
from ..serve.simulator import ServeConfig, ServeReport, \
    ServingSimulator, emit_batch_trace, emit_fault_trace, \
    emit_integrity_trace, stage_recorder
from ..serve.workload import ClosedLoopConfig, check_arrival_times, \
    poisson_arrival_times, spike_arrival_times, trace_arrivals
from .controller import SCALE_DOWN, SCALE_UP, BurnRateController
from .policy import AutoscalePolicy, PoolBoundsError, ScalePolicy, \
    ScalePolicyError
from .pool import ElasticAPUDevicePool

__all__ = [
    "ScaleConfigError",
    "ScaleConfig",
    "ScaleAction",
    "ScaleReport",
    "ScaleSimulator",
    "golden_autoscale_config",
    "golden_autoscale_fault_config",
]

_WARM, _CONTROL, _ISSUE = range(EXTENSION_KIND, EXTENSION_KIND + 3)


class ScaleConfigError(ScalePolicyError):
    """A ScaleConfig combines features that do not compose.

    Part of the typed :class:`~repro.scale.policy.ScalePolicyError`
    hierarchy (itself a ``ValueError``), so callers can catch scale
    misconfiguration separately from generic value errors."""


@dataclass(frozen=True)
class ScaleConfig:
    """One elastic serving deployment + workload configuration.

    ``serve`` is the base deployment (its ``n_shards`` is the *initial*
    pool size); ``policy=None`` makes the configuration static and the
    simulator a bit-identical front for
    :class:`~repro.serve.simulator.ServingSimulator`.  ``arrivals``
    replaces the default Poisson stream with explicit timestamps (the
    spike/bursty/diurnal generators), and ``closed_loop`` replaces the
    open-loop stream with a think-time client population (elastic runs
    only).
    """

    serve: ServeConfig
    policy: Optional[ScalePolicy] = None
    arrivals: Optional[Tuple[float, ...]] = None
    closed_loop: Optional[ClosedLoopConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.serve, ServeConfig):
            raise ScaleConfigError(
                f"serve must be a ServeConfig, "
                f"got {type(self.serve).__name__}")
        if self.policy is not None \
                and not isinstance(self.policy, ScalePolicy):
            raise ScaleConfigError(
                f"policy must be a ScalePolicy or None, "
                f"got {type(self.policy).__name__}")
        if self.closed_loop is not None \
                and not isinstance(self.closed_loop, ClosedLoopConfig):
            raise ScaleConfigError(
                f"closed_loop must be a ClosedLoopConfig or None, "
                f"got {type(self.closed_loop).__name__}")
        if self.arrivals is not None:
            if self.closed_loop is not None:
                raise ScaleConfigError(
                    "arrivals and closed_loop are mutually exclusive")
            times = tuple(float(t) for t in self.arrivals)
            check_arrival_times(times, ScaleConfigError)
            object.__setattr__(self, "arrivals", times)
        if self.policy is None:
            if self.closed_loop is not None:
                raise ScaleConfigError(
                    "closed_loop clients need a ScalePolicy (the static "
                    "path is open-loop only)")
            return
        auto = self.policy.autoscale
        if not auto.min_shards <= self.serve.n_shards <= auto.max_shards:
            raise PoolBoundsError(
                f"initial pool size {self.serve.n_shards} outside "
                f"[{auto.min_shards}, {auto.max_shards}]")


@dataclass(frozen=True)
class ScaleAction:
    """One autoscaler/admission decision, in event order."""

    # "tick" | "attach" | "warm" | "detach" | "drained" | "shed" | "dead"
    kind: str
    t_s: float
    shard_id: int = -1
    #: Serving devices after the action took effect.
    pool_size: int = 0
    burn_rate: float = 0.0
    #: Warm-up DMA-in duration for ``attach`` actions.
    duration_s: float = 0.0
    #: Priority class name for ``shed`` actions.
    priority: str = ""
    #: Why the action fired: ``"failover"`` marks an attach that
    #: replaces a dead device (cooldown-bypassing), empty otherwise.
    reason: str = ""
    #: Per-priority-class burn rates at ``tick`` actions -- the
    #: controller's own window readings, recorded so the monitor's
    #: burn series provably samples the signal the autoscaler acted on.
    class_burns: Tuple[float, ...] = ()


@dataclass(frozen=True)
class ScaleReport:
    """Everything one elastic simulation run produced."""

    config: ScaleConfig
    n_offered: int
    n_admitted: int
    n_shed: int
    n_completed: int
    makespan_s: float
    throughput_qps: float
    #: Fraction of *offered* requests that completed within the SLO
    #: (shed and late requests both count against it).
    goodput: float
    retrieval: LatencyStats
    tti: LatencyStats
    #: SLO attainment among completed requests.
    slo_attainment: float
    pool_min: int
    pool_max: int
    pool_final: int
    n_attaches: int
    n_detaches: int
    warmup_total_s: float
    shard_utilization: Tuple[float, ...]
    n_batches: int
    mean_batch_size: float
    peak_burn_rate: float
    shed_by_class: Tuple[Tuple[str, int], ...]
    completed_by_class: Tuple[Tuple[str, int], ...]
    actions: Tuple[ScaleAction, ...] = field(repr=False)
    #: Per-class peak burn rate over the run, in class order.
    class_burn_peaks: Tuple[Tuple[str, float], ...] = ()
    #: Shards declared dead during the run.
    n_shard_failures: int = 0
    #: Cooldown-bypassing replacement attaches answering a death.
    n_failovers: int = 0
    #: Batch attempts aborted at the per-batch timeout.
    n_timeouts: int = 0
    #: Batch attempts cut short by an outage.
    n_interrupted: int = 0
    #: Backoff-gated retry rounds.
    n_retries: int = 0
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
    #: Codewords the ECC decoder silently miscorrected.
    n_ecc_miscorrections: int = 0
    #: Requests that lost at least one shard answer to a death.
    degraded_requests: int = 0

    def format(self) -> str:
        """Human-readable report block for the CLI."""
        cfg = self.config.serve
        policy = self.config.policy
        assert policy is not None
        auto = policy.autoscale
        lines = [
            f"elastic serving {cfg.spec.label}: pool "
            f"[{auto.min_shards}, {auto.max_shards}] starting at "
            f"{cfg.n_shards}, {self.n_offered} offered (seed {cfg.seed})",
            f"  admission: {self.n_admitted} admitted, {self.n_shed} shed "
            + " ".join(f"{name}={count}"
                       for name, count in self.shed_by_class),
            f"  autoscaler: {self.n_attaches} attach(es) "
            f"({self.warmup_total_s * 1e3:.3f} ms warm-up DMA-in), "
            f"{self.n_detaches} detach(es), pool {self.pool_min}"
            f"->{self.pool_max}, final {self.pool_final}, "
            f"peak burn {self.peak_burn_rate:.2f}",
            f"  throughput: {self.throughput_qps:8.1f} qps sustained "
            f"({self.n_completed} completed in {self.makespan_s:.3f} s), "
            f"{self.n_batches} batches, "
            f"mean size {self.mean_batch_size:.2f}",
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
            f"{self.slo_attainment * 100:.1f}% attained among completed, "
            f"goodput {self.goodput * 100:.1f}% of offered")
        lines.append(
            "  utilization: "
            + "  ".join(f"slot{i} {u * 100:5.1f}%"
                        for i, u in enumerate(self.shard_utilization)))
        if self.class_burn_peaks:
            lines.append(
                "  class burn peaks: "
                + "  ".join(f"{name} {peak:.2f}"
                            for name, peak in self.class_burn_peaks))
        if cfg.faults:
            lines.append(
                f"  faults: {cfg.faults.n_faults} scripted -> "
                f"{self.n_timeouts} timeouts, {self.n_interrupted} "
                f"interrupted, {self.n_retries} retries, "
                f"{self.n_shard_failures} death(s), "
                f"{self.n_failovers} failover attach(es), "
                f"{self.degraded_requests} degraded request(s)")
        if cfg.faults.bit_flips or cfg.integrity.enabled:
            mode = "protected" if cfg.integrity.enabled else "UNPROTECTED"
            lines.append(
                f"  integrity ({mode}): "
                f"{len(cfg.faults.bit_flips)} scripted flip(s) -> "
                f"{self.n_corruptions_detected} detected, "
                f"{self.n_recomputes} recomputed, "
                f"{self.n_sdc_escapes} escaped")
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


@dataclass
class _ElasticRun:
    """Raw artifacts of one elastic run (for traces + telemetry)."""

    report: ScaleReport
    result: ScheduleResult
    priorities: Dict[int, int]
    stage_tables: List[Any]
    batch_bytes: List[int]
    merge_by_required: Dict[int, float]
    #: Request id -> reported TTI, as the controller saw it.
    tti_latency: Dict[int, float]


class ScaleSimulator:
    """Drive a request stream through the elastic serving stack."""

    def __init__(self, config: ScaleConfig,
                 params: APUParams = DEFAULT_PARAMS,
                 generator: Optional[GenerationModel] = None):
        self.config = config
        self.params = params
        self.generator = generator or GenerationModel()
        self._static: Optional[ServingSimulator] = None
        self._pool: Optional[ElasticAPUDevicePool] = None
        self._injector: Optional[FaultInjector] = None
        if config.policy is None:
            self._static = ServingSimulator(
                config.serve, params=params, generator=self.generator)
        else:
            self._pool = ElasticAPUDevicePool(
                config.serve.spec, config.policy.autoscale.max_shards,
                config.serve.k, params,
                integrity=config.serve.integrity,
                ecc=config.serve.ecc)
            if config.serve.faults:
                # The plan is validated against the initial pool size
                # (ServeConfig already did), so scripted faults only
                # ever strike the devices present at t=0; spare slots
                # attached later are clean hardware.
                self._injector = FaultInjector(
                    config.serve.faults, self._pool.capacity)
        self.prefill_s = self.generator.prefill_seconds()
        self._merge_memo: Dict[int, float] = {}
        self._last_run: Optional[_ElasticRun] = None

    # ------------------------------------------------------------------
    @property
    def is_static(self) -> bool:
        return self._static is not None

    def _merge_for(self, n_required: int) -> float:
        cost = self._merge_memo.get(n_required)
        if cost is None:
            # A zero-width request (admitted while every device was
            # dead) resolves empty-handed and merges nothing.
            cost = 0.0 if n_required <= 0 else merge_seconds(
                n_required, self.config.serve.k, self.params)
            self._merge_memo[n_required] = cost
        return cost

    def _static_requests(self) -> Optional[Sequence[Any]]:
        if self.config.arrivals is None:
            return None
        return trace_arrivals(self.config.arrivals)

    # ------------------------------------------------------------------
    def run(self) -> Union[ServeReport, ScaleReport]:
        """Simulate the configured stream.

        Static configurations return the **identical**
        :class:`~repro.serve.simulator.ServeReport` the static simulator
        produces (and emit the identical trace events); elastic ones
        return a :class:`ScaleReport`.
        """
        if self._static is not None:
            return self._static.run(self._static_requests())
        return self._run_elastic(capture=False).report

    def run_with_telemetry(self) -> Tuple[Any, Any]:
        """Simulate and derive request-level telemetry.

        Static configurations return the static simulator's
        ``(ServeReport, RunTelemetry)`` unchanged; elastic ones return
        ``(ScaleReport, ScaleTelemetry)`` with span trees built per
        admitted request and a scale-specific metrics registry.
        """
        if self._static is not None:
            return self._static.run_with_telemetry(self._static_requests())
        from .telemetry import build_scale_telemetry

        run = self._run_elastic(capture=True)
        return run.report, build_scale_telemetry(
            run, self.prefill_s, self.params.clock_hz)

    def run_with_monitor(self, *, cadence_s: Optional[float] = None,
                         workload: str = "serve_autoscale"
                         ) -> Tuple[Any, Any, Any]:
        """Simulate, derive telemetry, and sample the monitor series.

        Returns ``(report, telemetry, monitor)``; report and telemetry
        are bit-identical to :meth:`run_with_telemetry` because the
        monitor is a pure post-hoc derivation from the same causal
        record.  Elastic runs default the sampling cadence to the
        autoscaler's control interval so cadence samples land exactly
        on tick instants, where the burn series takes the controller's
        recorded per-class readings (``ScaleAction.class_burns``).
        """
        if self._static is not None:
            return self._static.run_with_monitor(
                self._static_requests(), cadence_s=cadence_s,
                workload=workload)
        from ..monitor import build_run_monitor

        report, telemetry = self.run_with_telemetry()
        run = self._last_run
        policy = self.config.policy
        assert run is not None and policy is not None \
            and self._pool is not None
        pool = self._pool
        cfg = self.config.serve
        attach_bytes = {
            j: pool.costs.embedding_bytes(pool.base_counts[j])
            for j in range(pool.capacity)}
        monitor = build_run_monitor(
            workload=workload,
            result=run.result,
            slo_s=cfg.slo_s,
            error_budget=policy.autoscale.error_budget,
            class_names=tuple(c.name for c in policy.priorities),
            priorities=run.priorities,
            tti_by_req=run.tti_latency,
            batch_bytes=run.batch_bytes,
            pool_initial=cfg.n_shards,
            registry_exposition=telemetry.registry.expose(),
            cadence_s=(cadence_s if cadence_s is not None
                       else policy.autoscale.control_interval_s),
            actions=report.actions,
            attach_bytes=attach_bytes,
        )
        return report, telemetry, monitor

    # ------------------------------------------------------------------
    def _run_elastic(self, capture: bool) -> _ElasticRun:
        scheduler = _ElasticScheduler(self, capture)
        result = scheduler._run(scheduler.arrivals,
                                range(len(scheduler.arrivals)),
                                scheduler.slots)
        run = self._build_report(result, scheduler)
        self._emit_trace(run)
        self._last_run = run
        return run

    # ------------------------------------------------------------------
    def _build_report(self, result: ScheduleResult,
                      elastic: "_ElasticScheduler") -> _ElasticRun:
        cfg = self.config.serve
        policy = self.config.policy
        assert policy is not None
        classes = policy.priorities
        actions = elastic.actions
        ticks = [a for a in actions if a.kind == "tick"]
        # Every topology change is logged with the pool size after it.
        pool_sizes = [cfg.n_shards] + [a.pool_size for a in actions]
        merge_by_required = dict(self._merge_memo)

        retrieval_lat = [r.retrieval_latency_s
                         + self._merge_for(r.n_required)
                         for r in result.records]
        tti_lat = [elastic.tti_latency[r.req_id] for r in result.records]
        makespan = max(r.retrieval_done_s + self._merge_for(r.n_required)
                       for r in result.records
                       if r.retrieval_done_s is not None) + self.prefill_s
        sizes = [batch.batch_size for batch in result.batches]
        n_admitted = len(result.records)
        n_shed = sum(elastic.shed_counts)
        n_offered = n_admitted + n_shed
        n_good = sum(1 for lat in tti_lat if lat <= cfg.slo_s)
        completed_by_class = [0 for _ in classes]
        for record in result.records:
            completed_by_class[elastic.priorities[record.req_id]] += 1
        report = ScaleReport(
            config=self.config,
            n_offered=n_offered,
            n_admitted=n_admitted,
            n_shed=n_shed,
            n_completed=n_admitted,
            makespan_s=makespan,
            throughput_qps=n_admitted / makespan,
            goodput=n_good / n_offered,
            retrieval=LatencyStats.from_samples(retrieval_lat),
            tti=LatencyStats.from_samples(tti_lat),
            slo_attainment=slo_attainment(tti_lat, cfg.slo_s),
            pool_min=min(pool_sizes),
            pool_max=max(pool_sizes),
            pool_final=sum(1 for slot in elastic.slots if slot.serving),
            n_attaches=sum(1 for a in actions if a.kind == "attach"),
            n_detaches=sum(1 for a in actions if a.kind == "detach"),
            warmup_total_s=sum((a.duration_s for a in actions
                                if a.kind == "attach"), 0.0),
            shard_utilization=tuple(
                utilization(result.busy_seconds, result.horizon_s)),
            n_batches=len(result.batches),
            mean_batch_size=sum(sizes) / len(sizes) if sizes else 0.0,
            peak_burn_rate=max([0.0] + [a.burn_rate for a in ticks]),
            shed_by_class=tuple(
                (cls.name, elastic.shed_counts[i])
                for i, cls in enumerate(classes)),
            completed_by_class=tuple(
                (cls.name, completed_by_class[i])
                for i, cls in enumerate(classes)),
            actions=tuple(actions),
            class_burn_peaks=tuple(
                (cls.name, max([0.0] + [a.class_burns[i] for a in ticks]))
                for i, cls in enumerate(classes)),
            n_shard_failures=len(result.death_times),
            n_failovers=sum(1 for a in actions if a.kind == "attach"
                            and a.reason == "failover"),
            n_timeouts=result.n_timeouts,
            n_interrupted=result.n_interrupted,
            n_retries=result.n_retries,
            n_corruptions_detected=result.n_corruptions_detected,
            n_sdc_escapes=result.n_sdc,
            n_recomputes=result.n_recomputes,
            n_ecc_corrected=result.n_ecc_corrected,
            n_ecc_detected=result.n_ecc_detected,
            n_ecc_miscorrections=result.n_ecc_miscorrections,
            degraded_requests=sum(
                1 for r in result.records if r.failed_shards),
        )
        return _ElasticRun(
            report=report, result=result, priorities=dict(elastic.priorities),
            stage_tables=elastic.stage_tables,
            batch_bytes=elastic.batch_bytes,
            merge_by_required=merge_by_required,
            tti_latency=elastic.tti_latency)

    # ------------------------------------------------------------------
    def _emit_trace(self, run: _ElasticRun) -> None:
        """Serve-lane batches/merges plus the SCALE decision lane."""
        trace = _trace_collector.ACTIVE
        if trace is None or not trace.enabled:
            return
        clock = self.params.clock_hz
        result = run.result
        emit_batch_trace(trace, result.batches, run.batch_bytes, clock)
        capacity = result.n_shards
        for record in result.records:
            if record.retrieval_done_s is None:  # pragma: no cover
                continue
            if record.n_required <= 0:
                # Admitted while every device was dead: nothing merged.
                continue
            cycles = merge_cycles(record.n_required,
                                  self.config.serve.k, self.params)
            if cycles <= 0:  # pragma: no cover - k >= 1 merges cost > 0
                continue
            trace.emit(TraceEvent(
                name="serve_merge", lane=LANE_VCU,
                start_cycle=record.retrieval_done_s * clock,
                cycles=cycles,
                section="serve/merge",
                core_id=capacity))
        pool = self._pool
        assert pool is not None
        for action in run.report.actions:
            if action.kind == "tick":
                trace.emit(TraceEvent(
                    name="scale_tick", lane=LANE_SCALE,
                    start_cycle=action.t_s * clock, cycles=0.0,
                    section="scale/controller", core_id=capacity))
            elif action.kind == "attach":
                name = "scale_failover" if action.reason == "failover" \
                    else "scale_attach"
                trace.emit(TraceEvent(
                    name=name, lane=LANE_SCALE,
                    start_cycle=action.t_s * clock, cycles=0.0,
                    section="scale/controller", core_id=capacity))
                trace.emit(TraceEvent(
                    name="scale_warmup", lane=LANE_SCALE,
                    start_cycle=action.t_s * clock,
                    cycles=action.duration_s * clock,
                    section=f"scale/shard{action.shard_id}",
                    bytes_moved=pool.costs.embedding_bytes(
                        pool.base_counts[action.shard_id]),
                    core_id=action.shard_id))
            elif action.kind == "detach":
                trace.emit(TraceEvent(
                    name="scale_detach", lane=LANE_SCALE,
                    start_cycle=action.t_s * clock, cycles=0.0,
                    section=f"scale/shard{action.shard_id}",
                    core_id=action.shard_id))
            elif action.kind == "drained":
                trace.emit(TraceEvent(
                    name="scale_drained", lane=LANE_SCALE,
                    start_cycle=action.t_s * clock, cycles=0.0,
                    section=f"scale/shard{action.shard_id}",
                    core_id=action.shard_id))
            elif action.kind == "shed":
                trace.emit(TraceEvent(
                    name="scale_shed", lane=LANE_SCALE,
                    start_cycle=action.t_s * clock, cycles=0.0,
                    section="scale/admission", core_id=capacity))
            elif action.kind == "dead":
                trace.emit(TraceEvent(
                    name="scale_dead", lane=LANE_SCALE,
                    start_cycle=action.t_s * clock, cycles=0.0,
                    section=f"scale/shard{action.shard_id}",
                    core_id=action.shard_id))
        if self._injector is not None:
            cfg = self.config.serve
            emit_fault_trace(trace, result, clock, cfg.faults)
            emit_integrity_trace(trace, result, clock, cfg.faults,
                                 cfg.integrity, self.params,
                                 pool.capacity)


class _ElasticScheduler(DiscreteEventScheduler):
    """The static event loop plus the elastic hooks, for one run.

    The slots are the loop's own per-shard state over the whole pool
    capacity.  Each slot's batches are priced on its ``chunk_count``,
    which every topology change re-anchors.  The tallies the report
    needs stay on the instance after the run.
    """

    def __init__(self, sim: ScaleSimulator, capture: bool):
        config = sim.config
        cfg = config.serve
        policy = config.policy
        pool = sim._pool
        assert policy is not None and pool is not None
        self.sim = sim
        self.pool = pool
        slots = [_ShardState(serving=False) for _ in range(pool.capacity)]
        for j, count in pool.counts_for(range(cfg.n_shards)).items():
            slots[j].serving = True
            slots[j].chunk_count = count
        self.slots = slots

        costs = pool.costs
        service_seconds = costs.service_seconds
        embedding_bytes = costs.embedding_bytes
        #: Per dispatched batch: embedding bytes of the slice it scanned.
        self.batch_bytes: List[int] = []
        record_bytes = self.batch_bytes.append

        def price(shard_id: int, batch_size: int) -> float:
            count = slots[shard_id].chunk_count
            record_bytes(embedding_bytes(count))
            return service_seconds(count, batch_size)

        self.stage_tables: List[Any] = []
        super().__init__(
            pool.capacity, cfg.batch,
            stage_recorder(price, lambda j: slots[j].chunk_count, costs,
                           self.stage_tables) if capture else price,
            injector=sim._injector, retry=cfg.retry,
            protected=cfg.integrity.enabled,
            ecc=ECCModel(cfg.ecc) if cfg.ecc.enabled else None)

        n_classes = len(policy.priorities)
        self.priorities: Dict[int, int] = {}
        #: Open-loop arrival times (closed loops issue through _ISSUE).
        self.arrivals: List[float] = []
        if config.closed_loop is None:
            times = config.arrivals if config.arrivals is not None \
                else poisson_arrival_times(cfg.qps, cfg.n_requests, cfg.seed)
            assigned = np.random.default_rng([cfg.seed, 101]).choice(
                n_classes, size=len(times), p=policy.shares)
            self.priorities = {i: int(prio)
                               for i, prio in enumerate(assigned)}
            self.arrivals = [float(t) for t in times]
        self.tti_latency: Dict[int, float] = {}
        self.actions: List[ScaleAction] = []
        self.shed_counts = [0] * n_classes

    def _hooks(self, shards: List[_ShardState], serving: List[int],
               push: Callable[[float, int, Any], None],
               arrive: Callable[[int, float], None]) -> LoopHooks:
        sim = self.sim
        config = sim.config
        cfg = config.serve
        policy = config.policy
        assert policy is not None
        pool = self.pool
        auto = policy.autoscale
        classes = policy.priorities
        shares = np.asarray(policy.shares, dtype=np.float64)
        max_batch = cfg.batch.max_batch
        thresholds = [policy.admission.shed_queue_batches * cls.weight
                      for cls in classes]
        controller = BurnRateController(auto, cfg.slo_s,
                                        n_classes=len(classes))
        note_admission = controller.signal.note_admission
        note_completion = controller.note_completion
        injector = self.injector
        merge_for = sim._merge_for
        prefill_s = sim.prefill_s
        priorities = self.priorities
        tti_latency = self.tti_latency
        actions = self.actions
        shed_counts = self.shed_counts

        closed = config.closed_loop
        n_expected = len(self.arrivals)
        n_arrived = n_open = n_warming = issues_pending = 0
        if closed is not None:
            rng_priority = np.random.default_rng([closed.seed, 101])
            rng_think = np.random.default_rng([closed.seed, 211])
            n_expected = closed.n_requests
            for offset in rng_think.exponential(closed.think_time_s,
                                                size=closed.n_clients):
                push(float(offset), _ISSUE, None)
            issues_pending = closed.n_clients
        push(auto.control_interval_s, _CONTROL, None)

        def next_think(after_s: float) -> None:
            nonlocal issues_pending
            assert closed is not None
            if n_arrived >= n_expected:
                return
            think = float(rng_think.exponential(closed.think_time_s))
            push(after_s + think, _ISSUE, None)
            issues_pending += 1

        def admit(req_id: int, now: float, queued: int, width: int) -> bool:
            nonlocal n_arrived, n_open
            n_arrived += 1
            prio = priorities[req_id]
            # With every device dead, draining or warming the request
            # is admitted and resolves empty-handed.
            if width and queued / (width * max_batch) >= thresholds[prio]:
                shed_counts[prio] += 1
                actions.append(ScaleAction(
                    kind="shed", t_s=now, pool_size=width,
                    priority=classes[prio].name))
                if closed is not None:
                    next_think(now)
                return False
            n_open += 1
            note_admission(req_id, now, prio)
            return True

        def on_resolved(record: RequestRecord, now: float) -> None:
            nonlocal n_open
            n_open -= 1
            req_id = record.req_id
            merge = merge_for(record.n_required)
            lat = (now - record.arrival_s) + merge + prefill_s
            tti_latency[req_id] = lat
            note_completion(req_id, now, lat, priorities[req_id])
            if closed is not None:
                next_think(now + merge + prefill_s)

        def retopo() -> None:
            """Re-anchor every serving slot on the current topology."""
            for j, count in pool.counts_for(serving).items():
                shards[j].chunk_count = count

        def attach_slots(now: float, burn: float, want: int,
                         reason: str = "") -> None:
            nonlocal n_warming
            candidates = [j for j, slot in enumerate(shards)
                          if not (slot.serving or slot.warming
                                  or slot.draining or slot.dead)]
            committed = serving + [j for j, slot in enumerate(shards)
                                   if slot.warming]
            for j in candidates[:want]:
                committed = sorted(committed + [j])
                warm_s = pool.warmup_seconds(pool.counts_for(committed)[j])
                shards[j].warming = True
                n_warming += 1
                push(now + warm_s, _WARM, j)
                actions.append(ScaleAction(
                    kind="attach", t_s=now, shard_id=j,
                    pool_size=len(serving), burn_rate=burn,
                    duration_s=warm_s, reason=reason))

        def on_death(shard_id: int, now: float, was_serving: bool) -> None:
            """Re-anchor the survivors, feed the controller fault
            pressure, and failover-attach a spare."""
            if was_serving and serving:
                # Survivors take over the dead slice -- the same
                # redistribution as the static reroute failover.
                retopo()
            actions.append(ScaleAction(
                kind="dead", t_s=now, shard_id=shard_id,
                pool_size=len(serving)))
            if was_serving:
                controller.note_fault(now)
                if controller.decide_failover(now, len(serving),
                                              n_warming):
                    attach_slots(now, 0.0, 1, reason="failover")

        def drained(shard_id: int, slot: _ShardState, now: float) -> None:
            """Log a detached slot whose queue has just run dry."""
            if slot.draining and not slot.queue and not slot.busy:
                slot.draining = False
                actions.append(ScaleAction(
                    kind="drained", t_s=now, shard_id=shard_id,
                    pool_size=len(serving)))

        def scale_down(now: float, burn: float) -> None:
            j = serving.pop()
            slot = shards[j]
            slot.serving = False
            slot.draining = True
            retopo()
            actions.append(ScaleAction(
                kind="detach", t_s=now, shard_id=j,
                pool_size=len(serving), burn_rate=burn))
            drained(j, slot, now)

        def tick(now: float) -> None:
            class_burns = tuple(
                controller.burn_rate(window) for window in
                controller.class_windows(now))
            burn = max((0.0,) + class_burns)
            actions.append(ScaleAction(
                kind="tick", t_s=now, pool_size=len(serving),
                burn_rate=burn, class_burns=class_burns))
            pressure = 0
            if injector is not None:
                # Fault pressure: deaths/stall onsets noted inside the
                # trailing window plus devices currently running
                # degraded.  Forces the scale-up branch and vetoes
                # scale-down at the controller.
                pressure = controller.recent_faults()
                for j in serving:
                    if injector.multiplier(j, now) > 1.0:
                        pressure += 1
            verdict = controller.decide(now, burn, len(serving), n_warming,
                                        pressure)
            if verdict == SCALE_UP:
                room = auto.max_shards - (len(serving) + n_warming)
                attach_slots(now, burn, min(auto.scale_up_step, room))
            elif verdict == SCALE_DOWN:
                scale_down(now, burn)
            if n_open > 0 or issues_pending > 0 or n_arrived < n_expected:
                push(now + auto.control_interval_s, _CONTROL, None)

        def on_event(kind: int, now: float, payload: Any) -> None:
            nonlocal n_warming, issues_pending
            if kind == _CONTROL:
                tick(now)
            elif kind == _WARM:
                shards[payload].warming = False
                shards[payload].serving = True
                n_warming -= 1
                serving.append(payload)
                serving.sort()
                retopo()
                actions.append(ScaleAction(
                    kind="warm", t_s=now, shard_id=payload,
                    pool_size=len(serving)))
            else:  # _ISSUE: a closed-loop client's next request
                issues_pending -= 1
                if n_arrived < n_expected:
                    priorities[n_arrived] = int(
                        rng_priority.choice(len(classes), p=shares))
                    arrive(n_arrived, now)

        return LoopHooks(admit=admit, on_resolved=on_resolved,
                         on_death=on_death, on_done=drained,
                         on_event=on_event)


def golden_autoscale_config() -> ScaleConfig:
    """The canonical autoscaling workload pinned by the golden traces.

    A two-device pool (bounds [2, 6]) serving the 10 GB corpus at a
    150 qps floor, hit by a 10x spike 50 ms in: the burn-rate
    controller rides through attach -> warm-up -> serve -> drain-down,
    and admission control sheds a handful of background-class requests
    at the spike's crest -- every SCALE-lane event kind in one
    sub-second run.
    """
    qps = 250.0
    n_requests = 512
    seed = 0
    return ScaleConfig(
        serve=ServeConfig(
            spec=PAPER_CORPORA["10GB"],
            n_shards=2,
            batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            k=5,
            qps=qps,
            n_requests=n_requests,
            seed=seed,
            # TTI = retrieval + merge + prefill; prefill alone is
            # ~501.6 ms, so the budget leaves ~10 ms for queueing.
            slo_s=0.512,
        ),
        policy=ScalePolicy(
            autoscale=AutoscalePolicy(min_shards=2, max_shards=6)),
        arrivals=tuple(
            float(t) for t in spike_arrival_times(
                qps, n_requests, seed,
                spike_start_s=0.050, spike_duration_s=0.150,
                spike_multiplier=10.0)),
    )


def golden_autoscale_fault_config() -> ScaleConfig:
    """The canonical fault-under-autoscaling workload (golden traces).

    The :func:`golden_autoscale_config` spike, with the two initial
    devices scripted through every fault model while the controller
    rides the storm: device 1 stalls under the spike, is interrupted
    by a finite outage, then takes transient and stuck-at bit flips
    under ABFT protection; device 0 hard-fails mid-run, forcing a
    death, a reroute onto the survivor, and a cooldown-bypassing
    failover attach.  Fault plans validate against the *initial* pool,
    so only shards {0, 1} may be scripted.
    """
    base = golden_autoscale_config()
    return ScaleConfig(
        serve=ServeConfig(
            spec=base.serve.spec,
            n_shards=base.serve.n_shards,
            batch=base.serve.batch,
            k=base.serve.k,
            qps=base.serve.qps,
            n_requests=base.serve.n_requests,
            seed=base.serve.seed,
            slo_s=base.serve.slo_s,
            faults=FaultPlan(
                stalls=(
                    StallFault(shard_id=1, start_s=0.020,
                               duration_s=0.060, slowdown=1.5),
                ),
                outages=(
                    OutageFault(shard_id=0, start_s=0.120),
                    OutageFault(shard_id=1, start_s=0.090,
                                duration_s=0.015, recovery_s=0.010,
                                recovery_slowdown=2.0),
                ),
                bit_flips=(
                    BitFlipFault(shard_id=1, t_s=0.150, target="vr",
                                 vr=4, bit=9, element=1234),
                    BitFlipFault(shard_id=1, t_s=0.200, target="stuck",
                                 vr=5, bit=0, element=7),
                ),
            ),
            retry=RetryPolicy(timeout_s=0.012, max_retries=2,
                              backoff_base_s=1e-3, backoff_cap_s=8e-3),
            integrity=IntegrityConfig(enabled=True, max_recomputes=3,
                                      scrub_interval_s=0.050,
                                      scrub_vrs=8),
        ),
        policy=base.policy,
        arrivals=base.arrivals,
    )
