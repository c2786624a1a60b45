"""Deterministic discrete-event scheduler for sharded scatter-gather serving.

Every admitted request fans out to all ``N`` live shards (each device
scans its slice of the corpus); per shard, sub-queries queue FIFO and
are formed into dynamic batches under a **max batch size + max wait**
policy:

* a batch launches immediately once ``max_batch`` sub-queries are
  waiting (or, if the device is busy, as soon as it frees up);
* an under-full batch launches when its oldest sub-query has waited
  ``max_wait_s`` on an idle device.

With a :class:`~repro.faults.FaultInjector` attached, the scheduler
also models the unhappy paths:

* batches dispatched during a stall window run ``slowdown`` times
  longer (evaluated at dispatch, like a real host observing a slow
  device);
* a batch whose service time exceeds :attr:`RetryPolicy.timeout_s` is
  aborted at the deadline and its sub-queries retried; so is a batch a
  scripted outage interrupts mid-flight;
* consecutive failures on a shard gate it behind capped exponential
  backoff, and once :attr:`RetryPolicy.max_retries` consecutive
  failures are exhausted (or a hard outage is reached) the shard is
  **declared dead**: its queue drains, pending requests record the
  shard as failed, and the ``on_death`` hook lets the simulator apply
  its failover policy;
* a shard that is merely down (transient outage) holds its queue and
  resumes -- through the slow-start multiplier -- when the outage ends.

Bit-flip faults in the plan add a *data* dimension on top of the timing
one: a batch whose service window covers a transient flip (or runs
under an active stuck-at cell) computes a **corrupted** result.  With
``protected=True`` (the serving layer's ABFT verification) the
corruption is detected at completion and the batch fails with outcome
``"corrupted"``, riding the existing retry/backoff machinery as a
bounded recompute -- so transient flips cost latency but never answers,
while a stuck-at cell burns the retry budget and escalates to shard
death/failover.  Unprotected, the batch "succeeds" and the corruption
escapes silently: the affected requests record the shard in
``corrupted_shards`` and the log gains an ``"sdc"`` entry.

These per-attempt semantics are written once, in :func:`judge_attempt`
(the verdict on a dispatched attempt) and :func:`charge_failure` (retry,
backoff and death bookkeeping); this loop and the vectorized core both
call them.

The event loop is a plain binary heap ordered by ``(time, sequence)``;
the sequence number makes simultaneous events process in insertion
order.  Arrivals are not pushed: they are merged in from the sorted
stream and go before every heap event at the same instant.  So the whole
simulation is bit-deterministic for a fixed request stream, fault plan,
and service model -- and with no injector the fault paths are never
entered, so the schedule is bit-identical to the fault-free scheduler.
A request's retrieval completes when every shard it was fanned out to
has either finished or been declared dead; downstream costs (top-k
merge, generator prefill) are applied by the simulator on top of the
scheduler output.

This is the only scalar event loop.  The elastic simulator
(:mod:`repro.scale.simulator`) runs it too, supplying admission control,
the autoscaler and its extra event kinds through :class:`LoopHooks`.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat, starmap
from typing import Any, Callable, Dict, List, NamedTuple, Optional, \
    Sequence, Set, Tuple

import numpy as np

from ..ecc import ECCModel
from ..faults import FaultInjector, FaultLogEntry
from .workload import Request

__all__ = [
    "BatchPolicy",
    "RetryPolicy",
    "ExecutedBatch",
    "RequestRecord",
    "ScheduleResult",
    "DiscreteEventScheduler",
    "LoopHooks",
    "charge_failure",
    "judge_attempt",
    "ordered_requests",
]

_TIMER, _DONE, _FAIL, _WAKE = range(4)
#: Heap event kinds from this value up belong to a loop extension: the
#: loop hands them to its ``on_event`` hook.
EXTENSION_KIND = 4

#: Batch outcomes (dispatch decides them deterministically).
OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_INTERRUPTED = "interrupted"
#: Completed, but integrity verification rejected the result (the
#: protected scheduler treats this as a failure and recomputes).
OUTCOME_CORRUPTED = "corrupted"


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching knobs shared by every shard."""

    max_batch: int = 8
    max_wait_s: float = 2e-3

    def __post_init__(self):
        if not isinstance(self.max_batch, (int, np.integer)) \
                or isinstance(self.max_batch, bool) or self.max_batch < 1:
            raise ValueError(
                f"max_batch must be an integer >= 1, got {self.max_batch!r}")
        if not np.isfinite(self.max_wait_s) or self.max_wait_s < 0:
            raise ValueError(
                f"max_wait_s must be finite and >= 0, "
                f"got {self.max_wait_s!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-batch timeout and bounded retries with capped backoff.

    ``timeout_s`` defaults to infinity (no timeout), which keeps the
    fault-free scheduler's behavior bit-identical; ``max_retries`` is
    the number of *consecutive* failed attempts a shard may accumulate
    before it is declared dead and failed over.  Retry ``i`` (0-based)
    waits ``min(backoff_cap_s, backoff_base_s * 2**i)``.
    """

    timeout_s: float = math.inf
    max_retries: int = 2
    backoff_base_s: float = 1e-3
    backoff_cap_s: float = 8e-3

    def __post_init__(self):
        if not self.timeout_s > 0:
            raise ValueError(
                f"timeout_s must be > 0, or inf for no timeout, "
                f"got {self.timeout_s!r}")
        if not isinstance(self.max_retries, (int, np.integer)) \
                or isinstance(self.max_retries, bool) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be an integer >= 0, "
                f"got {self.max_retries!r}")
        if not math.isfinite(self.backoff_base_s) or self.backoff_base_s <= 0:
            raise ValueError(
                f"backoff_base_s must be positive and finite, "
                f"got {self.backoff_base_s!r}")
        if not math.isfinite(self.backoff_cap_s) \
                or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s must be finite and >= backoff_base_s, "
                f"got {self.backoff_cap_s!r}")

    def backoff_s(self, consecutive_failures: int) -> float:
        """Backoff after the ``consecutive_failures``-th failure (1-based)."""
        if consecutive_failures < 1:
            raise ValueError("backoff_s expects a failure count >= 1")
        exponent = min(consecutive_failures - 1, 62)  # avoid overflow
        return min(self.backoff_cap_s, self.backoff_base_s * 2 ** exponent)


@dataclass(frozen=True)
class ExecutedBatch:
    """One batch attempt executed on one shard's device.

    ``service_s`` is the time the device was *occupied*: the full
    service time for a successful attempt, the truncated window for an
    attempt that timed out or was interrupted by an outage.
    """

    shard_id: int
    seq: int
    dispatch_s: float
    service_s: float
    request_ids: Tuple[int, ...]
    head_enqueue_s: float
    #: Consecutive-failure count on the shard when this attempt launched.
    attempt: int = 0
    #: Fault-injected service-time multiplier applied at dispatch.
    multiplier: float = 1.0
    outcome: str = OUTCOME_OK
    #: A bit flip landed in this attempt's service window (the result
    #: data is wrong, whatever the outcome says about timing).
    corrupted: bool = False
    #: This attempt re-ran work an integrity verification rejected (the
    #: recompute leg of detect/heal; mirrors the ``"recompute"`` fault
    #: log entry so span builders need no log matching).
    recompute: bool = False

    @property
    def batch_size(self) -> int:
        return len(self.request_ids)

    @property
    def complete_s(self) -> float:
        """Time the device frees up again."""
        return self.dispatch_s + self.service_s

    @property
    def succeeded(self) -> bool:
        return self.outcome == OUTCOME_OK


@dataclass
class RequestRecord:
    """Per-request scatter-gather progress."""

    req_id: int
    arrival_s: float
    shard_done_s: Dict[int, float] = field(default_factory=dict)
    #: Shards declared dead before answering this request.
    failed_shards: Set[int] = field(default_factory=set)
    #: Shards that answered with silently corrupted data (unprotected
    #: runs only; protection converts these into recomputes).
    corrupted_shards: Set[int] = field(default_factory=set)
    #: Shards the request fanned out to (live shards at arrival).
    n_required: int = 0
    #: Time every required shard had answered or failed; ``None`` until
    #: the scatter-gather resolves.
    retrieval_done_s: Optional[float] = None

    @property
    def retrieval_latency_s(self) -> float:
        """Arrival -> scatter-gather resolution (queueing included)."""
        if self.retrieval_done_s is None:
            raise RuntimeError(
                f"request {self.req_id} has not completed retrieval")
        return self.retrieval_done_s - self.arrival_s

    @property
    def fully_served(self) -> bool:
        """Every required shard answered (no failover losses)."""
        return not self.failed_shards

    @property
    def fully_intact(self) -> bool:
        """Every shard answered *and* no answer carried silent corruption."""
        return not self.failed_shards and not self.corrupted_shards


@dataclass(frozen=True)
class ScheduleResult:
    """Everything the simulation produced, in deterministic order."""

    n_shards: int
    policy: BatchPolicy
    batches: Tuple[ExecutedBatch, ...]
    records: Tuple[RequestRecord, ...]
    busy_seconds: Tuple[float, ...]
    #: Dynamic fault-handling actions, in event order.
    fault_log: Tuple[FaultLogEntry, ...] = ()
    #: Shard id -> time it was declared dead.
    death_times: Dict[int, float] = field(default_factory=dict)

    @property
    def horizon_s(self) -> float:
        """Last retrieval completion (the simulated makespan)."""
        return max(r.retrieval_done_s for r in self.records
                   if r.retrieval_done_s is not None)

    @property
    def n_timeouts(self) -> int:
        """Batch attempts aborted at the per-batch timeout."""
        return sum(1 for b in self.batches if b.outcome == OUTCOME_TIMEOUT)

    @property
    def n_interrupted(self) -> int:
        """Batch attempts cut short by an outage."""
        return sum(1 for b in self.batches
                   if b.outcome == OUTCOME_INTERRUPTED)

    @property
    def n_retries(self) -> int:
        """Backoff-gated retry rounds across all shards."""
        return sum(1 for entry in self.fault_log if entry.kind == "backoff")

    @property
    def n_corruptions_detected(self) -> int:
        """Batch attempts rejected by integrity verification."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "corrupted")

    @property
    def n_sdc(self) -> int:
        """Silent-data-corruption escapes (unprotected corrupted batches)."""
        return sum(1 for entry in self.fault_log if entry.kind == "sdc")

    @property
    def n_recomputes(self) -> int:
        """Recompute attempts dispatched after a detected corruption."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "recompute")

    @property
    def n_ecc_corrected(self) -> int:
        """Codewords the ECC decoder corrected in place."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "ecc_corrected")

    @property
    def n_ecc_detected(self) -> int:
        """Codewords the ECC decoder flagged as uncorrectable."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "ecc_detected")

    @property
    def n_ecc_miscorrections(self) -> int:
        """Beyond-capability upsets the decoder silently miscorrected."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "ecc_miscorrect")


class _ShardState:
    """Mutable per-shard queue/device state during a run."""

    __slots__ = ("queue", "busy", "busy_s", "gen", "timer_armed_gen",
                 "batch_seq", "failures", "blocked_until", "wake_at",
                 "dead", "last_corrupted", "flip_cursor", "serving",
                 "warming", "draining", "chunk_count")

    def __init__(self, serving: bool = True):
        self.queue: "deque[Tuple[int, float]]" = deque()  # (req_id, enqueue)
        self.busy = False
        self.busy_s = 0.0
        self.gen = 0
        self.timer_armed_gen = -1
        self.batch_seq = 0
        #: Consecutive failed attempts (resets on success).
        self.failures = 0
        #: Backoff gate: no dispatch before this time.
        self.blocked_until = 0.0
        #: Earliest pending wake event (dedupes wake arming).
        self.wake_at = math.inf
        #: Declared dead: failed over, never dispatches again.
        self.dead = False
        #: Last failure was a detected corruption (the next dispatch is
        #: a recompute, logged as such).
        self.last_corrupted = False
        #: Consume-once cursor into the shard's scripted transient
        #: flips: each flip corrupts exactly one completing batch.
        self.flip_cursor = 0
        #: New arrivals fan out to this shard (every live shard of a
        #: static run; the current topology of an elastic one).
        self.serving = serving
        #: Elastic runs: streaming its slice in before it serves, or
        #: finishing its queue after a detach.
        self.warming = False
        self.draining = False
        #: Elastic runs: chunks this device scans per query (frozen
        #: while draining).
        self.chunk_count = 0


class LoopHooks(NamedTuple):
    """What an extension of the event loop supplies; ``None`` = none.

    * ``admit(req_id, now, queued, width) -> bool``: admission control
      for every arrival.  ``width`` is the number of serving shards and
      ``queued`` the sub-queries waiting on them; ``False`` sheds the
      request before it is recorded.
    * ``on_resolved(record, now)``: a request's scatter-gather resolved.
    * ``on_death(shard_id, now, was_serving)``: the reaction to a death,
      after the shard's queue drained and it left ``serving``.
    * ``on_done(shard_id, state, now)``: after a successful batch
      completion re-dispatched its shard.
    * ``on_event(kind, now, payload)``: a heap event the extension
      pushed itself (``kind >= EXTENSION_KIND``).
    """

    admit: Optional[Callable[[int, float, int, int], bool]] = None
    on_resolved: Optional[Callable[[RequestRecord, float], None]] = None
    on_death: Optional[Callable[[int, float, bool], None]] = None
    on_done: Optional[Callable[[int, _ShardState, float], None]] = None
    on_event: Optional[Callable[[int, float, Any], None]] = None


def ordered_requests(requests: Sequence[Request]) -> List[Request]:
    """``requests`` sorted by ``(arrival_s, req_id)``, checked first.

    The stream must be non-empty, every arrival time finite and every
    ``req_id`` unique.
    """
    if not requests:
        raise ValueError("at least one request is required")
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
    seen: Set[int] = set()
    for request in ordered:
        if not math.isfinite(request.arrival_s):
            raise ValueError(
                f"request {request.req_id} has a non-finite arrival time "
                f"{request.arrival_s!r}")
        if request.req_id in seen:
            raise ValueError(f"duplicate req_id {request.req_id}")
        seen.add(request.req_id)
    return ordered


def judge_attempt(injector: FaultInjector, retry: RetryPolicy,
                  ecc: Optional[ECCModel], protected: bool, state: Any,
                  shard_id: int, now: float, base_s: float,
                  log: Callable[[FaultLogEntry], None]
                  ) -> Tuple[float, str, float, bool, bool]:
    """The fault verdict on one batch attempt dispatched at ``now``.

    ``base_s`` is the service model's un-stretched batch time; the
    attempt runs ``injector.multiplier`` times longer.  It times out at
    ``retry.timeout_s`` unless an outage opening first interrupts it.
    An attempt that would complete computes on whatever the memory
    held: it consumes every transient flip of the shard that lands
    before its completion (the consume-once ``state.flip_cursor``) and
    every stuck-at cell active by then.  ECC, when configured, sits
    between the memory and the batch: corrected codewords leave the
    data clean, a decoder-flagged uncorrectable fails the attempt even
    without ABFT, and a miscorrection stays silent unless ``protected``
    (ABFT) catches it.  A detected corruption fails the attempt as
    ``"corrupted"`` -- it still runs to completion, verification
    rejects it at the end -- and marks the next dispatch a recompute.

    ``state`` is the engine's per-shard record; its ``flip_cursor``,
    ``last_corrupted`` and ``failures`` are read (the first two also
    updated).  Fault-log entries go to ``log`` in event order: ECC
    verdicts first, then the ``"recompute"`` entry.  Returns
    ``(multiplier, outcome, occupied_s, corrupted, recompute)``, where
    ``occupied_s`` is the time the device is busy: the full stretched
    service unless the attempt was cut short.
    """
    multiplier = injector.multiplier(shard_id, now)
    service = base_s * multiplier
    outcome = OUTCOME_OK
    fail_at = math.inf
    if retry.timeout_s < service:
        fail_at = now + retry.timeout_s
        outcome = OUTCOME_TIMEOUT
    next_outage = injector.next_outage_start(shard_id, now)
    if next_outage < min(now + service, fail_at):
        fail_at = next_outage
        outcome = OUTCOME_INTERRUPTED
    corrupted = recompute = False
    if outcome == OUTCOME_OK and injector.has_bit_flips(shard_id):
        flips = injector.transient_flips(shard_id)
        cursor = state.flip_cursor
        while cursor < len(flips) and flips[cursor].t_s < now + service:
            cursor += 1
        consumed = flips[state.flip_cursor:cursor]
        stuck = injector.stuck_active(shard_id, now + service)
        state.flip_cursor = cursor
        detected = False
        if ecc is None:
            corrupted = bool(consumed) or bool(stuck)
        elif consumed or stuck:
            corrupted, detected, ecc_kinds = ecc.judge(consumed, stuck)
            for ecc_kind in ecc_kinds:
                log(FaultLogEntry(kind=ecc_kind, shard_id=shard_id,
                                  t_s=now, attempt=state.failures))
        if corrupted and (protected or detected):
            outcome = OUTCOME_CORRUPTED
        if state.last_corrupted:
            state.last_corrupted = False
            recompute = True
            log(FaultLogEntry(kind="recompute", shard_id=shard_id, t_s=now,
                              duration_s=service, attempt=state.failures))
    occupied = service if outcome in (OUTCOME_OK, OUTCOME_CORRUPTED) \
        else fail_at - now
    return multiplier, outcome, occupied, corrupted, recompute


def charge_failure(retry: RetryPolicy, state: Any, shard_id: int,
                   outcome: str, dispatch_s: float, occupied_s: float,
                   now: float, log: Callable[[FaultLogEntry], None]
                   ) -> bool:
    """Book one failed attempt completing at ``now``; ``True`` = dead.

    Counts the consecutive failure on ``state.failures``, remembers
    whether it was a detected corruption (the next dispatch is then a
    recompute) and logs the failure.  Once the failures exceed
    ``retry.max_retries`` the caller must declare the shard dead;
    otherwise the shard is gated behind its capped exponential backoff
    (``state.blocked_until``) and the backoff is logged.  Re-enqueueing
    the attempt's requests is the caller's business.
    """
    state.failures += 1
    state.last_corrupted = outcome == OUTCOME_CORRUPTED
    log(FaultLogEntry(kind=outcome, shard_id=shard_id, t_s=dispatch_s,
                      duration_s=occupied_s, attempt=state.failures))
    if state.failures > retry.max_retries:
        return True
    backoff = retry.backoff_s(state.failures)
    state.blocked_until = now + backoff
    log(FaultLogEntry(kind="backoff", shard_id=shard_id, t_s=now,
                      duration_s=backoff, attempt=state.failures))
    return False


class DiscreteEventScheduler:
    """Simulate scatter-gather serving over ``n_shards`` devices.

    Parameters
    ----------
    n_shards:
        Number of shard devices (each with its own FIFO + batcher).
    policy:
        Dynamic-batching policy applied identically on every shard.
    service_time:
        ``service_time(shard_id, batch_size) -> seconds`` cost model for
        one batch on one shard's device (e.g. the amortized
        ``BatchedAPURetrieval`` model over that shard's corpus slice).
        Consulted at every dispatch, so a failover policy may update it
        mid-run (corpus takeover after a shard death).
    injector:
        Optional :class:`~repro.faults.FaultInjector`; ``None`` (the
        default) disables every fault path and reproduces the fault-free
        schedule bit-for-bit.
    retry:
        Timeout/backoff policy; the default has no timeout.
    on_death:
        Optional ``on_death(shard_id, t_s)`` hook invoked exactly once
        when a shard is declared dead, after its queue has drained.
    protected:
        ``True`` models ABFT-verified serving: a batch whose service
        window a bit flip corrupts fails with outcome ``"corrupted"``
        and is recomputed through the retry machinery.  ``False`` lets
        the corruption escape silently (``"sdc"`` log entries,
        ``corrupted_shards`` on the affected requests).  Irrelevant
        when the plan has no bit flips.
    ecc:
        Optional :class:`~repro.ecc.ECCModel`.  When set, injected
        upsets land in codewords instead of raw words: corrected
        codewords leave the batch clean (an ``"ecc_corrected"`` log
        entry is the only trace), decoder-flagged uncorrectables fail
        the attempt with outcome ``"corrupted"`` even without ABFT
        (the memory controller reports them), and beyond-capability
        miscorrections deliver silently wrong data that only ABFT
        (``protected=True``) can still catch.  ``None`` (the default)
        reproduces the unprotected raw-word behavior bit-for-bit.
    """

    def __init__(self, n_shards: int, policy: BatchPolicy,
                 service_time: Callable[[int, int], float],
                 injector: Optional[FaultInjector] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_death: Optional[Callable[[int, float], None]] = None,
                 protected: bool = False,
                 ecc: Optional[ECCModel] = None):
        if not isinstance(n_shards, (int, np.integer)) \
                or isinstance(n_shards, bool) or n_shards < 1:
            raise ValueError(
                f"shards must be an integer >= 1, got {n_shards!r}")
        self.n_shards = int(n_shards)
        self.policy = policy
        self.service_time = service_time
        self.injector = injector
        self.retry = retry if retry is not None else RetryPolicy()
        self.on_death = on_death
        self.protected = bool(protected)
        self.ecc = ecc
        if injector is not None and injector.n_shards != self.n_shards:
            raise ValueError(
                f"injector covers {injector.n_shards} shard(s), "
                f"scheduler has {self.n_shards}")

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ScheduleResult:
        """Run the simulation to completion (no open requests remain)."""
        ordered = ordered_requests(requests)
        return self._run([r.arrival_s for r in ordered],
                         [r.req_id for r in ordered],
                         [_ShardState() for _ in range(self.n_shards)])

    def _hooks(self, shards: List[_ShardState], serving: List[int],
               push: Callable[[float, int, Any], None],
               arrive: Callable[[int, float], None]) -> LoopHooks:
        """The extension points of one run (see :class:`LoopHooks`).

        Called once per run, before the first event, with the loop's
        own per-shard state, ``serving`` list and ``push`` and
        ``arrive`` primitives.  The static scheduler only forwards
        deaths to ``on_death``.
        """
        on_death = self.on_death
        if on_death is None:
            return LoopHooks()
        return LoopHooks(on_death=lambda shard_id, now, _serving:
                         on_death(shard_id, now))

    def _run(self, arr_times: Sequence[float], arr_ids: Sequence[int],
             shards: List[_ShardState]) -> ScheduleResult:
        """The event loop over arrivals sorted by ``(time, req_id)``.

        ``shards`` is the per-shard state; those marked ``serving`` take
        the first arrivals.  Arrivals are pointer-merged against the heap
        rather than pushed onto it; merging on ``<=`` handles an arrival
        before every heap event at the same instant.  While every
        serving shard is busy an arrival only joins queues, so the
        arrivals up to the next heap event are admitted in bulk.
        """
        max_batch = self.policy.max_batch
        max_wait_s = self.policy.max_wait_s
        injector = self.injector
        retry = self.retry
        ecc = self.ecc
        protected = self.protected
        service_time = self.service_time

        heap: List[tuple] = []
        push_seq = 0

        def push(time_s: float, kind: int, payload: Any) -> None:
            nonlocal push_seq
            heapq.heappush(heap, (time_s, push_seq, kind, payload))
            push_seq += 1

        serving = [j for j, state in enumerate(shards) if state.serving]
        records: Dict[int, RequestRecord] = {}
        batches: List[ExecutedBatch] = []
        fault_log: List[FaultLogEntry] = []
        log = fault_log.append
        death_times: Dict[int, float] = {}
        #: (shard_id, seq) -> popped (req_id, enqueue_s) pairs of a
        #: batch attempt that will fail, for FIFO-preserving re-enqueue.
        pending_retry: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}

        def check_resolved(record: RequestRecord, now: float) -> None:
            if record.retrieval_done_s is not None:
                return
            if len(record.shard_done_s) + len(record.failed_shards) \
                    >= record.n_required:
                record.retrieval_done_s = now
                if on_resolved is not None:
                    on_resolved(record, now)

        def arm_wake(shard_id: int, at_s: float) -> None:
            state = shards[shard_id]
            if at_s < state.wake_at:
                state.wake_at = at_s
                push(at_s, _WAKE, shard_id)

        def declare_dead(shard_id: int, now: float) -> None:
            state = shards[shard_id]
            if state.dead:
                return
            state.dead = True
            state.gen += 1  # stale any armed timer
            death_times[shard_id] = now
            log(FaultLogEntry(kind="dead", shard_id=shard_id, t_s=now,
                              attempt=state.failures))
            for req_id, _enqueue in state.queue:
                record = records[req_id]
                record.failed_shards.add(shard_id)
                check_resolved(record, now)
            state.queue.clear()
            was_serving = state.serving
            state.serving = state.draining = False
            if was_serving:
                serving.remove(shard_id)
            if on_death is not None:
                on_death(shard_id, now, was_serving)

        def dispatch(shard_id: int, now: float) -> None:
            state = shards[shard_id]
            queue = state.queue
            take = min(max_batch, len(queue))
            head_enqueue = queue[0][1]
            # popleft ``take`` times, without a Python-level loop.
            taken = list(starmap(queue.popleft, repeat((), take)))
            base = float(service_time(shard_id, take))
            if not 0.0 < base < math.inf:
                raise ValueError(
                    f"service_time must be positive and finite, got "
                    f"{base!r} for shard {shard_id} batch {take}")
            if injector is None:
                multiplier, outcome, occupied = 1.0, OUTCOME_OK, base
                corrupted = recompute = False
            else:
                multiplier, outcome, occupied, corrupted, recompute = \
                    judge_attempt(injector, retry, ecc, protected, state,
                                  shard_id, now, base, log)
            batch = ExecutedBatch(
                shard_id=shard_id, seq=state.batch_seq, dispatch_s=now,
                service_s=occupied,
                request_ids=tuple([req_id for req_id, _ in taken]),
                head_enqueue_s=head_enqueue, attempt=state.failures,
                multiplier=multiplier, outcome=outcome,
                corrupted=corrupted, recompute=recompute)
            state.batch_seq += 1
            state.busy = True
            state.gen += 1  # stale any armed max-wait timer
            batches.append(batch)
            if outcome == OUTCOME_OK:
                push(batch.complete_s, _DONE, batch)
            else:
                pending_retry[(shard_id, batch.seq)] = taken
                push(batch.complete_s, _FAIL, batch)

        def maybe_dispatch(shard_id: int, now: float) -> None:
            state = shards[shard_id]
            if state.dead or state.busy or not state.queue:
                return
            if injector is not None and injector.is_down(shard_id, now):
                up_at = injector.next_up(shard_id, now)
                if math.isinf(up_at):
                    declare_dead(shard_id, now)
                else:
                    arm_wake(shard_id, up_at)
                return
            if now < state.blocked_until:
                arm_wake(shard_id, state.blocked_until)
                return
            if len(state.queue) >= max_batch:
                dispatch(shard_id, now)
                return
            deadline = state.queue[0][1] + max_wait_s
            if now >= deadline:
                dispatch(shard_id, now)
            elif state.timer_armed_gen != state.gen:
                state.timer_armed_gen = state.gen
                push(deadline, _TIMER, (shard_id, state.gen))

        def handle_failure(batch: ExecutedBatch, now: float) -> None:
            shard_id = batch.shard_id
            state = shards[shard_id]
            state.busy = False
            state.busy_s += batch.service_s  # wasted work still occupies
            # FIFO-preserving re-enqueue at the queue head.
            state.queue.extendleft(
                reversed(pending_retry.pop((shard_id, batch.seq))))
            if charge_failure(retry, state, shard_id, batch.outcome,
                              batch.dispatch_s, batch.service_s, now, log):
                declare_dead(shard_id, now)
                return
            maybe_dispatch(shard_id, now)

        def arrive(req_id: int, now: float) -> None:
            width = len(serving)
            if admit is not None and not admit(
                    req_id, now,
                    sum(len(shards[j].queue) for j in serving), width):
                return
            record = records[req_id] = RequestRecord(
                req_id=req_id, arrival_s=now, n_required=width)
            if not width:
                # Nothing left to serve from: resolve empty-handed.
                check_resolved(record, now)
                return
            # Snapshot: maybe_dispatch can declare a shard dead (a
            # permanent outage found at dispatch), which edits
            # ``serving`` -- iterating it would skip the next member.
            for shard_id in list(serving):
                shards[shard_id].queue.append((req_id, now))
                maybe_dispatch(shard_id, now)

        admit, on_resolved, on_death, on_done, on_event = \
            self._hooks(shards, serving, push, arrive)
        n_arrivals = len(arr_times)
        arr_ptr = 0
        while heap or arr_ptr < n_arrivals:
            if arr_ptr < n_arrivals \
                    and (not heap or arr_times[arr_ptr] <= heap[0][0]):
                if not serving or not all(shards[j].busy for j in serving):
                    arrive(arr_ids[arr_ptr], arr_times[arr_ptr])
                    arr_ptr += 1
                    continue
                # Bulk admission: with every serving shard busy an
                # admitted arrival only joins the queues (each
                # maybe_dispatch would be a busy no-op) until the next
                # heap event.  ``queued`` is the same integer sum
                # ``arrive`` hands to ``admit``.
                horizon = heap[0][0] if heap else math.inf
                width = len(serving)
                queues = [shards[j].queue for j in serving]
                queued = sum(len(queue) for queue in queues)
                while arr_ptr < n_arrivals and arr_times[arr_ptr] <= horizon:
                    now = arr_times[arr_ptr]
                    req_id = arr_ids[arr_ptr]
                    arr_ptr += 1
                    if admit is not None \
                            and not admit(req_id, now, queued, width):
                        continue
                    records[req_id] = RequestRecord(
                        req_id=req_id, arrival_s=now, n_required=width)
                    entry = (req_id, now)
                    for queue in queues:
                        queue.append(entry)
                    queued += width
                continue
            now, _, kind, payload = heapq.heappop(heap)
            if kind == _DONE:
                batch = payload
                shard_id = batch.shard_id
                state = shards[shard_id]
                state.busy = False
                state.busy_s += batch.service_s
                state.failures = 0
                if batch.corrupted:
                    # Unprotected serving: the corrupted answer ships.
                    log(FaultLogEntry(
                        kind="sdc", shard_id=shard_id,
                        t_s=batch.dispatch_s, duration_s=batch.service_s))
                for req_id in batch.request_ids:
                    record = records[req_id]
                    if shard_id in record.shard_done_s:
                        raise RuntimeError(
                            f"request {req_id} served twice on shard "
                            f"{shard_id}")
                    record.shard_done_s[shard_id] = now
                    if batch.corrupted:
                        record.corrupted_shards.add(shard_id)
                    check_resolved(record, now)
                maybe_dispatch(shard_id, now)
                if on_done is not None:
                    on_done(shard_id, state, now)
            elif kind == _TIMER:
                shard_id, gen = payload
                if shards[shard_id].gen == gen:
                    maybe_dispatch(shard_id, now)
            elif kind == _FAIL:
                handle_failure(payload, now)
            elif kind == _WAKE:
                shards[payload].wake_at = math.inf
                maybe_dispatch(payload, now)
            else:
                assert on_event is not None, f"unknown event kind {kind}"
                on_event(kind, now, payload)

        incomplete = [r.req_id for r in records.values()
                      if r.retrieval_done_s is None]
        if incomplete:  # pragma: no cover - guarded by construction
            raise RuntimeError(f"requests never completed: {incomplete}")
        return ScheduleResult(
            n_shards=self.n_shards,
            policy=self.policy,
            batches=tuple(batches),
            records=tuple(records[req_id] for req_id in sorted(records)),
            busy_seconds=tuple(state.busy_s for state in shards),
            fault_log=tuple(fault_log),
            death_times=death_times,
        )
