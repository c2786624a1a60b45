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
backoff and death bookkeeping); this loop, the vectorized core and the
elastic loop all call them.

The event loop is a plain binary heap ordered by ``(time, sequence)``;
the sequence number makes simultaneous events process in insertion
order, so the whole simulation is bit-deterministic for a fixed
request stream, fault plan, and service model -- and with no injector
the fault paths are never entered, so the schedule is bit-identical to
the fault-free scheduler.  A request's retrieval completes when every
shard it was fanned out to has either finished or been declared dead;
downstream costs (top-k merge, generator prefill) are applied by the
simulator on top of the scheduler output.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, \
    Tuple

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
    "charge_failure",
    "judge_attempt",
]

_ARRIVE, _TIMER, _DONE, _FAIL, _WAKE = 0, 1, 2, 3, 4

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
        if math.isnan(self.timeout_s) or self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s!r}")
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
                 "dead", "last_corrupted", "flip_cursor")

    def __init__(self):
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
        if not requests:
            raise ValueError("at least one request is required")
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))

        heap: List[tuple] = []
        push_seq = 0

        def push(time_s: float, kind: int, payload) -> None:
            nonlocal push_seq
            heapq.heappush(heap, (time_s, push_seq, kind, payload))
            push_seq += 1

        shards = [_ShardState() for _ in range(self.n_shards)]
        records: Dict[int, RequestRecord] = {}
        batches: List[ExecutedBatch] = []
        fault_log: List[FaultLogEntry] = []
        death_times: Dict[int, float] = {}
        #: (shard_id, seq) -> popped (req_id, enqueue_s) pairs of a
        #: batch attempt that will fail, for FIFO-preserving re-enqueue.
        pending_retry: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}

        for request in ordered:
            if request.req_id in records:
                raise ValueError(f"duplicate req_id {request.req_id}")
            records[request.req_id] = RequestRecord(
                req_id=request.req_id, arrival_s=request.arrival_s)
            push(request.arrival_s, _ARRIVE, request.req_id)

        def check_resolved(record: RequestRecord, now: float) -> None:
            if record.retrieval_done_s is not None:
                return
            if len(record.shard_done_s) + len(record.failed_shards) \
                    >= record.n_required:
                record.retrieval_done_s = now

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
            fault_log.append(FaultLogEntry(
                kind="dead", shard_id=shard_id, t_s=now,
                attempt=state.failures))
            for req_id, _enqueue in state.queue:
                record = records[req_id]
                record.failed_shards.add(shard_id)
                check_resolved(record, now)
            state.queue.clear()
            if self.on_death is not None:
                self.on_death(shard_id, now)

        def dispatch(shard_id: int, now: float) -> None:
            state = shards[shard_id]
            take = min(self.policy.max_batch, len(state.queue))
            head_enqueue = state.queue[0][1]
            taken = [state.queue.popleft() for _ in range(take)]
            ids = tuple(req_id for req_id, _ in taken)
            base = float(self.service_time(shard_id, take))
            if not np.isfinite(base) or base <= 0:
                raise ValueError(
                    f"service_time must be positive and finite, got "
                    f"{base!r} for shard {shard_id} batch {take}")
            if self.injector is None:
                multiplier, outcome, occupied = 1.0, OUTCOME_OK, base
                corrupted = recompute = False
            else:
                multiplier, outcome, occupied, corrupted, recompute = \
                    judge_attempt(self.injector, self.retry, self.ecc,
                                  self.protected, state, shard_id, now,
                                  base, fault_log.append)
            batch = ExecutedBatch(
                shard_id=shard_id, seq=state.batch_seq, dispatch_s=now,
                service_s=occupied, request_ids=ids,
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
            if self.injector is not None \
                    and self.injector.is_down(shard_id, now):
                up_at = self.injector.next_up(shard_id, now)
                if math.isinf(up_at):
                    declare_dead(shard_id, now)
                else:
                    arm_wake(shard_id, up_at)
                return
            if now < state.blocked_until:
                arm_wake(shard_id, state.blocked_until)
                return
            if len(state.queue) >= self.policy.max_batch:
                dispatch(shard_id, now)
                return
            deadline = state.queue[0][1] + self.policy.max_wait_s
            if now >= deadline:
                dispatch(shard_id, now)
            elif state.timer_armed_gen != state.gen:
                state.timer_armed_gen = state.gen
                push(deadline, _TIMER, (shard_id, state.gen))

        def handle_failure(batch: ExecutedBatch, now: float) -> None:
            state = shards[batch.shard_id]
            state.busy = False
            state.busy_s += batch.service_s  # wasted work still occupies
            # FIFO-preserving re-enqueue at the queue head.
            taken = pending_retry.pop((batch.shard_id, batch.seq))
            for pair in reversed(taken):
                state.queue.appendleft(pair)
            if charge_failure(self.retry, state, batch.shard_id,
                              batch.outcome, batch.dispatch_s,
                              batch.service_s, now, fault_log.append):
                declare_dead(batch.shard_id, now)
                return
            maybe_dispatch(batch.shard_id, now)

        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == _ARRIVE:
                record = records[payload]
                live = [shard_id for shard_id, state in enumerate(shards)
                        if not state.dead]
                record.n_required = len(live)
                if not live:
                    # Nothing left to serve from: resolve empty-handed.
                    record.retrieval_done_s = now
                    continue
                for shard_id in live:
                    shards[shard_id].queue.append((payload, now))
                    maybe_dispatch(shard_id, now)
            elif kind == _TIMER:
                shard_id, gen = payload
                if shards[shard_id].gen == gen:
                    maybe_dispatch(shard_id, now)
            elif kind == _WAKE:
                shards[payload].wake_at = math.inf
                maybe_dispatch(payload, now)
            elif kind == _FAIL:
                handle_failure(payload, now)
            else:  # _DONE
                batch = payload
                state = shards[batch.shard_id]
                state.busy = False
                state.busy_s += batch.service_s
                state.failures = 0
                if batch.corrupted:
                    # Unprotected serving: the corrupted answer ships.
                    fault_log.append(FaultLogEntry(
                        kind="sdc", shard_id=batch.shard_id,
                        t_s=batch.dispatch_s, duration_s=batch.service_s))
                for req_id in batch.request_ids:
                    record = records[req_id]
                    if batch.shard_id in record.shard_done_s:
                        raise RuntimeError(
                            f"request {req_id} served twice on shard "
                            f"{batch.shard_id}")
                    record.shard_done_s[batch.shard_id] = now
                    if batch.corrupted:
                        record.corrupted_shards.add(batch.shard_id)
                    check_resolved(record, now)
                maybe_dispatch(batch.shard_id, now)

        incomplete = [r.req_id for r in records.values()
                      if r.retrieval_done_s is None]
        if incomplete:  # pragma: no cover - guarded by construction
            raise RuntimeError(f"requests never completed: {incomplete}")
        ordered_records = tuple(records[req_id]
                                for req_id in sorted(records))
        return ScheduleResult(
            n_shards=self.n_shards,
            policy=self.policy,
            batches=tuple(batches),
            records=ordered_records,
            busy_seconds=tuple(state.busy_s for state in shards),
            fault_log=tuple(fault_log),
            death_times=death_times,
        )
