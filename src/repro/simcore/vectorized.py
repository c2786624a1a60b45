"""Vectorized execution core, bit-identical to the scalar event loop.

The scalar :class:`~repro.serve.scheduler.DiscreteEventScheduler` pays
Python-level heap traffic for every arrival, timer, wake, dispatch and
completion.  With no fault injector this core exploits the structure
of the problem instead:

* **Shard timelines are independent.**  Every request fans out to all
  shards, so the per-shard schedule is a pure function of the arrival
  array and the batching policy.  Each shard is evaluated by a
  closed-form scan (:func:`_scan_fault_free`) whose saturated
  stretches -- runs of consecutive full batches launching the instant
  the device frees -- collapse into NumPy ``cumsum`` chunks.
* **Global event order is reconstructible.**  The scalar heap orders
  ties by push sequence; pushes happen at known times (arrivals in
  request order, timers and completions at derivable instants).  Each
  batch carries a flat key ``(dispatch, tier, push_value, shard)``
  suited to a NumPy lexsort; tier 0 is arrival-triggered work (push
  value = arrival index; arrivals outrank every runtime push at equal
  times), tier 1 is everything else (push value = the time the
  triggering event was pushed).

The lexsort then *repairs* the rare cross-shard groups the flat key
cannot see (:meth:`VectorizedScheduler._repair_heap_ties`): two shards
dispatching at the same float instant with equal push values -- which
genuinely happens when different service-time sums round to the same
double -- are re-ordered by walking their lineage levels
(:func:`_lineage_levels`), reproducing the scalar heap's push-sequence
recursion.  Shards with identical service values scan in lockstep, so
their ties resolve to ascending shard id (the fan-out loop's order)
without any walk; the saturated million-query path never pays more
than the adjacency scan that proves no repair is needed.

A fault injector couples the shards through deaths and failover.  Such
runs use the inherited scalar loop, which is faster on them than a
vectorized scan.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple

import numpy as np

from ..serve.scheduler import (
    DiscreteEventScheduler,
    ScheduleResult,
    ordered_requests,
)
from ..serve.workload import Request, check_arrival_times
from .arrays import ArraySchedule

__all__ = ["VectorizedScheduler"]

#: Chunk size for the saturated bulk path (bounds temporary arrays).
_BULK = 4096

#: Push-key tiers (see module docstring).
_TIER_ARRIVAL = 0
_TIER_RUNTIME = 1


def _searchsorted(a: np.ndarray, v: float, side: str) -> int:
    return int(np.searchsorted(a, v, side=side))


# ----------------------------------------------------------------------
# Fault-free per-shard scan
# ----------------------------------------------------------------------
def _scan_fault_free(
    arrivals: np.ndarray,
    max_batch: int,
    max_wait: float,
    svc: Callable[[int], float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray]:
    """One shard's full schedule: arrays of (dispatch, start, size,
    tier, push value, occupied seconds), in dispatch order.

    Bit-identical to the scalar loop on a single shard: dispatch times
    are produced by the same sequence of float additions, and the
    (tier, push value) pair encodes which heap event triggered each
    batch so the global merge can reproduce tie order.
    """
    n = int(arrivals.size)
    b = max_batch
    # Scalar emissions buffer + bulk chunks, concatenated at the end.
    disp_l: List[float] = []
    start_l: List[int] = []
    size_l: List[int] = []
    tier_l: List[int] = []
    val_l: List[float] = []
    chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    i = 0
    t_free = 0.0
    last_dispatch = 0.0
    has_prev = False

    def emit(at: float, start: int, size: int, tier: int, val: float
             ) -> None:
        disp_l.append(at)
        start_l.append(start)
        size_l.append(size)
        tier_l.append(tier)
        val_l.append(val)

    while i < n:
        head = float(arrivals[i])
        if has_prev and t_free >= head:
            # Device-free step with queued work: the scalar dispatches
            # here if the queue is full or the head is past deadline.
            cnt = _searchsorted(arrivals, t_free, "right") - i
            if cnt >= b or head + max_wait <= t_free:
                m = b if cnt >= b else cnt
                emit(t_free, i, m, _TIER_RUNTIME, last_dispatch)
                last_dispatch = t_free
                t_free = t_free + svc(m)
                i += m
                if m == b:
                    # Saturated run: consecutive full batches, each
                    # launching the instant the previous completes.
                    s_full = svc(b)
                    while n - i >= b:
                        k = min(_BULK, (n - i) // b)
                        launch = np.empty(k, dtype=np.float64)
                        launch[0] = t_free
                        if k > 1:
                            launch[1:] = s_full
                        np.cumsum(launch, out=launch)
                        fill = arrivals[i + b - 1:i + b - 1 + k * b:b]
                        ok = fill <= launch
                        mm = k if bool(ok.all()) else int(np.argmin(ok))
                        if mm == 0:
                            break
                        vals = np.empty(mm, dtype=np.float64)
                        vals[0] = last_dispatch
                        if mm > 1:
                            vals[1:] = launch[:mm - 1]
                        starts = np.arange(i, i + mm * b, b,
                                           dtype=np.int64)
                        chunks.append((launch[:mm].copy(), starts, vals))
                        # Flush position: scalar buffers stay aligned
                        # because chunks record their own offsets.
                        last_dispatch = float(launch[mm - 1])
                        t_free = last_dispatch + s_full
                        i += mm * b
                        if mm < k:
                            break
                continue
        # Idle dispatch: queue under-full when the device freed (or the
        # device idles ahead of the head arrival).
        deadline = head + max_wait
        jf = i + b - 1
        fill_t = float(arrivals[jf]) if jf < n else math.inf
        if fill_t < deadline:
            emit(fill_t, i, b, _TIER_ARRIVAL, float(jf))
            last_dispatch = fill_t
            t_free = fill_t + svc(b)
            i += b
        else:
            lo = _searchsorted(arrivals, deadline, "left")
            hi = _searchsorted(arrivals, deadline, "right")
            if hi > lo and hi > i:
                # An arrival lands exactly on the deadline: it pops
                # before the timer and triggers the dispatch itself.
                j0 = max(i, lo)
                m = min(b, j0 + 1 - i)
                emit(deadline, i, m, _TIER_ARRIVAL, float(j0))
            else:
                # Max-wait timer fires; it was armed at the first
                # eligible evaluation of this idle period.
                m = min(b, hi - i)
                armed = t_free if (has_prev and t_free >= head) else head
                emit(deadline, i, m, _TIER_RUNTIME, armed)
            last_dispatch = deadline
            t_free = deadline + svc(m)
            i += m
        has_prev = True

    # Assemble: scalar emissions first, then splice bulk chunks at
    # their recorded offsets.  Both are already in dispatch order per
    # shard; merge by start index (strictly increasing in both).
    disp = np.asarray(disp_l, dtype=np.float64)
    start = np.asarray(start_l, dtype=np.int64)
    size = np.asarray(size_l, dtype=np.int64)
    tier = np.asarray(tier_l, dtype=np.int64)
    val = np.asarray(val_l, dtype=np.float64)
    if chunks:
        c_disp = np.concatenate([c[0] for c in chunks])
        c_start = np.concatenate([c[1] for c in chunks])
        c_size = np.full(c_start.size, b, dtype=np.int64)
        c_tier = np.full(c_start.size, _TIER_RUNTIME, dtype=np.int64)
        c_val = np.concatenate([c[2] for c in chunks])
        order = np.argsort(
            np.concatenate([start, c_start]), kind="stable")
        disp = np.concatenate([disp, c_disp])[order]
        start = np.concatenate([start, c_start])[order]
        size = np.concatenate([size, c_size])[order]
        tier = np.concatenate([tier, c_tier])[order]
        val = np.concatenate([val, c_val])[order]
    occ = np.empty(disp.size, dtype=np.float64)
    for batch_size in np.unique(size):
        occ[size == batch_size] = svc(int(batch_size))
    return disp, start, size, tier, val, occ


def _lineage_levels(
    per: Tuple[np.ndarray, ...], k: int
) -> Iterator[Tuple[float, int, float]]:
    """Yield batch ``k``'s trigger lineage as (fire time, tier, arrival
    index) levels, outermost first.

    Each level's fire time is the *push instant* of the level above it
    (a completion is pushed while the previous batch dispatches; a
    timer is pushed by the evaluation that armed it), so comparing two
    rows' level streams lexicographically reproduces the scalar heap's
    push-sequence tie-breaking: the first differing level decides, and
    fully identical streams mean both events were pushed by one shared
    arrival's fan-out loop, which runs in ascending shard order.
    """
    disp, start, _size, tier, val, occ = per
    while True:
        t = float(disp[k])
        if int(tier[k]) == _TIER_ARRIVAL:
            yield (t, _TIER_ARRIVAL, float(val[k]))
            return
        yield (t, _TIER_RUNTIME, -1.0)
        v = float(val[k])
        if k > 0:
            prev_disp = float(disp[k - 1])
            if v == prev_disp:
                # Completion event, pushed while batch k-1 dispatched.
                k -= 1
                continue
            if v == prev_disp + float(occ[k - 1]):
                # Max-wait timer armed by batch k-1's completion.
                yield (v, _TIER_RUNTIME, -1.0)
                k -= 1
                continue
        # Max-wait timer armed by the head arrival itself.
        yield (v, _TIER_ARRIVAL, float(start[k]))
        return


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class VectorizedScheduler(DiscreteEventScheduler):
    """Drop-in vectorized replacement for ``DiscreteEventScheduler``.

    The inherited constructor, the same :meth:`run` contract,
    bit-identical :class:`~repro.serve.scheduler.ScheduleResult` (the
    differential suite in ``tests/simcore`` is the proof); plus
    :meth:`run_arrays`, the allocation-free columnar path for
    million-query fault-free runs.  With a fault injector attached,
    :meth:`run` is the inherited scalar loop.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._svc_cache: Dict[Tuple[int, int], float] = {}

    # -- service memo ------------------------------------------------
    def _svc(self, shard: int, size: int) -> float:
        key = (shard, size)
        cached = self._svc_cache.get(key)
        if cached is None:
            cached = float(self.service_time(shard, size))
            if not np.isfinite(cached) or cached <= 0:
                raise ValueError(
                    f"service_time must be positive and finite, got "
                    f"{cached!r} for shard {shard} batch {size}")
            self._svc_cache[key] = cached
        return cached

    # -- public API ----------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ScheduleResult:
        """Run to completion; bit-identical to the scalar scheduler.

        Fault runs go to the scalar loop: deaths couple the shards, and
        the scalar loop is the faster fault engine.
        """
        if self.injector is not None:
            return super().run(requests)
        ordered = ordered_requests(requests)
        arrivals = np.asarray([r.arrival_s for r in ordered],
                              dtype=np.float64)
        req_ids = np.asarray([r.req_id for r in ordered], dtype=np.int64)
        self._svc_cache.clear()
        return self._run_fault_free(arrivals, req_ids).to_schedule_result()

    def run_arrays(self, arrival_s: np.ndarray,
                   req_ids: Optional[np.ndarray] = None) -> ArraySchedule:
        """Columnar fast path over a sorted arrival-time array.

        Fault-free only (an attached injector needs the event-faithful
        path -- call :meth:`run`).  ``arrival_s`` must pass
        :func:`~repro.serve.workload.check_arrival_times`; ``req_ids``
        defaults to positional.
        """
        if self.injector is not None:
            raise ValueError(
                "run_arrays supports fault-free runs only; "
                "use run() when a FaultInjector is attached")
        arrivals = np.ascontiguousarray(arrival_s, dtype=np.float64)
        check_arrival_times(arrivals)
        if req_ids is None:
            req_ids = np.arange(arrivals.size, dtype=np.int64)
        self._svc_cache.clear()
        return self._run_fault_free(arrivals, req_ids)

    # -- fault-free path -------------------------------------------------
    def _run_fault_free(self, arrivals: np.ndarray,
                        req_ids: np.ndarray) -> ArraySchedule:
        n = int(arrivals.size)
        per_shard = [
            _scan_fault_free(arrivals, self.policy.max_batch,
                             self.policy.max_wait_s,
                             lambda m, s=shard: self._svc(s, m))
            for shard in range(self.n_shards)]
        retrieval_done: Optional[np.ndarray] = None
        busy = np.empty(self.n_shards, dtype=np.float64)
        for shard, (disp, start, size, _tier, _val, occ) in \
                enumerate(per_shard):
            complete = disp + occ
            per_req = np.repeat(complete, size)
            if retrieval_done is None:
                retrieval_done = per_req
            else:
                np.maximum(retrieval_done, per_req, out=retrieval_done)
            # Sequential accumulation, matching the scalar += order.
            busy[shard] = np.cumsum(occ)[-1] if occ.size else 0.0
        assert retrieval_done is not None
        shard_col = np.concatenate([
            np.full(per_shard[s][0].size, s, dtype=np.int64)
            for s in range(self.n_shards)])
        disp_col = np.concatenate([p[0] for p in per_shard])
        start_col = np.concatenate([p[1] for p in per_shard])
        size_col = np.concatenate([p[2] for p in per_shard])
        tier_col = np.concatenate([p[3] for p in per_shard])
        val_col = np.concatenate([p[4] for p in per_shard])
        occ_col = np.concatenate([p[5] for p in per_shard])
        order = np.lexsort((shard_col, val_col, tier_col, disp_col))
        order = self._repair_heap_ties(
            order, per_shard, shard_col, disp_col, tier_col, val_col)
        start_sorted = start_col[order]
        return ArraySchedule(
            n_shards=self.n_shards,
            policy=self.policy,
            req_ids=req_ids,
            arrival_s=arrivals,
            retrieval_done_s=retrieval_done,
            batch_shard=shard_col[order],
            batch_dispatch_s=disp_col[order],
            batch_service_s=occ_col[order],
            batch_start=start_sorted,
            batch_size=size_col[order],
            batch_head_enqueue_s=arrivals[start_sorted],
            busy_seconds=busy,
        )

    def _repair_heap_ties(
            self, order: np.ndarray,
            per_shard: List[Tuple[np.ndarray, ...]],
            shard_col: np.ndarray, disp_col: np.ndarray,
            tier_col: np.ndarray, val_col: np.ndarray) -> np.ndarray:
        """Re-order cross-shard heap ties the flat lexsort cannot see.

        Two shards dispatching at the same float instant with equal
        (tier, push value) tie under the lexsort's shard-id fallback,
        but the scalar heap resolves them by push sequence, which
        recurses into the triggering events' own order.  Shards with
        identical service values produce identical scans, for which the
        shard-id fallback is already exact (identical lineages bottom
        at a shared arrival whose fan-out loop runs in ascending shard
        order), so only ties spanning *different* scan histories --
        exact float collisions between unequal timelines -- are walked
        with :func:`_lineage_levels` and re-sorted.
        """
        # Shard equivalence classes: equal service values over every
        # batch size any shard consumed imply bit-identical scans (the
        # scan is a deterministic function of the values it reads).
        # One class covers every shard in the common homogeneous case,
        # where all ties are already exact -- no row scan needed.
        sizes = sorted({size for _shard, size in self._svc_cache})
        sig_to_cls: Dict[Tuple[float, ...], int] = {}
        cls = np.empty(self.n_shards, dtype=np.int64)
        for shard in range(self.n_shards):
            sig = tuple(self._svc(shard, m) for m in sizes)
            cls[shard] = sig_to_cls.setdefault(sig, len(sig_to_cls))
        if len(sig_to_cls) == 1:
            return order
        d = disp_col[order]
        t = tier_col[order]
        v = val_col[order]
        same = (d[1:] == d[:-1]) & (t[1:] == t[:-1]) \
            & (v[1:] == v[:-1]) & (t[1:] == _TIER_RUNTIME)
        if not bool(same.any()):
            return order
        shard_sorted = shard_col[order]
        c = cls[shard_sorted]
        flagged = same & (c[1:] != c[:-1])
        if not bool(flagged.any()):
            return order
        # Positions of each row's batch within its own shard's arrays.
        k_col = np.concatenate([
            np.arange(p[0].size, dtype=np.int64)
            for p in per_shard])[order]
        # Expand flagged adjacent pairs to their full equal-key runs.
        bounds = np.concatenate(
            ([0], np.flatnonzero(~same) + 1, [order.size]))
        run_of = np.searchsorted(bounds, np.flatnonzero(flagged),
                                 "right") - 1
        order = order.copy()
        for run in np.unique(run_of):
            i0, i1 = int(bounds[run]), int(bounds[run + 1])
            rows = sorted(
                range(i0, i1),
                key=cmp_to_key(lambda ra, rb: self._cmp_heap_tie(
                    per_shard, cls,
                    int(shard_sorted[ra]), int(k_col[ra]),
                    int(shard_sorted[rb]), int(k_col[rb]))))
            order[i0:i1] = order[np.asarray(rows)]
        return order

    @staticmethod
    def _cmp_heap_tie(per_shard: List[Tuple[np.ndarray, ...]],
                      cls: np.ndarray, sa: int, ka: int,
                      sb: int, kb: int) -> int:
        if cls[sa] == cls[sb]:
            return -1 if sa < sb else 1
        for la, lb in zip(_lineage_levels(per_shard[sa], ka),
                          _lineage_levels(per_shard[sb], kb)):
            if la != lb:
                return -1 if la < lb else 1
        return -1 if sa < sb else 1
