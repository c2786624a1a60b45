"""Property tests for the discrete-event serving scheduler.

The hypothesis suite drives random arrival traces, shard counts, and
batching policies through :class:`DiscreteEventScheduler` and checks
the scheduling invariants:

* every admitted request completes exactly once (per shard and overall);
* no batch exceeds ``max_batch``;
* batch formation respects ``max_wait_s`` (an under-full batch is never
  dispatched before its head has waited out the window, and a waiting
  head is picked up by ``max(deadline, device free)``);
* FIFO order holds within a shard;
* batches on one shard never overlap in time;
* the whole simulation is bit-deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, OutageFault
from repro.serve.scheduler import BatchPolicy, DiscreteEventScheduler, \
    RetryPolicy
from repro.serve.workload import Request, poisson_arrivals, trace_arrivals

#: Slack for float comparisons on *derived* bounds (sums of different
#: orderings); same-expression comparisons in the scheduler are exact.
EPS = 1e-9


def make_service(base_s: float, inc_s: float):
    """A deterministic affine batch cost: ``base + (B - 1) * inc``."""

    def service(shard_id, batch_size):
        del shard_id
        return base_s + (batch_size - 1) * inc_s

    return service


arrival_gaps = st.lists(
    st.floats(min_value=0.0, max_value=5e-3, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=50,
)
policies = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=7),
    max_wait_s=st.floats(min_value=0.0, max_value=8e-3, allow_nan=False),
)
shard_counts = st.integers(min_value=1, max_value=5)
service_bases = st.floats(min_value=1e-4, max_value=6e-3)
service_incs = st.floats(min_value=0.0, max_value=1e-3)


def run_case(gaps, n_shards, policy, base_s, inc_s):
    requests = trace_arrivals(np.cumsum(gaps).tolist())
    scheduler = DiscreteEventScheduler(n_shards, policy,
                                       make_service(base_s, inc_s))
    return requests, scheduler.run(requests)


@settings(deadline=None, max_examples=60)
@given(gaps=arrival_gaps, n_shards=shard_counts, policy=policies,
       base_s=service_bases, inc_s=service_incs)
def test_scheduler_invariants(gaps, n_shards, policy, base_s, inc_s):
    requests, result = run_case(gaps, n_shards, policy, base_s, inc_s)
    by_arrival = [r.req_id for r in
                  sorted(requests, key=lambda r: (r.arrival_s, r.req_id))]

    # -- every request completes exactly once -------------------------
    assert len(result.records) == len(requests)
    for record in result.records:
        assert record.retrieval_done_s is not None
        assert set(record.shard_done_s) == set(range(n_shards))
        assert record.retrieval_done_s == max(record.shard_done_s.values())
        assert record.retrieval_done_s >= record.arrival_s

    for shard_id in range(n_shards):
        batches = [b for b in result.batches if b.shard_id == shard_id]
        batches.sort(key=lambda b: b.seq)

        # -- exactly once per shard, FIFO within the shard ------------
        served = [rid for b in batches for rid in b.request_ids]
        assert served == by_arrival

        prev_complete = 0.0
        for batch in batches:
            # -- batch size cap ---------------------------------------
            assert 1 <= batch.batch_size <= policy.max_batch

            # -- no overlap on one device -----------------------------
            assert batch.dispatch_s >= prev_complete - EPS

            # -- max-wait respected -----------------------------------
            deadline = batch.head_enqueue_s + policy.max_wait_s
            if batch.batch_size < policy.max_batch:
                # Under-full batches only launch once the window closes.
                assert batch.dispatch_s >= deadline - EPS
            # A waiting head is picked up as soon as the window closes
            # or the device frees up, whichever is later.
            assert batch.dispatch_s <= max(deadline, prev_complete) + EPS
            prev_complete = batch.complete_s


@settings(deadline=None, max_examples=25)
@given(gaps=arrival_gaps, n_shards=shard_counts, policy=policies,
       base_s=service_bases, inc_s=service_incs)
def test_scheduler_is_bit_deterministic(gaps, n_shards, policy, base_s,
                                        inc_s):
    _, first = run_case(gaps, n_shards, policy, base_s, inc_s)
    _, second = run_case(gaps, n_shards, policy, base_s, inc_s)
    assert first.batches == second.batches
    assert first.records == second.records
    assert first.busy_seconds == second.busy_seconds


class TestSchedulerEdges:
    def test_max_wait_zero_dispatches_immediately(self):
        policy = BatchPolicy(max_batch=8, max_wait_s=0.0)
        scheduler = DiscreteEventScheduler(1, policy, make_service(1e-3, 0))
        result = scheduler.run(trace_arrivals([0.0]))
        (batch,) = result.batches
        assert batch.dispatch_s == 0.0
        assert batch.batch_size == 1

    def test_full_batch_skips_the_wait(self):
        policy = BatchPolicy(max_batch=2, max_wait_s=1.0)
        scheduler = DiscreteEventScheduler(1, policy, make_service(1e-3, 0))
        result = scheduler.run(trace_arrivals([0.0, 1e-4]))
        (batch,) = result.batches
        assert batch.batch_size == 2
        assert batch.dispatch_s == pytest.approx(1e-4)

    def test_backlog_batches_on_device_free(self):
        """Requests queued behind a busy device batch up at completion."""
        policy = BatchPolicy(max_batch=4, max_wait_s=0.0)
        scheduler = DiscreteEventScheduler(1, policy, make_service(1e-2, 0))
        result = scheduler.run(
            trace_arrivals([0.0, 1e-3, 2e-3, 3e-3, 4e-3]))
        first, second = result.batches
        assert first.request_ids == (0,)
        assert second.request_ids == (1, 2, 3, 4)
        assert second.dispatch_s == pytest.approx(first.complete_s)

    def test_arrival_goes_before_events_at_the_same_instant(self):
        """Arrivals are merged in ahead of every heap event stamped with
        the same time."""
        # An arrival exactly on the head's max-wait deadline joins the
        # head's batch: it is handled before the max-wait timer.
        policy = BatchPolicy(max_batch=8, max_wait_s=0.5)
        scheduler = DiscreteEventScheduler(1, policy, make_service(1e-3, 0))
        (batch,) = scheduler.run(trace_arrivals([0.0, 0.5])).batches
        assert batch.request_ids == (0, 1)
        assert batch.dispatch_s == 0.5
        # An arrival exactly at a batch completion is queued before the
        # completion re-dispatches, so it rides the next batch.
        policy = BatchPolicy(max_batch=8, max_wait_s=0.0)
        scheduler = DiscreteEventScheduler(1, policy, make_service(0.5, 0))
        first, second = scheduler.run(
            trace_arrivals([0.0, 0.25, 0.5])).batches
        assert first.request_ids == (0,) and first.complete_s == 0.5
        assert second.request_ids == (1, 2)
        assert second.dispatch_s == 0.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, bad):
        scheduler = DiscreteEventScheduler(1, BatchPolicy(),
                                           make_service(1e-3, 0))
        with pytest.raises(ValueError, match="request 1 has a non-finite"):
            scheduler.run([Request(0, 0.0), Request(1, bad)])

    def test_invalid_policy_rejected(self):
        for bad in (0, -3, 1.5, True):
            with pytest.raises(ValueError):
                BatchPolicy(max_batch=bad)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1e-3)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_wait_s must be finite"):
                BatchPolicy(max_wait_s=bad)

    def test_invalid_shards_rejected(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError):
                DiscreteEventScheduler(bad, BatchPolicy(),
                                       make_service(1e-3, 0))

    def test_empty_stream_rejected(self):
        scheduler = DiscreteEventScheduler(1, BatchPolicy(),
                                           make_service(1e-3, 0))
        with pytest.raises(ValueError):
            scheduler.run([])

    def test_nonpositive_service_time_rejected(self):
        scheduler = DiscreteEventScheduler(1, BatchPolicy(),
                                           lambda s, b: 0.0)
        with pytest.raises(ValueError):
            scheduler.run(trace_arrivals([0.0]))


class TestDeathOrdering:
    """Where in the event order a shard death lands (scalar pins)."""

    def test_death_observed_by_arrival_inside_backoff(self):
        """A batch is interrupted one ulp *before* a permanent outage
        opens, so the failure handler arms a retry backoff instead of
        declaring death; the next arrival then lands inside the backoff
        window with the shard permanently down.  The down-check
        precedes the blocked-check, so the shard dies at that arrival's
        instant -- not at the backoff wake.  Hypothesis-found
        (fault_seed=1057)."""
        policy = BatchPolicy(max_batch=3, max_wait_s=5e-4)
        requests = poisson_arrivals(800.0, 63, 3)
        horizon = requests[-1].arrival_s + 0.05
        plan = FaultPlan.random(1057, 1, horizon, stall_rate=1.0,
                                outage_rate=0.5, permanent_fraction=0.25)
        retry = RetryPolicy(timeout_s=0.004, max_retries=1,
                            backoff_base_s=5e-4, backoff_cap_s=4e-3)
        result = DiscreteEventScheduler(
            1, policy, lambda s, b: (2.3 + 0.03 * (b - 1)) * 1e-3,
            injector=FaultInjector(plan, 1), retry=retry).run(requests)
        [outage] = plan.outages
        [death_s] = result.death_times.values()
        backoff = next(e for e in result.fault_log if e.kind == "backoff")
        assert result.batches[-1].complete_s < outage.start_s
        assert backoff.t_s < death_s < backoff.t_s + backoff.duration_s
        assert death_s in {r.arrival_s for r in requests}

    def test_death_lands_after_the_fanout_dispatches(self):
        """A permanent outage is observed by the lone request's arrival.
        Shards 0 and 1 dispatch inside the same fan-out loop *before*
        shard 2's death runs failover, so they price their batches on
        the pre-reroute service model even though they dispatch at
        exactly the death time."""
        seconds = [1e-3, 1e-3, 1e-3]

        def reroute(dead, t_s):
            del t_s
            for shard_id in range(len(seconds)):
                if shard_id != dead:
                    seconds[shard_id] *= 1.5

        plan = FaultPlan(outages=(OutageFault(shard_id=2, start_s=0.01),))
        result = DiscreteEventScheduler(
            3, BatchPolicy(max_batch=1, max_wait_s=0.0),
            lambda shard_id, _size: seconds[shard_id],
            injector=FaultInjector(plan, 3), on_death=reroute,
        ).run(trace_arrivals([0.02]))
        assert result.death_times == {2: 0.02}
        assert [(b.shard_id, b.dispatch_s, b.service_s)
                for b in result.batches] == [(0, 0.02, 1e-3),
                                             (1, 0.02, 1e-3)]
        assert seconds == [1.5e-3, 1.5e-3, 1e-3]
        [record] = result.records
        assert record.failed_shards == {2}
        assert record.n_required == 3
