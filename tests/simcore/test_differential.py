"""Differential proof: the vectorized core is bit-identical to scalar.

Three layers of evidence, from cheapest to broadest:

1. **Golden replays.**  The three canonical workloads (plain serving,
   the chaos plan, the SDC plan) run under both engines; reports,
   collected trace-event streams, span trees, critical paths, and the
   exposed metrics registry must compare *equal* -- no tolerances.
2. **Scheduler-level hypothesis sweep.**  Random arrival streams,
   batch policies, shard counts, and synthetic service models drive
   both schedulers directly with no faults; the full
   :class:`ScheduleResult` (batches, records, busy seconds) must match.
3. **Simulator-level hypothesis sweep.**  Whole ``ServeConfig``
   deployments (anchored service models, failover, integrity,
   telemetry on or off) compared end to end.

A fault plan makes the vectorized engine run the scalar loop, so the
fault and bit-flip cases of layers 1 and 3 prove that routing: the
``vectorized`` engine with a plan reports the same telemetry as the
``scalar`` one.  The scalar loop's own fault ordering is pinned in
``tests/serve/test_scheduler.py``.

Cross-shard ties at the exact same float64 instant are not hypothetical
-- different per-shard service sums really do round to the same double
under these sweeps -- and the fault-free merge resolves them exactly
(heap-tie repair), so every assertion here is strict equality with no
tolerance.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.obs.collector import collecting
from repro.rag.corpus import PAPER_CORPORA
from repro.serve import (
    BatchPolicy,
    DiscreteEventScheduler,
    RetryPolicy,
    ServeConfig,
    ServingSimulator,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
    poisson_arrivals,
)
from repro.simcore import VectorizedScheduler

GOLDEN_FACTORIES = {
    "serve": golden_serve_config,
    "serve_faults": golden_fault_config,
    "serve_integrity": golden_integrity_config,
}


def _assert_results_equal(res_s, res_v):
    """Field-by-field ScheduleResult equality (better failure output
    than one giant ``==``)."""
    assert res_v.n_shards == res_s.n_shards
    assert res_v.policy == res_s.policy
    assert res_v.batches == res_s.batches
    assert res_v.records == res_s.records
    assert res_v.busy_seconds == res_s.busy_seconds
    assert res_v.fault_log == res_s.fault_log
    assert res_v.death_times == res_s.death_times


def _assert_configs_agree(base: ServeConfig, with_telemetry: bool = True):
    """Run one deployment under both engines and demand bitwise equality
    of every observable artifact."""
    vec_cfg = dataclasses.replace(base, engine="vectorized")
    if with_telemetry:
        with collecting() as tr_s:
            rep_s, tel_s = ServingSimulator(base).run_with_telemetry()
        with collecting() as tr_v:
            rep_v, tel_v = ServingSimulator(vec_cfg).run_with_telemetry()
    else:
        with collecting() as tr_s:
            rep_s = ServingSimulator(base).run()
        with collecting() as tr_v:
            rep_v = ServingSimulator(vec_cfg).run()
        tel_s = tel_v = None

    # The configs differ only in the engine field; normalize and compare
    # everything else bit-for-bit.
    assert dataclasses.replace(rep_v, config=base) == rep_s
    assert tr_v.events == tr_s.events
    if tel_s is not None:
        assert tel_v.traces == tel_s.traces
        assert tel_v.critical_paths == tel_s.critical_paths
        assert tel_v.registry.expose() == tel_s.registry.expose()


# ----------------------------------------------------------------------
# 1. Golden replays
# ----------------------------------------------------------------------
class TestGoldenReplays:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FACTORIES))
    def test_golden_workload_is_bit_identical(self, name):
        _assert_configs_agree(GOLDEN_FACTORIES[name]())

    @pytest.mark.parametrize("name", sorted(GOLDEN_FACTORIES))
    def test_golden_workload_without_telemetry(self, name):
        _assert_configs_agree(GOLDEN_FACTORIES[name](),
                              with_telemetry=False)


# ----------------------------------------------------------------------
# 2. Scheduler-level sweeps (synthetic service model: cheap + broad)
# ----------------------------------------------------------------------
def _synthetic_service(base_ms: float, inc_ms: float):
    """A deterministic (shard, batch size) -> seconds callable."""
    def service(shard_id: int, batch_size: int) -> float:
        return (base_ms * (1.0 + 0.13 * shard_id)
                + inc_ms * (batch_size - 1)) * 1e-3
    return service


@st.composite
def scheduler_scenarios(draw):
    n_shards = draw(st.integers(min_value=1, max_value=8))
    policy = BatchPolicy(
        max_batch=draw(st.integers(min_value=1, max_value=16)),
        max_wait_s=draw(st.sampled_from([0.0, 5e-4, 1e-3, 2e-3, 5e-3])),
    )
    qps = draw(st.sampled_from([50.0, 200.0, 800.0, 3000.0]))
    n_requests = draw(st.integers(min_value=1, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    service = _synthetic_service(
        base_ms=draw(st.sampled_from([0.2, 0.5, 1.1, 2.3])),
        inc_ms=draw(st.sampled_from([0.03, 0.11, 0.4])),
    )
    return n_shards, policy, qps, n_requests, seed, service


# Hypothesis-found regressions, pinned so they run everywhere without
# the local example database.
def test_heap_tie_across_unequal_histories():
    """Shards 2 and 6 go idle at the *same* float64 instant through
    different service sums (2.3838ms + 0.63ms == 1.7938ms + 1.22ms
    after rounding), both arm max-wait timers there, and the scalar
    heap orders shard 6 first because its completion was pushed
    earlier.  Exercises the fault-free heap-tie repair."""
    policy = BatchPolicy(max_batch=4, max_wait_s=5e-4)
    requests = poisson_arrivals(3000.0, 9, 0)
    service = _synthetic_service(base_ms=0.5, inc_ms=0.11)
    res_s = DiscreteEventScheduler(7, policy, service).run(requests)
    res_v = VectorizedScheduler(7, policy, service).run(requests)
    _assert_results_equal(res_s, res_v)


@settings(deadline=None, max_examples=60)
@given(scenario=scheduler_scenarios())
def test_schedulers_agree_fault_free(scenario):
    n_shards, policy, qps, n_requests, seed, service = scenario
    requests = poisson_arrivals(qps, n_requests, seed)
    res_s = DiscreteEventScheduler(n_shards, policy, service).run(requests)
    res_v = VectorizedScheduler(n_shards, policy, service).run(requests)
    _assert_results_equal(res_s, res_v)


# ----------------------------------------------------------------------
# 3. Simulator-level sweep (anchored service models, failover,
#    integrity, telemetry on/off)
# ----------------------------------------------------------------------
@st.composite
def serve_configs(draw):
    n_shards = draw(st.integers(min_value=1, max_value=6))
    qps = draw(st.sampled_from([100.0, 400.0, 1600.0]))
    n_requests = draw(st.integers(min_value=1, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**10))
    kind = draw(st.sampled_from(["plain", "faults", "flips"]))
    faults = FaultPlan()
    retry = RetryPolicy()
    integrity = None
    if kind == "faults":
        horizon = n_requests / qps + 0.05
        faults = FaultPlan.random(seed + 7, n_shards, horizon,
                                  stall_rate=1.0, outage_rate=0.5,
                                  permanent_fraction=0.25)
        retry = RetryPolicy(timeout_s=0.008, max_retries=2,
                            backoff_base_s=1e-3, backoff_cap_s=8e-3)
    elif kind == "flips":
        from repro.integrity import IntegrityConfig
        horizon = n_requests / qps + 0.05
        faults = FaultPlan.random_bit_flips(seed + 13, n_shards, horizon,
                                            flip_rate=2.0)
        retry = RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                            backoff_cap_s=8e-3)
        integrity = IntegrityConfig(enabled=draw(st.booleans()),
                                    max_recomputes=2,
                                    scrub_interval_s=0.050, scrub_vrs=8)
    kwargs = dict(
        spec=PAPER_CORPORA["10GB"],
        n_shards=n_shards,
        batch=BatchPolicy(
            max_batch=draw(st.integers(min_value=1, max_value=12)),
            max_wait_s=draw(st.sampled_from([0.0, 1e-3, 2e-3, 5e-3])),
        ),
        k=5,
        qps=qps,
        n_requests=n_requests,
        seed=seed,
        slo_s=1.0,
        faults=faults,
        retry=retry,
    )
    if integrity is not None:
        kwargs["integrity"] = integrity
    return ServeConfig(**kwargs), draw(st.booleans())


@settings(deadline=None, max_examples=48,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=serve_configs())
def test_simulator_agrees_end_to_end(case):
    config, with_telemetry = case
    _assert_configs_agree(config, with_telemetry=with_telemetry)
