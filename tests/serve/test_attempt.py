"""Unit pins for the shared per-attempt fault semantics.

``judge_attempt`` and ``charge_failure`` are the one copy of the
verdict and retry bookkeeping the scalar scheduler, the vectorized core
and the elastic loop all call; these tests pin them directly, without
an event loop around them.
"""

import pytest

from repro.ecc import ECCConfig, ECCModel
from repro.faults import BitFlipFault, FaultInjector, FaultPlan, \
    OutageFault, StallFault
from repro.serve.scheduler import (
    OUTCOME_CORRUPTED,
    OUTCOME_INTERRUPTED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    RetryPolicy,
    charge_failure,
    judge_attempt,
)


class _State:
    """The per-shard fields the helpers read and write."""

    def __init__(self):
        self.failures = 0
        self.flip_cursor = 0
        self.last_corrupted = False
        self.blocked_until = 0.0


def _flip(t_s, **kw):
    fields = dict(shard_id=0, t_s=t_s, target="vr", vr=4, bit=9,
                  element=1234)
    fields.update(kw)
    return BitFlipFault(**fields)


def _judge(plan, now=0.0, base=0.004, state=None, retry=None, ecc=None,
           protected=True):
    state = state if state is not None else _State()
    log = []
    verdict = judge_attempt(
        FaultInjector(plan, 1), retry or RetryPolicy(timeout_s=0.008),
        ecc, protected, state, 0, now, base, log.append)
    return verdict, log, state


def test_clean_attempt_occupies_its_stretched_service():
    plan = FaultPlan(stalls=(StallFault(shard_id=0, start_s=0.0,
                                        duration_s=1.0, slowdown=1.5),))
    (multiplier, outcome, occupied, corrupted, recompute), log, _ = \
        _judge(plan)
    assert (multiplier, outcome, corrupted, recompute) \
        == (1.5, OUTCOME_OK, False, False)
    assert occupied == 0.004 * 1.5
    assert log == []


def test_timeout_occupies_the_timeout():
    plan = FaultPlan(stalls=(StallFault(shard_id=0, start_s=0.0,
                                        duration_s=1.0, slowdown=4.0),))
    (_, outcome, occupied, _, _), _, _ = _judge(plan, now=0.5)
    assert outcome == OUTCOME_TIMEOUT
    assert occupied == (0.5 + 0.008) - 0.5


def test_outage_before_the_timeout_interrupts():
    plan = FaultPlan(
        stalls=(StallFault(shard_id=0, start_s=0.0, duration_s=0.010,
                           slowdown=5.0),),
        outages=(OutageFault(shard_id=0, start_s=0.005,
                             duration_s=0.010),))
    (_, outcome, occupied, _, _), _, _ = _judge(plan)
    assert outcome == OUTCOME_INTERRUPTED
    assert occupied == 0.005


def test_outage_after_the_timeout_leaves_a_timeout():
    plan = FaultPlan(
        stalls=(StallFault(shard_id=0, start_s=0.0, duration_s=0.010,
                           slowdown=5.0),),
        outages=(OutageFault(shard_id=0, start_s=0.009,
                             duration_s=0.010),))
    (_, outcome, occupied, _, _), _, _ = _judge(plan)
    assert outcome == OUTCOME_TIMEOUT
    assert occupied == 0.008


def test_detected_corruption_occupies_the_full_service():
    plan = FaultPlan(bit_flips=(_flip(0.001),))
    (_, outcome, occupied, corrupted, _), _, state = _judge(plan)
    assert (outcome, corrupted) == (OUTCOME_CORRUPTED, True)
    assert occupied == 0.004
    # Detection does not itself mark the recompute; charge_failure does.
    assert not state.last_corrupted


def test_transient_flip_is_consumed_once_by_cursor():
    plan = FaultPlan(bit_flips=(_flip(0.001), _flip(0.050, bit=3)))
    state = _State()
    (_, outcome, _, corrupted, _), _, _ = _judge(plan, state=state)
    assert (outcome, corrupted, state.flip_cursor) \
        == (OUTCOME_CORRUPTED, True, 1)
    # The next attempt completes before the second flip: clean.
    (_, outcome, _, corrupted, _), _, _ = _judge(plan, now=0.010,
                                                 state=state)
    assert (outcome, corrupted, state.flip_cursor) == (OUTCOME_OK, False, 1)
    # A flip that lands while the device idles corrupts the next batch.
    (_, outcome, _, corrupted, _), _, _ = _judge(plan, now=0.060,
                                                 state=state)
    assert (outcome, corrupted, state.flip_cursor) \
        == (OUTCOME_CORRUPTED, True, 2)


def test_stuck_cell_corrupts_every_attempt():
    plan = FaultPlan(bit_flips=(_flip(0.001, target="stuck"),))
    state = _State()
    for now in (0.0, 0.010, 0.500):
        (_, outcome, _, corrupted, _), _, _ = _judge(plan, now=now,
                                                     state=state)
        assert (outcome, corrupted) == (OUTCOME_CORRUPTED, True)
    assert state.flip_cursor == 0


def test_unprotected_corruption_ships_as_sdc():
    plan = FaultPlan(bit_flips=(_flip(0.001),))
    (_, outcome, occupied, corrupted, _), log, _ = _judge(
        plan, protected=False)
    assert (outcome, corrupted) == (OUTCOME_OK, True)
    assert occupied == 0.004
    assert log == []


def test_ecc_detected_uncorrectable_fails_without_abft():
    plan = FaultPlan(bit_flips=(
        _flip(0.001, target="stuck", vr=5, bit=0, element=7),
        _flip(0.001, target="stuck", vr=5, bit=1, element=7)))
    ecc = ECCModel(ECCConfig(enabled=True, tier="secded"))
    (_, outcome, _, corrupted, _), log, _ = _judge(plan, ecc=ecc,
                                                   protected=False)
    assert (outcome, corrupted) == (OUTCOME_CORRUPTED, True)
    assert [entry.kind for entry in log] == ["ecc_detected"]


def test_ecc_corrected_flip_leaves_the_batch_clean():
    plan = FaultPlan(bit_flips=(_flip(0.001),))
    ecc = ECCModel(ECCConfig(enabled=True, tier="secded"))
    (_, outcome, _, corrupted, _), log, state = _judge(plan, ecc=ecc)
    assert (outcome, corrupted, state.flip_cursor) == (OUTCOME_OK, False, 1)
    assert [entry.kind for entry in log] == ["ecc_corrected"]


def test_ecc_entries_come_before_the_recompute_entry():
    plan = FaultPlan(bit_flips=(_flip(0.001),))
    ecc = ECCModel(ECCConfig(enabled=True, tier="secded"))
    state = _State()
    state.failures = 1
    state.last_corrupted = True
    (multiplier, _, _, _, recompute), log, _ = _judge(
        plan, now=0.0, state=state, ecc=ecc)
    assert recompute and not state.last_corrupted
    assert [entry.kind for entry in log] == ["ecc_corrected", "recompute"]
    assert log[1].duration_s == 0.004 * multiplier
    assert all(entry.attempt == 1 for entry in log)


@pytest.mark.parametrize("max_retries", [0, 1, 3])
def test_death_at_exactly_max_retries_plus_one_failures(max_retries):
    retry = RetryPolicy(max_retries=max_retries, backoff_base_s=1e-3,
                        backoff_cap_s=8e-3)
    state = _State()
    log = []
    verdicts = [charge_failure(retry, state, 0, OUTCOME_TIMEOUT,
                               float(i), 0.5, float(i) + 0.5, log.append)
                for i in range(max_retries + 1)]
    assert verdicts == [False] * max_retries + [True]
    assert state.failures == max_retries + 1
    kinds = [entry.kind for entry in log]
    assert kinds == ["timeout", "backoff"] * max_retries + ["timeout"]
    assert [entry.attempt for entry in log if entry.kind == "timeout"] \
        == list(range(1, max_retries + 2))


def test_failure_gates_behind_backoff_and_marks_recompute():
    retry = RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                        backoff_cap_s=8e-3)
    state = _State()
    log = []
    assert not charge_failure(retry, state, 3, OUTCOME_CORRUPTED, 0.25,
                              0.004, 0.254, log.append)
    assert state.last_corrupted
    assert state.blocked_until == 0.254 + 1e-3
    failure, backoff = log
    assert (failure.kind, failure.shard_id, failure.t_s,
            failure.duration_s) == (OUTCOME_CORRUPTED, 3, 0.25, 0.004)
    assert (backoff.kind, backoff.t_s, backoff.duration_s) \
        == ("backoff", 0.254, 1e-3)
    assert not charge_failure(retry, state, 3, OUTCOME_TIMEOUT, 0.3,
                              0.008, 0.308, log.append)
    assert not state.last_corrupted
    assert state.blocked_until == 0.308 + 2e-3
