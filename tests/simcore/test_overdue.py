"""The burn signal's overdue count against the brute-force scan.

The elastic loop asks, at every control tick, how many admitted and
still unresolved requests per priority class are older than the SLO.
:meth:`~repro.monitor.signal.BurnSignal.overdue` answers from a
monotone cursor; :func:`_scan` below is the full scan over every
admitted record, kept here as an independent oracle.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import BurnSignal

N_CLASSES = 3
SLOS = (0.5, 0.1, 0.512)


def _scan(records, now, slo_s):
    counts = [0] * N_CLASSES
    for arrival, cls, resolved in records.values():
        if not resolved and now - arrival > slo_s:
            counts[cls] += 1
    return counts


def _steps(slo_s):
    # Multiples of the SLO land ages exactly on it (and on equal
    # timestamps at 0.0); free floats cover the rest.
    exact = [0.0, slo_s / 4, slo_s / 2, slo_s]
    return st.one_of(st.sampled_from(exact),
                     st.floats(0.0, 2 * slo_s, allow_nan=False))


@st.composite
def scenarios(draw):
    slo_s = draw(st.sampled_from(SLOS))
    step = _steps(slo_s)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("admit"), step,
                  st.integers(0, N_CLASSES - 1)),
        st.tuples(st.just("resolve"), st.integers(0, 10**6)),
        st.tuples(st.just("tick"), step),
    ), max_size=80))
    return slo_s, ops


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_counts_match_brute_force_scan(scenario):
    slo_s, ops = scenario
    signal = BurnSignal(1.0, slo_s, N_CLASSES)
    records = {}  # req_id -> (arrival_s, class, resolved)
    now = 0.0
    for op in ops:
        if op[0] == "admit":
            _, dt, cls = op
            now += dt
            req_id = len(records)
            records[req_id] = (now, cls, False)
            signal.note_admission(req_id, now, cls)
        elif op[0] == "resolve":
            open_ids = [i for i, r in records.items() if not r[2]]
            if not open_ids:
                continue
            req_id = open_ids[op[1] % len(open_ids)]
            arrival, cls, _ = records[req_id]
            records[req_id] = (arrival, cls, True)
            signal.note_completion(req_id, now, 0.0, cls)
        else:
            now += op[1]
            assert signal.overdue(now) == _scan(records, now, slo_s)
    assert signal.overdue(now) == _scan(records, now, slo_s)


def test_age_exactly_at_slo_is_not_overdue():
    signal = BurnSignal(1.0, 0.5)
    signal.note_admission(0, 0.25)
    assert signal.overdue(0.75) == [0]  # age == slo: not past it
    assert signal.overdue(math.nextafter(0.75, 1.0)) == [1]
    signal.note_completion(0, 0.9, 0.65)
    signal.note_completion(0, 0.9, 0.65)  # resolving twice is harmless
    assert signal.overdue(1.0) == [0]


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_slo_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="slo_s must be finite"):
        BurnSignal(1.0, bad)
