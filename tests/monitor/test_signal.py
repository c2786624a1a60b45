"""The shared burn signal: one window engine for controller and monitor."""

import dataclasses
import math

import pytest

from repro.monitor import BurnSignal, build_run_monitor
from repro.scale import ScalePolicy, ScaleSimulator, \
    golden_autoscale_config, golden_autoscale_fault_config
from repro.scale.controller import BurnRateController


def test_controller_is_backed_by_shared_signal():
    policy = ScalePolicy()
    controller = BurnRateController(policy.autoscale, slo_s=0.5,
                                    n_classes=2)
    assert isinstance(controller.signal, BurnSignal)


def test_controller_windows_match_standalone_signal():
    """The controller's readings are exactly the shared signal's,
    overdue backlog included."""
    policy = ScalePolicy()
    slo_s = 0.05
    controller = BurnRateController(policy.autoscale, slo_s=slo_s,
                                    n_classes=2)
    twin = BurnSignal(policy.autoscale.control_interval_s, slo_s,
                      n_classes=2)

    # (time, kind, req_id, latency, class); request 6 (class 0) and
    # request 7 (class 1) never resolve and age past the SLO.
    events = [
        (-0.100, "admit", 6, None, 0), (-0.080, "admit", 7, None, 1),
        (0.000, "admit", 0, None, 0), (0.001, "admit", 1, None, 1),
        (0.004, "done", 0, 0.010, 0), (0.006, "done", 1, 0.090, 1),
        (0.012, "admit", 2, None, 0), (0.013, "done", 2, 0.020, 0),
        (0.014, "admit", 3, None, 1), (0.015, "done", 3, 0.300, 1),
        (0.021, "done", 99, 0.049, 0), (0.028, "done", 98, 0.051, 1),
    ]
    ticks = [0.010, 0.020, 0.030]
    event_index = 0
    for tick_index, now_s in enumerate(ticks):
        while event_index < len(events) and events[event_index][0] <= now_s:
            t_s, kind, req_id, latency_s, cls = events[event_index]
            if kind == "admit":
                controller.signal.note_admission(req_id, t_s, cls)
                twin.note_admission(req_id, t_s, cls)
            else:
                controller.note_completion(req_id, t_s, latency_s, cls)
                twin.note_completion(req_id, t_s, latency_s, cls)
            event_index += 1
        got = controller.class_windows(now_s)
        want = twin.class_windows(tick_index, now_s)
        assert got == want
    # Last window: one completion per class plus one overdue each.
    assert [(w.n_requests, w.n_violations) for w in got] == [(2, 1), (2, 2)]
    assert twin.overdue(0.030) == [1, 1]


def test_signal_window_counts():
    signal = BurnSignal(window_s=0.010, slo_s=0.050, n_classes=1)
    for req_id, arrival_s in enumerate((-0.060, -0.055, -0.035, 0.0)):
        signal.note_admission(req_id, arrival_s)
    signal.note_completion(10, 0.001, 0.010)   # within SLO
    signal.note_completion(11, 0.002, 0.060)   # violation
    signal.note_completion(12, 0.009, 0.051)   # violation
    # Requests 0 and 1 are older than the SLO at 0.010; 2 and 3 not.
    [window] = signal.class_windows(0, 0.010)
    assert window.n_requests == 3 + 2      # completions + overdue
    assert window.n_violations == 2 + 2    # violations + overdue
    # Resolving an overdue request takes it out of the backlog.
    signal.note_completion(0, 0.011, 0.071)
    assert signal.overdue(0.011) == [1]


def test_signal_advance_drops_old_entries():
    signal = BurnSignal(window_s=0.010, slo_s=0.050, n_classes=1)
    signal.note_completion(0, 0.001, 0.060)
    signal.note_fault(0.001)
    [window] = signal.class_windows(0, 0.020)
    assert window.n_requests == 0
    assert signal.recent_faults() == 0


def test_signal_validation():
    with pytest.raises(ValueError):
        BurnSignal(window_s=0.0, slo_s=1.0)
    with pytest.raises(ValueError):
        BurnSignal(window_s=1.0, slo_s=0.0)
    with pytest.raises(ValueError):
        BurnSignal(window_s=1.0, slo_s=1.0, n_classes=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_signal_rejects_non_finite_window_and_slo(bad):
    with pytest.raises(ValueError, match="window_s must be finite"):
        BurnSignal(window_s=bad, slo_s=1.0)
    with pytest.raises(ValueError, match="slo_s must be finite"):
        BurnSignal(window_s=1.0, slo_s=bad)


def _replayed_tick_mismatches(config):
    """Ticks where the monitor's replay, built with the recorded
    readings stripped, differs from what the controller acted on."""
    sim = ScaleSimulator(config)
    report, telemetry, monitor = sim.run_with_monitor()
    run = sim._last_run
    policy = config.policy
    class_names = tuple(c.name for c in policy.priorities)
    stripped = [dataclasses.replace(a, class_burns=())
                for a in report.actions]
    replayed = build_run_monitor(
        workload="replay", result=run.result, slo_s=config.serve.slo_s,
        error_budget=policy.autoscale.error_budget,
        class_names=class_names, priorities=run.priorities,
        tti_by_req=run.tti_latency, batch_bytes=run.batch_bytes,
        pool_initial=config.serve.n_shards, registry_exposition="",
        cadence_s=policy.autoscale.control_interval_s, actions=stripped)
    ticks = [a for a in report.actions if a.kind == "tick"]
    slo_s = config.serve.slo_s
    backlog_ticks = sum(
        1 for tick in ticks
        if any(tick.t_s - r.arrival_s > slo_s
               and (r.retrieval_done_s is None
                    or r.retrieval_done_s > tick.t_s)
               for r in run.result.records))
    mismatches = []
    for cls, name in enumerate(class_names):
        by_t = dict(replayed.get("repro_monitor_slo_burn",
                                 **{"class": name}).points)
        recorded = dict(monitor.get("repro_monitor_slo_burn",
                                    **{"class": name}).points)
        for tick in ticks:
            assert recorded[tick.t_s] == tick.class_burns[cls]
            if by_t[tick.t_s] != tick.class_burns[cls]:
                mismatches.append((tick.t_s, name))
    return len(ticks), backlog_ticks, mismatches


def test_monitor_burn_equals_recorded_tick_burns():
    """The monitor's replay of the controller's signal reproduces the
    burn the controller acted on, at every control tick."""
    tight = golden_autoscale_fault_config()
    tight = dataclasses.replace(
        tight, serve=dataclasses.replace(tight.serve, slo_s=0.005))
    for config in (golden_autoscale_config(),
                   golden_autoscale_fault_config(), tight):
        n_ticks, backlog_ticks, mismatches = \
            _replayed_tick_mismatches(config)
        assert n_ticks > 0
        assert mismatches == []
    # The goldens never leave a request overdue at a tick; the tight
    # SLO does, so the overdue replay is compared too.
    assert backlog_ticks > 0
