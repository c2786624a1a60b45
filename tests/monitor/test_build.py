"""Builder semantics: sampling rules, instants, and input validation."""

import dataclasses
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.monitor import (
    MonitorError,
    RunMonitor,
    Series,
    build_run_monitor,
    sample_instants,
)
from repro.scale import ScaleSimulator, golden_autoscale_config
from repro.serve.simulator import ServingSimulator, golden_serve_config

ENGINES = ("scalar", "vectorized")


# -- sampling instants -------------------------------------------------


def test_sample_instants_ladder_extends_past_horizon():
    instants = sample_instants(0.025, 0.010)
    assert instants == (0.01, 0.02, 0.01 + 0.01 + 0.01)
    assert instants[-1] >= 0.025


def test_sample_instants_matches_tick_recurrence_bitwise():
    """The ladder reproduces the elastic tick recurrence t += interval."""
    interval = 0.010
    ticks = []
    t = interval           # first tick is pushed at the literal interval
    while t < 0.1:
        ticks.append(t)
        t = t + interval   # then re-pushed at now + interval
    instants = sample_instants(ticks[-1], interval, extra=ticks)
    # exact-float dedup: every tick IS a ladder instant, so merging
    # the recorded ticks adds nothing.
    assert len(instants) == len(set(instants))
    for tick in ticks:
        assert tick in instants


def test_sample_instants_empty_run_and_validation():
    assert sample_instants(0.0, 0.010) == (0.010,)
    for bad in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match="cadence_s must be finite and positive"):
            sample_instants(1.0, bad)


def test_nan_cadence_is_named_by_the_monitor():
    """A NaN cadence once passed the sign check and failed later on a
    ``window_s`` the caller never set."""
    sim = ServingSimulator(dataclasses.replace(golden_serve_config(),
                                               n_requests=64))
    with pytest.raises(ValueError,
                       match="cadence_s must be finite and positive"):
        sim.run_with_monitor(cadence_s=float("nan"))


_TINY_CADENCE_SCRIPT = """
import dataclasses
from repro.serve.simulator import ServingSimulator, golden_serve_config
sim = ServingSimulator(dataclasses.replace(golden_serve_config(),
                                           n_requests=64))
try:
    sim.run_with_monitor(cadence_s=1e-9)
except ValueError as exc:
    print(exc)
"""


def test_tiny_cadence_fails_fast():
    """A 1e-9 s cadence on a 64-request run once built a ~1e9-instant
    ladder until memory ran out; it must now end in a ValueError that
    names the cadence, the horizon and the count, well inside a wall
    budget (run in a child so a runaway cannot stall the suite)."""
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", _TINY_CADENCE_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(
        r"cadence_s=1e-09 over a \S+ s horizon needs \S+ sampling "
        r"instants, more than 1000000; use a coarser cadence\n",
        proc.stdout), proc.stdout


def test_sample_instants_merges_extra():
    instants = sample_instants(0.02, 0.010, extra=[0.0153])
    assert 0.0153 in instants
    assert instants == tuple(sorted(instants))


# -- the sample-before-transition boundary rule (satellite pin) --------


@pytest.mark.monitor
@pytest.mark.parametrize("engine", ENGINES)
def test_pool_sample_at_transition_tick_is_pre_transition(engine):
    """A scale transition at tick ``t`` is invisible to the sample at ``t``.

    The elastic loop records each tick's ``pool_size`` *before*
    applying the controller verdict; the monitor's gauge rule (sample
    strictly before the instant) must therefore reproduce exactly the
    recorded pre-transition size at every tick -- including the ticks
    where a detach or warm-up lands at that same instant.  Pinned on
    both engines.
    """
    config = golden_autoscale_config()
    serve = dataclasses.replace(config.serve, engine=engine)
    config = dataclasses.replace(config, serve=serve)
    report, _telemetry, monitor = \
        ScaleSimulator(config).run_with_monitor()

    ticks = [a for a in report.actions if a.kind == "tick"]
    transitions = {a.t_s for a in report.actions
                   if a.kind in ("warm", "detach", "dead")}
    assert any(t.t_s in transitions for t in ticks), \
        "golden run must have a transition landing on a tick"

    pool = dict(monitor.get("repro_monitor_pool_size").points)
    for tick in ticks:
        assert pool[tick.t_s] == float(tick.pool_size)


@pytest.mark.monitor
def test_queue_sample_excludes_events_at_instant():
    """Gauges ignore sub-tick events at exactly the sample instant."""
    report, _telemetry, monitor = \
        ScaleSimulator(golden_autoscale_config()).run_with_monitor()
    del report
    queue = monitor.get("repro_monitor_queue_depth")
    assert queue.points[-1][1] == 0.0  # drained by the final sample


def test_counter_final_sample_is_end_of_run_total():
    report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    completed = monitor.get("repro_monitor_completed_total")
    assert completed.final() == float(report.n_completed)
    # counters are non-decreasing
    values = [v for _, v in completed.points]
    assert values == sorted(values)


def test_qps_windows_sum_to_completions():
    """qps * cadence summed over the ladder conserves completions."""
    report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    qps = monitor.get("repro_monitor_qps")
    total = sum(v * monitor.cadence_s for _, v in qps.points)
    assert total == pytest.approx(report.n_completed, rel=1e-9)


# -- builder validation ------------------------------------------------


def test_batch_bytes_length_mismatch_raises():
    report, _telemetry, _monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    del report
    sim = ServingSimulator(golden_serve_config())
    _report, telemetry = sim.run_with_telemetry()
    result = sim._last_result
    with pytest.raises(ValueError):
        build_run_monitor(
            workload="serve", result=result, slo_s=1.0,
            error_budget=0.01, class_names=("all",), priorities={},
            tti_by_req={}, batch_bytes=[1],  # wrong length
            pool_initial=4,
            registry_exposition=telemetry.registry.expose())


def test_series_duplicate_key_rejected():
    s = Series(name="x", help_text="h", kind="gauge",
               points=((0.0, 1.0),))
    with pytest.raises(MonitorError):
        RunMonitor(workload="w", cadence_s=0.01, horizon_s=1.0,
                   instants=(0.01,), series=(s, s))


def test_series_kind_validation():
    with pytest.raises(MonitorError):
        Series(name="x", help_text="h", kind="summary")


def test_monitor_get_unknown_series():
    report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    del report
    with pytest.raises(MonitorError):
        monitor.get("repro_monitor_nope")
    assert "repro_monitor_qps" in monitor.names()


def test_monitor_round_trip():
    _report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    from repro.monitor import RunMonitor as RM

    again = RM.from_dict(monitor.to_dict())
    assert again == monitor
