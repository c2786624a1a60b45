"""Differential proofs for the elastic wrapper and its two engines.

Two families of pins:

* **Autoscaler-off runs ARE the static simulator.**  ``ScaleSimulator``
  with no policy must be a zero-cost wrapper -- every observable
  artifact (report, trace events, span renderings, metrics exposition)
  byte-identical to ``ServingSimulator`` on the same config, for both
  engines and including the fault-plan and integrity variants.  This is
  what lets the elastic path land without re-golden-ing anything.
* **The elastic loop is engine-invariant.**  Elastic runs use one loop
  whatever the ``engine`` flag says -- every elastic run, including the
  fault/failover and SDC/integrity variants, produces bit-identical
  reports, action logs, trace events, and telemetry under both values.
"""

import dataclasses

import pytest

from repro.core.params import DEFAULT_PARAMS
from repro.faults import BitFlipFault, FaultPlan
from repro.integrity import IntegrityConfig
from repro.obs import collecting
from repro.scale import (
    ScaleConfig,
    ScaleSimulator,
    golden_autoscale_config,
    golden_autoscale_fault_config,
)
from repro.serve import RetryPolicy
from repro.serve.simulator import ServingSimulator, golden_fault_config, \
    golden_integrity_config, golden_serve_config
from repro.telemetry import render_attribution, render_spans_report

pytestmark = pytest.mark.scale

CONFIGS = {
    "serve": golden_serve_config,
    "faults": golden_fault_config,
    "integrity": golden_integrity_config,
}
ENGINES = ("scalar", "vectorized")


def _pair(name, engine):
    serve = dataclasses.replace(CONFIGS[name](), engine=engine)
    return ServingSimulator(serve), ScaleSimulator(ScaleConfig(serve=serve))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_bit_identical(name, engine):
    static, wrapped = _pair(name, engine)
    assert wrapped.run() == static.run()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_events_bit_identical(name, engine):
    static, wrapped = _pair(name, engine)
    with collecting() as expected:
        static.run()
    with collecting() as actual:
        wrapped.run()
    assert len(actual.events) == len(expected.events) > 0
    assert actual.events == expected.events


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_telemetry_bit_identical(name, engine):
    static, wrapped = _pair(name, engine)
    expected_report, expected = static.run_with_telemetry()
    actual_report, actual = wrapped.run_with_telemetry()
    assert actual_report == expected_report
    assert actual.traces == expected.traces
    assert actual.critical_paths == expected.critical_paths

    def spans_text(telemetry):
        return (render_spans_report(telemetry.traces, limit=8)
                + "\n\n"
                + render_attribution(telemetry.critical_paths,
                                     DEFAULT_PARAMS.clock_hz)
                + "\n")

    assert spans_text(actual) == spans_text(expected)
    assert actual.registry.expose() == expected.registry.expose()


# ---------------------------------------------------------------------------
# Elastic scalar-vs-vectorized engine invariance.

def _sdc_autoscale_config():
    """Elastic run with SDC upsets + ABFT but no outages or stalls."""
    base = golden_autoscale_config()
    serve = dataclasses.replace(
        base.serve,
        faults=FaultPlan(bit_flips=(
            BitFlipFault(shard_id=0, t_s=0.080, target="vr", vr=2,
                         bit=7, element=96),
            BitFlipFault(shard_id=1, t_s=0.140, target="vr", vr=6,
                         bit=13, element=1024),
        )),
        retry=RetryPolicy(timeout_s=0.012, max_retries=2,
                          backoff_base_s=1e-3, backoff_cap_s=8e-3),
        integrity=IntegrityConfig(enabled=True, max_recomputes=3,
                                  scrub_interval_s=0.050, scrub_vrs=8),
    )
    return dataclasses.replace(base, serve=serve)


ELASTIC_CONFIGS = {
    "plain": golden_autoscale_config,
    "faults": golden_autoscale_fault_config,
    "sdc": _sdc_autoscale_config,
}


def _elastic_pair(name):
    base = ELASTIC_CONFIGS[name]()
    return tuple(
        ScaleSimulator(dataclasses.replace(
            base, serve=dataclasses.replace(base.serve, engine=engine)))
        for engine in ENGINES)


@pytest.mark.parametrize("name", sorted(ELASTIC_CONFIGS))
def test_elastic_reports_engine_invariant(name):
    scalar, vector = _elastic_pair(name)
    expected = scalar.run()
    actual = vector.run()
    for field in dataclasses.fields(expected):
        if field.name == "config":  # differs only in the engine flag
            continue
        assert getattr(actual, field.name) \
            == getattr(expected, field.name), field.name
    # The raw schedule artifacts behind the report too: every record,
    # batch attempt, fault-log entry, and death time.
    assert scalar._last_run.result == vector._last_run.result


@pytest.mark.parametrize("name", sorted(ELASTIC_CONFIGS))
def test_elastic_trace_events_engine_invariant(name):
    scalar, vector = _elastic_pair(name)
    with collecting() as expected:
        scalar.run()
    with collecting() as actual:
        vector.run()
    assert len(actual.events) == len(expected.events) > 0
    assert actual.events == expected.events


@pytest.mark.parametrize("name", sorted(ELASTIC_CONFIGS))
def test_elastic_telemetry_engine_invariant(name):
    scalar, vector = _elastic_pair(name)
    _, expected = scalar.run_with_telemetry()
    _, actual = vector.run_with_telemetry()
    assert actual.traces == expected.traces
    assert actual.critical_paths == expected.critical_paths
    assert actual.registry.expose() == expected.registry.expose()
