"""The tracer's rebinding, span bookkeeping and self-time arithmetic."""

import pytest

import repro.scale.simulator as scale_simulator
import repro.serve as serve
import repro.serve.workload as serve_workload
from tracer import (CALL_ID, NAME, PARENT, Rebinder, SpanTable, Tracer,
                    delay_wrapper, self_times)


def _tag(original):
    def tagged(*args, **kwargs):
        return ("tagged", original(*args, **kwargs))
    return tagged


def test_function_rebound_in_every_importing_module_and_restored():
    original = serve_workload.spike_arrival_times
    assert scale_simulator.spike_arrival_times is original
    rebinder = Rebinder()
    rebinder.wrap("repro.serve.workload:spike_arrival_times", _tag)
    try:
        for module in (serve_workload, serve, scale_simulator):
            assert module.spike_arrival_times is not original
            assert module.spike_arrival_times(10.0, 4, 0)[0] == "tagged"
    finally:
        rebinder.undo()
    for module in (serve_workload, serve, scale_simulator):
        assert module.spike_arrival_times is original


def test_method_rebound_on_its_class_and_restored():
    cls = serve.ServingSimulator
    original = cls.__dict__["run"]
    rebinder = Rebinder()
    rebinder.wrap("repro.serve.simulator:ServingSimulator.run", _tag)
    try:
        assert cls.__dict__["run"] is not original
    finally:
        rebinder.undo()
    assert cls.__dict__["run"] is original


def test_inherited_method_is_refused():
    with pytest.raises(LookupError):
        Rebinder().wrap(
            "repro.phoenix.histogram:Histogram.run_functional", _tag)


def test_tracer_records_nested_spans_with_parents():
    tracer = Tracer({
        "repro.serve.workload:poisson_arrivals": "serve.workload",
        "repro.serve.workload:poisson_arrival_times": "serve.workload",
    })
    tracer.install()
    try:
        requests = serve.poisson_arrivals(100.0, 8, 0)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    assert len(requests) == 8
    assert [s[NAME] for s in spans] == ["poisson_arrivals",
                                        "poisson_arrival_times"]
    outer, inner = spans
    assert outer[PARENT] == -1 and inner[PARENT] == outer[CALL_ID]
    table = SpanTable(spans)
    assert table.inclusive(["poisson_arrivals", "poisson_arrival_times"]) \
        == pytest.approx(outer[3] - outer[2])
    assert sum(table.by_layer().values()) \
        == pytest.approx(outer[3] - outer[2])
    assert serve.poisson_arrivals(100.0, 8, 0) == requests
    assert tracer.take() == []


def test_self_time_subtracts_direct_children_only():
    spans = [("a", "x", 0.0, 10.0, -1, 0), ("b", "y", 1.0, 4.0, 0, 1),
             ("c", "y", 2.0, 3.0, 1, 2), ("d", "x", 5.0, 9.0, 0, 3)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = SpanTable(spans)
    assert table.inclusive(["b", "c"]) == 3.0
    assert table.layer_self(["y"]) == 3.0
    assert table.by_layer() == {"x": 7.0, "y": 3.0}


def test_delay_wrapper_sleeps_then_calls(monkeypatch):
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    wrapped = delay_wrapper(0.25)(lambda x: x + 1)
    assert wrapped(1) == 2 and slept == [0.25]
