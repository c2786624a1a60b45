"""Unit pins for the fixed-boundary quantile sketch."""

import math

import pytest

from repro.monitor import QuantileSketch, SketchError


def test_empty_sketch_state():
    s = QuantileSketch()
    assert s.count == 0
    with pytest.raises(SketchError):
        s.quantile(50.0)


def test_observe_buckets_first_boundary_at_or_above():
    s = QuantileSketch(boundaries=(1.0, 2.0, 5.0))
    s.observe(0.5)   # <= 1.0
    s.observe(1.0)   # boundary hit: still the 1.0 bucket
    s.observe(1.5)   # <= 2.0
    s.observe(7.0)   # overflow
    assert s.counts == [2, 1, 0, 1]
    assert s.count == 4


def test_observe_nan_raises():
    with pytest.raises(SketchError):
        QuantileSketch().observe(float("nan"))


def test_quantile_nearest_rank_rule():
    s = QuantileSketch(boundaries=(1.0, 2.0, 5.0))
    s.observe_many([0.5, 1.5, 1.6, 4.0])
    assert s.quantile(25.0) == 1.0   # rank 1
    assert s.quantile(50.0) == 2.0   # rank 2
    assert s.quantile(75.0) == 2.0   # rank 3
    assert s.quantile(100.0) == 5.0  # rank 4


def test_quantile_overflow_is_inf():
    s = QuantileSketch(boundaries=(1.0,))
    s.observe(10.0)
    assert s.quantile(50.0) == math.inf


def test_quantile_out_of_range():
    s = QuantileSketch()
    s.observe(0.001)
    for pct in (0.0, -1.0, 100.5):
        with pytest.raises(SketchError):
            s.quantile(pct)


def test_construction_validation():
    with pytest.raises(SketchError):
        QuantileSketch(boundaries=())
    with pytest.raises(SketchError):
        QuantileSketch(boundaries=(1.0, 1.0))
    with pytest.raises(SketchError):
        QuantileSketch(boundaries=(2.0, 1.0))
    with pytest.raises(SketchError):
        QuantileSketch(boundaries=(math.inf,))


def test_quantiles_answers_every_percentile_in_one_pass():
    s = QuantileSketch(boundaries=(1.0, 2.0, 5.0))
    s.observe_many([0.5, 1.5, 1.6, 4.0, 9.0])
    pcts = (20.0, 50.0, 80.0, 100.0)
    assert s.quantiles(pcts) == [s.quantile(p) for p in pcts]
    assert s.quantiles(pcts) == [1.0, 2.0, 5.0, math.inf]
    with pytest.raises(SketchError, match="ascending"):
        s.quantiles((99.0, 50.0))
