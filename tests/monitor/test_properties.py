"""Property suite: monitor invariants under randomized inputs.

Three laws, checked with Hypothesis:

1. **Rank-error bound.**  A sketch quantile differs from the exact
   ``nearest_rank_percentile`` of the raw sample by at most one bucket:
   the reported boundary is the smallest boundary at or above the true
   percentile.
2. **Hash-seed determinism.**  The sketch state and the monitor
   exposition are byte-identical across processes with different
   ``PYTHONHASHSEED`` values -- nothing leaks iteration order.
3. **Cycle conservation.**  Monitor series are a lossless projection
   of the span record: windowed qps rows sum back to the completion
   count and the stage attribution in a run bundle sums to the
   telemetry's critical-path totals.
"""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import QuantileSketch, bundle_from_run
from repro.serve.metrics import nearest_rank_percentile
from repro.serve.simulator import ServingSimulator, golden_serve_config
from repro.telemetry.critical import stage_attribution

pytestmark = [pytest.mark.slow, pytest.mark.monitor]

finite_values = st.floats(min_value=1e-6, max_value=1e4,
                          allow_nan=False, allow_infinity=False)
samples = st.lists(finite_values, min_size=1, max_size=64)


def _sketch(values):
    s = QuantileSketch()
    s.observe_many(values)
    return s


@given(values=samples,
       pct=st.floats(min_value=0.001, max_value=100.0,
                     allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_sketch_quantile_within_one_bucket_of_exact(values, pct):
    """The sketch answer is the tightest boundary >= the true percentile."""
    sketch = _sketch(values)
    exact = nearest_rank_percentile(values, pct)
    got = sketch.quantile(pct)
    assert got >= exact or math.isinf(got)
    # tightness: no smaller boundary also dominates the exact value
    smaller = [b for b in sketch.boundaries if b < got]
    if smaller and not math.isinf(got):
        assert smaller[-1] < exact or smaller[-1] < got


_HASHSEED_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.monitor import QuantileSketch, openmetrics_text
from repro.serve.simulator import ServingSimulator, golden_serve_config

s = QuantileSketch()
s.observe_many([1.3e-4, 0.07, 0.07, 2.5, 9000.0])
_r, _t, monitor = ServingSimulator(golden_serve_config()).run_with_monitor()
sys.stdout.write(repr((s.counts, s.quantiles((50.0, 99.0)))) + "\\n")
sys.stdout.write(str(len(openmetrics_text(monitor))) + "\\n")
sys.stdout.write(monitor.get("repro_monitor_qps").final().hex() + "\\n")
"""


def test_digest_and_exposition_stable_across_hash_seeds():
    """Satellite pin: bit-determinism across PYTHONHASHSEED / processes."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    src = os.path.abspath(src)
    outputs = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET.format(src=src)],
            capture_output=True, text=True, env=env, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, "output varies with PYTHONHASHSEED"


def test_sampler_conserves_span_record():
    """Series rows sum back to the span trees they were derived from."""
    report, telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()

    completed = monitor.get("repro_monitor_completed_total")
    assert completed.final() == float(len(telemetry.critical_paths))

    qps = monitor.get("repro_monitor_qps")
    recovered = sum(v * monitor.cadence_s for _, v in qps.points)
    assert recovered == pytest.approx(report.n_completed, rel=1e-9)

    bundle = bundle_from_run("serve", report, telemetry, monitor)
    expected = stage_attribution(telemetry.critical_paths)
    assert dict(bundle.stage_totals) == expected
    # every critical path fully decomposes into those stages
    total = sum(expected.values())
    per_path = sum(p.total_s for p in telemetry.critical_paths)
    assert total == pytest.approx(per_path, rel=1e-6)
