"""Deterministic metrics: counters, gauges, exact histograms, SLO burn.

A :class:`MetricsRegistry` is the run-scoped sink the telemetry
pipeline populates.  Everything is exact and bit-deterministic -- the
simulators are seeded discrete-event models, so metrics are model
outputs, not samples -- which lets the Prometheus exposition be pinned
as a golden file.

Bucket counts live in one place, :class:`QuantileSketch`: fixed
boundaries and an exact quantile rule chosen to agree with
:func:`repro.serve.metrics.nearest_rank_percentile` --
``quantile(p)`` returns the smallest bucket boundary at or above the
nearest-rank p-th percentile of the observed samples (``inf`` when it
falls in the overflow bucket).  That is the tightest statement a
fixed-boundary histogram can make, and the property suite pins it.
A registry :class:`Histogram` is one sketch plus a float sum per label
set, and the monitor's streaming TTI quantiles read the same class.
Counters and gauges reject NaN (and counters reject ``inf``), so a NaN
never reaches an exposition line.

SLO **burn rate** follows the SRE convention: over a window, the
fraction of requests violating the SLO divided by the error budget
(``1 - target``).  A burn rate of 1 means the deployment spends budget
exactly as fast as it accrues; above 1 it is burning toward violation.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, \
    Tuple, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistrationError",
    "MetricsRegistry",
    "QuantileSketch",
    "SketchError",
    "BurnWindow",
    "slo_burn_windows",
    "DEFAULT_LATENCY_BOUNDS_S",
]

#: Fixed latency-histogram boundaries (seconds): 1-2-5 ladder from
#: 100 us to 5 s, wide enough for every paper corpus and fault plan.
DEFAULT_LATENCY_BOUNDS_S = (
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1, 1.0, 2.0, 5.0,
)

_T = TypeVar("_T")

#: Canonical label-set key: sorted (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt_value(value: float) -> str:
    """Deterministic exposition formatting (ints bare, floats repr)."""
    if isinstance(value, bool):  # pragma: no cover - never stored
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class _Metric:
    """Shared name/help plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text

    def header_lines(self) -> List[str]:
        return [f"# HELP {self.name} {self.help_text}",
                f"# TYPE {self.name} {self.kind}"]


class Counter(_Metric):
    """Monotonically accumulated totals, keyed by label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._samples: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: str) -> None:
        if not math.isfinite(value):
            raise ValueError(f"counter {self.name}: increment must be "
                             f"finite, got {value!r}")
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {value!r})")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + value

    def value(self, **labels: str) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    def expose_lines(self) -> List[str]:
        lines = self.header_lines()
        for key in sorted(self._samples):
            lines.append(f"{self.name}{_fmt_labels(key)} "
                         f"{_fmt_value(self._samples[key])}")
        return lines

    def snapshot(self) -> List[Dict[str, object]]:
        return [{"labels": dict(key), "value": self._samples[key]}
                for key in sorted(self._samples)]


class Gauge(_Metric):
    """Last-written point-in-time values, keyed by label set."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._samples: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        if math.isnan(value):
            raise ValueError(f"gauge {self.name}: cannot set NaN")
        self._samples[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> Optional[float]:
        return self._samples.get(_label_key(labels))

    def expose_lines(self) -> List[str]:
        lines = self.header_lines()
        for key in sorted(self._samples):
            lines.append(f"{self.name}{_fmt_labels(key)} "
                         f"{_fmt_value(self._samples[key])}")
        return lines

    def snapshot(self) -> List[Dict[str, object]]:
        return [{"labels": dict(key), "value": self._samples[key]}
                for key in sorted(self._samples)]


class SketchError(ValueError):
    """Raised for invalid sketch construction or queries."""


class QuantileSketch:
    """Fixed-boundary bucket counts with nearest-rank quantiles.

    ``boundaries`` must be strictly increasing and finite.  A sample
    ``v`` lands in the first bucket whose boundary is ``>= v``; samples
    above the last boundary land in the overflow bucket, for which
    :meth:`quantile` answers ``inf`` (the exposition's ``+Inf``
    bucket).  The state is nothing but integer counts, so it is
    bit-deterministic whatever order the samples arrive in.
    """

    __slots__ = ("boundaries", "counts")

    def __init__(self,
                 boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S
                 ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise SketchError("sketch needs at least one boundary")
        for b in bounds:
            if not math.isfinite(b):
                raise SketchError(f"non-finite boundary {b!r}")
        for lo, hi in zip(bounds, bounds[1:]):
            if not lo < hi:
                raise SketchError(
                    f"boundaries must be strictly increasing, "
                    f"got {lo!r} >= {hi!r}")
        self.boundaries: Tuple[float, ...] = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one sample."""
        if math.isnan(value):
            raise SketchError("cannot observe NaN")
        # First bucket whose boundary is >= value; bisect_left on the
        # sorted ladder finds it, and len(boundaries) is the overflow.
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1

    def observe_many(self, values: Sequence[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        return sum(self.counts)

    def quantile(self, pct: float) -> float:
        """Smallest boundary covering the nearest-rank percentile."""
        return self.quantiles((pct,))[0]

    def quantiles(self, percentiles: Sequence[float]) -> List[float]:
        """Every ascending percentile's answer in one cumulative pass.

        Rank ``max(1, ceil(pct/100 * count))``, answered by the first
        boundary whose cumulative count reaches it; ``inf`` when the
        rank falls in the overflow bucket.
        """
        for pct in percentiles:
            if not 0.0 < pct <= 100.0:
                raise SketchError(f"percentile out of range: {pct!r}")
        if list(percentiles) != sorted(percentiles):
            raise SketchError(
                f"percentiles must be ascending, got {percentiles!r}")
        total = self.count
        if total == 0:
            raise SketchError("quantile of empty sketch")
        ranks = [max(1, math.ceil(pct / 100.0 * total))
                 for pct in percentiles]
        values: List[float] = []
        cumulative = 0
        for bound, n in zip(self.boundaries + (math.inf,), self.counts):
            cumulative += n
            while len(values) < len(ranks) \
                    and cumulative >= ranks[len(values)]:
                values.append(bound)
        return values


class Histogram(_Metric):
    """Exact fixed-boundary histogram: one sketch and sum per label set."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S):
        super().__init__(name, help_text)
        self.boundaries = self._named(QuantileSketch, boundaries).boundaries
        self._sketches: Dict[LabelKey, QuantileSketch] = {}
        self._sums: Dict[LabelKey, float] = {}

    def _named(self, call: Callable[..., _T], *args: Any) -> _T:
        """``call(*args)``, with any sketch error naming this metric."""
        try:
            return call(*args)
        except SketchError as exc:
            raise SketchError(f"histogram {self.name}: {exc}") from None

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = QuantileSketch(self.boundaries)
        self._named(sketch.observe, value)
        self._sketches[key] = sketch
        self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels: str) -> int:
        sketch = self._sketches.get(_label_key(labels))
        return 0 if sketch is None else sketch.count

    def quantile(self, pct: float, **labels: str) -> float:
        """Smallest boundary at/above the nearest-rank percentile.

        ``inf`` when the rank falls in the overflow bucket; raises on
        an empty series, matching ``nearest_rank_percentile``.
        """
        sketch = self._sketches.get(_label_key(labels))
        if sketch is None:
            sketch = QuantileSketch(self.boundaries)
        return self._named(sketch.quantile, pct)

    def expose_lines(self) -> List[str]:
        lines = self.header_lines()
        for key in sorted(self._sketches):
            counts = self._sketches[key].counts
            cumulative = 0
            for bound, n in zip(self.boundaries, counts):
                cumulative += n
                le_key = key + (("le", _fmt_value(bound)),)
                lines.append(f"{self.name}_bucket{_fmt_labels(le_key)} "
                             f"{cumulative}")
            total = cumulative + counts[-1]
            inf_key = key + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_fmt_labels(inf_key)} "
                         f"{total}")
            lines.append(f"{self.name}_sum{_fmt_labels(key)} "
                         f"{_fmt_value(self._sums[key])}")
            lines.append(f"{self.name}_count{_fmt_labels(key)} {total}")
        return lines

    def snapshot(self) -> List[Dict[str, object]]:
        rows = []
        for key in sorted(self._sketches):
            sketch = self._sketches[key]
            rows.append({
                "labels": dict(key),
                "buckets": dict(zip(
                    [_fmt_value(b) for b in self.boundaries] + ["+Inf"],
                    sketch.counts)),
                "sum": self._sums[key],
                "count": sketch.count,
            })
        return rows


class MetricRegistrationError(ValueError):
    """A metric name was re-registered with conflicting identity.

    Raised when one registry sees the same name twice with a different
    metric kind **or a different non-empty help text**: two call sites
    silently sharing one counter under divergent descriptions is a
    telemetry bug, not a merge.  Re-registering with identical kind and
    help returns the existing metric; an empty help makes no claim (it
    is a plain lookup, and the first non-empty help backfills it).
    """


class MetricsRegistry:
    """Ordered collection of metrics with text + JSON exposition."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise MetricRegistrationError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}")
            if metric.help_text and existing.help_text \
                    and existing.help_text != metric.help_text:
                raise MetricRegistrationError(
                    f"metric {metric.name!r} already registered with "
                    f"help {existing.help_text!r}, re-registered with "
                    f"{metric.help_text!r}")
            if metric.help_text and not existing.help_text:
                existing.help_text = metric.help_text
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._register(Counter(name, help_text))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._register(Gauge(name, help_text))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help_text: str = "",
                  boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S,
                  ) -> Histogram:
        metric = self._register(Histogram(name, help_text, boundaries))
        assert isinstance(metric, Histogram)
        return metric

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def expose(self) -> str:
        """Prometheus text exposition format (deterministic order)."""
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.expose_lines())  # type: ignore[attr-defined]
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dict of every metric's samples."""
        return {
            name: {"kind": metric.kind,
                   "help": metric.help_text,
                   "samples": metric.snapshot()}  # type: ignore[attr-defined]
            for name, metric in self._metrics.items()
        }

    def snapshot_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)


@dataclass(frozen=True)
class BurnWindow:
    """SLO error-budget burn over one fixed window of simulated time."""

    index: int
    start_s: float
    end_s: float
    n_requests: int
    n_violations: int

    def error_rate(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.n_violations / self.n_requests

    def burn_rate(self, budget: float) -> float:
        """Error rate over budget (1.0 = burning exactly at budget)."""
        if budget <= 0:
            raise ValueError(f"error budget must be positive, "
                             f"got {budget!r}")
        return self.error_rate() / budget


def slo_burn_windows(arrivals_s: Sequence[float],
                     latencies_s: Sequence[float],
                     slo_s: float,
                     horizon_s: float,
                     n_windows: int = 4) -> List[BurnWindow]:
    """Partition the run into fixed windows and count SLO violations.

    Requests are assigned to windows by *arrival* time (the offered
    load is what burns budget).  A zero-length horizon degenerates to
    one window holding every request.
    """
    if len(arrivals_s) != len(latencies_s):
        raise ValueError("arrival/latency length mismatch")
    if not (math.isfinite(slo_s) and slo_s > 0):
        raise ValueError(
            f"slo_s (the SLO) must be finite and positive, got {slo_s!r}")
    if n_windows < 1:
        raise ValueError(f"need at least one window, got {n_windows!r}")
    if not (math.isfinite(horizon_s) and horizon_s >= 0):
        raise ValueError(
            f"horizon_s must be finite and >= 0, got {horizon_s!r}")
    if horizon_s == 0:
        windows = [BurnWindow(
            index=0, start_s=0.0, end_s=0.0,
            n_requests=len(arrivals_s),
            n_violations=sum(1 for lat in latencies_s if lat > slo_s))]
        return windows
    width = horizon_s / n_windows
    counts = [0] * n_windows
    violations = [0] * n_windows
    for arrival, latency in zip(arrivals_s, latencies_s):
        index = min(n_windows - 1, max(0, int(arrival / width)))
        counts[index] += 1
        if latency > slo_s:
            violations[index] += 1
    return [BurnWindow(index=i, start_s=i * width, end_s=(i + 1) * width,
                       n_requests=counts[i], n_violations=violations[i])
            for i in range(n_windows)]
