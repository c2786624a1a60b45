"""Integrity-layer configuration and calibrated cycle costs.

:class:`IntegrityConfig` selects which defenses run and how hard they
retry; :class:`IntegrityCostModel` prices them.  The checksum and parity
costs are not hand-waved constants: calibration *executes the real GVML
checker sequences* on a throwaway timing-only core and reads the charged
cycles back out of its :class:`~repro.core.estimator.LatencyEstimator`,
so protection overhead inherits the Table 4/5 cost model (including the
simulator-only VCU issue overhead) automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..apu.core import APUCore
from ..core.params import APUParams, DEFAULT_PARAMS
from ..obs import collector as _trace_collector

__all__ = ["CRC_BYTES_PER_CYCLE", "IntegrityConfig", "IntegrityCostModel",
           "get_cost_model"]

#: Throughput of the modeled descriptor-side CRC engine.  A hardware
#: CRC-16 folds several bytes per clock; 4 bytes/cycle keeps the check
#: well under the DMA transfer cost it guards.
CRC_BYTES_PER_CYCLE = 4.0


@dataclass(frozen=True)
class IntegrityConfig:
    """What the integrity layer does and how persistent it is.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled (the default) must leave every code
        path bit-identical to the unprotected build -- the zero-flip
        identity property test pins this.
    max_recomputes:
        Bounded-retry budget per checked unit of work (one MAC block,
        one top-k extraction, one checked DMA).  Exhausting it raises
        :class:`~repro.integrity.abft.IntegrityError` -- the signal that
        a fault is persistent and the shard needs failover, not retry.
    scrub_interval_s:
        Period of the background scrub pass over resident VMR slots;
        ``0.0`` disables scrubbing.  The pass costs
        :meth:`IntegrityCostModel.scrub_pass_cycles` each time and is
        charged as serving-capacity overhead.
    scrub_vrs:
        Number of resident vectors each scrub pass re-checksums.
    """

    enabled: bool = False
    max_recomputes: int = 3
    scrub_interval_s: float = 0.0
    scrub_vrs: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError(f"enabled must be a bool, got {self.enabled!r}")
        if not isinstance(self.max_recomputes, int) \
                or isinstance(self.max_recomputes, bool) \
                or self.max_recomputes < 1:
            raise ValueError(
                f"max_recomputes must be an integer >= 1, "
                f"got {self.max_recomputes!r}")
        if not isinstance(self.scrub_interval_s, (int, float)) \
                or isinstance(self.scrub_interval_s, bool) \
                or not 0.0 <= self.scrub_interval_s < math.inf:
            raise ValueError(
                f"scrub_interval_s must be a finite number >= 0 "
                f"(0 disables scrubbing), got {self.scrub_interval_s!r}")
        if not isinstance(self.scrub_vrs, int) \
                or isinstance(self.scrub_vrs, bool) or self.scrub_vrs < 1:
            raise ValueError(
                f"scrub_vrs must be an integer >= 1, got {self.scrub_vrs!r}")
        # The device exposes VRs 0..23 (the same bound BitFlipFault
        # enforces on its ``vr`` field); a scrub pass cannot re-checksum
        # more registers than exist.
        if self.scrub_vrs > 24:
            raise ValueError(
                f"scrub_vrs must be at most the 24 architectural VRs, "
                f"got {self.scrub_vrs!r}")

    @property
    def scrubbing(self) -> bool:
        """Whether the periodic scrub pass is active."""
        return self.enabled and self.scrub_interval_s > 0.0


class IntegrityCostModel:
    """Cycle prices for the integrity machinery, under ``params``.

    Construction runs each checker sequence once on a private
    timing-only :class:`~repro.apu.core.APUCore` (no functional data, no
    trace collector) and records the charged cycles.
    """

    def __init__(self, params: APUParams = DEFAULT_PARAMS):
        self.params = params
        previous = _trace_collector.set_collector(None)
        try:
            core = APUCore(params, functional=False)
            g = core.gvml
            # Modular column checksum: one full-VR staged add reduction
            # plus the serial FIFO read of the resulting scalar.
            g.add_subgrp_s16(1, 0, params.vr_length, 1)
            g.get_element(1, 0)
            self.checksum_cycles = core.trace.total_cycles
            # Parity ladder: log2(length) shift/xor folding stages.
            core.reset_trace()
            g.cpy_16(1, 0)
            span = params.vr_length // 2
            while span >= 1:
                g.cpy_16(2, 1)
                g.shift_e(2, span, toward="head")
                g.xor_16(1, 1, 2)
                span //= 2
            g.get_element(1, 0)
            self.parity_cycles = core.trace.total_cycles
        finally:
            _trace_collector.set_collector(previous)

    def crc_cycles(self, nbytes: int) -> float:
        """Descriptor-side CRC-16 over an ``nbytes`` DMA payload."""
        return float(nbytes) / CRC_BYTES_PER_CYCLE

    def scrub_pass_cycles(self, scrub_vrs: int) -> float:
        """One background scrub sweep over ``scrub_vrs`` resident slots."""
        return scrub_vrs * self.crc_cycles(self.params.vr_bytes)

    def scrub_pass_seconds(self, scrub_vrs: int) -> float:
        """Scrub sweep cost in seconds at the core clock."""
        return self.scrub_pass_cycles(scrub_vrs) / self.params.clock_hz

    def checksum_seconds(self) -> float:
        """Column-checksum verification cost in seconds."""
        return self.checksum_cycles / self.params.clock_hz


_COST_MODELS: Dict[int, IntegrityCostModel] = {}


def get_cost_model(params: APUParams = DEFAULT_PARAMS) -> IntegrityCostModel:
    """Memoized :class:`IntegrityCostModel` for a parameter bundle.

    Calibration runs real (timing-only) GVML sequences, so it is cheap
    but not free; per-``params`` caching keeps checker helpers on hot
    paths from re-calibrating every call.
    """
    model = _COST_MODELS.get(id(params))
    if model is None or model.params is not params:
        model = IntegrityCostModel(params)
        _COST_MODELS[id(params)] = model
    return model
