"""Batch service cost of one corpus slice, anchored at Table 8.

:class:`SliceCostModel` prices one dynamic batch on a device holding a
``chunk_count``-chunk slice of the corpus.  ``service_seconds(c, 1)``
is exactly the single-device latency of that slice
(``APURetriever.latency_breakdown(...).total``); each extra query adds
the :class:`~repro.rag.batching.BatchedAPURetrieval` amortized
per-query increment (query staging + MAC chain + top-k + return, the
embedding stream shared).

The protection taxes layer on top of the anchored times:

* an enabled ``integrity`` config charges each query the calibrated
  column-checksum verification of its slice's MAC blocks plus the top-k
  result check, and an active scrub schedule stretches service by its
  duty factor (the device spends that fraction of its time
  re-checksumming resident vectors instead of serving);
* an enabled ``ecc`` config inflates every protected byte by the
  codec's ``n/k`` check-bit overhead (applied to the slice footprint at
  anchor time, so the HBM embedding stream and the per-batch DMA both
  pay it) and charges each query the memory-interface encode of its
  staged vector plus the decode of its top-k readout.  The in-SRAM scan
  itself reads raw bits; only traffic crossing the memory interface is
  coded.

Everything is a pure function of ``(chunk count, batch size)`` and the
configuration, memoised per key, so the static shard model and the
elastic device pool price through one instance each and the event
loops pay a dict probe per dispatch.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Tuple

from ..core.params import APUParams, DEFAULT_PARAMS
from ..ecc import ECCConfig, ECCCostModel, make_codec
from ..integrity.config import IntegrityConfig, get_cost_model
from ..obs import collector as _trace_collector
from ..rag.batching import BatchedAPURetrieval
from ..rag.corpus import CorpusSpec
from ..rag.retrieval import APURetriever, RetrievalBreakdown

__all__ = ["SliceCostModel"]

#: One batch's Table 8 stage decomposition: ``(stage, seconds)`` pairs.
Stages = Tuple[Tuple[str, float], ...]


class SliceCostModel:
    """Memoised per-slice batch costs for one serving configuration."""

    def __init__(self, spec: CorpusSpec, k: int = 5,
                 params: APUParams = DEFAULT_PARAMS,
                 integrity: Optional[IntegrityConfig] = None,
                 ecc: Optional[ECCConfig] = None):
        self.spec = spec
        self.k = k
        self.params = params
        self.integrity = integrity if integrity is not None \
            else IntegrityConfig()
        self.ecc = ecc if ecc is not None else ECCConfig()
        self._costs = get_cost_model(params) if self.integrity.enabled \
            else None
        #: Codec timing model, ``None`` with ECC off.
        self.ecc_costs = (ECCCostModel(make_codec(self.ecc),
                                       params.clock_hz)
                          if self.ecc.enabled else None)
        self._retriever = APURetriever(optimized=True, params=params)
        self._batched = BatchedAPURetrieval(params)
        #: chunk count -> (single, increment, breakdown) anchor.
        self._anchors: Dict[
            int, Tuple[float, float, RetrievalBreakdown]] = {}
        self._service: Dict[Tuple[int, int], float] = {}
        self._stages: Dict[Tuple[int, int], Stages] = {}

    def embedding_bytes(self, chunk_count: int) -> int:
        """Resident embedding bytes of a ``chunk_count`` slice."""
        return int(chunk_count * self.spec.dim * self.spec.bytes_per_value)

    def _anchor(self, chunk_count: int
                ) -> Tuple[float, float, RetrievalBreakdown]:
        """(single-query latency, per-query increment, stage breakdown).

        With ECC enabled the anchor runs against a check-bit-inflated
        slice: every resident embedding byte and every corpus byte grows
        by the codec's ``n/k``, so the per-batch DMA and the effective
        capacity carry the storage tax on every slice size.
        """
        anchor = self._anchors.get(chunk_count)
        if anchor is None:
            if chunk_count < 1:
                raise ValueError(
                    f"chunk_count must be >= 1, got {chunk_count!r}; a "
                    f"serving device always holds a non-empty slice")
            factor = 1.0 if self.ecc_costs is None \
                else self.ecc_costs.storage_factor
            slice_spec = CorpusSpec(
                label=f"{self.spec.label}/slice{chunk_count}",
                corpus_bytes=self.spec.corpus_bytes * chunk_count
                / max(1, self.spec.n_chunks) * factor,
                n_chunks=chunk_count,
                dim=self.spec.dim,
                bytes_per_value=self.spec.bytes_per_value,
            )
            # Calibration replays the closed-form breakdowns; those are
            # not part of the simulated serving timeline, so keep their
            # HBM/DMA events out of any active trace collector.
            previous = _trace_collector.set_collector(None)
            try:
                breakdown = self._retriever.latency_breakdown(
                    slice_spec, self.k)
                pair = [self._batched.batch_latency(slice_spec, b, self.k)
                        .batch_seconds for b in (1, 2)]
            finally:
                _trace_collector.set_collector(previous)
            anchor = (breakdown.total, pair[1] - pair[0], breakdown)
            self._anchors[chunk_count] = anchor
        return anchor

    def verify_seconds(self, chunk_count: int) -> float:
        """Per-query ABFT verification cost over a ``chunk_count`` slice.

        One column-checksum check per resident MAC block (a block spans
        ``vr_length`` chunks on each of the cores) plus the top-k result
        comparison, all from the calibrated cost model.
        """
        if self._costs is None:
            return 0.0
        per_core = self.params.vr_length * self.params.num_cores
        blocks = -(-max(1, chunk_count) // per_core)
        topk_check = self._costs.crc_cycles(4 * self.k) / self.params.clock_hz
        return blocks * self._costs.checksum_seconds() + topk_check

    @cached_property
    def scrub_duty_factor(self) -> float:
        """Service-time stretch from the background scrub schedule."""
        if self._costs is None or not self.integrity.scrubbing:
            return 1.0
        scrub = self._costs.scrub_pass_seconds(self.integrity.scrub_vrs)
        return 1.0 + scrub / self.integrity.scrub_interval_s

    def ecc_seconds(self, batch_size: int) -> float:
        """Per-batch ECC codec time at the memory interface.

        Each query pays the encode of its staged embedding (written
        into protected VRs) plus the decode/correction pass over its
        4-byte-per-entry top-k readout.  The resident corpus stream is
        *not* re-decoded per scan -- its protection cost is the storage
        inflation charged at anchor time.
        """
        if self.ecc_costs is None:
            return 0.0
        query_bytes = float(self.spec.dim * self.spec.bytes_per_value)
        topk_bytes = 4.0 * self.k
        per_query = (self.ecc_costs.encode_seconds(query_bytes)
                     + self.ecc_costs.decode_seconds(topk_bytes))
        return batch_size * per_query

    def service_seconds(self, chunk_count: int, batch_size: int) -> float:
        """One batch's service time on a ``chunk_count`` slice."""
        key = (chunk_count, batch_size)
        cost = self._service.get(key)
        if cost is None:
            single, increment, _ = self._anchor(chunk_count)
            cost = single + (batch_size - 1) * increment
            if self.ecc_costs is not None:
                cost += self.ecc_seconds(batch_size)
            if self._costs is not None:
                cost += batch_size * self.verify_seconds(chunk_count)
                cost *= self.scrub_duty_factor
            self._service[key] = cost
        return cost

    def stage_seconds(self, chunk_count: int, batch_size: int) -> Stages:
        """Decompose one batch's service time into Table 8 stages.

        The anchored single-query breakdown sets the stage *fractions*
        and the anchored batch time sets the total: ``dma`` (embedding +
        query staging), ``mac``, and ``topk`` scale by their share of
        the single-query latency, ``return`` takes the remainder of the
        un-protected base, then the protection taxes land explicitly as
        ``ecc`` (per-query codec time at the memory interface),
        ``checksum`` (per-query ABFT verification) and ``scrub`` (duty-
        cycle stretch).
        """
        key = (chunk_count, batch_size)
        stages = self._stages.get(key)
        if stages is not None:
            return stages
        single, increment, breakdown = self._anchor(chunk_count)
        base = single + (batch_size - 1) * increment
        scale = base / breakdown.total
        dma = (breakdown.load_embedding + breakdown.load_query) * scale
        mac = breakdown.calc_distance * scale
        topk = breakdown.topk_aggregation * scale
        ret = base - ((dma + mac) + topk)
        parts = [("dma", dma), ("mac", mac), ("topk", topk),
                 ("return", ret)]
        if self.ecc_costs is not None:
            parts.append(("ecc", self.ecc_seconds(batch_size)))
        if self._costs is not None:
            checksum = batch_size * self.verify_seconds(chunk_count)
            parts.append(("checksum", checksum))
            folded = 0.0
            for _, seconds in parts:
                folded += seconds
            scrub = self.service_seconds(chunk_count, batch_size) - folded
            if scrub > 0:
                parts.append(("scrub", scrub))
        stages = self._stages[key] = tuple(parts)
        return stages
