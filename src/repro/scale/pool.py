"""The elastic APU device pool: topology and warm-up of any attached subset.

:class:`ElasticAPUDevicePool` is a pool of ``capacity`` device slots of
which any subset may be *attached*.  The corpus is statically split
``capacity`` ways (the same round-robin
:func:`~repro.serve.sharding.shard_chunk_counts` placement the static
simulator uses); slots that are currently detached have their chunks
redistributed over the attached slots, so the attached set always
covers the full corpus.

Batch service times come from the pool's
:class:`~repro.serve.costs.SliceCostModel` (:attr:`costs`) -- the same
Table 8 anchored model, with the same ABFT, scrub and ECC taxes, that
prices the static simulator's shards -- memoised per ``(chunk count,
batch size)``, so the event loop pays a dict probe per dispatch no
matter how often the topology changes.

Attaching a cold device is not free: before it can serve, its corpus
slice must stream from host memory into the accelerator -- the warm-up
cost is exactly the sequential HBM DMA-in of the slice's embedding
bytes, priced by the same :func:`~repro.hbm.make_hbm2e` model the
single-device retrieval breakdown charges for its embedding load.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.params import APUParams, DEFAULT_PARAMS
from ..ecc import ECCConfig
from ..hbm import make_hbm2e
from ..integrity.config import IntegrityConfig
from ..obs import collector as _trace_collector
from ..rag.corpus import CorpusSpec
from ..serve.costs import SliceCostModel
from ..serve.sharding import shard_chunk_counts
from .policy import ElasticPoolError

__all__ = ["ElasticAPUDevicePool"]


class ElasticAPUDevicePool:
    """Slot topology and warm-up costs for an elastic shard pool.

    An enabled ``ecc`` config makes the warm-up stream carry the
    check-bit-inflated slice and pay the one-time encode of the raw
    payload it writes.
    """

    def __init__(self, spec: CorpusSpec, capacity: int, k: int = 5,
                 params: APUParams = DEFAULT_PARAMS,
                 integrity: Optional[IntegrityConfig] = None,
                 ecc: Optional[ECCConfig] = None):
        if capacity < 1:
            raise ElasticPoolError(
                f"pool capacity must be >= 1 device slot, got "
                f"{capacity!r}; raise the policy's max_shards")
        if capacity > spec.n_chunks:
            raise ElasticPoolError(
                f"{capacity} device slots for {spec.n_chunks} corpus "
                f"chunks would leave slots empty; lower the policy's "
                f"max_shards to at most {spec.n_chunks}")
        self.spec = spec
        self.capacity = capacity
        #: Batch service costs of any slice (shared with the static path).
        self.costs = SliceCostModel(spec, k, params, integrity, ecc)
        #: The static ``capacity``-way placement every topology derives
        #: from.
        self.base_counts: Tuple[int, ...] = tuple(
            shard_chunk_counts(spec.n_chunks, capacity))
        self._hbm = make_hbm2e()
        self._warmups: Dict[int, float] = {}

    def counts_for(self, attached: Sequence[int]) -> Dict[int, int]:
        """Chunk count per attached slot under this topology.

        Attached slots keep their base slice; the chunks of every
        detached slot are redistributed over the attached ones in slot
        order, earlier slots taking the remainder.  The static
        simulator's reroute takeover splits each dead shard's *current*
        slice over the survivors, one death at a time, so the two rules
        agree for at most one death; after two or more the split can
        differ by a chunk.
        """
        slots = sorted(set(attached))
        if not slots:
            raise ElasticPoolError(
                "topology needs at least one attached slot; the pool "
                "cannot serve the corpus with every device detached")
        if slots[0] < 0 or slots[-1] >= self.capacity:
            raise ElasticPoolError(
                f"attached slots {slots!r} outside pool of capacity "
                f"{self.capacity}; slot ids must be in "
                f"[0, {self.capacity - 1}]")
        counts = {slot: self.base_counts[slot] for slot in slots}
        orphaned = self.spec.n_chunks - sum(counts.values())
        if orphaned > 0:
            extra = shard_chunk_counts(orphaned, len(slots))
            for slot, gained in zip(slots, extra):
                counts[slot] += gained
        return counts

    def warmup_seconds(self, chunk_count: int) -> float:
        """Corpus DMA-in cost of attaching a cold slot.

        The slice's embedding matrix streams sequentially through the
        simulated HBM2e system -- the same transfer the single-device
        breakdown charges as its embedding load, so warm-up and steady
        -state costs come from one memory model.
        """
        cost = self._warmups.get(chunk_count)
        if cost is None:
            raw_bytes = float(self.costs.embedding_bytes(chunk_count))
            ecc_costs = self.costs.ecc_costs
            stream_bytes = raw_bytes
            previous = _trace_collector.set_collector(None)
            try:
                if ecc_costs is not None:
                    # The resident slice is stored coded: the warm-up
                    # stream carries the check bits and the write side
                    # pays the one-time encode of the raw payload.
                    stream_bytes *= ecc_costs.storage_factor
                cost = self._hbm.transfer_seconds(
                    stream_bytes, "sequential")
                if ecc_costs is not None:
                    cost += ecc_costs.encode_seconds(raw_bytes)
            finally:
                _trace_collector.set_collector(previous)
            self._warmups[chunk_count] = cost
        return cost
