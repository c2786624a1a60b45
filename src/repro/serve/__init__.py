"""Sharded multi-APU serving simulation (beyond-the-paper extension).

The paper measures one device answering one offline query at a time;
``repro.serve`` models the production deployment the ROADMAP targets:
the corpus sharded across ``N`` simulated APU devices
(:mod:`~repro.serve.sharding`) and priced per corpus slice
(:class:`~repro.serve.costs.SliceCostModel`), a request stream admitted by a
deterministic discrete-event scheduler with per-shard dynamic batching
(:mod:`~repro.serve.scheduler`), exact scatter-gather top-k merge
(:class:`~repro.serve.retriever.ShardedAPURetriever`), and tail-latency
/ SLO reporting (:mod:`~repro.serve.metrics`,
:class:`~repro.serve.simulator.ServingSimulator`).
"""

from .costs import SliceCostModel
from .degraded import chunk_owners, measured_degraded_recall, \
    oracle_live_recall
from .metrics import LatencyStats, nearest_rank_percentile, slo_attainment, utilization
from .retriever import ShardedAPURetriever
from .scheduler import (
    OUTCOME_CORRUPTED,
    BatchPolicy,
    DiscreteEventScheduler,
    ExecutedBatch,
    RequestRecord,
    RetryPolicy,
    ScheduleResult,
)
from .sharding import (
    SHARD_POLICIES,
    CorpusShard,
    merge_cycles,
    merge_seconds,
    merge_topk,
    shard_chunk_counts,
    shard_corpus,
    shard_global_indices,
    shard_specs,
)
from .simulator import (
    FAILOVER_POLICIES,
    ServeConfig,
    ServeReport,
    ServingSimulator,
    ShardServiceModel,
    golden_ecc_config,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
)
from .workload import (
    ClosedLoopConfig,
    Request,
    ThinkTimeError,
    WorkloadConfigError,
    bursty_arrival_times,
    diurnal_arrival_times,
    poisson_arrival_times,
    poisson_arrivals,
    spike_arrival_times,
    trace_arrivals,
)

__all__ = [
    "BatchPolicy",
    "ClosedLoopConfig",
    "CorpusShard",
    "DiscreteEventScheduler",
    "ExecutedBatch",
    "FAILOVER_POLICIES",
    "LatencyStats",
    "OUTCOME_CORRUPTED",
    "Request",
    "RequestRecord",
    "RetryPolicy",
    "SHARD_POLICIES",
    "ScheduleResult",
    "ServeConfig",
    "ServeReport",
    "ServingSimulator",
    "ShardServiceModel",
    "ShardedAPURetriever",
    "SliceCostModel",
    "ThinkTimeError",
    "WorkloadConfigError",
    "bursty_arrival_times",
    "chunk_owners",
    "diurnal_arrival_times",
    "golden_ecc_config",
    "golden_fault_config",
    "golden_integrity_config",
    "golden_serve_config",
    "measured_degraded_recall",
    "oracle_live_recall",
    "merge_cycles",
    "merge_seconds",
    "merge_topk",
    "nearest_rank_percentile",
    "poisson_arrival_times",
    "poisson_arrivals",
    "shard_chunk_counts",
    "shard_corpus",
    "shard_global_indices",
    "shard_specs",
    "slo_attainment",
    "spike_arrival_times",
    "trace_arrivals",
    "utilization",
]
