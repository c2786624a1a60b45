"""The benchmark's four workloads, each driven through public entry points.

A workload is built once per interpreter (its set-up: imports, configs,
seeded inputs, simulator construction) and then run in rounds.  A round
is a fixed list of :class:`Op` calls; each call is one timed operation,
and its check runs after the clock stops.  :meth:`Workload.summarize`
turns one round's outputs into the simulated metrics, the per-layer
counts and a digest of every simulated output.

Every request stream is open-loop in simulated time and is generated
from the seed before any timing starts; the program receives the ready
list as ``requests=`` or ``arrivals=``.  Program functions are always
reached through their module (``serve.poisson_arrivals``), so the
tracer's rebinding sees every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.obs as obs
import repro.scale as scale
import repro.serve as serve
from repro import monitor, validation
from repro.apu import bitproc, microcode
from repro.ecc import codecs
from repro.hbm import hbm2e
from repro.monitor import counters
from repro.opt import matmul
from repro.phoenix import suite as phoenix_suite
from repro.rag import corpus as rag_corpus
from repro.rag import PAPER_CORPORA, retrieval

#: Offered rates of the ladder: about 10 %, 60 %, 95 % and 160 % of the
#: golden serve shape's ~2.5k qps saturation.
LADDER_QPS = (250.0, 1500.0, 2400.0, 4000.0)
#: The rung whose TTI and goodput the serving metrics read (~95 % load).
LADDER_READ_QPS = 2400.0
LADDER_REQUESTS = 25_000
STATIC_QPS = 1500.0
STATIC_REQUESTS = 10_000
OBSERVED_ELASTIC_REQUESTS = 5_000
FAULT_ELASTIC_REQUESTS = 40_000
#: The spike shape inside ``golden_autoscale_config`` (verified against
#: its arrivals at set-up, so a change to the golden shows).
SPIKE_QPS, SPIKE_START_S, SPIKE_DURATION_S, SPIKE_MULTIPLIER = \
    250.0, 0.050, 0.150, 10.0

#: Where the bundle export is written, as ``--bundle-out`` would (the
#: working directory is the checkout's root).
OUTPUT_DIR = ".hostbench"

BITPROC_BANKS = 4
BITPROC_COLUMNS = 2048
RAG_CHUNKS, RAG_DIM, RAG_QUERIES, RAG_K = 4096, 64, 16, 5
ECC_BLOCKS, ECC_WORDS_PER_BLOCK = 4, 16
HBM_TRANSFERS = 4096


class CheckError(Exception):
    """An operation's output failed its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclasses.dataclass
class Op:
    """One timed call and the check of its output."""

    name: str
    call: Callable[[Dict[str, Any]], Any]
    check: Callable[[Any, Dict[str, Any]], None]


@dataclasses.dataclass
class Summary:
    """What one round produced, beyond its timings."""

    #: name -> (value, unit, note); simulated-time end-to-end metrics.
    sim: Dict[str, Tuple[float, str, str]]
    #: per-layer counts read off the outputs.
    counts: Dict[str, float]
    #: sha256 over the hex-float rendering of every simulated output.
    digest: str


@dataclasses.dataclass
class Phase:
    """Ops whose outputs live together; released when the phase ends."""

    ops: List[Op]
    summarize: Callable[[Dict[str, Any]], Summary]
    #: Simulator attributes this phase drives, dropped with its outputs.
    sims: Tuple[str, ...] = ()


def combine(parts: List[Summary]) -> Summary:
    """One round's summary from its phases' (counts add up)."""
    sim: Dict[str, Tuple[float, str, str]] = {}
    counts: Dict[str, float] = {}
    for part in parts:
        sim.update(part.sim)
        for key, value in part.counts.items():
            counts[key] = counts.get(key, 0) + value
    digest = hashlib.sha256("".join(p.digest for p in parts).encode())
    return Summary(sim=sim, counts=counts, digest=digest.hexdigest())


class Digest:
    """sha256 over a canonical, hex-float rendering of values."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value: Any) -> None:
        h = self._hash
        if isinstance(value, (bool, np.bool_)):
            h.update(b"b1" if value else b"b0")
        elif isinstance(value, (float, np.floating)):
            h.update(float(value).hex().encode())
        elif isinstance(value, (int, np.integer)):
            h.update(b"i%d" % int(value))
        elif isinstance(value, str):
            h.update(b"s%d:" % len(value) + value.encode())
        elif isinstance(value, np.ndarray):
            h.update(f"a{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            h.update(b"{")
            for key in sorted(value, key=str):
                self.add(str(key))
                self.add(value[key])
            h.update(b"}")
        elif isinstance(value, (list, tuple)):
            h.update(b"[")
            for item in value:
                self.add(item)
            h.update(b"]")
        else:
            raise TypeError(f"cannot digest {type(value).__name__}")
        h.update(b",")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _stats(stats: Any) -> Tuple[Any, ...]:
    return (stats.n, stats.mean_s, stats.p50_s, stats.p95_s, stats.p99_s,
            stats.max_s)


def report_values(report: Any) -> Tuple[Any, ...]:
    """The simulated outputs of a serve or scale report."""
    values = (report.n_completed, report.makespan_s, report.throughput_qps,
              _stats(report.retrieval), _stats(report.tti),
              report.slo_attainment, report.n_batches,
              report.mean_batch_size, report.shard_utilization,
              report.n_timeouts, report.n_retries, report.n_shard_failures,
              report.n_corruptions_detected, report.n_recomputes)
    if isinstance(report, scale.ScaleReport):
        values += (report.n_offered, report.n_shed, report.goodput,
                   report.pool_min, report.pool_max, report.n_attaches,
                   report.n_detaches, report.n_failovers,
                   report.peak_burn_rate, report.shed_by_class)
    return values


def check_report(report: Any, offered: int) -> None:
    """Finite statistics; offered = completed + shed + failed; TTI n."""
    stats = [report.makespan_s, report.throughput_qps, report.slo_attainment,
             report.mean_batch_size, *_stats(report.retrieval)[1:],
             *_stats(report.tti)[1:]]
    require(all(math.isfinite(v) for v in stats), "non-finite statistic")
    shed = getattr(report, "n_shed", 0)
    admitted = getattr(report, "n_admitted", offered - shed)
    failed = admitted - report.n_completed
    require(failed >= 0, f"{report.n_completed} completed of "
                         f"{admitted} admitted")
    require(report.n_completed + shed + failed == offered,
            f"offered {offered} != completed {report.n_completed} + shed "
            f"{shed} + failed {failed}")
    if isinstance(report, scale.ScaleReport):
        require(report.n_offered == offered,
                f"report offered {report.n_offered}, sent {offered}")
    require(report.tti.n == report.n_completed,
            f"{report.tti.n} TTI samples for {report.n_completed} completed")


def goodput(report: Any, offered: int) -> float:
    """Share of offered requests that completed within the SLO."""
    if isinstance(report, scale.ScaleReport):
        return report.goodput
    return report.slo_attainment * report.n_completed / offered


def tti_metrics(report: Any, offered: int, where: str
                ) -> Dict[str, Tuple[float, str, str]]:
    ms = report.tti.as_ms()
    note = f"n={report.tti.n} {where}"
    return {"sim_tti_p50_ms": (ms["p50"], "ms", note),
            "sim_tti_p99_ms": (ms["p99"], "ms", note),
            "sim_goodput": (goodput(report, offered), "ratio",
                            f"offered={offered} {where}")}


def scale_counts(report: Any) -> Dict[str, float]:
    attempts = report.n_batches
    unclean = (report.n_timeouts + report.n_interrupted
               + report.n_corruptions_detected + report.n_sdc_escapes)
    return {
        "scale.ticks": sum(1 for a in report.actions if a.kind == "tick"),
        "scale.attaches": report.n_attaches,
        "scale.failovers": report.n_failovers,
        "scale.shed_share": report.n_shed / report.n_offered,
        "scale.pool_max": report.pool_max,
        "faults.retries": report.n_retries,
        "faults.timeouts": report.n_timeouts,
        "faults.deaths": report.n_shard_failures,
        "integrity.detected": report.n_corruptions_detected,
        "integrity.recomputes": report.n_recomputes,
        "faults.useful_batch_share": (attempts - unclean) / attempts,
    }


def stretched_spike(base: Any, n_requests: int, seed: int) -> Any:
    """``base`` (a golden autoscale config) stretched to ``n_requests``.

    The spike window and every fault and bit-flip instant and duration
    scale with the run length; rates, batching, retry and control
    settings stay as the golden sets them.
    """
    golden = serve.spike_arrival_times(
        SPIKE_QPS, base.serve.n_requests, base.serve.seed,
        spike_start_s=SPIKE_START_S, spike_duration_s=SPIKE_DURATION_S,
        spike_multiplier=SPIKE_MULTIPLIER)
    if tuple(float(t) for t in golden) != base.arrivals:
        raise RuntimeError("golden_autoscale_config's spike shape changed; "
                           "update SPIKE_* in hostbench/workloads.py")
    f = n_requests / base.serve.n_requests
    plan = base.serve.faults
    plan = dataclasses.replace(
        plan,
        stalls=tuple(dataclasses.replace(
            s, start_s=s.start_s * f, duration_s=s.duration_s * f)
            for s in plan.stalls),
        outages=tuple(dataclasses.replace(
            o, start_s=o.start_s * f, duration_s=o.duration_s * f,
            recovery_s=o.recovery_s * f) for o in plan.outages),
        bit_flips=tuple(dataclasses.replace(b, t_s=b.t_s * f)
                        for b in plan.bit_flips))
    arrivals = serve.spike_arrival_times(
        SPIKE_QPS, n_requests, seed, spike_start_s=SPIKE_START_S * f,
        spike_duration_s=SPIKE_DURATION_S * f,
        spike_multiplier=SPIKE_MULTIPLIER)
    return scale.ScaleConfig(
        serve=dataclasses.replace(base.serve, n_requests=n_requests,
                                  seed=seed, faults=plan),
        policy=base.policy,
        arrivals=tuple(float(t) for t in arrivals))


class Workload:
    """Base: subclasses build inputs in ``__init__`` and fill ``phases``.

    Simulators hold on to their last run's record, and in one process
    records kept alive slow later runs (by ~25 % over eight elastic
    rounds, through the collector's passes over them).  So each phase
    releases its outputs and simulators when it ends, and each round
    after the first drives freshly constructed simulators, built before
    its clock starts -- as a user running one command per process sees.
    """

    name = ""

    def __init__(self) -> None:
        self.phases: List[Phase] = []
        #: Requests the set-up generated (``workload.requests``).
        self.n_requests = 0
        self._factories: Dict[str, Callable[[], Any]] = {}

    def simulator(self, attr: str, factory: Callable[[], Any]) -> None:
        """Construct a simulator now (set-up) and again for each round."""
        self._factories[attr] = factory
        setattr(self, attr, factory())

    def start_round(self) -> None:
        for attr, factory in self._factories.items():
            if getattr(self, attr) is None:
                setattr(self, attr, factory())

    def release(self, attrs: Tuple[str, ...]) -> None:
        for attr in attrs:
            setattr(self, attr, None)

    def prepare_checks(self) -> None:
        """Compute check references (after set-up is timed)."""


class ServeLadder(Workload):
    """Vectorized ``ServingSimulator.run`` at four fixed offered rates."""

    name = "serve_ladder"

    def __init__(self, seed: int, size: float) -> None:
        super().__init__()
        n = round(LADDER_REQUESTS * size)
        self.config = dataclasses.replace(
            serve.golden_serve_config(), engine="vectorized", n_requests=n)
        self.rungs = [(qps, serve.poisson_arrivals(qps, n, seed * 16 + i))
                      for i, qps in enumerate(LADDER_QPS)]
        self.n_requests = n * len(self.rungs)
        self.simulator("sim", lambda: serve.ServingSimulator(self.config))
        self.phases.append(Phase([
            Op(f"run@{qps:g}qps",
               lambda outs, r=requests: self.sim.run(requests=r),
               lambda report, outs, n=len(requests): check_report(report, n))
            for qps, requests in self.rungs], self.summarize, ("sim",)))

    def summarize(self, outs: Dict[str, Any]) -> Summary:
        digest = Digest()
        slo = self.config.slo_s
        best, events, sim = 0.0, 0, {}
        for (qps, requests), op in zip(self.rungs, self.phases[0].ops):
            report = outs[op.name]
            digest.add(report_values(report))
            events += (len(requests) * self.config.n_shards
                       + 2 * report.n_batches)
            if report.tti.p99_s <= slo \
                    and report.throughput_qps >= 0.95 * qps:
                best = max(best, qps)
            if qps == LADDER_READ_QPS:
                sim = tti_metrics(report, len(requests), f"at {qps:g} qps")
        sim["sim_max_qps_at_slo"] = (
            best, "1/s", f"rates {'/'.join(f'{q:g}' for q in LADDER_QPS)}, "
                         f"p99 TTI <= {slo * 1e3:g} ms")
        return Summary(sim=sim, counts={"simcore.events": events},
                       digest=digest.hexdigest())


def _scrape_check(text: str, mon: Any) -> None:
    lines = text.splitlines()
    for s in mon.series:
        require(f"# TYPE {s.name} {s.kind}" in text,
                f"scrape lacks series {s.name}")
    names = {s.name for s in mon.series}
    samples = sum(1 for line in lines if not line.startswith("#")
                  and line.split("{")[0].split(" ")[0] in names)
    points = sum(len(s.points) for s in mon.series)
    require(samples == points,
            f"scrape has {samples} samples for {points} series points")


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _bundle_check(path: str, outs: Dict[str, Any], run: str) -> None:
    report, _, mon = outs[f"{run}.monitor"]
    data = json.loads(_read(path))
    metrics = data["metrics"]
    require(data["n_completed"] == report.n_completed
            and metrics["throughput_qps"] == report.throughput_qps
            and metrics["makespan_simulated_s"] == report.makespan_s
            and metrics["tti_p99_ms"] == report.tti.as_ms()["p99"]
            and len(data["monitor"]["series"]) == len(mon.series),
            "bundle disagrees with the report")


def _chrome_check(text: str, mon: Any) -> None:
    events = json.loads(text)["traceEvents"]
    counted = sum(1 for e in events if e.get("ph") == "C")
    points = sum(len(s.points) for s in mon.series)
    require(counted == points,
            f"chrome trace has {counted} counter events for {points} points")


class ObservedServe(Workload):
    """What ``repro serve ... --bundle-out --scrape-out --monitor-out``
    does, for a static run and an elastic spike run."""

    name = "observed_serve"

    def __init__(self, seed: int, size: float) -> None:
        super().__init__()
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        n_static = round(STATIC_REQUESTS * size)
        self.static_requests = serve.poisson_arrivals(STATIC_QPS, n_static,
                                                      seed)
        static_config = dataclasses.replace(
            serve.golden_serve_config(), qps=STATIC_QPS, n_requests=n_static,
            seed=seed)
        elastic_config = stretched_spike(
            scale.golden_autoscale_config(),
            round(OBSERVED_ELASTIC_REQUESTS * size), seed)
        self.n_requests = n_static + len(elastic_config.arrivals)
        self.offered = {"static": n_static,
                        "elastic": len(elastic_config.arrivals)}
        self.simulator("static_sim",
                       lambda: serve.ServingSimulator(static_config))
        self.simulator("elastic_sim",
                       lambda: scale.ScaleSimulator(elastic_config))
        self._add_run("static", "serve", "static_sim", lambda outs:
                      self.static_sim.run_with_monitor(
                          requests=self.static_requests))
        self._add_run("elastic", "serve_autoscale", "elastic_sim",
                      lambda outs: self.elastic_sim.run_with_monitor())

    def _add_run(self, run: str, label: str, sim: str,
                 call: Callable[[Dict[str, Any]], Any]) -> None:
        offered = self.offered[run]

        def check_run(out: Any, outs: Dict[str, Any]) -> None:
            report, telemetry, _ = out
            check_report(report, offered)
            require(len(telemetry.critical_paths) == report.n_completed,
                    f"{len(telemetry.critical_paths)} critical paths for "
                    f"{report.n_completed} completed")

        def mon(outs: Dict[str, Any]) -> Any:
            return outs[f"{run}.monitor"][2]

        ops = [
            Op(f"{run}.monitor", call, check_run),
            Op(f"{run}.openmetrics",
               lambda outs: monitor.openmetrics_text(mon(outs)),
               lambda text, outs: _scrape_check(text, mon(outs))),
            Op(f"{run}.bundle",
               lambda outs: monitor.write_run_bundle(
                   os.path.join(OUTPUT_DIR, f"{label}.bundle.json"),
                   monitor.bundle_from_run(label, *outs[f"{run}.monitor"])),
               lambda path, outs: _bundle_check(path, outs, run)),
            Op(f"{run}.dashboard",
               lambda outs: monitor.render_dashboard(mon(outs)),
               lambda text, outs: require(
                   text.lstrip().startswith("<!DOCTYPE html>")
                   and all(s.name in text for s in mon(outs).series),
                   "dashboard lacks a series")),
            Op(f"{run}.chrome",
               lambda outs: obs.chrome_trace_json(
                   [], metadata={"workload": label}, indent=1,
                   process_names=counters.monitor_process_names(),
                   counters=monitor.counter_tracks(mon(outs))),
               lambda text, outs: _chrome_check(text, mon(outs))),
        ]
        self.phases.append(Phase(ops, lambda outs: self._summarize(run, ops,
                                                                    outs),
                                 (sim,)))

    def _summarize(self, run: str, ops: List[Op],
                   outs: Dict[str, Any]) -> Summary:
        digest = Digest()
        report, telemetry, mon = outs[f"{run}.monitor"]
        digest.add(report_values(report))
        exported = 0
        for op in ops[1:]:
            text = outs[op.name]
            if op.name.endswith(".bundle"):
                text = _read(text)
            exported += len(text)
            digest.add(hashlib.sha256(text.encode()).hexdigest())
        counts = {"monitor.points": sum(len(s.points) for s in mon.series),
                  "export.bytes": exported}
        if run == "elastic":
            counts["scale_telemetry.spans"] = telemetry.n_spans
            counts.update(scale_counts(report))
            return Summary(sim={}, counts=counts, digest=digest.hexdigest())
        counts.update({
            "scheduler.events": (self.offered[run] * report.config.n_shards
                                 + 2 * report.n_batches),
            "scheduler.batches": report.n_batches,
            "scheduler.mean_batch_size": report.mean_batch_size,
            "telemetry.spans": telemetry.n_spans,
        })
        return Summary(
            sim=tti_metrics(report, self.offered[run],
                            f"static run at {STATIC_QPS:g} qps"),
            counts=counts, digest=digest.hexdigest())


class ElasticSpikeFaults(Workload):
    """Default-engine ``ScaleSimulator.run`` on the stretched golden
    fault-under-autoscaling spike."""

    name = "elastic_spike_faults"

    def __init__(self, seed: int, size: float) -> None:
        super().__init__()
        config = stretched_spike(scale.golden_autoscale_fault_config(),
                                 round(FAULT_ELASTIC_REQUESTS * size), seed)
        self.n_requests = offered = len(config.arrivals)
        self.simulator("sim", lambda: scale.ScaleSimulator(config))
        self.phases.append(Phase(
            [Op("elastic.run", lambda outs: self.sim.run(),
                lambda report, outs: check_report(report, offered))],
            self.summarize, ("sim",)))

    def summarize(self, outs: Dict[str, Any]) -> Summary:
        report = outs["elastic.run"]
        digest = Digest()
        digest.add(report_values(report))
        return Summary(
            sim=tti_metrics(report, report.n_offered, "elastic with faults"),
            counts=scale_counts(report), digest=digest.hexdigest())


def _same(got: Any, want: Any) -> bool:
    """Exact for integers and containers; float arrays to allclose."""
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            return False
        if np.issubdtype(want.dtype, np.floating) \
                or np.issubdtype(got.dtype, np.floating):
            return bool(np.allclose(got, want))
        return bool(np.array_equal(got, want))
    if isinstance(want, (tuple, list)) and isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want))
    if isinstance(want, float) or isinstance(got, float):
        return bool(np.isclose(got, want))
    return bool(got == want)


class PaperKernels(Workload):
    """The calibrated paper core at fixed input size."""

    name = "paper_kernels"

    def __init__(self, seed: int, size: float) -> None:
        super().__init__()
        self.kernel_ops: List[Op] = []
        self.phases.append(Phase(self.kernel_ops, self.summarize))
        rng = np.random.default_rng(seed)
        for i in range(max(1, round(BITPROC_BANKS * size))):
            a = rng.integers(0, 1 << 16, BITPROC_COLUMNS, dtype=np.uint16)
            b = rng.integers(0, 1 << 16, BITPROC_COLUMNS, dtype=np.uint16)
            b[::7] = a[::7]  # equal lanes, so eq_16 sees both verdicts
            bank = bitproc.BitProcessorArray(columns=BITPROC_COLUMNS)
            bank.load_u16(0, a)
            bank.load_u16(1, b)
            self._bitproc_ops(i, bank, a, b)
        self.suite = phoenix_suite.PhoenixSuite()
        for name, app in self.suite.apps.items():
            self.kernel_ops.append(Op(
                f"phoenix.{name}", lambda outs, app=app: app.run_functional(),
                self._phoenix_check(name)))
        self.corpus = rag_corpus.MiniCorpus(
            n_chunks=RAG_CHUNKS, dim=RAG_DIM, seed=seed)
        self.queries = [self.corpus.sample_query()
                        for _ in range(max(1, round(RAG_QUERIES * size)))]
        self.retriever = retrieval.APURetriever(optimized=True)
        for i, query in enumerate(self.queries):
            self.kernel_ops.append(Op(
                f"rag.retrieve[{i}]",
                lambda outs, q=query: self.retriever.retrieve(
                    self.corpus, q, k=RAG_K),
                lambda got, outs, q=query: require(
                    list(got) == list(self.corpus.exact_topk(q, RAG_K)),
                    "retrieval differs from exact top-k")))
        self.codecs = {"secded": codecs.SECDEDCodec(64),
                       "bch2": codecs.BCHCodec(64, t=2)}
        blocks = max(1, round(ECC_BLOCKS * size))
        for label, codec in self.codecs.items():
            for i in range(blocks):
                words = [int(w) for w in rng.integers(
                    0, 1 << 64, ECC_WORDS_PER_BLOCK, dtype=np.uint64)]
                self.kernel_ops.append(Op(
                    f"ecc.{label}[{i}]",
                    lambda outs, c=codec, w=words: self._ecc_sweep(c, w),
                    lambda got, outs, c=codec, w=words:
                        self._ecc_check(c, w, got)))
        self.hbm = hbm2e.make_hbm2e()
        sizes = [float(s) for s in rng.integers(
            1, 1 << 30, max(1, round(HBM_TRANSFERS * size)))]
        self.kernel_ops += [
            Op("hbm.transfer_seconds",
               lambda outs: [self.hbm.transfer_seconds(s, p) for s in sizes
                             for p in ("sequential", "random")],
               lambda got, outs: require(
                   all(math.isfinite(t) and t > 0 for t in got),
                   "non-finite HBM transfer time")),
            Op("table7", lambda outs: self.suite.table7_validation(),
               lambda rows, outs: require(
                   all(math.isfinite(r.error) for r in rows),
                   "non-finite Table 7 error")),
            Op("table8", lambda outs: [
                retrieval.APURetriever(optimized=opt).latency_breakdown(spec)
                for spec in PAPER_CORPORA.values() for opt in (False, True)],
               lambda rows, outs: require(
                   all(math.isfinite(r.total) and r.total > 0 for r in rows),
                   "non-positive Table 8 total")),
            Op("fig12", lambda outs: matmul.run_all_stages(
                1024, 1024, 1024, functional=False),
               lambda stages, outs: require(
                   all(math.isfinite(r.latency_ms) and r.latency_ms > 0
                       for r in stages.values()),
                   "non-positive Fig. 12 latency")),
            Op("claims", lambda outs: validation.validate_reproduction(),
               lambda results, outs: require(
                   all(math.isfinite(r.measured) for r in results.values())
                   and len(results) == len(validation.PAPER_CLAIMS),
                   "non-finite claim value")),
        ]

    def _bitproc_ops(self, i: int, bank: Any, a: np.ndarray,
                     b: np.ndarray) -> None:
        def run(fn: Callable[[], None], vr: int) -> Tuple[np.ndarray, int]:
            before = bank.micro_ops
            fn()
            return bank.read_u16(vr), bank.micro_ops - before

        def want(expected: np.ndarray, what: str):
            return lambda got, outs: require(
                np.array_equal(got[0], expected), f"bit-serial {what} wrong")

        self.kernel_ops += [
            Op(f"bitproc.add[{i}]", lambda outs: run(
                lambda: microcode.add_u16(bank, 4, 0, 1, carry=22,
                                          scratch=23), 4),
               want(a + b, "add")),
            Op(f"bitproc.mul[{i}]", lambda outs: run(
                lambda: microcode.mul_u16(bank, 5, 0, 1, acc=6, partial=7,
                                          colmask=8, carry=22, scratch=23),
                5),
               want(a * b, "mul")),
            Op(f"bitproc.eq[{i}]", lambda outs: run(
                lambda: microcode.eq_16(bank, 9, 0, 1, scratch=20), 9),
               want((a == b).astype(np.uint16), "eq")),
        ]

    def _phoenix_check(self, name: str):
        def check(result: Any, outs: Dict[str, Any]) -> None:
            require(_same(result.value, self.references[name]),
                    f"phoenix {name} differs from its NumPy reference")
        return check

    @staticmethod
    def _ecc_sweep(codec: Any, words: List[int]) -> List[Tuple[int, str]]:
        """Encode each word, flip every codeword bit in turn, decode."""
        out = []
        for word in words:
            code = codec.encode(word)
            for bit in range(codec.n):
                out.append(codec.decode(code ^ (1 << bit)))
        return out

    @staticmethod
    def _ecc_check(codec: Any, words: List[int],
                   got: List[Tuple[int, str]]) -> None:
        want = [(w, codecs.STATUS_CORRECTED) for w in words
                for _ in range(codec.n)]
        require(got == want, f"{type(codec).__name__} missed a single-bit "
                             f"correction")

    def prepare_checks(self) -> None:
        self.references = {name: app.reference()
                           for name, app in self.suite.apps.items()}

    def summarize(self, outs: Dict[str, Any]) -> Summary:
        digest = Digest()
        micro_ops = 0
        for op in self.kernel_ops:
            out = outs[op.name]
            if op.name.startswith("bitproc."):
                digest.add(out[0])
                micro_ops += out[1]
            elif op.name.startswith("phoenix."):
                digest.add([out.value, out.cycles])
            elif op.name == "table7":
                digest.add([(r.app, r.measured_ms, r.predicted_ms)
                            for r in out])
            elif op.name == "table8":
                digest.add([r.total for r in out])
            elif op.name == "fig12":
                digest.add({k: r.latency_ms for k, r in out.items()})
            elif op.name == "claims":
                digest.add({k: r.measured for k, r in out.items()})
            else:
                digest.add([list(x) if isinstance(x, tuple) else x
                            for x in out])
        claims = outs["claims"].values()
        rel = sum(abs(r.relative_error) for r in claims) / len(claims)
        return Summary(
            sim={"paper_rel_error_mean": (
                rel, "ratio", f"over {len(claims)} paper claims")},
            counts={"bitproc.micro_ops": micro_ops},
            digest=digest.hexdigest())


WORKLOADS = {cls.name: cls for cls in
             (ServeLadder, ObservedServe, ElasticSpikeFaults, PaperKernels)}

#: Simulated-time metrics each workload produces (printed, and checked
#: by the benchmark's tests to appear on no other workload).
SIM_METRICS = {
    "serve_ladder": ("sim_tti_p50_ms", "sim_tti_p99_ms", "sim_goodput",
                     "sim_max_qps_at_slo"),
    "observed_serve": ("sim_tti_p50_ms", "sim_tti_p99_ms", "sim_goodput"),
    "elastic_spike_faults": ("sim_tti_p50_ms", "sim_tti_p99_ms",
                             "sim_goodput"),
    "paper_kernels": ("paper_rel_error_mean",),
}
