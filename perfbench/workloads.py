"""The two workloads: ``design`` and ``serve-dag``.

Both report the same end-to-end metrics (set-up time, peak memory, and
throughput and latency percentiles of their operations); see
``RATIONALE.md`` for why each workload exists and what it predicts.
An operation is one design job (all four search phases) in ``design``
and one served request in ``serve-dag``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import measure
from .loadgen import LoopResult, closed_loop, request_stream
from .tracing import ATTRS, END, START, Patcher, SpanRecorder, top_level

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected", "design.json")

#: tune's search seed in ``design``. Fixed: across search seeds the same
#: 120-eval tune does 1.3-7.4 s of work (a 40-seed survey), which would
#: swamp any regression between runs of different workload seeds.
DESIGN_TUNE_SEED = 0
TUNE_EVALS = 120
#: ``design`` runs one job per whole this many seconds of ``--seconds``. A
#: job takes about 15 s; a count fixed by ``--seconds`` (three at 45 s)
#: keeps the p50 rank and peak memory independent of host speed.
DESIGN_SECONDS_PER_JOB = 15

SERVE_DAG_TENANTS = ("resnet18_37", "mobilenetv2_33", "yolohead_48")
POOL_SIZE = 8
#: every latency percentile needs this many samples: p99 then has at
#: least ten beyond it
MIN_SERVE_SAMPLES = 1100

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("design.explore_reuse_s", "s"),
    ("design.explore_recompute_s", "s"),
    ("design.tune_s", "s"),
    ("design.compile_s", "s"),
    ("core.explore.s", "s"),
    ("core.explore.rss_growth_mb", "MB"),
    ("core.partitions_scored", "count"),
    ("core.analyze_group.calls", "count"),
    ("core.analyze_group.s", "s"),
    ("core.analyze_group.distinct_ratio", "ratio"),
    ("core.recompute_ops.calls", "count"),
    ("core.recompute_ops.s", "s"),
    ("core.position_footprint.calls", "count"),
    ("core.pareto.s", "s"),
    ("tune.considered", "count"),
    ("tune.fresh", "count"),
    ("tune.cached", "count"),
    ("tune.pruned", "count"),
    ("tune.invalid", "count"),
    ("tune.fresh_ratio", "ratio"),
    ("tune.evaluate.calls", "count"),
    ("tune.evaluate.s", "s"),
    ("tune.evals_per_s", "1/s"),
    ("hw.optimize_fused.calls", "count"),
    ("hw.optimize_fused.s", "s"),
    ("check.validate.calls", "count"),
    ("check.validate.s", "s"),
    ("graph.explore.s", "s"),
    ("graph.run_fused.calls", "count"),
    ("graph.run_fused.s", "s"),
    ("sim.weights.s", "s"),
    ("sim.fused.run.calls", "count"),
    ("sim.fused.run.s", "s"),
    *((f"sim.ops_per_s.{t}", "1/s")
      for t in SERVE_DAG_TENANTS),
    ("dist.balance_stages.calls", "count"),
    ("dist.balance_stages.s", "s"),
    ("dist.execute.calls", "count"),
    ("dist.execute.items", "count"),
    ("dist.execute.s", "s"),
    ("dist.stage_share.0", "ratio"),
    ("dist.stage_share.1", "ratio"),
    ("serve.compile.calls", "count"),
    ("serve.compile.s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.execute_p50_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.completed", "count"),
    ("serve.failed", "count"),
    ("serve.rejected", "count"),
    *((f"serve.latency_p50_ms.{t}", "ms")
      for t in SERVE_DAG_TENANTS),
    ("serve.worker_busy_share", "ratio"),
    ("serve.exec_inflation", "ratio"),
    ("bench.trace_overhead_pct", "%"),
)

#: span names of a plan executing a served batch
EXECUTE_SPANS = ("serve.execute", "dist.execute")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failures.append(what)


# -- tracing -------------------------------------------------------------------


class Tracer:
    """The traced run's wrappers and the counts they accumulate."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.counts: Dict[str, int] = defaultdict(int)
        self.rss_growth_mb = 0.0
        self.distinct_groups: set = set()
        self._level_ids: Dict[int, int] = {}
        self._level_index: Dict[Any, int] = {}
        self._keep: List[Any] = []
        #: id(network) -> tenant, for spans of served batches
        self.tenant_of: Dict[int, str] = {}
        #: id(input array) -> request id, while a traced request is queued
        self.request_of: Dict[int, int] = {}
        self.stage_wall: Dict[int, float] = defaultdict(float)
        self._patcher: Optional[Patcher] = None

    # attribute and result hooks ---------------------------------------------

    def _group_key(self, args, kwargs) -> None:
        from repro.core.fusion import Strategy

        levels = args[0] if args else kwargs["levels"]
        strategy = args[1] if len(args) > 1 else kwargs.get(
            "strategy", Strategy.REUSE)
        tip_h = args[2] if len(args) > 2 else kwargs.get("tip_h", 1)
        tip_w = args[3] if len(args) > 3 else kwargs.get("tip_w", 1)
        run = []
        for level in levels:
            index = self._level_ids.get(id(level))
            if index is None:
                index = self._level_index.setdefault(level,
                                                     len(self._level_index))
                self._level_ids[id(level)] = index
                self._keep.append(level)  # keeps id() unique
            run.append(index)
        self.distinct_groups.add((tuple(run), strategy, tip_h, tip_w))
        return None

    def _explore_before(self, args, kwargs):
        return {"rss0": measure.rss_mb()}

    def _explore_after(self, span, result, args, kwargs) -> None:
        self.rss_growth_mb = max(self.rss_growth_mb,
                                 measure.rss_mb() - span[ATTRS]["rss0"])
        self.counts["core.partitions_scored"] += result.num_partitions

    def _tune_after(self, span, result, args, kwargs) -> None:
        for name in ("considered", "fresh", "cached", "pruned", "invalid"):
            self.counts[f"tune.{name}"] += getattr(result, name)

    def _execute_before(self, plan, args, kwargs):
        xs = args[0] if args else kwargs["xs"]
        return {"tenant": self.tenant_of.get(id(plan.network), "?"),
                "items": len(xs),
                "requests": [self.request_of[id(x)] for x in xs
                             if id(x) in self.request_of]}

    def _pipeline_after(self, span, plan, result) -> None:
        for entry in plan.last_stage_report or ():
            self.stage_wall[entry["stage"]] += entry["end_s"] - entry["start_s"]

    # install / uninstall -------------------------------------------------------

    def install(self) -> None:
        import repro.check as check
        from repro.core import costs, explorer, fusion, pareto, pyramid
        from repro.dist import plan as dist_plan, stage
        from repro.graph import executor as graph_exec, explore as graph_explore
        from repro.graph import plan as graph_plan
        from repro.hw import fused_accel
        from repro.serve import plan as serve_plan
        from repro.sim import fused, weights
        from repro.tune import evaluate, tuner

        p = Patcher(self.recorder)
        p.function(explorer.explore, "core.explore",
                   before=self._explore_before, after=self._explore_after)
        p.function(fusion.analyze_group, "core.analyze_group",
                   before=self._group_key)
        p.function(costs.recompute_ops, "core.recompute_ops")
        p.counter(pyramid.position_footprint, self.counts,
                  "core.position_footprint.calls")
        p.function(pareto.pareto_front, "core.pareto")
        p.function(tuner.tune, "tune", after=self._tune_after)
        p.function(evaluate.evaluate_candidate, "tune.evaluate")
        p.function(fused_accel.optimize_fused, "hw.optimize_fused")
        p.function(stage.balance_stages, "dist.balance_stages")
        p.function(serve_plan.compile_plan, "serve.compile")
        p.function(graph_plan.compile_graph_plan, "serve.compile")
        for fn in (check.check_compiled_plan, check.check_graph_network,
                   check.check_pipeline_plan, check.check_tuned_record):
            p.function(fn, "check.validate")
        p.function(weights.make_network_weights, "sim.weights")
        p.function(graph_exec.make_graph_weights, "sim.weights")
        p.function(graph_explore.explore_graph, "graph.explore")
        p.method(graph_plan.CompiledGraphPlan, "execute", "serve.execute",
                 before=self._execute_before)
        p.method(dist_plan.PipelinePlan, "execute", "dist.execute",
                 before=self._execute_before, after=self._pipeline_after)
        p.method(graph_exec.GraphExecutor, "run_fused", "graph.run_fused")
        p.method(fused.FusedExecutor, "run", "sim.fused.run")
        self._patcher = p

    def uninstall(self) -> None:
        if self._patcher is not None:
            self._patcher.uninstall()
            self._patcher = None

    # aggregation ---------------------------------------------------------------

    def spans(self, name: str) -> List[list]:
        out: List[list] = []
        for _, _, spans in self.recorder.threads():
            out.extend(top_level(spans, name))
        return out

    def worker_spans(self, names, t0: float, t1: float) -> List[list]:
        out: List[list] = []
        for _, tname, spans in self.recorder.threads():
            if not tname.startswith("serve-worker"):
                continue
            for name in names:
                out.extend(s for s in top_level(spans, name)
                           if t0 <= s[START] and s[END] <= t1)
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric that spans and counts give directly;
        the serving ratios are added by ``ServeDag``."""
        m: Dict[str, float] = {}

        def seconds(name: str) -> float:
            return sum(s[END] - s[START] for s in self.spans(name))

        def calls_and_time(name: str) -> List[list]:
            spans = self.spans(name)
            m[f"{name}.calls"] = len(spans)
            m[f"{name}.s"] = sum(s[END] - s[START] for s in spans)
            return spans

        m["core.explore.s"] = seconds("core.explore")
        m["core.explore.rss_growth_mb"] = self.rss_growth_mb
        m["core.partitions_scored"] = self.counts["core.partitions_scored"]
        calls_and_time("core.analyze_group")
        calls = m["core.analyze_group.calls"]
        m["core.analyze_group.distinct_ratio"] = (
            len(self.distinct_groups) / calls if calls else 0.0)
        calls_and_time("core.recompute_ops")
        m["core.position_footprint.calls"] = self.counts[
            "core.position_footprint.calls"]
        m["core.pareto.s"] = seconds("core.pareto")
        for name in ("considered", "fresh", "cached", "pruned", "invalid"):
            m[f"tune.{name}"] = self.counts[f"tune.{name}"]
        m["tune.fresh_ratio"] = (m["tune.fresh"] / m["tune.considered"]
                                 if m["tune.considered"] else 0.0)
        calls_and_time("tune.evaluate")
        tune_s = seconds("tune")
        m["tune.evals_per_s"] = (m["tune.evaluate.calls"] / tune_s
                                 if tune_s else 0.0)
        calls_and_time("hw.optimize_fused")
        calls_and_time("check.validate")
        m["graph.explore.s"] = seconds("graph.explore")
        calls_and_time("graph.run_fused")
        m["sim.weights.s"] = seconds("sim.weights")
        calls_and_time("sim.fused.run")
        calls_and_time("dist.balance_stages")
        executes = calls_and_time("dist.execute")
        m["dist.execute.items"] = sum(s[ATTRS]["items"] for s in executes)
        total = sum(self.stage_wall.values())
        for stage in (0, 1):
            m[f"dist.stage_share.{stage}"] = (
                self.stage_wall.get(stage, 0.0) / total if total else 0.0)
        calls_and_time("serve.compile")
        return m


# -- design --------------------------------------------------------------------


def _front_rows(points, cost) -> List[list]:
    return sorted([list(p.sizes), cost(p), p.feature_transfer_bytes]
                  for p in points)


class Design:
    """Single-threaded offline search on linear CNNs; no serving."""

    def setup(self, seed: int) -> None:
        from repro import alexnet, googlenet_stem, nin_cifar, vgg16, vggnet_e, zfnet
        from repro.graph.zoo import mobilenetv2, resnet18, resnet50, yolo_head

        self.reuse_net = vgg16(include_classifier=False)
        self.recompute_nets = [alexnet(include_classifier=False),
                               googlenet_stem()]
        self.tune_net = vggnet_e(include_classifier=False)
        self.compile_nets = [
            nin_cifar(), vgg16(include_classifier=False).prefix(10),
            alexnet(include_classifier=False),
            zfnet(include_classifier=False),
            resnet18(), resnet50(), mobilenetv2(), yolo_head()]
        self.tune_seed = DESIGN_TUNE_SEED

    def job(self, out: Outcome, expected: Optional[dict],
            record: Optional[dict] = None) -> Dict[str, float]:
        """One design job: the four phases, each timed and checked.
        With ``record`` the checked outputs are stored there instead of
        compared (to write the expected-values file)."""
        from repro.core import Strategy, explore, pareto_frontier_dp
        from repro.serve import compile_plan
        from repro.tune import tune

        def same(what: str, got, want_key: Tuple[str, ...]) -> None:
            out.attempted += 1
            if record is not None:
                node = record
                for k in want_key[:-1]:
                    node = node.setdefault(k, {})
                node[want_key[-1]] = got
                return
            want = expected
            for k in want_key:
                want = want.get(k) if isinstance(want, dict) else None
            if want is None:
                out.fail(f"{what}: no expected value recorded")
            elif json.loads(json.dumps(got)) != want:
                out.fail(f"{what}: differs from the expected values")

        def partitions(what: str, result) -> None:
            out.attempted += 1
            want = 2 ** (len(result.units) - 1)
            if result.num_partitions != want:
                out.fail(f"{what}: {result.num_partitions} partitions, "
                         f"expected 2^(units-1) = {want}")

        times: Dict[str, float] = {}
        t0 = time.perf_counter()
        result = explore(self.reuse_net, num_convs=11)
        times["explore_reuse_s"] = time.perf_counter() - t0
        partitions("explore REUSE vgg16 conv1-11", result)
        out.attempted += 1
        got = _front_rows(result.front, lambda p: p.extra_storage_bytes)
        dp = sorted([list(f.sizes), f.storage_bytes, f.transfer_bytes]
                    for f in pareto_frontier_dp(result.units))
        if got != dp:
            out.fail("explore REUSE vgg16 conv1-11: front differs from "
                     "pareto_frontier_dp")
        del result

        t0 = time.perf_counter()
        results = [explore(net, strategy=Strategy.RECOMPUTE)
                   for net in self.recompute_nets]
        times["explore_recompute_s"] = time.perf_counter() - t0
        for net, result in zip(self.recompute_nets, results):
            partitions(f"explore RECOMPUTE {net.name}", result)
            same(f"explore RECOMPUTE {net.name}",
                 _front_rows(result.front, lambda p: p.extra_ops),
                 ("recompute", net.name))
        del results

        t0 = time.perf_counter()
        tuned = tune(self.tune_net, evals=TUNE_EVALS, num_convs=5,
                     seed=self.tune_seed, jobs=1)
        times["tune_s"] = time.perf_counter() - t0
        same("tune vggnet_e conv1-5",
             {"key": tuned.incumbent.candidate.key(),
              "value": tuned.incumbent.value,
              "considered": tuned.considered},
             ("tune", str(self.tune_seed)))
        del tuned

        t0 = time.perf_counter()
        plans = [compile_plan(net) for net in self.compile_nets]
        times["compile_s"] = time.perf_counter() - t0
        for net, plan in zip(self.compile_nets, plans):
            decisions = getattr(plan, "decisions", None)
            same(f"compile_plan {net.name}",
                 {"partition_sizes": list(plan.partition_sizes),
                  "decisions": (None if decisions is None
                                else [d.to_dict() for d in decisions])},
                 ("compile", net.name))
        del plans
        return times

    def run(self, seed: int, seconds: float, out: Outcome,
            tracer: Optional[Tracer]) -> None:
        expected = load_expected()
        if tracer is None:
            jobs: List[Dict[str, float]] = []
            start = time.perf_counter()
            while len(jobs) < max(1, int(seconds // DESIGN_SECONDS_PER_JOB)):
                t0 = time.perf_counter()
                times = self.job(out, expected)
                times["job_s"] = time.perf_counter() - t0
                jobs.append(times)
            wall = time.perf_counter() - start
            out.metrics["peak_rss_mb"] = measure.peak_rss_mb()
            job_s = [j["job_s"] for j in jobs]
            out.metrics["throughput_rps"] = len(jobs) / wall
            out.metrics["latency_p50_ms"] = measure.nearest_rank(job_s, 50) * 1e3
            out.metrics["latency_p99_ms"] = measure.nearest_rank(job_s, 99) * 1e3
            out.notes["jobs"] = jobs
            out.notes["phase_median_s"] = {
                k: statistics.median([j[k] for j in jobs]) for k in jobs[0]}
            return
        # traced: one untraced job, then the same job traced
        t0 = time.perf_counter()
        plain = self.job(out, expected)
        plain_s = time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            self.job(out, expected)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        out.metrics.update(tracer.layer_metrics())
        for phase, value in plain.items():
            out.metrics[f"design.{phase}"] = value
        out.metrics["bench.trace_overhead_pct"] = (
            (traced_s - plain_s) / plain_s * 100.0)
        out.notes["untraced_job_s"] = plain_s
        out.notes["traced_job_s"] = traced_s


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


# -- serving -------------------------------------------------------------------


@dataclass
class Tenant:
    name: str
    network: Any
    weight: int
    overrides: Dict[str, Any] = field(default_factory=dict)


def _derived_seed(*parts) -> int:
    return random.Random(":".join(str(p) for p in parts)).randrange(2**31)


class ServeDag:
    """A closed loop of 4 requests against ``InferenceService`` with one
    worker thread and otherwise its defaults, over three DAG tenants."""

    window = 4
    #: Not the service's default of 2: thread workers share a plan's
    #: executor, and ``FusedExecutor.run`` keeps per-call state on it, so
    #: two workers running batches of one graph or pipeline plan at once
    #: corrupt about 1% of responses. See RATIONALE.md, "Known defect".
    workers = 1

    def tenants(self) -> List[Tenant]:
        from repro.graph.zoo import mobilenetv2, resnet18, yolo_head
        from repro.hw.device import DEFAULT_DEVICE, split_device

        return [Tenant("resnet18_37", resnet18(37), 4,
                       {"devices": split_device(DEFAULT_DEVICE, 2)}),
                Tenant("mobilenetv2_33", mobilenetv2(33), 1),
                Tenant("yolohead_48", yolo_head(48), 3)]

    def setup(self, seed: int) -> None:
        """Build networks, compile and validate plans, start the service
        and warm up every tenant."""
        from repro.serve import InferenceService
        from repro.sim.weights import make_input

        self.tenant_list = self.tenants()
        self.service = InferenceService(workers=self.workers)
        self.keys = {t.name: self.service.register(t.network, **t.overrides)
                     for t in self.tenant_list}
        self.service.start()
        for t in self.tenant_list:
            warm = make_input(t.network.input_shape, seed=0, integer=True)
            self.service.infer(warm, key=self.keys[t.name], timeout=120)

    def prepare(self, seed: int) -> None:
        """Seeded input pools and their reference outputs (the benchmark's
        own checking work, outside set-up time and the timed phase)."""
        from repro.graph.executor import GraphExecutor
        from repro.sim.weights import make_input

        self.pool: Dict[str, List[Any]] = {}
        self.refs: Dict[str, List[bytes]] = {}
        self.ref_meta: Dict[str, Tuple[Any, Any]] = {}
        for t in self.tenant_list:
            plan = self.service.plan(self.keys[t.name])
            reference = GraphExecutor(t.network, seed=plan.seed,
                                      integer=True).run_reference
            xs = [make_input(t.network.input_shape,
                             seed=_derived_seed(seed, t.name, i), integer=True)
                  for i in range(POOL_SIZE)]
            outs = [reference(x) for x in xs]
            self.pool[t.name] = xs
            self.refs[t.name] = [o.tobytes() for o in outs]
            self.ref_meta[t.name] = (outs[0].shape, outs[0].dtype)

    def check(self, tenant: str, index: int, result: Any) -> bool:
        shape, dtype = self.ref_meta[tenant]
        return (getattr(result, "shape", None) == shape
                and result.dtype == dtype
                and result.tobytes() == self.refs[tenant][index])

    def stream(self, seed: int):
        return request_stream([(t.name, t.weight) for t in self.tenant_list],
                              POOL_SIZE, seed)

    def loop(self, stream, seconds: float, min_samples: int = 0,
             tracer: Optional[Tracer] = None) -> LoopResult:
        svc, keys, pool = self.service, self.keys, self.pool
        if tracer is None:
            def submit(tenant, index, rid):
                return svc.submit(pool[tenant][index], key=keys[tenant])
            on_done = None
        else:
            def submit(tenant, index, rid):
                x = pool[tenant][index].view()  # one array object per request
                tracer.request_of[id(x)] = rid
                return svc.submit(x, key=keys[tenant])

            def on_done(rid, tenant, t_submit, t_done):
                tracer.recorder.interval("bench.request", t_submit, t_done,
                                         {"request": rid, "tenant": tenant})
        result = closed_loop(submit, self.check, stream, self.window,
                             seconds, min_samples=min_samples,
                             on_done=on_done)
        if tracer is not None:
            tracer.request_of.clear()
        return result

    def shutdown(self) -> None:
        self.service.shutdown(drain=True)

    def _direct_per_item_s(self) -> Dict[str, float]:
        """Single-thread execute time per item, outside the service."""
        direct = {}
        for t in self.tenant_list:
            plan = self.service.plan(self.keys[t.name])
            x = self.pool[t.name][0]
            runs = []
            for _ in range(5):
                t0 = time.perf_counter()
                plan.execute([x])
                runs.append(time.perf_counter() - t0)
            direct[t.name] = statistics.median(runs)
        return direct

    def _analytic_ops(self, network) -> int:
        from repro.core.costs import one_pass_ops
        from repro.graph.lower import lower_graph

        return sum(one_pass_ops(step.levels)
                   for step in lower_graph(network).segments)

    def run(self, seed: int, seconds: float, out: Outcome,
            tracer: Optional[Tracer]) -> None:
        try:
            self.prepare(seed)
            stream = self.stream(seed)
            if tracer is None:
                res = self.loop(stream, seconds, MIN_SERVE_SAMPLES)
                # before the analysis below allocates in proportion to
                # the number of requests served
                out.metrics["peak_rss_mb"] = measure.peak_rss_mb()
                self._count(res, out)
                lat = res.all_latencies()
                out.metrics["throughput_rps"] = res.completed / res.wall_s
                out.metrics["latency_p50_ms"] = measure.nearest_rank(lat, 50) * 1e3
                out.metrics["latency_p99_ms"] = measure.nearest_rank(lat, 99) * 1e3
                out.notes["samples"] = len(lat)
                out.notes["beyond_p99"] = measure.beyond(lat, 99)
                if out.notes["beyond_p99"] < 10:
                    out.fail(f"only {out.notes['beyond_p99']} latency "
                             "samples beyond p99")
                out.notes["tenant_p50_ms"] = {
                    k: measure.nearest_rank(v, 50) * 1e3
                    for k, v in res.latencies.items()}
                return
            self._traced(stream, seconds, out, tracer)
        finally:
            self.shutdown()

    def _count(self, res: LoopResult, out: Outcome) -> None:
        out.attempted += res.attempted
        out.failures.extend(res.failures)

    def _traced(self, stream, seconds: float, out: Outcome,
                tracer: Tracer) -> None:
        from repro.serve.stats import ServeStats

        for t in self.tenant_list:
            tracer.tenant_of[id(t.network)] = t.name
        direct = self._direct_per_item_s()
        plain = self.loop(stream, seconds / 2)
        self._count(plain, out)
        stats = ServeStats()
        self.service.stats = self.service.pool.stats = stats
        tracer.install()
        try:
            traced = self.loop(stream, seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        self._count(traced, out)
        m = tracer.layer_metrics()
        for t in self.tenant_list:
            m[f"sim.ops_per_s.{t.name}"] = (
                self._analytic_ops(t.network) / direct[t.name])
            if traced.latencies[t.name]:
                m[f"serve.latency_p50_ms.{t.name}"] = measure.nearest_rank(
                    traced.latencies[t.name], 50) * 1e3
        summary = stats.summary()
        histogram = summary["batch_size_histogram"]
        batches = sum(histogram.values())
        m["serve.queue_wait_p50_ms"] = summary["queue_wait_ms"]["p50"]
        m["serve.queue_wait_p99_ms"] = summary["queue_wait_ms"]["p99"]
        m["serve.execute_p50_ms"] = summary["execute_ms"]["p50"]
        m["serve.batches"] = batches
        m["serve.batch_size_mean"] = (
            sum(int(k) * v for k, v in histogram.items()) / batches
            if batches else 0.0)
        for name in ("completed", "failed", "rejected"):
            m[f"serve.{name}"] = summary[name]
        executes = tracer.worker_spans(EXECUTE_SPANS, traced.first_submit,
                                       traced.last_done)
        busy = sum(s[END] - s[START] for s in executes)
        m["serve.worker_busy_share"] = busy / (
            self.service.pool.workers * traced.wall_s)
        baseline = sum(s[ATTRS]["items"] * direct[s[ATTRS]["tenant"]]
                       for s in executes)
        m["serve.exec_inflation"] = busy / baseline if baseline else 0.0
        plain_rps = plain.completed / plain.wall_s
        traced_rps = traced.completed / traced.wall_s
        m["bench.trace_overhead_pct"] = (plain_rps - traced_rps) / plain_rps * 100.0
        out.metrics.update(m)
        out.notes["direct_per_item_ms"] = {k: v * 1e3 for k, v in direct.items()}
        out.notes["untraced_rps"] = plain_rps
        out.notes["traced_rps"] = traced_rps


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "design": Design,
    "serve-dag": ServeDag,
}
