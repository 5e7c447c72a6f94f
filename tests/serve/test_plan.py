"""Compiled plans and the plan cache: keys, LRU, persistence, warm path."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Strategy
from repro.errors import ConfigError
from repro.faults import ExplorationBudget
from repro.nn.zoo import toynet, nin_cifar
from repro.obs import Registry, capture
from repro.serve import (
    CompiledPlan,
    PlanCache,
    compile_plan,
    make_plan_key,
)
from repro.sim import NetworkExecutor, make_input


def _execute_carried(plan, xs):
    """A plan's outputs, the dtype its ``graph.run`` span reports the
    batch carried in, and the ``graph.per_item_batches`` count: 1 for an
    integer batch run item by item."""
    with capture() as registry:
        outs = plan.execute(xs)
    (span,) = [s for s in registry.spans if s.name == "graph.run"]
    return (outs, span.attrs["dtype"],
            registry.counters.get("graph.per_item_batches", 0))


class TestPlanKey:
    def test_same_knobs_same_key(self, net):
        assert make_plan_key(net) == make_plan_key(toynet())

    def test_each_knob_changes_the_key(self, net):
        base = make_plan_key(net)
        assert make_plan_key(net, strategy=Strategy.RECOMPUTE) != base
        assert make_plan_key(net, tip=2) != base
        assert make_plan_key(net, storage_budget_bytes=4096) != base
        assert make_plan_key(net, precision="float") != base
        assert make_plan_key(net, seed=1) != base
        assert make_plan_key(nin_cifar()) != base

    def test_round_trips_through_dict(self, net):
        key = make_plan_key(net, storage_budget_bytes=4096)
        assert type(key).from_dict(key.to_dict()) == key

    def test_rejects_bad_knobs(self, net):
        with pytest.raises(ConfigError):
            make_plan_key(net, precision="fp16")
        with pytest.raises(ConfigError):
            make_plan_key(net, tip=0)


class TestCompilePlan:
    def test_explored_plan_covers_all_units(self, net):
        plan = compile_plan(net)
        assert sum(plan.partition_sizes) >= 1
        assert plan.num_groups == len(plan.atoms)
        assert not plan.degraded

    def test_explicit_partition_skips_exploration(self, net):
        registry = Registry()
        with capture() as registry:
            plan = compile_plan(net, partition_sizes=(1, 1))
        assert plan.partition_sizes == (1, 1)
        assert registry.counter("explore.partitions_scored") == 0

    def test_invalid_explicit_partition_is_diagnosed(self, net):
        with pytest.raises(ConfigError):
            compile_plan(net, partition_sizes=(7,))

    def test_storage_budget_prefers_cheapest_fitting_partition(self, net):
        unconstrained = compile_plan(net)
        tight = compile_plan(net, storage_budget_bytes=0)
        assert tight.key != unconstrained.key
        # zero extra storage admits only the layer-by-layer partition
        assert all(size == 1 for size in tight.partition_sizes)

    def test_budget_truncated_search_marks_degraded(self, net):
        plan = compile_plan(net, budget=ExplorationBudget(max_evaluations=1))
        assert plan.degraded

    def test_execute_matches_direct_runs(self, net, inputs, golden):
        plan = compile_plan(net)
        outs = plan.execute(inputs)
        for out, ref in zip(outs, golden):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)

    def test_lrn_network_falls_back_to_per_item_and_stays_exact(self):
        from repro import ConvSpec, Network, ReLUSpec, TensorShape
        from repro.nn.layers import LRNSpec

        network = Network("lrn-net", TensorShape(3, 8, 8), [
            ConvSpec("c1", kernel=3, stride=1, out_channels=4, padding=1),
            ReLUSpec("r1"),
            LRNSpec("n1"),
            ConvSpec("c2", kernel=3, stride=1, out_channels=4, padding=1),
        ])
        plan = compile_plan(network)
        xs = [make_input(network.input_shape, seed=5 + i, integer=True)
              for i in range(3)]
        outs, dtype, per_item = _execute_carried(plan, xs)
        # LRN breaks exact integer arithmetic: item by item, in float64
        assert (dtype, per_item) == ("float64", 1)
        oracle = NetworkExecutor(network, seed=0, integer=True)
        for x, out in zip(xs, outs):
            assert out.tobytes() == oracle.run(x).tobytes()

    def test_int_plan_serves_via_one_stacked_call(self, net, inputs, golden):
        plan = compile_plan(net)
        outs, dtype, per_item = _execute_carried(plan, inputs[:3])
        assert (dtype, per_item) == ("float32", 0)
        for out, ref in zip(outs, golden):
            assert out.tobytes() == ref.tobytes()

    def test_float_precision_plan_serves_via_per_item_loop(self, net, inputs):
        plan = compile_plan(net, precision="float")
        with capture() as registry:
            outs = plan.execute(inputs[:3])
        (span,) = [s for s in registry.spans if s.name == "graph.run"]
        atom = f"graph.atom[{plan.atoms[0].name}]"
        # float64 requests compute in float64, as the oracle does
        assert span.attrs["dtype"] == "float64"
        assert [s.name for s in registry.spans].count(atom) == 3  # per item
        assert "graph.per_item_batches" not in registry.counters
        oracle = NetworkExecutor(net, seed=0, integer=False)
        for x, out in zip(inputs[:3], outs):
            ref = oracle.run(x)
            assert out.dtype == ref.dtype == np.float64
            assert out.tobytes() == ref.tobytes()

    def test_relu_after_lrn_is_rejected(self):
        from repro import ConvSpec, Network, ReLUSpec, TensorShape
        from repro.nn.layers import FCSpec, LRNSpec

        network = Network("lrn-relu", TensorShape(3, 8, 8), [
            ConvSpec("c1", kernel=3, stride=1, out_channels=4, padding=1),
            LRNSpec("n1"),
            ReLUSpec("r1"),
            ConvSpec("c2", kernel=3, stride=1, out_channels=4, padding=1),
        ])
        for sizes in (None, (1, 1)):
            with pytest.raises(ConfigError, match="^r1: this ReLUSpec"):
                compile_plan(network, partition_sizes=sizes)
        # the error names whichever layer splits the chain
        fc_first = Network("fc-conv", TensorShape(3, 4, 4), [
            ConvSpec("c1", kernel=3, stride=1, out_channels=4, padding=1),
            FCSpec("fc", out_features=8),
            ConvSpec("c2", kernel=1, stride=1, out_channels=2),
        ])
        with pytest.raises(ConfigError, match="^fc: this FCSpec does not"):
            compile_plan(fc_first)


class TestLazyExecutor:
    """Plans build their executor, and so their weights, on first use."""

    def test_compile_and_load_build_no_weights(self, tmp_path):
        cache = PlanCache(max_bytes=2 ** 30)
        plan = cache.get_or_compile(nin_cifar())
        plan.describe()
        path = tmp_path / "plans.json"
        cache.save(path)
        warmed = PlanCache(max_bytes=2 ** 30)
        warmed.load(path)
        restored = warmed.lookup(plan.key)
        assert warmed.total_bytes == cache.total_bytes == plan.byte_size
        assert "executor" not in vars(plan)
        assert "executor" not in vars(restored)

    @pytest.mark.parametrize("precision", ["int", "float"])
    def test_byte_size_equals_the_built_weights(self, precision):
        plan = compile_plan(nin_cifar(), precision=precision)
        size = plan.byte_size
        weights = sum(w.nbytes + b.nbytes
                      for w, b in plan.executor.params.values())
        assert size == weights + plan.network.input_shape.elements * 8

    def test_threads_first_executing_a_fresh_plan(self, net, inputs, golden):
        plan = compile_plan(net)
        start = threading.Barrier(4)  # four threads race the first build
        got = [None] * 4

        def first_use(slot):
            start.wait()
            got[slot] = plan.execute(inputs)

        threads = [threading.Thread(target=first_use, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for outs in got:
            assert all(np.array_equal(o, g) for o, g in zip(outs, golden))


class TestPlanCache:
    def test_miss_then_hit(self, net):
        cache = PlanCache()
        first = cache.get_or_compile(net)
        second = cache.get_or_compile(net)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_warm_hits_do_zero_exploration_work(self, net):
        cache = PlanCache()
        cache.get_or_compile(net)
        with capture() as registry:
            for _ in range(3):
                cache.get_or_compile(net)
        assert registry.counter("explore.partitions_scored") == 0
        assert registry.counter("serve.plan_cache.hits") == 3

    def test_lru_eviction_by_count(self):
        cache = PlanCache(max_plans=2)
        a = cache.get_or_compile(toynet())
        cache.get_or_compile(toynet(), tip=2)
        cache.get_or_compile(toynet(), tip=3)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert a.key not in cache  # oldest evicted first

    def test_lru_order_follows_use_not_insertion(self):
        cache = PlanCache(max_plans=2)
        a = cache.get_or_compile(toynet())
        b = cache.get_or_compile(toynet(), tip=2)
        cache.get_or_compile(toynet())  # refresh a
        cache.get_or_compile(toynet(), tip=3)
        assert a.key in cache and b.key not in cache

    def test_byte_budget_eviction_keeps_newest(self, net):
        plan = compile_plan(net)
        cache = PlanCache(max_bytes=plan.byte_size)  # room for exactly one
        cache.put(plan)
        other = compile_plan(net, tip=2)
        cache.put(other)
        assert len(cache) == 1 and other.key in cache

    def test_save_load_round_trip(self, net, inputs, golden, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache()
        original = cache.get_or_compile(net)
        cache.save(path)

        restored_cache = PlanCache()
        assert restored_cache.load(path) == 1
        restored = restored_cache.lookup(original.key)
        assert restored is not None
        assert restored.partition_sizes == original.partition_sizes
        assert restored.network.fingerprint() == net.fingerprint()
        for out, ref in zip(restored.execute(inputs), golden):
            assert np.array_equal(out, ref)

    def test_load_is_zero_exploration(self, net, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache()
        cache.get_or_compile(net)
        cache.save(path)
        with capture() as registry:
            PlanCache().load(path)
        assert registry.counter("explore.partitions_scored") == 0
        assert registry.counter("serve.plan_cache.loads") == 1

    def test_load_rejects_non_cache_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigError):
            PlanCache().load(path)

    def test_degraded_plan_survives_persistence(self, net, tmp_path):
        cache = PlanCache()
        plan = cache.get_or_compile(
            net, budget=ExplorationBudget(max_evaluations=1))
        assert plan.degraded
        path = tmp_path / "plans.json"
        cache.save(path)
        restored = PlanCache()
        restored.load(path)
        assert restored.lookup(plan.key).degraded

    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigError):
            PlanCache(max_plans=0)
        with pytest.raises(ConfigError):
            PlanCache(max_bytes=0)


class TestPlanCacheConcurrency:
    """Many threads hammering one cache must not corrupt its state."""

    def test_concurrent_get_or_compile_single_key(self, net):
        cache = PlanCache(max_plans=4)
        threads, results, errors = 8, [], []
        barrier = threading.Barrier(threads)

        def worker():
            try:
                barrier.wait()
                for _ in range(5):
                    results.append(cache.get_or_compile(net))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        assert not errors
        # every caller saw an equivalent plan and the cache holds one entry
        keys = {plan.key for plan in results}
        assert len(keys) == 1
        assert len(cache) == 1
        # each call is accounted exactly once, as a hit or a miss
        assert cache.hits + cache.misses == threads * 5
        assert cache.lookup(next(iter(keys))) is not None

    def test_concurrent_puts_respect_the_entry_budget(self, net):
        plans = [compile_plan(toynet(), seed=s) for s in range(6)]
        cache = PlanCache(max_plans=2)
        barrier = threading.Barrier(len(plans))

        def worker(plan):
            barrier.wait()
            cache.put(plan)

        pool = [threading.Thread(target=worker, args=(p,)) for p in plans]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        assert len(cache) == 2
        assert cache.evictions == len(plans) - 2
        assert cache.total_bytes == sum(
            p.byte_size for p in cache._plans.values())
