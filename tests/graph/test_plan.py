"""The "graph" plan family: compilation, serving, caching, validation.

The aliasing contract under test: a DAG plan's key carries
``family="graph"``, so graph and linear plans can never collide in a
:class:`~repro.serve.plan.PlanCache` — and ``CompiledPlan.from_dict``
restores each family through its own class, so warmed caches mix both
transparently (including in process-mode workers, which rebuild plans
from exactly these dicts).
"""

import threading

import numpy as np
import pytest

from repro.check import check_graph_plan_dict, check_plan_dict
from repro.errors import ConfigError
from repro.graph import (
    CompiledGraphPlan,
    GraphExecutor,
    compile_graph_plan,
    resnet18,
    yolo_head,
)
from repro.nn.zoo import toynet
from repro.serve import InferenceService, PlanCache
from repro.serve.plan import CompiledPlan, compile_plan, make_plan_key
from repro.sim import make_input

from .conftest import tiny_residual


@pytest.fixture(scope="module")
def residual_plan():
    return compile_graph_plan(tiny_residual(), seed=3)


class TestKeys:
    def test_graph_key_family(self, residual_plan):
        assert residual_plan.key.family == "graph"
        assert str(residual_plan.key).endswith("/graph")

    def test_linear_key_family_default(self):
        key = make_plan_key(toynet())
        assert key.family == "linear"
        assert not str(key).endswith("/graph")

    def test_legacy_key_dict_without_family_parses(self):
        key = make_plan_key(toynet())
        data = key.to_dict()
        data.pop("family", None)
        from repro.serve.plan import PlanKey

        assert PlanKey.from_dict(data).family == "linear"

    def test_same_fingerprint_different_family_never_alias(self,
                                                           residual_plan):
        linear_key = make_plan_key(toynet())
        assert residual_plan.key != linear_key


class TestCompile:
    def test_execute_matches_reference(self, residual_plan):
        reference = GraphExecutor(residual_plan.network, seed=3)
        xs = [residual_plan.executor.make_input(seed=s) for s in (1, 2)]
        outs = residual_plan.execute(xs)
        for x, out in zip(xs, outs):
            assert np.array_equal(out, reference.run_reference(x))

    def test_compile_plan_dispatches_on_family(self):
        plan = compile_plan(tiny_residual())
        assert isinstance(plan, CompiledGraphPlan)

    def test_compile_plan_rejects_linear_only_knobs(self):
        with pytest.raises(ConfigError, match="partition"):
            compile_plan(tiny_residual(), partition_sizes=(2, 1))

    def test_explicit_decisions_skip_exploration(self, residual_plan):
        rebuilt = compile_graph_plan(tiny_residual(), seed=3,
                                     decisions=residual_plan.decisions)
        assert rebuilt.decisions == residual_plan.decisions


class TestPersistence:
    def test_from_dict_round_trip(self, residual_plan):
        clone = CompiledGraphPlan.from_dict(residual_plan.to_dict())
        assert clone.key == residual_plan.key
        assert clone.decisions == residual_plan.decisions
        x = residual_plan.executor.make_input(seed=9)
        assert np.array_equal(clone.execute([x])[0],
                              residual_plan.execute([x])[0])

    def test_compiled_plan_from_dict_dispatches(self, residual_plan):
        restored = CompiledPlan.from_dict(residual_plan.to_dict())
        assert isinstance(restored, CompiledGraphPlan)

    def test_cache_round_trip_mixes_families(self, tmp_path, residual_plan):
        cache = PlanCache()
        linear = compile_plan(toynet())
        cache.put(linear)
        cache.put(residual_plan)
        path = tmp_path / "plans.json"
        cache.save(path)

        warmed = PlanCache()
        assert warmed.load(path) == 2
        assert residual_plan.key in warmed and linear.key in warmed
        restored = warmed.lookup(residual_plan.key)
        x = residual_plan.executor.make_input(seed=4)
        assert np.array_equal(restored.execute([x])[0],
                              residual_plan.execute([x])[0])

    def test_saved_cache_checks_clean(self, tmp_path, residual_plan):
        from repro.check import check_plan_cache_file

        cache = PlanCache()
        cache.put(compile_plan(toynet()))
        cache.put(residual_plan)
        path = tmp_path / "plans.json"
        cache.save(path)
        assert check_plan_cache_file(path) == []


class TestLazyExecutor:
    """Compiling or loading a graph plan builds no executor (no weights);
    whatever the executor would reject is still rejected up front."""

    @pytest.mark.parametrize("precision", ["int", "float"])
    def test_byte_size_needs_no_weights(self, precision):
        plan = compile_graph_plan(tiny_residual(), precision=precision)
        restored = CompiledPlan.from_dict(plan.to_dict())
        size = restored.byte_size
        assert "executor" not in vars(plan) and "executor" not in vars(restored)
        weights = sum(w.nbytes + b.nbytes
                      for w, b in restored.executor.params.values())
        assert size == weights + restored.network.input_shape.elements * 8

    def test_threads_first_executing_a_fresh_plan(self):
        plan = compile_graph_plan(tiny_residual(), seed=3)
        reference = GraphExecutor(plan.network, seed=3)
        xs = [reference.make_input(seed=s) for s in (1, 2, 3)]
        want = [reference.run_reference(x) for x in xs]
        start = threading.Barrier(4)  # four threads race the first build
        got = [None] * 4

        def first_use(slot):
            start.wait()
            got[slot] = plan.execute(xs)

        threads = [threading.Thread(target=first_use, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for outs in got:
            assert all(np.array_equal(o, w) for o, w in zip(outs, want))

    @pytest.mark.parametrize("tamper", [
        "uncovered", "zero_size", "negative_size", "missing", "join"])
    def test_bad_saved_decision_fails_at_from_dict(self, tamper):
        data = compile_plan(yolo_head()).to_dict()
        decisions = data["decisions"]
        first = decisions[0]
        levels = sum(first["sizes"])
        if tamper == "uncovered":
            first["sizes"] = first["sizes"] + [1]
        elif tamper == "zero_size":
            first["sizes"] = [0, levels]
        elif tamper == "negative_size":
            first["sizes"] = [-1, levels + 1]
        elif tamper == "missing":
            decisions.pop()
        else:
            joinless = next(d for d in decisions if not d["join_fused"])
            joinless["join_fused"] = True
        with pytest.raises(ConfigError):
            CompiledPlan.from_dict(data)


class TestValidation:
    def test_clean_plan_has_no_findings(self, residual_plan):
        assert check_graph_plan_dict(residual_plan.to_dict()) == []

    def test_tampered_decisions_rc706(self, residual_plan):
        data = residual_plan.to_dict()
        data["decisions"][0]["sizes"] = [99]
        codes = {d.code for d in check_graph_plan_dict(data)}
        assert codes == {"RC706"}

    def test_tampered_graph_rc401(self, residual_plan):
        data = residual_plan.to_dict()
        # Widen the sink conv: the graph stays structurally valid (no
        # join sees it), but its fingerprint no longer matches the key.
        data["graph"]["nodes"][-1]["out_channels"] = 6
        codes = {d.code for d in check_graph_plan_dict(data)}
        assert "RC401" in codes

    def test_tampered_join_shape_rc703(self, residual_plan):
        data = residual_plan.to_dict()
        data["graph"]["nodes"][0]["out_channels"] = 16
        codes = {d.code for d in check_graph_plan_dict(data)}
        assert codes == {"RC703"}

    def test_check_plan_dict_dispatches_by_family(self, residual_plan):
        data = residual_plan.to_dict()
        data["decisions"][0]["sizes"] = [99]
        codes = {d.code for d in check_plan_dict(data)}
        assert codes == {"RC706"}

    def test_wrong_network_cross_check_rc401(self, residual_plan):
        findings = check_graph_plan_dict(residual_plan.to_dict(),
                                         network=resnet18(37))
        assert "RC401" in {d.code for d in findings}


class TestServing:
    def test_service_serves_graph_network(self):
        network = tiny_residual()
        svc = InferenceService(network, workers=2, max_batch=4, seed=5)
        reference = GraphExecutor(network, seed=5)
        xs = [make_input(network.input_shape, seed=i, integer=True)
              for i in range(6)]
        try:
            svc.start()
            outs = [svc.submit(x).result(timeout=60) for x in xs]
        finally:
            svc.shutdown()
        for x, out in zip(xs, outs):
            assert np.array_equal(out, reference.run_reference(x))
