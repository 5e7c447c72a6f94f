"""One atom list per compiled plan: execution, stages and pricing agree.

Conservation after the codelets ``check_fused_layer_count`` idea: every
graph node (of a DAG, or of a linear network's chain graph) lands in
exactly one atom (as a group member or a rider), there is one atom per
fused group, and the priced atoms sum to the network's modeled
arithmetic. The DAG cases pin the rider rule at
the edges: steps before the first fused group, and a program with none.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro import alexnet, googlenet_stem, nin_cifar, toynet, vgg16, vggnet_e, zfnet
from repro.core.costs import one_pass_ops
from repro.dist import compile_pipeline_plan, plan_atoms, split_device
from repro.errors import ConfigError
from repro.faults.budget import ExplorationBudget
from repro.graph import GraphExecutor, GraphNetwork, compile_graph_plan
from repro.graph.executor import graph_atoms
from repro.graph.explore import SegmentDecision
from repro.graph.lower import JoinStep, SegmentStep, lower_graph
from repro.graph.zoo import mobilenetv2, resnet18, resnet50, yolo_head
from repro.hw.device import DEFAULT_DEVICE
from repro.nn.layers import ConvSpec, FCSpec, LRNSpec, PoolSpec, ReLUSpec
from repro.nn.shapes import TensorShape
from repro.nn.stages import extract_levels
from repro.serve import InferenceService, PlanCache, compile_plan
from repro.serve.plan import CompiledPlan

from ..graph.conftest import tiny_residual

LINEAR_ZOO = [toynet, alexnet, zfnet, nin_cifar, googlenet_stem, vgg16,
              vggnet_e]
GRAPH_ZOO = [(resnet18, 37), (resnet50, 37), (mobilenetv2, 33),
             (yolo_head, 48)]


def _layer_by_layer(program):
    return tuple(SegmentDecision(sizes=(1,) * len(step.levels))
                 for step in program.segments)


def _join_ops(join):
    return join.out_shape.elements * len(join.operands)


def _modeled_ops(program):
    """The lowered program's arithmetic, step by step (not via atoms)."""
    total = 0
    for step in program.steps:
        if isinstance(step, SegmentStep):
            total += one_pass_ops(step.levels)
            total += _join_ops(step.join) if step.join is not None else 0
        elif isinstance(step, JoinStep):
            total += _join_ops(step.join)
        else:
            total += step.node.spec.total_ops(step.node.input_shapes[0])
    return total


def _node_owners(network, atoms):
    """How many atoms claim each graph node. Levels, joins and opaque
    riders name their nodes; a ReLU or LRN folded onto a level belongs
    to the atom of the level it reads."""
    owner = Counter()
    placed = {}

    def place(name, index):
        owner[name] += 1
        placed[name] = index

    for atom in atoms:
        for level in atom.levels:
            place(level.name, atom.index)
        joins = [atom.join] if atom.join is not None else []
        for rider in atom.leading + atom.riders:
            if isinstance(rider, JoinStep):
                joins.append(rider.join)
            else:
                place(rider.name, atom.index)
        for join in joins:
            for name in join.node_names:
                place(name, atom.index)
    for node in network:  # topological order
        if (isinstance(node.spec, (ReLUSpec, LRNSpec))
                and node.name not in placed):
            place(node.name, placed[node.inputs[0]])
    return owner


class TestLinearConservation:
    @pytest.mark.parametrize("factory", LINEAR_ZOO,
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("mode", ["explored", "layer_by_layer"])
    def test_every_binding_in_one_atom(self, factory, mode):
        features = factory().feature_extractor()
        levels = extract_levels(features)
        if mode == "explored":
            # the full VGGNet-E sweep holds 2^20 points; a bounded one
            # still compiles an explored (degraded) plan
            plan = compile_plan(features, validate=False,
                                budget=ExplorationBudget(max_evaluations=4096))
        else:
            plan = compile_plan(features, validate=False,
                                partition_sizes=(1,) * len(levels))
        atoms = plan.atoms
        assert len(atoms) == plan.num_groups
        owners = _node_owners(plan.program.network, atoms)
        assert set(owners) == {binding.name for binding in features}
        assert set(owners.values()) == {1}
        assert [replace(lv, lrn=None) for atom in atoms
                for lv in atom.levels] == levels
        priced = plan_atoms(plan)
        assert len(priced) == plan.num_groups
        assert sum(a.ops for a in priced) == one_pass_ops(levels)

    def test_classifier_tail_rides_the_last_group(self):
        net = alexnet()
        plan = compile_plan(net, validate=False, partition_sizes=(1,) * 8)
        atoms = plan.atoms
        tail = list(net)[len(net.feature_extractor()):]
        assert [rider.name for rider in atoms[-1].riders] == [
            b.name for b in tail]
        assert all(atom.riders == atom.leading == () for atom in atoms[:-1])
        priced = plan_atoms(plan)
        assert sum(a.ops for a in priced) == (
            one_pass_ops(extract_levels(net)) + sum(b.total_ops for b in tail))


class TestGraphConservation:
    @pytest.mark.parametrize("factory,size", GRAPH_ZOO,
                             ids=[f.__name__ for f, _ in GRAPH_ZOO])
    @pytest.mark.parametrize("mode", ["explored", "layer_by_layer"])
    def test_every_node_in_one_atom(self, factory, size, mode):
        net = factory(size)
        program = lower_graph(net)
        decisions = None if mode == "explored" else _layer_by_layer(program)
        plan = compile_graph_plan(net, decisions=decisions, validate=False)
        atoms = graph_atoms(plan.program, plan.decisions)
        assert len(atoms) == plan.num_groups
        assert [atom.index for atom in atoms] == list(range(len(atoms)))
        owners = _node_owners(net, atoms)
        assert set(owners) == {node.name for node in net}
        assert set(owners.values()) == {1}
        priced = plan_atoms(plan)
        assert [a.name for a in priced] == [a.name for a in atoms]
        assert sum(a.ops for a in priced) == _modeled_ops(program)


def _lrn_first(size=12):
    net = GraphNetwork("lrn-first", TensorShape(3, size, size))
    net.add(LRNSpec("norm0"))
    net.add(ConvSpec("c1", kernel=3, stride=1, out_channels=4, padding=1))
    net.add(ReLUSpec("c1_relu"))
    net.add(ConvSpec("c2", kernel=3, stride=1, out_channels=4, padding=1))
    net.add(PoolSpec("p2", kernel=2, stride=2))
    return net


def _group_less():
    net = GraphNetwork("lrn-fc", TensorShape(3, 6, 6))
    net.add(LRNSpec("norm0"))
    net.add(FCSpec("fc", out_features=5))
    return net


class TestRiderEdges:
    def test_leading_steps_lead_the_first_group(self):
        program = lower_graph(_lrn_first())
        atoms = graph_atoms(program, _layer_by_layer(program))
        assert [r.name for r in atoms[0].leading] == ["norm0"]
        assert all(atom.leading == () for atom in atoms[1:])

    @pytest.mark.parametrize("devices", [1, 2])
    def test_lrn_first_pipeline_matches_unsharded(self, devices):
        net = _lrn_first()
        decisions = (None if devices == 1
                     else _layer_by_layer(lower_graph(net)))
        base = compile_graph_plan(net, decisions=decisions)
        plan = compile_pipeline_plan(
            base=base, devices=split_device(DEFAULT_DEVICE, devices))
        assert plan.num_stages == devices
        reference = GraphExecutor(net, seed=base.seed)
        xs = [reference.make_input(seed=s) for s in (1, 2)]
        for got, direct, x in zip(plan.execute(xs), base.execute(xs), xs):
            assert np.array_equal(got, direct)
            assert np.array_equal(got, reference.run_reference(x))

    def test_group_less_program_has_one_rider_atom(self):
        program = lower_graph(_group_less())
        (atom,) = graph_atoms(program, ())
        assert atom.levels == () and atom.step is None
        assert [r.name for r in atom.leading] == ["norm0", "fc"]

    def test_group_less_dag_serves_bit_identical(self):
        net = _group_less()
        reference = GraphExecutor(net, seed=0)
        xs = [reference.make_input(seed=s) for s in (1, 2, 3)]
        with InferenceService(net, workers=1) as svc:
            outs = [f.result(timeout=60) for f in svc.submit_batch(xs)]
        for out, x in zip(outs, xs):
            assert np.array_equal(out, reference.run_reference(x))

    def test_group_less_dag_cannot_shard(self):
        with pytest.raises(ConfigError, match="fused groups"):
            compile_pipeline_plan(_group_less(),
                                  devices=split_device(DEFAULT_DEVICE, 1))


class TestLazyPipelineBase:
    """A graph-base pipeline plan slices its atoms from the program and
    decisions, so compiling, round-tripping or loading it builds no
    weights; the first execute builds them and matches the reference."""

    @pytest.fixture
    def compiled(self):
        return compile_pipeline_plan(
            tiny_residual(), devices=split_device(DEFAULT_DEVICE, 2), seed=4)

    def _first_execute_matches(self, plan):
        assert "executor" not in vars(plan.base)
        reference = GraphExecutor(plan.network, seed=4)
        xs = [reference.make_input(seed=s) for s in (1, 2)]
        for got, x in zip(plan.execute(xs), xs):
            assert np.array_equal(got, reference.run_reference(x))
        assert "executor" in vars(plan.base)

    def test_compile(self, compiled):
        self._first_execute_matches(compiled)

    def test_dict_roundtrip(self, compiled):
        self._first_execute_matches(
            CompiledPlan.from_dict(compiled.to_dict()))

    def test_plan_cache_load(self, compiled, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache()
        cache.put(compiled)
        cache.save(path)
        fresh = PlanCache()
        assert fresh.load(path) == 1
        self._first_execute_matches(fresh.lookup(compiled.key))
