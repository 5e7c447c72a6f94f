"""Lowering: decompose a DAG into maximal linear fusion segments.

The paper's pyramid model (Section III) applies to a linear chain of
windowed levels. A DAG lowers onto it as follows:

* **Folding** mirrors :func:`repro.nn.stages.extract_levels`: an explicit
  :class:`~repro.nn.layers.PadSpec` folds into its (single) consuming
  convolution, and a :class:`~repro.nn.layers.ReLUSpec` folds onto its
  producer — a windowed level *or a join* (the post-add ReLU of a
  residual block evaluates inside the join). An
  :class:`~repro.nn.layers.LRNSpec` folds onto the level producing it
  (:attr:`~repro.nn.stages.Level.lrn`): it mixes channels at one pixel,
  so like a ReLU it is pointwise in space. A level applies its ReLU
  before its LRN, so nothing folds onto a level after its LRN: a ReLU
  there stays an opaque step. With the fold, the windowed layers of
  every linear zoo chain (:func:`~repro.graph.ir.chain_graph`) form one
  segment, and the classifier rides after it.

* **Segments** are maximal chains of windowed levels connected by
  fan-out-1 edges. Any tensor consumed more than once (the residual
  source), produced for a join, or feeding a non-windowed layer is a
  segment boundary: it is materialized to DRAM exactly once and each
  fused group inside a segment prices its traffic with the unmodified
  linear model (:mod:`repro.core.partition` per segment).

* **Joins** (:class:`~repro.graph.ir.EltwiseSpec` /
  :class:`~repro.graph.ir.ConcatSpec`) are *structurally fusable* into
  the segment producing one of their operands when that operand has no
  other consumer: the body tensor then never touches DRAM — the join
  applies as the segment's output stage. Whether a fusable join is
  actually fused is a per-plan decision (it costs retained skip
  footprint); see :mod:`repro.graph.explore` for the cost model.

Every graph node lands in exactly one step (the segment-coverage
identity checked by RC704): levels and their folded pads, ReLUs and
LRNs in a :class:`SegmentStep`, joins in their :class:`SegmentStep` or a boundary
:class:`JoinStep`, and FC nodes and unfoldable ReLU/LRN nodes in an
:class:`OpaqueStep`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..nn.layers import ConvSpec, FCSpec, LRNSpec, PadSpec, PoolSpec, ReLUSpec
from ..nn.shapes import TensorShape
from ..nn.stages import Level
from .ir import INPUT, ConcatSpec, EltwiseSpec, GraphError, GraphNetwork, GraphNode


@dataclass(frozen=True)
class JoinInfo:
    """A join node bound to its operand tensors."""

    name: str
    kind: str  # "add" | "mul" | "max" | "concat"
    operands: Tuple[str, ...]
    operand_shapes: Tuple[TensorShape, ...]
    out_shape: TensorShape
    has_relu: bool
    output_tensor: str
    node_names: Tuple[str, ...]

    def operand_bytes(self, tensor: str) -> int:
        for operand, shape in zip(self.operands, self.operand_shapes):
            if operand == tensor:
                return shape.bytes
        raise KeyError(f"{tensor!r} is not an operand of join {self.name}")


@dataclass(frozen=True)
class SegmentStep:
    """A maximal linear chain of windowed levels, optionally ending in a
    structurally fusable join."""

    name: str
    levels: Tuple[Level, ...]
    input_tensor: str
    output_tensor: str  # tensor of the last level (pre-join)
    node_names: Tuple[str, ...]
    join: Optional[JoinInfo] = None

    @property
    def final_tensor(self) -> str:
        """Tensor this step produces when its join (if any) is fused."""
        return self.join.output_tensor if self.join else self.output_tensor

    @property
    def out_shape(self) -> TensorShape:
        return self.levels[-1].out_shape

    def skip_operands(self) -> Tuple[str, ...]:
        """Join operands other than this segment's own body output."""
        if self.join is None:
            return ()
        return tuple(t for t in self.join.operands if t != self.output_tensor)

    def retained_skips(self) -> Tuple[str, ...]:
        """Skip operands held on chip while the segment runs (they are
        the segment's own input, already streamed in — retaining them
        costs footprint but no extra DRAM traffic)."""
        return tuple(t for t in self.skip_operands()
                     if t == self.input_tensor)

    def streamed_skips(self) -> Tuple[str, ...]:
        """Skip operands re-read from DRAM at join time."""
        return tuple(t for t in self.skip_operands()
                     if t != self.input_tensor)


@dataclass(frozen=True)
class JoinStep:
    """A join executed at a segment boundary: every operand read from
    DRAM, the result written back."""

    join: JoinInfo

    @property
    def name(self) -> str:
        return self.join.name


@dataclass(frozen=True)
class OpaqueStep:
    """A non-fusable node (FC, or an LRN or ReLU that cannot fold)
    executed on its own."""

    name: str
    node: GraphNode
    input_tensor: str
    output_tensor: str


Step = Union[SegmentStep, JoinStep, OpaqueStep]


@dataclass
class _Op:
    """Mutable lowering intermediate: one level/join/opaque with folded
    neighbours, before segment assembly."""

    kind: str  # "level" | "join" | "opaque"
    node_names: List[str]
    input_tensors: Tuple[str, ...]
    output_tensor: str
    level: Optional[Level] = None
    node: Optional[GraphNode] = None
    join_kind: str = ""
    out_shape: Optional[TensorShape] = None
    has_relu: bool = False
    folded_pad: int = 0
    pad_input: str = ""
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class GraphProgram:
    """The lowered form of a :class:`GraphNetwork`."""

    network: GraphNetwork
    steps: Tuple[Step, ...]
    output_tensor: str
    node_step: Dict[str, str]

    @property
    def segments(self) -> List[SegmentStep]:
        return [s for s in self.steps if isinstance(s, SegmentStep)]

    @property
    def boundary_joins(self) -> List[JoinStep]:
        return [s for s in self.steps if isinstance(s, JoinStep)]

    @property
    def opaques(self) -> List[OpaqueStep]:
        return [s for s in self.steps if isinstance(s, OpaqueStep)]

    def describe(self) -> str:
        lines = [f"{self.network.name}: {len(self.segments)} segments, "
                 f"{len(self.boundary_joins)} boundary joins, "
                 f"{len(self.opaques)} opaque steps"]
        for step in self.steps:
            if isinstance(step, SegmentStep):
                chain = " > ".join(lv.name for lv in step.levels)
                join = (f" +join[{step.join.kind}:{step.join.name}]"
                        if step.join else "")
                lines.append(f"  segment {step.name}: {chain}{join}")
            elif isinstance(step, JoinStep):
                lines.append(f"  join {step.name} "
                             f"({step.join.kind} of {step.join.operands})")
            else:
                lines.append(f"  opaque {step.name} "
                             f"({type(step.node.spec).__name__})")
        return "\n".join(lines)


def lower_graph(network: GraphNetwork) -> GraphProgram:
    """Lower ``network`` into segments, joins, and opaque steps."""
    if len(network) == 0:
        raise GraphError("cannot lower an empty graph", network=network.name)
    output_name = network.output_name  # validates single sink
    ops = _fold(network)
    fan = Counter()
    for op in ops:
        fan.update(op.input_tensors)
    steps, node_step = _assemble(ops, fan)
    return GraphProgram(network=network, steps=tuple(steps),
                        output_tensor=output_name, node_step=node_step)


def _fold(network: GraphNetwork) -> List[_Op]:
    """Pass 1: one op per windowed/join/opaque node, pads and ReLUs folded."""
    ops: List[_Op] = []
    producer: Dict[str, _Op] = {}  # tensor name -> producing op
    folded_pads: Dict[str, Tuple[int, str]] = {}  # pad node -> (pad, source)
    pad_owner: Dict[str, List[str]] = {}  # pad node -> covered node names

    def emit(op: _Op) -> None:
        ops.append(op)
        producer[op.output_tensor] = op

    for node in network:
        spec = node.spec
        if isinstance(spec, PadSpec):
            consumers = network.consumers(node.name)
            if (network.fan_out(node.name) != 1
                    or not isinstance(consumers[0].spec, ConvSpec)):
                raise GraphError(
                    f"{node.name}: an explicit padding node must feed "
                    "exactly one convolution",
                    network=network.name,
                    consumers=[c.name for c in consumers])
            src = node.inputs[0]
            if src in folded_pads:
                prior, origin = folded_pads.pop(src)
                folded_pads[node.name] = (prior + spec.pad, origin)
                pad_owner[node.name] = pad_owner.pop(src) + [node.name]
            else:
                folded_pads[node.name] = (spec.pad, src)
                pad_owner[node.name] = [node.name]
            continue
        if isinstance(spec, (ReLUSpec, LRNSpec)):
            src = node.inputs[0]
            src_op = producer.get(src)
            if (src_op is not None and network.fan_out(src) == 1
                    and _folds(spec, src_op)):
                # fold onto the producer: its output tensor becomes ours
                del producer[src_op.output_tensor]
                src_op.output_tensor = node.name
                src_op.node_names.append(node.name)
                if isinstance(spec, LRNSpec):
                    src_op.level = replace(src_op.level, lrn=spec)
                else:
                    src_op.has_relu = True
                    if src_op.kind == "level":
                        src_op.level = replace(src_op.level, has_relu=True)
                producer[node.name] = src_op
                continue
        if isinstance(spec, (ReLUSpec, LRNSpec, FCSpec)):
            emit(_Op(kind="opaque", node_names=[node.name],
                     input_tensors=node.inputs, output_tensor=node.name,
                     node=node))
            continue
        if isinstance(spec, (EltwiseSpec, ConcatSpec)):
            kind = spec.op if isinstance(spec, EltwiseSpec) else "concat"
            emit(_Op(kind="join", node_names=[node.name],
                     input_tensors=node.inputs, output_tensor=node.name,
                     join_kind=kind, out_shape=node.output_shape, node=node))
            continue
        if isinstance(spec, (ConvSpec, PoolSpec)):
            src = node.inputs[0]
            pad = 0
            covered = [node.name]
            if src in folded_pads:
                if isinstance(spec, PoolSpec):
                    raise GraphError(
                        f"{node.name}: padding before pooling is unsupported",
                        network=network.name)
                pad, src = folded_pads.pop(src)
                covered = pad_owner.pop(node.inputs[0]) + covered
            level = _node_to_level(network, node, extra_pad=pad,
                                   input_tensor=src)
            emit(_Op(kind="level", node_names=covered,
                     input_tensors=(src,), output_tensor=node.name,
                     level=level, node=node))
            continue
        raise GraphError(
            f"{node.name}: unsupported spec {type(spec).__name__} in a "
            "graph network", network=network.name)
    if folded_pads:
        raise GraphError("padding node with no consuming convolution",
                         network=network.name,
                         nodes=sorted(folded_pads))
    return ops


def _node_to_level(network: GraphNetwork, node: GraphNode, extra_pad: int,
                   input_tensor: str) -> Level:
    spec = node.spec
    in_shape = network.tensor_shape(input_tensor, site=node.name)
    if isinstance(spec, ConvSpec):
        return Level(name=node.name, kind="conv", kernel=spec.kernel,
                     stride=spec.stride, pad=spec.padding + extra_pad,
                     in_shape=in_shape, out_shape=node.output_shape,
                     weight_count=spec.weight_count(node.input_shapes[0]),
                     ops_per_output=spec.ops_per_output(node.input_shapes[0]),
                     groups=spec.groups)
    return Level(name=node.name, kind="pool", kernel=spec.kernel,
                 stride=spec.stride, pad=0, in_shape=in_shape,
                 out_shape=node.output_shape, weight_count=0,
                 ops_per_output=spec.ops_per_output(node.input_shapes[0]),
                 pool_mode=spec.mode)


def _folds(spec, op: _Op) -> bool:
    """Whether the pointwise ReLU or LRN ``spec`` folds onto its sole
    producer ``op``: a ReLU onto a level or a join, an LRN onto a level,
    and nothing onto a level whose LRN is already folded."""
    if op.kind == "level":
        return op.level.lrn is None
    return op.kind == "join" and isinstance(spec, ReLUSpec)


def _assemble(ops: List[_Op], fan: Counter) -> Tuple[List[Step], Dict[str, str]]:
    """Pass 2: greedy maximal segments over the folded op list."""
    steps: List[Step] = []
    node_step: Dict[str, str] = {}
    open_ops: List[_Op] = []

    def open_output() -> Optional[str]:
        return open_ops[-1].output_tensor if open_ops else None

    def close(join: Optional[JoinInfo] = None,
              join_names: Tuple[str, ...] = ()) -> None:
        if not open_ops:
            return
        name = open_ops[0].node_names[0]
        covered = tuple(n for op in open_ops for n in op.node_names)
        step = SegmentStep(
            name=name,
            levels=tuple(op.level for op in open_ops),
            input_tensor=open_ops[0].input_tensors[0],
            output_tensor=open_ops[-1].output_tensor,
            node_names=covered + join_names,
            join=join)
        steps.append(step)
        for node_name in step.node_names:
            node_step[node_name] = step.name
        open_ops.clear()

    for op in ops:
        if op.kind == "level":
            if (open_ops and op.input_tensors[0] == open_output()
                    and fan[open_output()] == 1):
                open_ops.append(op)
            else:
                close()
                open_ops.append(op)
            continue
        if op.kind == "join":
            join = JoinInfo(name=op.node_names[0], kind=op.join_kind,
                            operands=op.input_tensors,
                            operand_shapes=op.node.input_shapes,
                            out_shape=op.out_shape,
                            has_relu=op.has_relu,
                            output_tensor=op.output_tensor,
                            node_names=tuple(op.node_names))
            body = open_output()
            if (open_ops and body in op.input_tensors and fan[body] == 1):
                close(join=join, join_names=tuple(op.node_names))
            else:
                close()
                steps.append(JoinStep(join=join))
                for node_name in op.node_names:
                    node_step[node_name] = join.name
            continue
        # opaque
        close()
        steps.append(OpaqueStep(name=op.node_names[0], node=op.node,
                                input_tensor=op.input_tensors[0],
                                output_tensor=op.output_tensor))
        node_step[op.node_names[0]] = op.node_names[0]
    close()
    return steps, node_step
