"""DAG network intermediate representation.

The paper's :class:`~repro.nn.network.Network` is a linear chain — enough
for AlexNet/VGG-era zoos, but residual and concatenative architectures
(ResNet, MobileNetV2, YOLO routes) branch. :class:`GraphNetwork` keeps
the same unbound-spec philosophy (specs from :mod:`repro.nn.layers` plus
the join specs below) and adds named multi-input nodes with shape and
channel inference at construction time.

Construction is incremental: :meth:`GraphNetwork.add` requires every
input of a new node to already exist, so a ``GraphNetwork`` is acyclic
*by construction* and its insertion order is a topological order. Raw
(possibly broken) graph dictionaries are diagnosed separately by
:mod:`repro.check.graph`, which cannot assume either invariant.

Joins:

* :class:`EltwiseSpec` — elementwise combine (``add``/``mul``/``max``)
  of same-shaped operands; the residual connection of ResNet and the
  inverted-residual of MobileNetV2.
* :class:`ConcatSpec` — depth concatenation of operands sharing spatial
  extent (DeCoILFNet-style routes, YOLO's detector head).

Depthwise convolution is an existing :class:`~repro.nn.layers.ConvSpec`
with ``groups == channels``; :func:`depthwise` builds one.

A linear :class:`~repro.nn.network.Network` is the simplest DAG:
:func:`chain_graph` builds its chain, one node per layer, and linear
plans lower and execute that chain like any other graph.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..nn.layers import (
    ConvSpec,
    FCSpec,
    LayerSpec,
    LRNSpec,
    PadSpec,
    PoolSpec,
    ReLUSpec,
)
from ..nn.shapes import ShapeError, TensorShape


class GraphError(ConfigError):
    """A structural problem in a DAG network description."""


#: Reserved tensor name that refers to the graph input.
INPUT = "input"

ELTWISE_OPS = ("add", "mul", "max")


@dataclass(frozen=True)
class EltwiseSpec(LayerSpec):
    """Elementwise join of two or more same-shaped operands."""

    op: str = "add"

    def __post_init__(self) -> None:
        if self.op not in ELTWISE_OPS:
            raise ShapeError(
                f"{self.name}: eltwise op must be one of {ELTWISE_OPS}")

    def join_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) < 2:
            raise ShapeError(f"{self.name}: eltwise join needs >= 2 operands")
        first = input_shapes[0]
        for shape in input_shapes[1:]:
            if shape != first:
                raise ShapeError(
                    f"{self.name}: eltwise operands disagree: "
                    f"{first} vs {shape}")
        return first

    def ops_per_output(self, input_shape: TensorShape) -> int:
        return 1


@dataclass(frozen=True)
class ConcatSpec(LayerSpec):
    """Depth concatenation of operands sharing spatial extent."""

    def join_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) < 2:
            raise ShapeError(f"{self.name}: concat needs >= 2 operands")
        first = input_shapes[0]
        for shape in input_shapes[1:]:
            if (shape.height, shape.width) != (first.height, first.width):
                raise ShapeError(
                    f"{self.name}: concat operands disagree spatially: "
                    f"{first} vs {shape}")
        channels = sum(shape.channels for shape in input_shapes)
        return TensorShape(channels, first.height, first.width)


JOIN_SPECS = (EltwiseSpec, ConcatSpec)

#: Spec registry for serialization, superset of the linear plan registry.
GRAPH_SPEC_TYPES = {cls.__name__: cls for cls in
                    (ConvSpec, PoolSpec, ReLUSpec, PadSpec, LRNSpec, FCSpec,
                     EltwiseSpec, ConcatSpec)}


def depthwise(name: str, channels: int, kernel: int = 3, stride: int = 1,
              padding: int = 1, bias: bool = True) -> ConvSpec:
    """A depthwise convolution: one filter per channel (groups == channels)."""
    return ConvSpec(name, kernel=kernel, stride=stride,
                    out_channels=channels, padding=padding,
                    groups=channels, bias=bias)


@dataclass(frozen=True)
class GraphNode:
    """A spec bound to its producers and inferred shapes."""

    index: int
    spec: LayerSpec
    inputs: Tuple[str, ...]
    input_shapes: Tuple[TensorShape, ...]
    output_shape: TensorShape

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_join(self) -> bool:
        return isinstance(self.spec, JOIN_SPECS)

    @property
    def weight_count(self) -> int:
        return self.spec.weight_count(self.input_shapes[0])

    @property
    def total_ops(self) -> int:
        if self.is_join:
            return self.output_shape.elements
        return self.spec.total_ops(self.input_shapes[0])


class GraphNetwork:
    """A DAG of named layer nodes with inferred shapes.

    Nodes are added in dependency order (:meth:`add` rejects references
    to nodes that do not exist yet), so iteration order *is* topological
    order and the graph is acyclic by construction. The reserved name
    ``"input"`` refers to the graph input tensor.
    """

    #: Plan-family marker consumed by :func:`repro.serve.make_plan_key`.
    plan_family = "graph"

    def __init__(self, name: str, input_shape: TensorShape):
        self.name = name
        self.input_shape = input_shape
        self._nodes: "Dict[str, GraphNode]" = {}

    # -- construction --------------------------------------------------------

    def add(self, spec: LayerSpec, inputs: Optional[Sequence[str]] = None) -> str:
        """Append a node; returns its name.

        ``inputs`` defaults to the previously added node (or the graph
        input for the first node). Joins require explicit inputs.
        """
        name = spec.name
        if name == INPUT:
            raise GraphError(f"node name {INPUT!r} is reserved for the graph "
                             "input", network=self.name)
        if name in self._nodes:
            raise GraphError(f"duplicate node name {name!r}",
                             network=self.name)
        if inputs is None:
            if isinstance(spec, JOIN_SPECS):
                raise GraphError(f"{name}: join nodes need explicit inputs",
                                 network=self.name)
            inputs = (self.last_name,)
        inputs = tuple(inputs)
        if not inputs:
            raise GraphError(f"{name}: a node needs at least one input",
                             network=self.name)
        shapes = tuple(self.tensor_shape(src, site=name) for src in inputs)
        if isinstance(spec, JOIN_SPECS):
            if len(set(inputs)) != len(inputs):
                raise GraphError(f"{name}: join operands must be distinct",
                                 network=self.name, inputs=inputs)
            out = spec.join_output_shape(shapes)
        else:
            if len(inputs) != 1:
                raise GraphError(
                    f"{name}: {type(spec).__name__} takes exactly one input",
                    network=self.name, inputs=inputs)
            out = spec.output_shape(shapes[0])
        self._nodes[name] = GraphNode(index=len(self._nodes), spec=spec,
                                      inputs=inputs, input_shapes=shapes,
                                      output_shape=out)
        return name

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self._nodes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> GraphNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in {self.name}") from None

    @property
    def nodes(self) -> List[GraphNode]:
        """Nodes in topological (insertion) order."""
        return list(self._nodes.values())

    @property
    def last_name(self) -> str:
        if not self._nodes:
            return INPUT
        return next(reversed(self._nodes))

    def tensor_shape(self, name: str, site: Optional[str] = None) -> TensorShape:
        """Shape of the tensor produced by node ``name`` (or the input)."""
        if name == INPUT:
            return self.input_shape
        node = self._nodes.get(name)
        if node is None:
            where = f"{site}: " if site else ""
            raise GraphError(f"{where}unknown input tensor {name!r}",
                             network=self.name)
        return node.output_shape

    def consumers(self, name: str) -> List[GraphNode]:
        return [node for node in self._nodes.values() if name in node.inputs]

    def fan_out(self, name: str) -> int:
        """How many node inputs reference tensor ``name`` (multiplicity
        counted, so ``add(x, x)`` would report 2)."""
        return sum(node.inputs.count(name) for node in self._nodes.values())

    def sinks(self) -> List[GraphNode]:
        """Nodes whose output no other node consumes."""
        return [node for node in self._nodes.values()
                if self.fan_out(node.name) == 0]

    @property
    def output_name(self) -> str:
        """The single sink's name; raises if the graph has 0 or 2+ sinks."""
        sinks = self.sinks()
        if len(sinks) != 1:
            raise GraphError(
                f"{self.name} must have exactly one output node, found "
                f"{[s.name for s in sinks]}", network=self.name)
        return sinks[0].name

    @property
    def output_shape(self) -> TensorShape:
        if not self._nodes:
            return self.input_shape
        return self.node(self.output_name).output_shape

    def feature_extractor(self) -> "GraphNetwork":
        """The graph up to (excluding) the first fully connected layer
        and anything downstream of it — the fusion-scoped subgraph."""
        trimmed = GraphNetwork(self.name, self.input_shape)
        dropped = set()
        for node in self._nodes.values():
            if isinstance(node.spec, FCSpec) or any(
                    src in dropped for src in node.inputs):
                dropped.add(node.name)
                continue
            trimmed.add(node.spec, node.inputs)
        return trimmed

    # -- aggregate statistics ------------------------------------------------

    def total_weights(self) -> int:
        return sum(node.weight_count for node in self._nodes.values())

    def total_ops(self) -> int:
        return sum(node.total_ops for node in self._nodes.values())

    # -- identity and persistence --------------------------------------------

    def fingerprint(self) -> str:
        """Content identity in the same 16-hex-character format as
        :meth:`repro.nn.network.Network.fingerprint`.

        The payload includes the edge structure (node inputs), so a DAG
        never fingerprints equal to a linear network — the linear payload
        has no ``"nodes"`` key — and any rewiring changes the key.
        """
        payload = {
            "input": [self.input_shape.channels, self.input_shape.height,
                      self.input_shape.width],
            "nodes": [
                {"type": type(node.spec).__name__,
                 "inputs": list(node.inputs),
                 **{f.name: getattr(node.spec, f.name)
                    for f in dataclasses.fields(node.spec)}}
                for node in self._nodes.values()
            ],
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return digest[:16]

    def to_dict(self) -> Dict[str, object]:
        shape = self.input_shape
        return {
            "name": self.name,
            "input_shape": [shape.channels, shape.height, shape.width],
            "nodes": [
                {"type": type(node.spec).__name__,
                 "inputs": list(node.inputs),
                 **{f.name: getattr(node.spec, f.name)
                    for f in dataclasses.fields(node.spec)}}
                for node in self._nodes.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GraphNetwork":
        try:
            c, h, w = data["input_shape"]  # type: ignore[misc]
            nodes = data["nodes"]
            name = data.get("name", "graph")  # type: ignore[union-attr]
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed graph description: {exc}") from exc
        net = cls(str(name), TensorShape(int(c), int(h), int(w)))
        for entry in nodes:  # type: ignore[union-attr]
            kind = entry.get("type")
            spec_cls = GRAPH_SPEC_TYPES.get(kind)
            if spec_cls is None:
                raise GraphError(f"unknown node spec type {kind!r}",
                                 known=sorted(GRAPH_SPEC_TYPES))
            kwargs = {k: v for k, v in entry.items()
                      if k not in ("type", "inputs")}
            net.add(spec_cls(**kwargs), tuple(entry.get("inputs", ())))
        return net

    def __repr__(self) -> str:
        return (f"GraphNetwork({self.name!r}, {len(self)} nodes, "
                f"in={self.input_shape})")


def chain_graph(network) -> GraphNetwork:
    """A linear :class:`~repro.nn.network.Network` as a chain graph: one
    node per layer, with the layer's name and spec, each reading the one
    before it."""
    graph = GraphNetwork(network.name, network.input_shape)
    for binding in network:
        graph.add(binding.spec)
    return graph
