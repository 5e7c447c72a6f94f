"""repro.graph: DAG network IR and branch-aware fusion.

The linear :class:`~repro.nn.network.Network` caps the zoo at
AlexNet/VGG-era chains. This package generalizes the reproduction to
directed acyclic networks — residual adds, depth concatenation,
elementwise joins, depthwise convolution — while reusing the paper's
fusion machinery unchanged underneath:

* :mod:`~repro.graph.ir` — :class:`GraphNetwork`: named nodes, shape and
  channel inference, topological iteration, content fingerprinting;
  :func:`chain_graph` builds a linear network's chain, which linear
  plans lower and execute.
* :mod:`~repro.graph.lower` — decompose the DAG into maximal linear
  *fusion segments*; skip connections either bound fusion groups or fuse
  through a join.
* :mod:`~repro.graph.explore` — per-segment ``2^(l-1)`` partition sweeps
  (:mod:`repro.core.partition` per segment) plus a greedy join/storage
  ascent pricing retained skip tensors as on-chip footprint.
* :mod:`~repro.graph.executor` — NumPy reference and fused-segment
  execution, bit-identical in integer mode (including under
  ``transfer_corrupt`` fault plans).
* :mod:`~repro.graph.zoo` — ``resnet18``, ``resnet50``, ``mobilenetv2``,
  and a YOLO-style detector head.
* :mod:`~repro.graph.parse` — a line-oriented text form for DAG specs.
* :mod:`~repro.graph.plan` — :class:`CompiledGraphPlan` for the serving
  stack (``PlanKey`` family ``"graph"``).
"""

from .explore import (
    GraphConfig,
    GraphExplorationResult,
    SegmentChoice,
    SegmentDecision,
    explore_graph,
)
from .executor import GraphExecutor, default_decisions, make_graph_weights
from .ir import (
    INPUT,
    ConcatSpec,
    EltwiseSpec,
    GraphError,
    GraphNetwork,
    GraphNode,
    chain_graph,
    depthwise,
)
from .lower import (
    GraphProgram,
    JoinInfo,
    JoinStep,
    OpaqueStep,
    SegmentStep,
    lower_graph,
)
from .parse import dump_graph, parse_graph
from .plan import CompiledGraphPlan, compile_graph_plan
from .zoo import GRAPH_ZOO, mobilenetv2, resnet18, resnet50, yolo_head

__all__ = [
    "CompiledGraphPlan",
    "ConcatSpec",
    "EltwiseSpec",
    "GRAPH_ZOO",
    "GraphConfig",
    "GraphError",
    "GraphExecutor",
    "GraphExplorationResult",
    "GraphNetwork",
    "GraphNode",
    "GraphProgram",
    "INPUT",
    "JoinInfo",
    "JoinStep",
    "OpaqueStep",
    "SegmentChoice",
    "SegmentDecision",
    "SegmentStep",
    "chain_graph",
    "compile_graph_plan",
    "default_decisions",
    "depthwise",
    "dump_graph",
    "explore_graph",
    "lower_graph",
    "make_graph_weights",
    "mobilenetv2",
    "parse_graph",
    "resnet18",
    "resnet50",
    "yolo_head",
]
