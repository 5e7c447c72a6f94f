"""Shared DAG fixtures: tiny hand-built graphs plus the zoo registry.

The tiny graphs exercise every join mechanism in a few thousand MACs:
``tiny_residual`` has a fusable elementwise add whose skip operand is
the consuming segment's own input (a retained skip), ``tiny_concat``
a depth concatenation, and ``tiny_diamond`` a join neither of whose
operands can fuse through (both branches are multi-node).
``tiny_lrn`` has no join: an LRN folded onto a level inside a segment.
"""

import pytest

from repro.graph import ConcatSpec, EltwiseSpec, GraphNetwork
from repro.nn.layers import ConvSpec, LRNSpec, PoolSpec, ReLUSpec
from repro.nn.shapes import TensorShape


def tiny_residual(size: int = 14) -> GraphNetwork:
    net = GraphNetwork("tiny-res", TensorShape(3, size, size))
    net.add(ConvSpec("c1", kernel=3, stride=1, out_channels=8, padding=1))
    net.add(ReLUSpec("c1_relu"))
    net.add(ConvSpec("c2", kernel=3, stride=1, out_channels=8, padding=1))
    net.add(EltwiseSpec("res", op="add"), inputs=("c2", "c1_relu"))
    net.add(ReLUSpec("res_relu"))
    net.add(ConvSpec("c3", kernel=3, stride=1, out_channels=4, padding=1))
    return net


def tiny_lrn(size: int = 12) -> GraphNetwork:
    """conv -> ReLU -> LRN -> conv: the LRN folds onto ``c1``'s level."""
    net = GraphNetwork("tiny-lrn", TensorShape(3, size, size))
    net.add(ConvSpec("c1", kernel=3, stride=1, out_channels=8, padding=1))
    net.add(ReLUSpec("c1_relu"))
    net.add(LRNSpec("c1_norm"))
    net.add(ConvSpec("c2", kernel=3, stride=1, out_channels=4, padding=1))
    return net


def tiny_concat(size: int = 12) -> GraphNetwork:
    net = GraphNetwork("tiny-cat", TensorShape(3, size, size))
    net.add(ConvSpec("a", kernel=3, stride=1, out_channels=4, padding=1))
    net.add(ReLUSpec("a_relu"))
    net.add(ConvSpec("b", kernel=3, stride=1, out_channels=4, padding=1))
    net.add(ConcatSpec("route"), inputs=("b", "a_relu"))
    net.add(ConvSpec("head", kernel=1, stride=1, out_channels=2))
    return net


def tiny_diamond(size: int = 12) -> GraphNetwork:
    net = GraphNetwork("tiny-diamond", TensorShape(3, size, size))
    net.add(ConvSpec("stem", kernel=3, stride=1, out_channels=4, padding=1))
    net.add(ConvSpec("left1", kernel=3, stride=1, out_channels=4, padding=1),
            inputs=("stem",))
    net.add(ConvSpec("left2", kernel=3, stride=1, out_channels=4, padding=1))
    net.add(ConvSpec("right1", kernel=3, stride=1, out_channels=4, padding=1),
            inputs=("stem",))
    net.add(ConvSpec("right2", kernel=3, stride=1, out_channels=4, padding=1))
    net.add(EltwiseSpec("merge", op="max"), inputs=("left2", "right2"))
    net.add(PoolSpec("tail", kernel=2, stride=2))
    return net


@pytest.fixture
def residual_net():
    return tiny_residual()


@pytest.fixture
def concat_net():
    return tiny_concat()


@pytest.fixture
def diamond_net():
    return tiny_diamond()
