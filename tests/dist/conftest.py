"""Shared dist fixtures: ToyNet, integer inputs, golden outputs."""

from __future__ import annotations

import pytest

from repro.nn.zoo import toynet
from repro.sim import NetworkExecutor, make_input


@pytest.fixture
def net():
    return toynet()


@pytest.fixture
def inputs(net):
    """16 deterministic integer-mode inputs in ToyNet's input shape."""
    return [make_input(net.input_shape, seed=42 + i, integer=True)
            for i in range(16)]


@pytest.fixture
def golden(net, inputs):
    """Direct per-item NetworkExecutor outputs (the bit-exactness oracle)."""
    executor = NetworkExecutor(net, seed=0, integer=True)
    return [executor.run(x) for x in inputs]
