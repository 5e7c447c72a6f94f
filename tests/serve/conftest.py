"""Shared serving fixtures: ToyNet, integer inputs, golden outputs."""

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


@pytest.fixture(scope="session", autouse=True)
def _sanitizer_session_gate():
    """Under REPRO_SANITIZE=1 the whole serve suite doubles as a race
    harness: fail the session if any serving-stack lock tripped the
    runtime sanitizer (tests exercising violations on purpose use
    private LockSanitizer instances, not the global one)."""
    yield
    from repro.serve import get_sanitizer, sanitize_enabled

    if sanitize_enabled():
        violations = get_sanitizer().violations
        assert not violations, [v.render() for v in violations]
