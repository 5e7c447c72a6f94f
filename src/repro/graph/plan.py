"""Compiled plans for DAG networks: the ``"graph"`` plan family.

:class:`CompiledGraphPlan` is the DAG counterpart of
:class:`repro.serve.plan.CompiledPlan`: it freezes a branch-aware
configuration — one :class:`~repro.graph.explore.SegmentDecision` per
fusion segment (group sizes + join policy) — plus the weight seed, so
the :func:`~repro.graph.explore.explore_graph` sweep runs once and every
request just executes (deterministic weights are built on the first).
Its :class:`~repro.serve.plan.PlanKey` carries ``family="graph"``, so a
DAG plan can never alias a linear plan even if their fingerprints
collided; restoring from a saved dict performs **zero exploration
work** (the decisions are stored verbatim and checked against the
lowered program).

The serving stack dispatches here automatically:
``compile_plan``/``PlanCache.get_or_compile`` route any network with
``plan_family == "graph"`` to :func:`compile_graph_plan`, and
``CompiledPlan.from_dict`` routes saved records whose key carries the
``"graph"`` family to :meth:`CompiledGraphPlan.from_dict` — warmed
caches mix both families transparently.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.fusion import Strategy
from ..errors import ConfigError
from ..serve.plan import PlanKey, make_plan_key
from ..sim.weights import param_bytes
from .executor import GraphExecutor, check_decisions
from .explore import SegmentDecision, explore_graph
from .ir import GraphNetwork
from .lower import lower_graph


class CompiledGraphPlan:
    """A frozen, executable configuration for one DAG network.

    Mirrors the :class:`~repro.serve.plan.CompiledPlan` surface the
    serving stack relies on (``key``, ``execute``, ``byte_size``,
    ``num_groups``, ``describe``, ``to_dict``/``from_dict``) so caches,
    admission control, and workers treat both families uniformly.
    """

    def __init__(self, key: PlanKey, network: GraphNetwork,
                 decisions: Tuple[SegmentDecision, ...],
                 seed: int = 0, degraded: bool = False,
                 compile_s: float = 0.0):
        if key.family != "graph":
            raise ConfigError("CompiledGraphPlan requires a 'graph' plan key",
                              key=str(key))
        self.key = key
        self.network = network
        self.program = lower_graph(network)
        self.decisions = check_decisions(self.program, decisions)
        self.seed = seed
        self.degraded = degraded
        self.compile_s = compile_s

    @functools.cached_property
    def executor(self) -> GraphExecutor:
        """Built on first use, so compiling or loading allocates no
        weights. ``tip=None`` runs one pyramid per fused group: fastest,
        and bit-identical for any tip in integer mode."""
        return GraphExecutor(
            self.network, decisions=self.decisions, seed=self.seed,
            integer=self.key.precision == "int", tip=None,
            program=self.program)

    @property
    def partition_sizes(self) -> Tuple[int, ...]:
        """All group sizes, flattened across segments (for uniform
        reporting alongside linear plans)."""
        return tuple(size for d in self.decisions for size in d.sizes)

    @property
    def num_groups(self) -> int:
        return len(self.partition_sizes)

    @property
    def fused_join_count(self) -> int:
        return sum(1 for d in self.decisions if d.join_fused)

    @property
    def byte_size(self) -> int:
        """Resident bytes the cache charges this plan for (weights + one
        input volume), from parameter shapes: the executor stays unbuilt."""
        # make_network_weights stores float32 in either precision
        weights = param_bytes(self.network, 4)
        shape = self.network.input_shape
        return weights + shape.elements * 8

    def execute(self, xs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run a batch through the fused path as one stacked
        :meth:`GraphExecutor.run_fused` call (carried as
        :meth:`GraphExecutor.batch_envs` decides); outputs are
        bit-identical to per-item :meth:`GraphExecutor.run_reference`
        calls in integer precision. An empty batch builds nothing."""
        if len(xs) == 0:
            return []
        return list(self.executor.run_fused(
            np.stack([np.asarray(x) for x in xs])))

    def describe(self) -> str:
        mode = "degraded " if self.degraded else ""
        return (f"{self.network.name}: {len(self.decisions)} segments, "
                f"{self.num_groups} groups, {self.fused_join_count} fused "
                f"joins ({mode}{self.key.precision} precision, "
                f"{self.byte_size / 2**10:.0f} KB)")

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key.to_dict(),
            "graph": self.network.to_dict(),
            "decisions": [d.to_dict() for d in self.decisions],
            "seed": self.seed,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompiledGraphPlan":
        key = PlanKey.from_dict(data["key"])
        network = GraphNetwork.from_dict(data["graph"])
        decisions = tuple(SegmentDecision.from_dict(d)
                          for d in data["decisions"])
        return cls(key=key, network=network, decisions=decisions,
                   seed=int(data.get("seed", 0)),
                   degraded=bool(data.get("degraded", False)))


def compile_graph_plan(network: GraphNetwork,
                       strategy: Strategy = Strategy.REUSE,
                       tip: int = 1,
                       storage_budget_bytes: Optional[int] = None,
                       precision: str = "int", seed: int = 0,
                       decisions: Optional[Sequence[SegmentDecision]] = None,
                       validate: bool = True) -> CompiledGraphPlan:
    """Compile a DAG network into an executable plan.

    Without explicit ``decisions`` the configuration comes from a full
    :func:`~repro.graph.explore.explore_graph` sweep (branch-aware:
    per-segment partitions plus the join/storage greedy ascent under
    ``storage_budget_bytes``). With ``decisions`` — an explicit spec or
    a cache restore — no exploration runs at all.

    ``validate=True`` runs the graph static analyzer
    (:func:`repro.check.check_graph_network`) and raises
    :class:`ConfigError` on any error diagnostic.
    """
    key = make_plan_key(network, strategy=strategy, tip=tip,
                        storage_budget_bytes=storage_budget_bytes,
                        precision=precision, seed=seed)
    t0 = time.perf_counter()
    with obs.span("serve.compile", network=network.name, key=str(key),
                  family="graph"):
        if decisions is None:
            result = explore_graph(network, strategy=strategy, tip=tip,
                                   storage_budget_bytes=storage_budget_bytes)
            chosen = result.chosen.decisions
        else:
            chosen = tuple(decisions)
    plan = CompiledGraphPlan(key=key, network=network, decisions=chosen,
                             seed=seed, compile_s=time.perf_counter() - t0)
    if validate:
        from ..check import check_graph_network

        findings = [d for d in check_graph_network(network, program=plan.program)
                    if d.is_error]
        if findings:
            raise ConfigError(
                "compiled graph plan failed static validation: "
                + "; ".join(d.render() for d in findings[:3]),
                key=str(key), findings=len(findings))
        obs.add_counter("serve.plans_validated")
    obs.add_counter("serve.plans_compiled")
    return plan
