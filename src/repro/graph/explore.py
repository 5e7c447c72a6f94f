"""Branch-aware partition exploration over fusion segments.

Each :class:`~repro.graph.lower.SegmentStep` is a linear chain, so the
paper's ``2^(l-1)`` partition sweep (:func:`repro.core.partition.
enumerate_partitions`) applies per segment unchanged. The branch-aware
part is the *join policy* and the shared storage budget:

* a structurally fusable join may execute **fused** — the body tensor
  never touches DRAM (saving its write and the join's read of it) and
  any skip operand equal to the segment's own input is *retained* on
  chip (saving its re-read, costing its footprint) — or at the
  **boundary**, where every operand is read back from DRAM;
* extra on-chip storage is one pool: reuse buffers (BL/BT) of every
  fused group plus retained skip tensors, compared against a single
  ``storage_budget_bytes``.

Selection is a deterministic greedy ascent: start every segment at its
minimum-storage point with boundary joins, then repeatedly apply the
upgrade (a better partition for one segment, or fusing one join) with
the best traffic-saved-per-extra-byte ratio that still fits the budget.
Free upgrades (zero storage delta) rank ahead of everything else. With
no budget the sweep takes each segment's minimum-transfer partition and
fuses every fusable join.

Baselines reported alongside the chosen configuration:

* ``layer_by_layer`` — every group size 1, every join at the boundary
  (the unfused network);
* ``all_boundary`` — segments optimized identically but **no** join
  fused (branch-unaware fusion). Whenever a join is fusable the chosen
  configuration strictly beats it on both traffic and fused-layer
  count — the acceptance check in the spirit of GENESYS's
  ``check_fused_layer_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..core.fusion import Strategy
from ..core.partition import PartitionAnalysis, enumerate_partitions
from ..errors import ConfigError
from ..nn.stages import independent_units
from .ir import GraphNetwork
from .lower import GraphProgram, JoinStep, OpaqueStep, SegmentStep, lower_graph


@dataclass(frozen=True)
class SegmentDecision:
    """The serializable form of one segment's configuration."""

    sizes: Tuple[int, ...]
    join_fused: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {"sizes": list(self.sizes), "join_fused": self.join_fused}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SegmentDecision":
        return cls(sizes=tuple(int(s) for s in data["sizes"]),
                   join_fused=bool(data.get("join_fused", False)))


@dataclass(frozen=True)
class SegmentChoice:
    """One scored (partition, join policy) configuration for one segment."""

    step: SegmentStep
    analysis: PartitionAnalysis
    join_fused: bool

    def __post_init__(self) -> None:
        if self.join_fused and self.step.join is None:
            raise ConfigError(f"segment {self.step.name} has no fusable join",
                              segment=self.step.name)

    @property
    def retained_skip_bytes(self) -> int:
        """On-chip footprint of skip tensors held across the segment."""
        if not self.join_fused:
            return 0
        join = self.step.join
        return sum(join.operand_bytes(t) for t in self.step.retained_skips())

    @property
    def streamed_skip_bytes(self) -> int:
        if not self.join_fused:
            return 0
        join = self.step.join
        return sum(join.operand_bytes(t) for t in self.step.streamed_skips())

    @property
    def transfer_bytes(self) -> int:
        """DRAM feature traffic of the segment including its join, if any.

        Boundary join: the segment writes its body output, the join
        reads every operand back and writes its result. Fused join: the
        body write is replaced by the join-output write, retained skips
        cost nothing, streamed skips are read once.
        """
        base = self.analysis.feature_transfer_bytes
        join = self.step.join
        if join is None:
            return base
        join_out = join.out_shape.bytes
        if self.join_fused:
            return (base - self.step.out_shape.bytes + join_out
                    + self.streamed_skip_bytes)
        operands = sum(shape.bytes for shape in join.operand_shapes)
        return base + operands + join_out

    @property
    def extra_storage_bytes(self) -> int:
        return self.analysis.extra_storage_bytes + self.retained_skip_bytes

    @property
    def fused_layer_count(self) -> int:
        """Levels participating in a fused structure (groups of >= 2),
        plus the join and — when the body's last group stood alone — that
        last level, once a join fuses through."""
        count = sum(size for size in self.analysis.sizes if size >= 2)
        if self.join_fused:
            count += 1
            if self.analysis.sizes[-1] == 1:
                count += 1
        return count

    @property
    def decision(self) -> SegmentDecision:
        return SegmentDecision(sizes=self.analysis.sizes,
                               join_fused=self.join_fused)


@dataclass(frozen=True)
class GraphConfig:
    """A full configuration: one choice per segment plus the fixed
    traffic of boundary-only joins and opaque steps."""

    choices: Tuple[SegmentChoice, ...]
    fixed_transfer_bytes: int

    @property
    def feature_transfer_bytes(self) -> int:
        return (sum(c.transfer_bytes for c in self.choices)
                + self.fixed_transfer_bytes)

    @property
    def extra_storage_bytes(self) -> int:
        return sum(c.extra_storage_bytes for c in self.choices)

    @property
    def retained_skip_bytes(self) -> int:
        return sum(c.retained_skip_bytes for c in self.choices)

    @property
    def fused_layer_count(self) -> int:
        return sum(c.fused_layer_count for c in self.choices)

    @property
    def fused_join_count(self) -> int:
        return sum(1 for c in self.choices if c.join_fused)

    @property
    def decisions(self) -> Tuple[SegmentDecision, ...]:
        return tuple(c.decision for c in self.choices)

    def describe(self) -> str:
        parts = []
        for choice in self.choices:
            tag = ""
            if choice.step.join is not None:
                tag = "+join" if choice.join_fused else "|join"
            parts.append(f"{choice.step.name}{choice.analysis.sizes}{tag}")
        return " ".join(parts)


@dataclass(frozen=True)
class GraphExplorationResult:
    """Chosen configuration plus the two baselines."""

    network: GraphNetwork
    program: GraphProgram
    strategy: Strategy
    tip: int
    storage_budget_bytes: Optional[int]
    chosen: GraphConfig
    all_boundary: GraphConfig
    layer_by_layer: GraphConfig

    @property
    def network_name(self) -> str:
        return self.network.name


def segment_tip(step: SegmentStep, tip: int) -> Tuple[int, int]:
    """Clamp a plan-wide tip to the segment's output map (the same clamp
    linear plans apply per group)."""
    out = step.out_shape
    return min(tip, out.height), min(tip, out.width)


def _fixed_transfer(program: GraphProgram) -> int:
    """Feature traffic of steps with no configuration freedom."""
    total = 0
    for step in program.steps:
        if isinstance(step, JoinStep):
            join = step.join
            total += sum(shape.bytes for shape in join.operand_shapes)
            total += join.out_shape.bytes
        elif isinstance(step, OpaqueStep):
            node = step.node
            total += node.input_shapes[0].bytes + node.output_shape.bytes
    return total


def explore_graph(network: GraphNetwork,
                  strategy: Strategy = Strategy.REUSE,
                  tip: int = 1,
                  storage_budget_bytes: Optional[int] = None,
                  program: Optional[GraphProgram] = None) -> GraphExplorationResult:
    """Branch-aware exploration: per-segment partition sweeps plus the
    greedy join/storage ascent described in the module docstring."""
    if tip < 1:
        raise ConfigError("tip must be >= 1", tip=tip)
    if program is None:
        program = lower_graph(network)
    segments = program.segments
    fixed = _fixed_transfer(program)
    with obs.span("graph.explore", network=network.name,
                  segments=len(segments), strategy=strategy.name):
        candidates: List[List[SegmentChoice]] = []
        lbl: List[SegmentChoice] = []
        for step in segments:
            tip_h, tip_w = segment_tip(step, tip)
            points = enumerate_partitions(independent_units(step.levels),
                                          strategy=strategy,
                                          tip_h=tip_h, tip_w=tip_w)
            options = [SegmentChoice(step=step, analysis=p, join_fused=False)
                       for p in points]
            # compositions end with the layer-by-layer (1, ..., 1) split
            lbl.append(options[-1])
            if step.join is not None:
                options.extend(SegmentChoice(step=step, analysis=p,
                                             join_fused=True)
                               for p in points)
            candidates.append(options)
        obs.add_counter("graph.segments_explored", len(segments))

        chosen = _select(candidates, storage_budget_bytes)
        boundary_only = [[c for c in options if not c.join_fused]
                         for options in candidates]
        all_boundary = _select(boundary_only, storage_budget_bytes)
    return GraphExplorationResult(
        network=network, program=program, strategy=strategy, tip=tip,
        storage_budget_bytes=storage_budget_bytes,
        chosen=GraphConfig(choices=chosen, fixed_transfer_bytes=fixed),
        all_boundary=GraphConfig(choices=all_boundary,
                                 fixed_transfer_bytes=fixed),
        layer_by_layer=GraphConfig(choices=tuple(lbl),
                                   fixed_transfer_bytes=fixed))


def _select(candidates: List[List[SegmentChoice]],
            storage_budget_bytes: Optional[int]) -> Tuple[SegmentChoice, ...]:
    """Deterministic greedy selection under one shared storage budget."""
    def argmin(options: List[SegmentChoice], key) -> SegmentChoice:
        best_idx = min(range(len(options)),
                       key=lambda i: key(options[i]) + (i,))
        return options[best_idx]

    if storage_budget_bytes is None:
        return tuple(
            argmin(options,
                   lambda c: (c.transfer_bytes, c.extra_storage_bytes))
            for options in candidates)

    # Start at the minimum-storage configuration of every segment.
    current: List[SegmentChoice] = [
        argmin(options, lambda c: (c.extra_storage_bytes, c.transfer_bytes))
        for options in candidates]
    remaining = storage_budget_bytes - sum(c.extra_storage_bytes
                                           for c in current)
    while True:
        best = None  # (ratio_key, seg_idx, cand_idx, choice, d_storage)
        for seg_idx, options in enumerate(candidates):
            cur = current[seg_idx]
            for cand_idx, choice in enumerate(options):
                saved = cur.transfer_bytes - choice.transfer_bytes
                if saved <= 0:
                    continue
                d_storage = (choice.extra_storage_bytes
                             - cur.extra_storage_bytes)
                if d_storage > remaining:
                    continue
                ratio = saved / d_storage if d_storage > 0 else float("inf")
                key = (ratio, saved, -seg_idx, -cand_idx)
                if best is None or key > best[0]:
                    best = (key, seg_idx, cand_idx, choice, d_storage)
        if best is None:
            break
        _, seg_idx, _, choice, d_storage = best
        current[seg_idx] = choice
        remaining -= d_storage
    return tuple(current)
