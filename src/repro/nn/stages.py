"""Grouping of raw layers into the units the fusion analysis operates on.

The paper reasons at two granularities:

* **Levels** — individual *windowed* operations (convolution or pooling).
  The pyramid geometry of Section III-B walks backwards over levels, since
  both convolution and pooling obey ``D = S*D' + K - S``. Padding layers
  fold into the following level's effective padding; ReLU attaches to the
  producing level (it is elementwise and free of geometry).

* **Fusion units** — the things the partition search of Section V-B
  composes: each convolution (with its padding/ReLU) is a unit, and each
  pooling layer is its own unit ("for the purposes of this analysis, we
  treat them as independent layers"). For Figure 2 style accounting the
  paper instead merges each pooling into the preceding convolution; both
  groupings are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from .layers import ConvSpec, FCSpec, LRNSpec, PadSpec, PoolSpec, ReLUSpec
from .network import Network
from .shapes import ShapeError, TensorShape


@dataclass(frozen=True)
class Level:
    """One windowed operation (conv or pool) bound to its geometry.

    ``in_shape`` is the *unpadded* producer output feeding this level;
    ``pad`` zeros are added on each border before the window slides.
    ``lrn`` is an LRN folded onto the level by the graph lowering
    (:mod:`repro.graph.lower`), applied after the ReLU; like the ReLU it
    is pointwise in space, so it adds no geometry, and no cost model
    reads it (the paper omits LRN, Section VI-B).
    """

    name: str
    kind: str  # "conv" or "pool"
    kernel: int
    stride: int
    pad: int
    in_shape: TensorShape
    out_shape: TensorShape
    weight_count: int
    ops_per_output: int
    has_relu: bool = False
    pool_mode: str = "max"
    groups: int = 1
    lrn: Optional[LRNSpec] = None

    @property
    def is_conv(self) -> bool:
        return self.kind == "conv"

    @property
    def is_pool(self) -> bool:
        return self.kind == "pool"

    @property
    def in_channels(self) -> int:
        return self.in_shape.channels

    @property
    def out_channels(self) -> int:
        return self.out_shape.channels

    @property
    def padded_in_shape(self) -> TensorShape:
        return self.in_shape.padded(self.pad)

    @property
    def total_ops(self) -> int:
        return self.out_shape.elements * self.ops_per_output

    @property
    def overlap(self) -> int:
        """Columns/rows shared by adjacent windows: ``K - S`` (Section III-B).

        Zero for non-overlapping windows (e.g. 2x2 stride-2 pooling), which
        is why fusing pooling into the prior convolution is free.
        """
        return max(self.kernel - self.stride, 0)

    def __str__(self) -> str:
        tag = f"{self.kind} {self.kernel}x{self.kernel}/s{self.stride}"
        return f"{self.name} ({tag}, {self.in_shape} -> {self.out_shape})"


@dataclass(frozen=True)
class FusionUnit:
    """A partition-search unit: one or more consecutive levels that always
    fuse together (a conv stage, optionally with a merged pooling level)."""

    levels: "tuple[Level, ...]"

    def __post_init__(self) -> None:
        if not self.levels:
            raise ShapeError("a fusion unit needs at least one level")

    @property
    def name(self) -> str:
        return "+".join(level.name for level in self.levels)

    @property
    def in_shape(self) -> TensorShape:
        return self.levels[0].in_shape

    @property
    def out_shape(self) -> TensorShape:
        return self.levels[-1].out_shape

    @property
    def weight_count(self) -> int:
        return sum(level.weight_count for level in self.levels)

    @property
    def total_ops(self) -> int:
        return sum(level.total_ops for level in self.levels)


def extract_levels(network: Network) -> List[Level]:
    """Flatten a network's feature extractor into windowed levels.

    Explicit :class:`PadSpec` layers fold into the next windowed level's
    padding; :class:`ReLUSpec` attaches to the previous level; LRN layers
    are skipped with the paper's justification (Section VI-B: omitted for
    comparability, negligible compute). Fully connected layers terminate
    the walk (out of fusion scope).
    """
    levels: List[Level] = []
    pending_pad = 0
    for binding in network:
        spec = binding.spec
        if isinstance(spec, FCSpec):
            break
        if isinstance(spec, PadSpec):
            pending_pad += spec.pad
            continue
        if isinstance(spec, ReLUSpec):
            if not levels:
                raise ShapeError(f"{spec.name}: ReLU before any windowed layer")
            levels[-1] = replace(levels[-1], has_relu=True)
            continue
        if isinstance(spec, LRNSpec):
            continue
        if isinstance(spec, ConvSpec):
            pad = pending_pad + spec.padding
            in_shape = binding.input_shape
            if pending_pad:
                # binding.input_shape already includes the explicit PadSpec
                # output; undo it so `pad` carries the whole border.
                in_shape = TensorShape(
                    in_shape.channels,
                    in_shape.height - 2 * pending_pad,
                    in_shape.width - 2 * pending_pad,
                )
            levels.append(
                Level(
                    name=spec.name,
                    kind="conv",
                    kernel=spec.kernel,
                    stride=spec.stride,
                    pad=pad,
                    in_shape=in_shape,
                    out_shape=binding.output_shape,
                    weight_count=binding.weight_count,
                    ops_per_output=spec.ops_per_output(binding.input_shape),
                    groups=spec.groups,
                )
            )
            pending_pad = 0
            continue
        if isinstance(spec, PoolSpec):
            if pending_pad:
                raise ShapeError(f"{spec.name}: padding before pooling is unsupported")
            levels.append(
                Level(
                    name=spec.name,
                    kind="pool",
                    kernel=spec.kernel,
                    stride=spec.stride,
                    pad=0,
                    in_shape=binding.input_shape,
                    out_shape=binding.output_shape,
                    weight_count=0,
                    ops_per_output=spec.ops_per_output(binding.input_shape),
                    pool_mode=spec.mode,
                )
            )
            continue
        raise ShapeError(f"unsupported layer kind in fusion scope: {spec!r}")
    if pending_pad:
        raise ShapeError("trailing padding layer with no consumer")
    return levels


def independent_units(levels: Sequence[Level]) -> List[FusionUnit]:
    """Each windowed level is its own partition unit (Section V-B search)."""
    return [FusionUnit((level,)) for level in levels]


def pooling_merged_units(levels: Sequence[Level]) -> List[FusionUnit]:
    """Merge each pooling level into the preceding convolution (Figure 2).

    "we assume that each subsampling (pooling) layer is merged into its
    preceding convolutional layer. Because subsampling is a local operation
    that reduces the amount of data, this always reduces bandwidth without
    any drawback."
    """
    units: List[FusionUnit] = []
    for level in levels:
        if level.is_pool and units:
            units[-1] = FusionUnit(units[-1].levels + (level,))
        else:
            units.append(FusionUnit((level,)))
    return units
