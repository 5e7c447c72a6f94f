"""Stage partitioning and the stage/link cost model.

Everything here operates on **group atoms**: a uniform, ordered view of
the work a compiled plan performs, one atom per fused group. Each plan
family has one function that lists its execution atoms —
:func:`linear_atoms` ``(network, partition_sizes)`` assigns every layer
binding to a partition group (the classifier tail rides on the last
one), :func:`repro.graph.executor.graph_atoms` ``(program, decisions)``
hangs joins and opaque steps on the group before them (steps before the
first group lead it) — and :func:`plan_atoms` prices that same list one
to one, which pipeline stages then slice and execute. Priced atoms carry
their arithmetic, weight traffic, and named read/write tensor sets — so
pricing a stage split never re-derives geometry, it just re-buckets
footprints the partition analysis already computed.

The pricing model per stage ``s`` (device ``d_s``):

* compute cycles = stage ops / (2 * MAC lanes of ``d_s``);
* DRAM cycles = stage DRAM bytes / private channel rate. A tensor read
  and written *within* one stage rounds through that stage's DRAM
  (exactly the single-device boundary model); a tensor crossing a stage
  boundary streams over the link instead and is charged on **every**
  link it crosses;
* stage cycles = max(compute, DRAM) (double-buffered overlap, the
  :func:`repro.hw.bandwidth.performance_under_bandwidth` convention);
* stage cost = stage cycles + link-out transfer cycles, and the
  steady-state interval is the max stage cost.

A single stage on a single device therefore reproduces the classic
model: all boundary maps round-trip one DRAM channel. That is the
baseline every multi-device estimate is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, comb
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.partition import split_groups
from ..errors import ConfigError
from ..hw.device import DeviceSpec, WORDS_PER_BRAM18
from ..hw.link import LinkSpec
from ..hw.pipeline import PipelineSchedule, StageTiming, simulate_pipeline
from ..nn.layers import ConvSpec, PadSpec, PoolSpec
from ..nn.network import LayerBinding
from ..nn.shapes import BYTES_PER_WORD
from ..nn.stages import Level, extract_levels
from ..sim.weights import param_bytes

#: DSP floor per convolution level of a fused engine (the feasibility
#: floor :func:`repro.hw.multi.design_partition` applies).
_DSP_FLOOR_PER_CONV = 400


@dataclass(frozen=True)
class GroupAtom:
    """One schedulable unit of a compiled plan.

    ``reads``/``writes`` are ``(tensor, bytes, on_chip)`` triples;
    ``on_chip`` marks operands that cost no DRAM traffic when producer
    and consumer share a stage (retained skips of fused joins).
    """

    index: int
    name: str
    ops: int
    weight_bytes: int
    dsp_floor: int
    bram_words: int
    reads: Tuple[Tuple[str, int, bool], ...]
    writes: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class StageEstimate:
    """Priced placement of a contiguous run of atoms on one device."""

    index: int
    device: DeviceSpec
    atom_start: int
    atom_count: int
    ops: int
    compute_cycles: int
    dram_bytes: int
    dram_cycles: int
    link_out_bytes: int
    link_cycles: int
    dsp_floor: int
    bram_words: int

    @property
    def stage_cycles(self) -> int:
        """Compute overlapped with the private DRAM channel."""
        return max(self.compute_cycles, self.dram_cycles)

    @property
    def cost(self) -> int:
        """The stage's contribution to the steady-state interval."""
        return self.stage_cycles + self.link_cycles

    @property
    def bram18(self) -> int:
        return ceil(self.bram_words / WORDS_PER_BRAM18)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "device": self.device.to_dict(),
            "atom_start": self.atom_start,
            "atom_count": self.atom_count,
            "ops": self.ops,
            "compute_cycles": self.compute_cycles,
            "dram_bytes": self.dram_bytes,
            "dram_cycles": self.dram_cycles,
            "link_out_bytes": self.link_out_bytes,
            "link_cycles": self.link_cycles,
            "dsp_floor": self.dsp_floor,
            "bram_words": self.bram_words,
        }


@dataclass(frozen=True)
class PipelineEstimate:
    """The priced pipeline: one stage per device, links between."""

    stages: Tuple[StageEstimate, ...]
    link: LinkSpec

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return tuple(s.atom_count for s in self.stages)

    @property
    def interval_cycles(self) -> int:
        """Steady-state initiation interval (max stage cost)."""
        return max(s.cost for s in self.stages)

    @property
    def latency_cycles(self) -> int:
        """Per-item latency: stages back to back, links included."""
        return sum(s.cost for s in self.stages)

    @property
    def total_dsp(self) -> int:
        return sum(s.device.dsp for s in self.stages)

    @property
    def link_bytes(self) -> int:
        """Bytes crossing inter-device links, per item."""
        return sum(s.link_out_bytes for s in self.stages)

    @property
    def items_per_s(self) -> float:
        clock_hz = min(s.device.clock_mhz for s in self.stages) * 1e6
        return clock_hz / self.interval_cycles

    @property
    def throughput_per_dsp(self) -> float:
        """Items per second per DSP slice — the resource-efficiency
        figure the multi-device benchmarks are judged on."""
        return self.items_per_s / self.total_dsp

    @property
    def stage_utilization(self) -> Tuple[float, ...]:
        interval = self.interval_cycles
        return tuple(s.cost / interval for s in self.stages)

    def simulate(self, num_items: int) -> PipelineSchedule:
        """Stream ``num_items`` micro-batch items through the stages,
        each input queue double-buffered (two items).

        A stage serves an item for its stage cycles plus its link-out
        cycles (it takes no new item until its output has streamed to
        the next device; the last stage has none), so the simulated
        steady interval is exactly :attr:`interval_cycles`.
        """
        if num_items < 1:
            raise ConfigError("need at least one item", num_items=num_items)
        last = len(self.stages) - 1
        stages = [StageTiming(str(s.index), max(
            s.stage_cycles + (s.link_cycles if i < last else 0), 1))
            for i, s in enumerate(self.stages)]
        return simulate_pipeline(stages, num_items, queue_depth=2)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stages": [s.to_dict() for s in self.stages],
            "link": self.link.to_dict(),
            "interval_cycles": self.interval_cycles,
            "latency_cycles": self.latency_cycles,
            "link_bytes": self.link_bytes,
            "total_dsp": self.total_dsp,
        }


# -- atom extraction -----------------------------------------------------------


@dataclass(frozen=True)
class LinearAtom:
    """One partition group of a linear plan: its windowed ``levels`` and
    every layer binding it executes, in network order. ``tail`` holds
    the bindings past the fusion scope (the classifier), on the last
    group only."""

    levels: Tuple[Level, ...]
    bindings: Tuple[LayerBinding, ...]
    tail: Tuple[LayerBinding, ...] = ()


def linear_atoms(network, partition_sizes: Sequence[int]) -> List[LinearAtom]:
    """A linear plan as one atom per partition group, in layer order.

    Windowed layers go to their partition group, a pad to the level it
    folds into, ReLU/LRN to their producer's group, and everything past
    the last windowed level to the last group, so the atoms' bindings
    concatenate to the network exactly.
    """
    extractor = network.feature_extractor()
    level_groups = split_groups(extract_levels(extractor), partition_sizes)
    owner = [g for g, levels in enumerate(level_groups) for _ in levels]
    bindings: List[List[LayerBinding]] = [[] for _ in level_groups]
    g = windowed = 0  # the current binding's group; levels seen so far
    for binding in network:
        if (windowed < len(owner)
                and isinstance(binding.spec, (ConvSpec, PoolSpec, PadSpec))):
            g = owner[windowed]  # a pad folds into the next level
            if not isinstance(binding.spec, PadSpec):
                windowed += 1
        bindings[g].append(binding)
    tail = tuple(list(network)[len(extractor):])
    last = len(level_groups) - 1
    return [LinearAtom(levels=tuple(levels), bindings=tuple(group),
                       tail=tail if i == last else ())
            for i, (levels, group) in enumerate(zip(level_groups, bindings))]


def level_atoms(levels_per_group: Sequence[Sequence[Level]],
                input_bytes: int) -> List[GroupAtom]:
    """Priced atoms ``g0, g1, ...`` for consecutive fused groups of
    windowed levels: group ``i`` reads ``g<i-1>.out`` (the first reads
    ``input`` of ``input_bytes``) and writes ``g<i>.out``."""
    atoms: List[GroupAtom] = []
    upstream = ("input", input_bytes)
    for idx, levels in enumerate(levels_per_group):
        out = (f"g{idx}.out", levels[-1].out_shape.bytes)
        atoms.append(_group_atom(idx, f"g{idx}", levels,
                                 reads=[upstream + (False,)], writes=[out]))
        upstream = out
    return atoms


def _group_atom(index: int, name: str, levels: Sequence[Level],
                reads: List[Tuple[str, int, bool]],
                writes: List[Tuple[str, int]],
                ops: int = 0, weight_bytes: int = 0) -> GroupAtom:
    """A fused group's atom, plus ``ops``/``weight_bytes`` of the work
    riding on it."""
    return GroupAtom(
        index=index, name=name,
        ops=ops + sum(level.total_ops for level in levels),
        weight_bytes=weight_bytes
                     + sum(level.weight_count for level in levels)
                     * BYTES_PER_WORD,
        dsp_floor=_DSP_FLOOR_PER_CONV
                  * sum(1 for level in levels if level.is_conv),
        bram_words=_group_bram_words(levels),
        reads=tuple(reads), writes=tuple(writes))


def _group_bram_words(levels) -> int:
    """On-chip working-set estimate: weights plus the line buffers each
    windowed level needs (kernel rows of its padded input)."""
    words = sum(level.weight_count for level in levels)
    for level in levels:
        padded = level.padded_in_shape
        words += level.kernel * padded.width * padded.channels
    return words


def _price_linear(network, atoms: Sequence[LinearAtom]) -> List[GroupAtom]:
    """Chain the groups; the classifier tail folds its arithmetic and
    weights into the last atom, which writes the network's ``output``."""
    priced = level_atoms([atom.levels for atom in atoms],
                         network.input_shape.bytes)
    last, tail = priced[-1], atoms[-1].tail
    priced[-1] = replace(
        last, ops=last.ops + sum(b.total_ops for b in tail),
        weight_bytes=last.weight_bytes + param_bytes(tail, BYTES_PER_WORD),
        writes=(("output", tail[-1].output_shape.bytes if tail
                 else last.writes[0][1]),))
    return priced


def _price_graph(atom) -> GroupAtom:
    """A graph atom: its group and fused join, plus the arithmetic,
    weights and traffic of every step riding on it."""
    from ..graph.lower import JoinStep

    levels = atom.levels
    reads: List[Tuple[str, int, bool]] = []
    writes: List[Tuple[str, int]] = []
    ops = weight_bytes = 0

    def add_join(join, operands, retained=()) -> None:
        # elementwise/concat: one op per output element per operand
        nonlocal ops
        ops += join.out_shape.elements * max(len(join.operands), 1)
        reads.extend((t, join.operand_bytes(t), t in retained)
                     for t in operands)
        writes.append((join.output_tensor, join.out_shape.bytes))

    if levels:
        reads.append((atom.input_tensor, levels[0].in_shape.bytes, False))
        writes.append((atom.output_tensor, levels[-1].out_shape.bytes))
    if atom.join is not None:
        add_join(atom.join, atom.step.skip_operands(),
                 atom.step.retained_skips())
    for rider in atom.leading + atom.riders:
        if isinstance(rider, JoinStep):
            add_join(rider.join, rider.join.operands)
            continue
        node = rider.node
        in_shape = node.input_shapes[0]
        ops += node.spec.total_ops(in_shape)
        weight_bytes += param_bytes([node], BYTES_PER_WORD)
        reads.append((rider.input_tensor, in_shape.bytes, False))
        writes.append((rider.output_tensor, node.output_shape.bytes))
    return _group_atom(atom.index, atom.name, levels, reads, writes,
                       ops=ops, weight_bytes=weight_bytes)


def plan_atoms(plan) -> List[GroupAtom]:
    """The priced atoms of a compiled plan, one per execution atom —
    :func:`~repro.graph.executor.graph_atoms` of a graph plan,
    :func:`linear_atoms` of a linear one — in execution order.

    The atom count equals ``plan.num_groups`` (every fused group appears
    exactly once), which is the invariant the stage partitioner and the
    RC801 coverage check build on.
    """
    family = plan.key.family
    if family == "graph":
        from ..graph.executor import graph_atoms

        atoms = [_price_graph(atom)
                 for atom in graph_atoms(plan.program, plan.decisions)]
    elif family == "linear":
        atoms = _price_linear(plan.network, linear_atoms(
            plan.network, plan.partition_sizes))
    else:
        raise ConfigError(f"cannot shard a {family!r} plan",
                          family=family)
    if len(atoms) != plan.num_groups:
        raise ConfigError(
            "plan atoms do not match its fused groups", atoms=len(atoms),
            groups=plan.num_groups)
    return atoms


# -- pricing -------------------------------------------------------------------


def _stage_of_atom(boundaries: Sequence[int]) -> List[int]:
    out: List[int] = []
    for stage, count in enumerate(boundaries):
        out.extend([stage] * count)
    return out


def price_stages(atoms: Sequence[GroupAtom], boundaries: Sequence[int],
                 devices: Sequence[DeviceSpec],
                 link: LinkSpec, weight_items: int = 1) -> PipelineEstimate:
    """Price one contiguous stage split of ``atoms`` onto ``devices``.

    ``boundaries`` gives the atom count of each stage; it must cover
    every atom exactly once with no empty stage. ``weight_items`` is the
    micro-batch run length weights amortize over: a stage streams its
    weights from DRAM once, then reuses them for that many consecutive
    items (``1`` = refetch per item, the paper's single-image model).
    The same value must price the single-device baseline for a fair
    comparison.
    """
    if weight_items < 1:
        raise ConfigError("weight_items must be >= 1",
                          weight_items=weight_items)
    boundaries = tuple(int(b) for b in boundaries)
    if len(boundaries) != len(devices):
        raise ConfigError("one stage per device required",
                          stages=len(boundaries), devices=len(devices))
    if any(b < 1 for b in boundaries) or sum(boundaries) != len(atoms):
        raise ConfigError(
            f"stage sizes {boundaries} do not cover {len(atoms)} groups",
            boundaries=boundaries, atoms=len(atoms))
    stage_of = _stage_of_atom(boundaries)
    writer: Dict[str, Tuple[int, int]] = {}  # tensor -> (stage, bytes)
    readers: Dict[str, List[int]] = {}
    for atom, stage in zip(atoms, stage_of):
        for tensor, nbytes, _ in atom.reads:
            readers.setdefault(tensor, []).append(stage)
        for tensor, nbytes in atom.writes:
            writer[tensor] = (stage, nbytes)

    num_stages = len(boundaries)
    dram = [0] * num_stages
    crossing = [0] * num_stages  # bytes over the link after stage s

    for atom, stage in zip(atoms, stage_of):
        dram[stage] += ceil(atom.weight_bytes / weight_items)
        for tensor, nbytes, on_chip in atom.reads:
            src = writer.get(tensor)
            if src is None:
                dram[stage] += nbytes  # external input: DRAM read
            elif src[0] == stage:
                if not on_chip:
                    dram[stage] += nbytes  # intra-stage round trip
            # cross-stage reads arrive over the link: no DRAM charge
    for tensor, (stage, nbytes) in writer.items():
        consumers = readers.get(tensor, [])
        later = [s for s in consumers if s > stage]
        intra = [s for s in consumers if s == stage]
        if later:
            for hop in range(stage, max(later)):
                crossing[hop] += nbytes
        if intra or not consumers:
            # written to this stage's DRAM: for a same-stage consumer,
            # or as a final output nobody downstream consumes
            dram[stage] += nbytes

    stages: List[StageEstimate] = []
    start = 0
    for idx, (count, device) in enumerate(zip(boundaries, devices)):
        chunk = list(atoms[start:start + count])
        ops = sum(a.ops for a in chunk)
        compute = ceil(ops / device.ops_per_cycle)
        dram_cycles = ceil(dram[idx] / device.dram_bytes_per_cycle)
        link_out = crossing[idx] if idx < num_stages - 1 else 0
        stages.append(StageEstimate(
            index=idx, device=device, atom_start=start, atom_count=count,
            ops=ops, compute_cycles=compute, dram_bytes=dram[idx],
            dram_cycles=dram_cycles, link_out_bytes=link_out,
            link_cycles=link.transfer_cycles(link_out),
            # Groups sharing a stage time-multiplex one engine, so the
            # stage needs the *largest* group's resources, not the sum.
            dsp_floor=max(a.dsp_floor for a in chunk),
            bram_words=max(a.bram_words for a in chunk)))
        start += count
    return PipelineEstimate(stages=tuple(stages), link=link)


def enumerate_boundaries(num_atoms: int,
                         num_stages: int) -> Iterator[Tuple[int, ...]]:
    """Every composition of ``num_atoms`` into exactly ``num_stages``
    positive parts, lexicographic."""
    if num_stages < 1 or num_atoms < num_stages:
        return
    if num_stages == 1:
        yield (num_atoms,)
        return
    for first in range(1, num_atoms - num_stages + 2):
        for rest in enumerate_boundaries(num_atoms - first, num_stages - 1):
            yield (first,) + rest


#: Above this many compositions the balance search falls back to an
#: ops-balanced greedy split instead of exhaustive enumeration.
_MAX_ENUMERATION = 200_000


def balance_stages(atoms: Sequence[GroupAtom],
                   devices: Sequence[DeviceSpec], link: LinkSpec,
                   boundaries: Optional[Sequence[int]] = None,
                   weight_items: int = 1) -> PipelineEstimate:
    """The minimum-interval contiguous stage split of ``atoms``.

    Exhaustive over all compositions when tractable (ties break toward
    the lexicographically first split, so the result is deterministic);
    an ops-balanced greedy split otherwise. ``boundaries`` pins an
    explicit split (a cache restore re-prices without searching).
    Splits whose stage DSP floors exceed their device are infeasible.
    """
    num_stages = len(devices)
    if num_stages < 1:
        raise ConfigError("a pipeline needs at least one device")
    if len(atoms) < num_stages:
        raise ConfigError(
            f"{len(atoms)} fused groups cannot fill {num_stages} devices; "
            "use fewer devices or a finer partition",
            atoms=len(atoms), devices=num_stages)
    if boundaries is not None:
        estimate = price_stages(atoms, boundaries, devices, link,
                                weight_items=weight_items)
        _require_feasible(estimate)
        return estimate
    candidates: Iterator[Tuple[int, ...]]
    if comb(len(atoms) - 1, num_stages - 1) > _MAX_ENUMERATION:
        candidates = iter([_greedy_boundaries(atoms, num_stages)])
    else:
        candidates = enumerate_boundaries(len(atoms), num_stages)
    best: Optional[PipelineEstimate] = None
    for split in candidates:
        estimate = price_stages(atoms, split, devices, link,
                                weight_items=weight_items)
        if any(s.dsp_floor > s.device.dsp for s in estimate.stages):
            continue
        if best is None or estimate.interval_cycles < best.interval_cycles:
            best = estimate
    if best is None:
        raise ConfigError(
            "no feasible stage split: some stage's DSP floor exceeds its "
            "device budget", devices=[d.name for d in devices])
    return best


def _require_feasible(estimate: PipelineEstimate) -> None:
    for stage in estimate.stages:
        if stage.dsp_floor > stage.device.dsp:
            raise ConfigError(
                f"stage {stage.index} needs {stage.dsp_floor} DSP but "
                f"device {stage.device.name!r} has {stage.device.dsp}",
                stage=stage.index, dsp_floor=stage.dsp_floor,
                dsp=stage.device.dsp)


def _greedy_boundaries(atoms: Sequence[GroupAtom],
                       num_stages: int) -> Tuple[int, ...]:
    """Contiguous split with per-stage ops closest to the even share."""
    total = sum(a.ops for a in atoms) or 1
    target = total / num_stages
    counts: List[int] = []
    acc = 0
    taken = 0
    for i, atom in enumerate(atoms):
        acc += atom.ops
        remaining_atoms = len(atoms) - i - 1
        remaining_stages = num_stages - len(counts) - 1
        if (acc >= target and remaining_stages > 0
                and remaining_atoms >= remaining_stages):
            counts.append(i + 1 - taken)
            taken = i + 1
            acc = 0
    counts.append(len(atoms) - taken)
    while len(counts) < num_stages:  # degenerate: pad with singletons
        counts[counts.index(max(counts))] -= 1
        counts.append(1)
    return tuple(counts)
