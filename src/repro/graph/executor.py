"""Graph execution: a NumPy reference walk and the fused-atom path.

``run_reference`` evaluates the DAG node by node — layers through
:func:`repro.sim.ops.apply_spec`, joins through this module's one join
evaluation — with no lowering involved, so it is an independent oracle
for the fused path. ``run_fused`` executes the lowered program as the
ordered atom list of :func:`graph_atoms`, one atom per fused group: the
group runs through the unmodified :class:`~repro.sim.fused.FusedExecutor`
(pyramid schedule, reuse buffers, fault repair), a fused join replaces
the body's DRAM output write with the join-output write, and the
boundary joins and opaque steps riding on the atom evaluate as NumPy
ops. Every compiled plan runs this way — a linear plan on its network's
chain graph (:func:`repro.graph.ir.chain_graph`), which lowers to one
segment. Pipeline stages (:mod:`repro.dist.plan`) run slices of the same
list through the same :meth:`GraphExecutor.run_atom`, and
:func:`repro.dist.stage.plan_atoms` prices it. In integer mode (the
single-tap contract of :mod:`repro.sim.weights`) the fused and
reference paths are **bit-identical**, including under
``transfer_corrupt`` fault plans — corrupted reads are detected and
repaired inside the fused executor, never changing results.

A batch runs stacked when arithmetic cannot round: :func:`graph_bound`
bounds every activation and partial sum from the weights and the
batch's largest |input|, and :func:`repro.sim.ops.carrying_dtype` (the
one stacking rule) carries the batch as one ``(B, C, H, W)``
array in float32 below 2^24, in float64 below 2^53, and item by item in
float64 otherwise. Integer-mode outputs are float64 either way. In
float mode each item runs alone in its own precision against the
float32 weights (NumPy's promotion: a float64 request computes and
returns float64, a float32 one float32), as
:meth:`repro.sim.network_exec.NetworkExecutor.run` computes it.

Observability: every atom runs inside a ``graph.atom[<segment>.g<i>]``
span (under ``graph.run`` on the direct path, under ``dist.execute`` in
a pipeline stage; both carry the ``batch`` size and the carrying
``dtype``), integer-mode batches that run item by item increment
``graph.per_item_batches``, and skip tensors retained on chip for a
fused join increment the ``graph.skip_bytes_retained`` counter — so
traces distinguish fused-through skips from boundary skips.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..core.partition import split_groups
from ..errors import ConfigError
from ..nn.shapes import ShapeError
from ..nn.stages import Level
from ..sim import ops
from ..sim.fused import FusedExecutor
from ..sim.trace import TrafficTrace
from ..sim.weights import (INPUT_PEAK, SINGLE_TAP_NORM, make_input,
                           make_network_weights)
from .explore import SegmentDecision
from .ir import INPUT, JOIN_SPECS, EltwiseSpec, GraphNetwork
from .lower import GraphProgram, JoinInfo, JoinStep, OpaqueStep, SegmentStep, lower_graph


#: The one weight generator, under the name the graph package exports.
make_graph_weights = make_network_weights


def graph_bound(network: GraphNetwork, peak: float,
                norms: Mapping[str, Optional[ops.Norm]]) -> Tuple[float, bool]:
    """Bound every activation and partial sum of an integer-mode run.

    Walks ``network`` from an input of integers no larger than ``peak``
    in magnitude, through :func:`repro.sim.ops.spec_magnitude` for
    layers (each weighted node's norm looked up in ``norms``) and
    :func:`_join_magnitude` for joins. Returns the largest
    :attr:`~repro.sim.ops.Magnitude.bound` of any tensor, and whether no
    operator can round.
    """
    env = {INPUT: ops.Magnitude(peak)}
    for node in network:
        inputs = [env[name] for name in node.inputs]
        spec = node.spec
        if isinstance(spec, JOIN_SPECS):
            kind = spec.op if isinstance(spec, EltwiseSpec) else "concat"
            env[node.name] = _join_magnitude(kind, inputs)
        else:
            env[node.name] = ops.spec_magnitude(spec, inputs[0],
                                                norms.get(node.name))
    return (max(m.bound for m in env.values()),
            all(m.exact for m in env.values()))


def contract_bound(network: GraphNetwork) -> Tuple[float, bool]:
    """:func:`graph_bound` under the integer contract of
    :mod:`repro.sim.weights` (single-tap weights, inputs no larger than
    :data:`~repro.sim.weights.INPUT_PEAK`), from the network's shapes
    alone: it builds no weights."""
    return graph_bound(network, INPUT_PEAK,
                       dict.fromkeys((node.name for node in network),
                                     SINGLE_TAP_NORM))


def fused_tip(extent: int, tip: Optional[int]) -> int:
    """The largest pyramid tip <= ``min(tip, extent)`` that divides
    ``extent`` (the fused executor requires an even grid). ``None``
    means "one pyramid": the whole map."""
    if tip is None:
        return extent
    limit = min(tip, extent)
    for t in range(limit, 0, -1):
        if extent % t == 0:
            return t
    return 1


class _SuppressedOutputTrace(TrafficTrace):
    """Trace for the final group of a fused-join segment: the body's
    DRAM output write never happens (the join consumes it on chip)."""

    def write(self, label: str, elements: int) -> None:
        if label == "output":
            return
        super().write(label, elements)


def _merge_trace(dst: Optional[TrafficTrace], src: TrafficTrace) -> None:
    if dst is None:
        return
    for kind, label, elements in src.events:
        if kind == "read":
            dst.read(label, elements)
        elif kind == "write":
            dst.write(label, elements)
        else:
            dst.compute(label, elements)


def default_decisions(program: GraphProgram) -> Tuple[SegmentDecision, ...]:
    """Fully fuse every segment and every structurally fusable join."""
    return tuple(
        SegmentDecision(sizes=(len(step.levels),),
                        join_fused=step.join is not None)
        for step in program.segments)


def check_decisions(program: GraphProgram,
                    decisions: Sequence[SegmentDecision]
                    ) -> Tuple[SegmentDecision, ...]:
    """Reject decisions that do not configure ``program``: one per
    segment, positive group sizes covering its levels, and a fused join
    only where the segment has one."""
    segments = program.segments
    decisions = tuple(decisions)
    if len(decisions) != len(segments):
        raise ConfigError(
            "one decision per segment required",
            segments=len(segments), decisions=len(decisions))
    for step, decision in zip(segments, decisions):
        if (sum(decision.sizes) != len(step.levels)
                or any(size <= 0 for size in decision.sizes)):
            raise ConfigError(
                f"segment {step.name}: sizes {decision.sizes} do not "
                f"cover {len(step.levels)} levels",
                segment=step.name, sizes=decision.sizes)
        if decision.join_fused and step.join is None:
            raise ConfigError(
                f"segment {step.name} has no fusable join",
                segment=step.name)
    return decisions


Rider = Union[JoinStep, OpaqueStep]


@dataclass(frozen=True)
class GraphAtom:
    """One fused group of a lowered program plus the steps riding on it.

    The group reads ``input_tensor`` and writes ``output_tensor``; a
    segment's non-final groups hand over through ``"<segment
    output>@<group>"``. ``join`` is the segment's join when it is fused
    into this (final) group. ``leading`` steps run before the group,
    ``riders`` after it. ``step`` is ``None`` only in the single atom of
    a program with no fused group, which carries every step as leading.
    """

    index: int
    name: str
    step: Optional[SegmentStep]
    levels: Tuple[Level, ...]
    input_tensor: str
    output_tensor: str
    join: Optional[JoinInfo] = None
    leading: Tuple[Rider, ...] = ()
    riders: Tuple[Rider, ...] = ()


def graph_atoms(program: GraphProgram,
                decisions: Sequence[SegmentDecision]) -> List[GraphAtom]:
    """The program as one atom per fused group, in execution order.

    Boundary joins (a segment's unfused join included) and opaque steps
    ride on the nearest preceding group; steps before the first group
    lead it. Running the atoms in order runs every step once, in program
    order: :meth:`GraphExecutor.run_fused` does exactly that, a pipeline
    stage runs a contiguous slice, and
    :func:`repro.dist.stage.plan_atoms` prices the same list.
    """
    groups: List[GraphAtom] = []
    riders: List[List[Rider]] = [[]]  # riders[0] lead the first group
    remaining = iter(decisions)
    for step in program.steps:
        if not isinstance(step, SegmentStep):
            riders[-1].append(step)
            continue
        decision = next(remaining)
        split = split_groups(step.levels, decision.sizes)
        for g, levels in enumerate(split):
            last = g == len(split) - 1
            groups.append(GraphAtom(
                index=len(groups), name=f"{step.name}.g{g}", step=step,
                levels=tuple(levels),
                input_tensor=(step.input_tensor if g == 0
                              else f"{step.output_tensor}@{g - 1}"),
                output_tensor=(step.output_tensor if last
                               else f"{step.output_tensor}@{g}"),
                join=step.join if last and decision.join_fused else None))
            riders.append([])
        if step.join is not None and not decision.join_fused:
            riders[-1].append(JoinStep(step.join))
    if not groups:
        return [GraphAtom(index=0, name=program.steps[0].name, step=None,
                          levels=(), input_tensor=INPUT,
                          output_tensor=program.output_tensor,
                          leading=tuple(riders[0]))]
    return [replace(atom, riders=tuple(riders[atom.index + 1]),
                    leading=tuple(riders[0]) if atom.index == 0 else ())
            for atom in groups]


class GraphExecutor:
    """Reference and fused execution of a :class:`GraphNetwork`.

    Parameters
    ----------
    network:
        The DAG to execute.
    decisions:
        One :class:`~repro.graph.explore.SegmentDecision` per segment of
        the lowered program (group sizes + join policy). Defaults to
        fully fused segments with every fusable join fused.
    params:
        ``{node_name: (weights, bias)}``; generated deterministically
        from ``seed`` when omitted (float32, see
        :func:`~repro.sim.weights.make_network_weights`).
    tip:
        Pyramid tip for fused groups; per group the largest divisor of
        the output map not exceeding it is used. ``None`` (default) runs
        one pyramid per group — fastest, same arithmetic.
    faults, retry:
        Forwarded to every :class:`~repro.sim.fused.FusedExecutor`:
        ``transfer_corrupt`` faults are injected on DRAM reads and
        repaired, keeping outputs bit-identical. An executor with faults
        runs every batch item by item, so it draws them per item.

    Inputs and outputs are float64 in integer mode; in float mode each
    item keeps its own precision (:meth:`item_dtype`). A batch is carried
    as :meth:`batch_envs` decides.
    """

    def __init__(self, network: GraphNetwork,
                 decisions: Optional[Sequence[SegmentDecision]] = None,
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 seed: int = 0, integer: bool = True, tip: Optional[int] = None,
                 input_reuse: bool = True, faults=None, retry=None,
                 program: Optional[GraphProgram] = None):
        self.network = network
        self.program = program if program is not None else lower_graph(network)
        self.seed = seed
        self.integer = integer
        self.dtype = np.dtype(np.float64 if integer else np.float32)
        self.params = params if params is not None else make_network_weights(
            network, seed=seed, integer=integer)
        self.decisions = check_decisions(
            self.program, decisions if decisions is not None
            else default_decisions(self.program))
        self.atoms = graph_atoms(self.program, self.decisions)
        self._faults = faults
        #: One fused executor per atom for each dtype a run may carry.
        self._executors = {
            np.dtype(dtype): [
                FusedExecutor(
                    list(atom.levels),
                    params={lv.name: self.params[lv.name]
                            for lv in atom.levels if lv.is_conv},
                    tip_h=fused_tip(atom.levels[-1].out_shape.height, tip),
                    tip_w=fused_tip(atom.levels[-1].out_shape.width, tip),
                    integer=self.integer, input_reuse=input_reuse,
                    dtype=dtype, faults=faults, retry=retry)
                if atom.levels else None
                for atom in self.atoms]
            for dtype in (np.float32, np.float64)}

    @functools.cached_property
    def _bound(self):
        """:func:`graph_bound` over this executor's weights, memoized per
        input peak (the batches of one source share a few peaks). Built
        for the first batch that could stack, so an executor that only
        runs :meth:`run_reference` never reads its weights."""
        return functools.lru_cache(maxsize=64)(functools.partial(
            graph_bound, self.network, norms=ops.weight_norms(self.params)))

    def item_dtype(self, xs: np.ndarray) -> np.dtype:
        """The dtype an item of ``xs`` runs in on its own: float64 in
        integer mode; in float mode its precision against the float32
        weights, ``np.result_type(xs.dtype, float32)``, so a float64
        request computes in float64 as :meth:`NetworkExecutor.run
        <repro.sim.network_exec.NetworkExecutor.run>` does."""
        return (self.dtype if self.integer
                else np.result_type(xs.dtype, self.dtype))

    @property
    def buffer_bytes(self) -> int:
        """Reuse-buffer footprint summed over all fused groups, for one
        item carried in :attr:`dtype`."""
        return sum(ex.buffer_bytes for ex in self._executors[self.dtype]
                   if ex is not None)

    def make_input(self, seed: Optional[int] = None) -> np.ndarray:
        return make_input(self.network.input_shape,
                          seed=self.seed if seed is None else seed,
                          integer=self.integer)

    # -- reference path -------------------------------------------------------

    def run_reference(self, x: np.ndarray,
                      trace: Optional[TrafficTrace] = None) -> np.ndarray:
        """Node-by-node NumPy evaluation of one volume straight off the
        IR, carried in :meth:`item_dtype`."""
        x = np.asarray(x)
        expected = self.network.input_shape
        if x.shape != (expected.channels, expected.height, expected.width):
            raise ShapeError(f"input {x.shape} != network input {expected}")
        env: Dict[str, np.ndarray] = {
            INPUT: np.asarray(x, dtype=self.item_dtype(x))}
        with obs.span("graph.reference", network=self.network.name,
                      nodes=len(self.network)):
            for node in self.network:
                inputs = [env[name] for name in node.inputs]
                if trace is not None:
                    for arr in inputs:
                        trace.read(node.name, arr.size)
                spec = node.spec
                if isinstance(spec, JOIN_SPECS):
                    kind = spec.op if isinstance(spec, EltwiseSpec) else "concat"
                    out = _join(kind, inputs)
                else:
                    out = ops.apply_spec(spec, inputs[0], self.params)
                shape = node.output_shape
                if out.shape != (shape.channels, shape.height, shape.width):
                    raise ShapeError(
                        f"{node.name}: produced {out.shape}, expected {shape}")
                if trace is not None:
                    trace.write(node.name, out.size)
                env[node.name] = out
        return env[self.program.output_tensor]

    # -- fused path -----------------------------------------------------------

    def run(self, x: np.ndarray,
            trace: Optional[TrafficTrace] = None) -> np.ndarray:
        return self.run_fused(x, trace)

    def run_fused(self, x: np.ndarray,
                  trace: Optional[TrafficTrace] = None) -> np.ndarray:
        """Run the program's atoms in order over one ``(C, H, W)`` volume
        or a stacked ``(B, C, H, W)`` batch, carried as
        :meth:`batch_envs` decides; bit-identical to per-item
        :meth:`run_reference` calls in integer mode. A batch's traffic
        is the sum of its items'."""
        x = np.asarray(x)
        xs = x[None] if x.ndim == 3 else x
        if len(xs) == 0:
            out = self.network.node(self.program.output_tensor).output_shape
            return np.zeros((0, out.channels, out.height, out.width),
                            self.item_dtype(xs))
        with obs.span("graph.run", network=self.network.name,
                      atoms=len(self.atoms), batch=len(xs)) as span:
            envs = self.batch_envs(xs)
            span.set(dtype=envs[0][INPUT].dtype.name)
            for env in envs:
                for atom in self.atoms:
                    self.run_atom(atom, env, trace)
        out = self.batch_outputs(envs)
        return out[0] if x.ndim == 3 else out

    def batch_envs(self, xs: np.ndarray) -> List[Dict[str, np.ndarray]]:
        """The environments (tensor name -> array) a stacked batch runs
        in, each holding the batch input under ``"input"``.

        In integer mode a batch of integers stays stacked when
        :func:`graph_bound` proves every value exact in the carrying
        type (:func:`repro.sim.ops.carrying_dtype`): one environment,
        float32 below 2^24 and float64 below 2^53. Otherwise — an
        operator that rounds, a non-integral input, a larger bound, a
        fault injector, or float mode — each item gets its own
        environment holding one volume in :meth:`item_dtype`, the
        computation a single-item run makes; integer-mode batches that
        take this path count in ``graph.per_item_batches``.
        """
        expected = self.network.input_shape
        if xs.ndim != 4 or xs.shape[1:] != (expected.channels,
                                            expected.height, expected.width):
            raise ShapeError(f"input {xs.shape} != network input {expected}")
        carry = (ops.carrying_dtype(xs, self._bound)
                 if self.integer and self._faults is None else None)
        if carry is not None:
            return [{INPUT: xs.astype(carry)}]
        if self.integer:
            obs.add_counter("graph.per_item_batches")
        dtype = self.item_dtype(xs)
        return [{INPUT: np.asarray(x, dtype=dtype)} for x in xs]

    def batch_outputs(self, envs: Sequence[Dict[str, np.ndarray]]
                      ) -> np.ndarray:
        """The ``(B, ...)`` program output of :meth:`batch_envs`'
        environments once every atom ran: float64 in integer mode, the
        carried dtype in float mode."""
        outs = [env[self.program.output_tensor] for env in envs]
        out = outs[0] if outs[0].ndim == 4 else np.stack(outs)
        return out.astype(self.dtype, copy=False) if self.integer else out

    def run_atom(self, atom: GraphAtom, env: Dict[str, np.ndarray],
                 trace: Optional[TrafficTrace] = None) -> None:
        """Execute one atom of :func:`graph_atoms` against ``env``
        (tensor name -> volume or stacked batch, in a dtype
        :meth:`batch_envs` carries): its leading steps, its fused group
        and fused join, then its riders."""
        with obs.span(f"graph.atom[{atom.name}]", levels=len(atom.levels),
                      join_fused=atom.join is not None):
            for rider in atom.leading:
                self._run_rider(rider, env, trace)
            if atom.step is not None:
                x = env[atom.input_tensor]
                sub = (_SuppressedOutputTrace() if atom.join is not None
                       else TrafficTrace())
                env[atom.output_tensor] = (
                    self._executors[x.dtype][atom.index].run(x, trace=sub))
                _merge_trace(trace, sub)
                if atom.join is not None:
                    self._run_fused_join(atom.step, env, trace)
            for rider in atom.riders:
                self._run_rider(rider, env, trace)

    def _run_rider(self, rider: Rider, env: Dict[str, np.ndarray],
                   trace: Optional[TrafficTrace]) -> None:
        if isinstance(rider, JoinStep):
            self._run_boundary_join(rider.join, env, trace)
        else:
            self._run_opaque(rider, env, trace)

    def _run_fused_join(self, step: SegmentStep, env: Dict[str, np.ndarray],
                        trace: Optional[TrafficTrace]) -> None:
        join = step.join
        retained = set(step.retained_skips())
        streamed = set(step.streamed_skips())
        out = _eval_join(join, env)
        env[join.output_tensor] = out
        if trace is not None:
            for tensor in streamed:
                trace.read(join.name, env[tensor].size)
            trace.write(join.name, out.size)
        items = len(out) if out.ndim == 4 else 1
        retained_bytes = sum(join.operand_bytes(t) for t in retained) * items
        if retained_bytes:
            obs.add_counter("graph.skip_bytes_retained", retained_bytes)
        obs.add_counter("graph.joins_fused")

    def _run_boundary_join(self, join: JoinInfo, env: Dict[str, np.ndarray],
                           trace: Optional[TrafficTrace]) -> None:
        out = _eval_join(join, env)
        env[join.output_tensor] = out
        if trace is not None:
            for tensor in join.operands:
                trace.read(join.name, env[tensor].size)
            trace.write(join.name, out.size)
        obs.add_counter("graph.joins_boundary")

    def _run_opaque(self, step: OpaqueStep, env: Dict[str, np.ndarray],
                    trace: Optional[TrafficTrace]) -> None:
        x = env[step.input_tensor]
        out = ops.apply_spec(step.node.spec, x, self.params)
        env[step.output_tensor] = out
        if trace is not None:
            trace.read(step.name, x.size)
            trace.write(step.name, out.size)


def _join(kind: str, arrays: List[np.ndarray]) -> np.ndarray:
    """One join: ``"concat"`` along channels, else an elementwise fold."""
    if kind == "concat":
        return np.concatenate(arrays, axis=-3)
    out = arrays[0]
    for arr in arrays[1:]:
        if kind == "add":
            out = out + arr
        elif kind == "mul":
            out = out * arr
        else:
            out = np.maximum(out, arr)
    return out


def _join_magnitude(kind: str,
                    operands: List[ops.Magnitude]) -> ops.Magnitude:
    """The join rule of :func:`graph_bound`: ``add`` adds its operands'
    peaks, ``mul`` multiplies them (and adds their fractional bits),
    ``max`` and ``concat`` take the largest."""
    peaks = [m.peak for m in operands]
    exact = all(m.exact for m in operands)
    if kind == "mul":
        return ops.Magnitude(math.prod(peaks),
                             sum(m.frac_bits for m in operands), exact)
    return ops.Magnitude(sum(peaks) if kind == "add" else max(peaks),
                         max(m.frac_bits for m in operands), exact)


def _eval_join(join: JoinInfo, env: Dict[str, np.ndarray]) -> np.ndarray:
    out = _join(join.kind, [env[t] for t in join.operands])
    return ops.relu(out) if join.has_relu else out
