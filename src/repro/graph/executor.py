"""Graph execution: a NumPy reference walk and the fused-segment path.

``run_reference`` evaluates the DAG node by node — layers through
:func:`repro.sim.ops.apply_spec`, joins through this module's one join
evaluation — with no lowering involved, so it is an independent oracle
for the fused path. ``run_fused`` executes the lowered program: each
segment runs group-by-group through the unmodified
:class:`~repro.sim.fused.FusedExecutor` (pyramid schedule, reuse
buffers, fault repair), joins evaluate as NumPy elementwise/concat ops,
and a fused join replaces the body's DRAM output write with the
join-output write. In integer mode (small integer weights on float64
storage) the two paths are **bit-identical**, including under
``transfer_corrupt`` fault plans — corrupted reads are detected and
repaired inside the fused executor, never changing results.

Observability: every segment runs inside a ``graph.segment[<name>]``
span, and skip tensors retained on chip for a fused join increment the
``graph.skip_bytes_retained`` counter — so traces distinguish
fused-through skips from boundary skips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import ConfigError
from ..nn.shapes import ShapeError
from ..nn.stages import Level
from ..sim import ops
from ..sim.fused import FusedExecutor
from ..sim.trace import TrafficTrace
from ..sim.weights import make_input, param_shape
from .explore import SegmentDecision
from .ir import INPUT, JOIN_SPECS, EltwiseSpec, GraphNetwork
from .lower import GraphProgram, JoinInfo, JoinStep, OpaqueStep, SegmentStep, lower_graph


def make_graph_weights(network: GraphNetwork, seed: int = 0,
                       integer: bool = False,
                       dtype=None) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Weights and biases for every parameterized node, keyed by node name.

    Follows the :func:`repro.sim.weights.make_level_weights` convention —
    one seeded generator drawn in topological order, float64 storage in
    integer mode — with one depth-driven difference: integer-mode filters
    are *single-tap*. Each output filter has exactly one nonzero weight,
    ``+1`` or ``-1``, at a random (channel, ky, kx) position, plus a
    small integer bias. Dense small-integer weights (the linear
    convention) grow activations multiplicatively with depth; a
    50-layer ResNet exceeds float64's 2^53 exact-integer range, at which
    point BLAS summation order becomes observable and fused-vs-reference
    bit-identity is luck, not a guarantee. A single-tap filter adds at
    most ``|bias|`` per layer (and one doubling per residual join), so
    activations of every zoo network stay exactly representable — while
    remaining maximally position-sensitive: any misplaced window, halo,
    or stride in the fused path shifts the sampled tap and changes the
    output.
    """
    if dtype is None:
        dtype = np.float64 if integer else np.float32
    rng = np.random.default_rng(seed)
    params: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for node in network:
        shape = param_shape(node.spec, node.input_shapes[0])
        if shape is None:
            continue
        if integer:
            fan_in = int(np.prod(shape[1:]))
            w = np.zeros(shape, dtype=dtype)
            taps = rng.integers(0, fan_in, size=shape[0])
            signs = (rng.integers(0, 2, size=shape[0]) * 2 - 1)
            w.reshape(shape[0], -1)[np.arange(shape[0]), taps] = signs
            b = rng.integers(-2, 3, size=(shape[0],)).astype(dtype)
        else:
            fan_in = int(np.prod(shape[1:]))
            w = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)
            b = (rng.standard_normal(shape[0]) * 0.1).astype(dtype)
        params[node.name] = (w, b)
    return params


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
        from ``seed`` when omitted.
    tip:
        Pyramid tip for fused groups; per group the largest divisor of
        the output map not exceeding it is used. ``None`` (default) runs
        one pyramid per group — fastest, same arithmetic.
    faults, retry:
        Forwarded to every :class:`~repro.sim.fused.FusedExecutor`:
        ``transfer_corrupt`` faults are injected on DRAM reads and
        repaired, keeping outputs bit-identical.
    """

    def __init__(self, network: GraphNetwork,
                 decisions: Optional[Sequence[SegmentDecision]] = None,
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 seed: int = 0, integer: bool = True, tip: Optional[int] = None,
                 input_reuse: bool = True, dtype=None,
                 faults=None, retry=None,
                 program: Optional[GraphProgram] = None):
        self.network = network
        self.program = program if program is not None else lower_graph(network)
        self.seed = seed
        self.integer = integer
        self.dtype = dtype if dtype is not None else (
            np.float64 if integer else np.float32)
        self.params = params if params is not None else make_graph_weights(
            network, seed=seed, integer=integer, dtype=self.dtype)
        self.decisions = check_decisions(
            self.program, decisions if decisions is not None
            else default_decisions(self.program))
        self._tip = tip
        self._faults = faults
        self._retry = retry
        self._group_executors = self._build_groups(input_reuse)

    # -- construction ---------------------------------------------------------

    def _build_groups(self, input_reuse: bool) -> List[List[FusedExecutor]]:
        per_segment: List[List[FusedExecutor]] = []
        for step, decision in zip(self.program.segments, self.decisions):
            executors: List[FusedExecutor] = []
            start = 0
            for size in decision.sizes:
                levels = step.levels[start:start + size]
                group_params = {
                    lv.name: self.params[lv.name]
                    for lv in levels if lv.is_conv}
                final = levels[-1].out_shape
                executors.append(FusedExecutor(
                    list(levels), params=group_params,
                    tip_h=fused_tip(final.height, self._tip),
                    tip_w=fused_tip(final.width, self._tip),
                    integer=self.integer, input_reuse=input_reuse,
                    dtype=self.dtype, faults=self._faults,
                    retry=self._retry))
                start += size
            per_segment.append(executors)
        return per_segment

    @property
    def buffer_bytes(self) -> int:
        """Reuse-buffer footprint summed over all fused groups."""
        return sum(ex.buffer_bytes
                   for group in self._group_executors for ex in group)

    def make_input(self, seed: Optional[int] = None) -> np.ndarray:
        return make_input(self.network.input_shape,
                          seed=self.seed if seed is None else seed,
                          integer=self.integer, dtype=self.dtype)

    # -- reference path -------------------------------------------------------

    def run_reference(self, x: np.ndarray,
                      trace: Optional[TrafficTrace] = None) -> np.ndarray:
        """Node-by-node NumPy evaluation straight off the IR."""
        expected = self.network.input_shape
        if x.shape != (expected.channels, expected.height, expected.width):
            raise ShapeError(f"input {x.shape} != network input {expected}")
        env: Dict[str, np.ndarray] = {INPUT: np.asarray(x, dtype=self.dtype)}
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
        """Execute the lowered program; bit-identical to
        :meth:`run_reference` in integer mode."""
        expected = self.network.input_shape
        if x.shape != (expected.channels, expected.height, expected.width):
            raise ShapeError(f"input {x.shape} != network input {expected}")
        env: Dict[str, np.ndarray] = {INPUT: np.asarray(x, dtype=self.dtype)}
        segment_idx = 0
        with obs.span("graph.run", network=self.network.name,
                      steps=len(self.program.steps)):
            for step in self.program.steps:
                if isinstance(step, SegmentStep):
                    decision = self.decisions[segment_idx]
                    executors = self._group_executors[segment_idx]
                    segment_idx += 1
                    self._run_segment(step, decision, executors, env, trace)
                elif isinstance(step, JoinStep):
                    self._run_boundary_join(step.join, env, trace)
                else:
                    self._run_opaque(step, env, trace)
        return env[self.program.output_tensor]

    def _run_segment(self, step: SegmentStep, decision: SegmentDecision,
                     executors: List[FusedExecutor],
                     env: Dict[str, np.ndarray],
                     trace: Optional[TrafficTrace]) -> None:
        with obs.span(f"graph.segment[{step.name}]",
                      levels=len(step.levels), groups=len(executors),
                      join_fused=decision.join_fused):
            current = env[step.input_tensor]
            for idx, executor in enumerate(executors):
                last = idx == len(executors) - 1
                suppress = last and decision.join_fused
                sub = (_SuppressedOutputTrace() if suppress
                       else TrafficTrace())
                current = executor.run(current, trace=sub)
                _merge_trace(trace, sub)
            env[step.output_tensor] = current
            if step.join is not None:
                if decision.join_fused:
                    self._run_fused_join(step, env, trace)
                else:
                    self._run_boundary_join(step.join, env, trace)

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
        retained_bytes = sum(join.operand_bytes(t) for t in retained)
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

    # -- atom-granular execution ----------------------------------------------

    def exec_atoms(self) -> "List[ExecAtom]":
        """The program flattened to one executable atom per fused group.

        Joins and opaque steps *ride* on the nearest preceding group atom
        — the same convention :func:`repro.dist.stage.plan_atoms` uses for
        cost, so a pipeline stage covering atoms ``[a, b)`` executes
        exactly the work those atoms were priced for. Running the atoms
        in order via :meth:`run_atom` is bit-identical to
        :meth:`run_fused` (same operations, same order).
        """
        atoms: List[ExecAtom] = []
        segment_idx = 0
        for step in self.program.steps:
            if isinstance(step, SegmentStep):
                decision = self.decisions[segment_idx]
                executors = self._group_executors[segment_idx]
                for g in range(len(executors)):
                    atoms.append(ExecAtom(index=len(atoms),
                                          segment=segment_idx, group=g,
                                          step=step))
                if step.join is not None and not decision.join_fused:
                    atoms[-1] = atoms[-1].with_rider(("join", step.join))
                segment_idx += 1
            elif isinstance(step, JoinStep):
                if not atoms:
                    raise ConfigError(
                        "graph program has no fused group to host its "
                        "leading steps", network=self.network.name)
                atoms[-1] = atoms[-1].with_rider(("join", step.join))
            else:
                if not atoms:
                    raise ConfigError(
                        "graph program has no fused group to host its "
                        "leading steps", network=self.network.name)
                atoms[-1] = atoms[-1].with_rider(("opaque", step))
        return atoms

    def run_atom(self, atom: "ExecAtom", env: Dict[str, np.ndarray],
                 trace: Optional[TrafficTrace] = None) -> None:
        """Execute one atom against ``env`` (tensor name -> volume).

        Non-final groups of a segment publish their output under
        ``"<segment output>@<group>"``; the final group publishes the
        segment's output tensor and runs the fused join, then any riders.
        """
        step = atom.step
        decision = self.decisions[atom.segment]
        executors = self._group_executors[atom.segment]
        last = atom.group == len(executors) - 1
        src = (step.input_tensor if atom.group == 0
               else f"{step.output_tensor}@{atom.group - 1}")
        suppress = last and decision.join_fused
        sub = _SuppressedOutputTrace() if suppress else TrafficTrace()
        out = executors[atom.group].run(env[src], trace=sub)
        _merge_trace(trace, sub)
        dst = (step.output_tensor if last
               else f"{step.output_tensor}@{atom.group}")
        env[dst] = out
        if last and step.join is not None and decision.join_fused:
            self._run_fused_join(step, env, trace)
        for kind, payload in atom.riders:
            if kind == "join":
                self._run_boundary_join(payload, env, trace)
            else:
                self._run_opaque(payload, env, trace)


@dataclass(frozen=True)
class ExecAtom:
    """One fused group plus the join/opaque steps riding on it."""

    index: int
    segment: int
    group: int
    step: SegmentStep
    riders: Tuple[Tuple[str, object], ...] = ()

    def with_rider(self, rider: Tuple[str, object]) -> "ExecAtom":
        return ExecAtom(index=self.index, segment=self.segment,
                        group=self.group, step=self.step,
                        riders=self.riders + (rider,))


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


def _eval_join(join: JoinInfo, env: Dict[str, np.ndarray]) -> np.ndarray:
    out = _join(join.kind, [env[t] for t in join.operands])
    return ops.relu(out) if join.has_relu else out
