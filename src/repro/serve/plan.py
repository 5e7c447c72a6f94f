"""Compiled plans and the plan cache: search once, serve many inputs.

The paper splits its tool into an offline analytical search and an
online fused evaluation (Section V-A); a serving system makes the same
split explicit. A :class:`CompiledPlan` freezes everything needed to
execute one network — the chosen fusion partition (from
:func:`repro.core.explore` or an explicit spec), the per-group pyramid
geometry, and the weight seed — so the expensive search runs once per
(network, configuration) and every subsequent request just executes.
Deterministic weights are built on a plan's first execution.

A :class:`PlanCache` memoizes compilation keyed on
:class:`PlanKey` = (network fingerprint, strategy, tip, storage budget,
precision, weight seed, variant) with LRU eviction and byte-size
accounting, mirrors
hit/miss/eviction totals into :mod:`repro.obs` counters
(``serve.plan_cache.*``), and serializes to JSON so a warmed cache
survives restarts: the saved form stores the network description and the
chosen partition, so a restored plan performs **zero exploration work**
(``explore.partitions_scored`` stays flat on every warm path).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.explorer import explore
from ..core.fusion import Strategy, units_to_levels
from ..core.partition import group_tip, split_groups
from ..core.pyramid import PyramidGeometry, build_pyramid
from ..errors import ConfigError
from ..faults.budget import ExplorationBudget
from ..nn.layers import (
    ConvSpec,
    FCSpec,
    LayerSpec,
    LRNSpec,
    PadSpec,
    PoolSpec,
    ReLUSpec,
)
from ..nn.network import Network
from ..nn.shapes import TensorShape
from ..nn.stages import extract_levels, independent_units
from ..sim.network_exec import NetworkExecutor
from ..sim.weights import param_bytes
from .sanitizer import make_lock

PRECISIONS = ("int", "float")

#: Spec registry for exact JSON round-tripping (the Torch-text form
#: drops grouped-convolution and LRN parameters, so plans serialize
#: specs field-by-field instead).
_SPEC_TYPES = {cls.__name__: cls for cls in
               (ConvSpec, PoolSpec, ReLUSpec, PadSpec, LRNSpec, FCSpec)}


@dataclass(frozen=True)
class PlanKey:
    """Everything that distinguishes one compiled plan from another."""

    fingerprint: str
    strategy: str
    tip: int
    storage_budget_bytes: Optional[int]
    precision: str
    seed: int = 0
    #: Distinguishes differently sourced configurations of the same
    #: (strategy, tip): ``"default"`` for explored/explicit plans,
    #: ``"tuned:<objective>"`` for plans frozen from a tuning record.
    variant: str = "default"
    #: Plan family: ``"linear"`` for :class:`~repro.nn.network.Network`
    #: chains, ``"graph"`` for DAG networks
    #: (:class:`repro.graph.GraphNetwork`). Keyed so the two families
    #: never alias in a cache even on a fingerprint collision.
    family: str = "linear"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanKey":
        return cls(fingerprint=data["fingerprint"], strategy=data["strategy"],
                   tip=int(data["tip"]),
                   storage_budget_bytes=(None if data["storage_budget_bytes"]
                                         is None
                                         else int(data["storage_budget_bytes"])),
                   precision=data["precision"],
                   seed=int(data.get("seed", 0)),
                   variant=data.get("variant", "default"),
                   family=data.get("family", "linear"))

    def __str__(self) -> str:
        budget = ("-" if self.storage_budget_bytes is None
                  else str(self.storage_budget_bytes))
        text = (f"{self.fingerprint}/{self.strategy}/tip{self.tip}"
                f"/sb{budget}/{self.precision}/seed{self.seed}")
        if self.variant != "default":
            text += f"/{self.variant}"
        if self.family != "linear":
            text += f"/{self.family}"
        return text


def make_plan_key(network: Network, strategy: Strategy = Strategy.REUSE,
                  tip: int = 1, storage_budget_bytes: Optional[int] = None,
                  precision: str = "int", seed: int = 0,
                  variant: str = "default") -> PlanKey:
    """The cache key a compilation of ``network`` under these knobs gets.

    ``seed`` determines the plan's frozen weights, so plans compiled
    under different seeds never alias in the cache; ``variant`` keeps
    tuned plans from aliasing explored ones.
    """
    if precision not in PRECISIONS:
        raise ConfigError(f"precision must be one of {PRECISIONS}",
                          precision=precision)
    if tip < 1:
        raise ConfigError("tip must be >= 1", tip=tip)
    return PlanKey(fingerprint=network.fingerprint(), strategy=strategy.name,
                   tip=tip, storage_budget_bytes=storage_budget_bytes,
                   precision=precision, seed=seed, variant=variant,
                   family=getattr(network, "plan_family", "linear"))


def _spec_to_dict(spec: LayerSpec) -> Dict[str, Any]:
    return {"type": type(spec).__name__,
            **{f.name: getattr(spec, f.name)
               for f in dataclasses.fields(spec)}}


def _spec_from_dict(data: Dict[str, Any]) -> LayerSpec:
    kind = data.get("type")
    if kind not in _SPEC_TYPES:
        raise ConfigError(f"unknown layer spec type {kind!r} in saved plan",
                          known=sorted(_SPEC_TYPES))
    kwargs = {k: v for k, v in data.items() if k != "type"}
    return _SPEC_TYPES[kind](**kwargs)


class CompiledPlan:
    """A frozen, executable configuration for one network.

    Holds the network, its chosen fusion partition and per-group pyramid
    geometry. The executor (deterministic weights per ``seed``) is built
    on first use, so a plan that is compiled, cached or loaded but never
    executed holds no weights. Execution is
    :meth:`NetworkExecutor.run_batch`, carried as
    :meth:`~repro.sim.network_exec.NetworkExecutor.batch_envs` decides by
    the stacking rule graph plans share: in ``"int"`` precision one
    stacked float32 (or float64) call per layer where the magnitude bound
    allows, the per-item loop otherwise — bit-identical to per-item runs
    either way.
    """

    def __init__(self, key: PlanKey, network: Network,
                 partition_sizes: Tuple[int, ...],
                 geometry: Tuple[PyramidGeometry, ...],
                 seed: int = 0, degraded: bool = False,
                 compile_s: float = 0.0):
        self.key = key
        self.network = network
        self.partition_sizes = tuple(partition_sizes)
        self.geometry = tuple(geometry)
        self.seed = seed
        self.degraded = degraded
        self.compile_s = compile_s

    @functools.cached_property
    def executor(self) -> NetworkExecutor:
        """Built on first use, so compiling or loading a plan allocates
        no weights."""
        return NetworkExecutor(self.network, seed=self.seed,
                               integer=self.key.precision == "int")

    @property
    def byte_size(self) -> int:
        """Resident bytes the cache charges this plan for (weights + one
        input volume), from parameter shapes: the executor stays unbuilt."""
        # make_network_weights stores float32 in either precision
        weights = param_bytes(self.network, 4)
        shape = self.network.input_shape
        return weights + shape.elements * 8

    @property
    def num_groups(self) -> int:
        return len(self.partition_sizes)

    def execute(self, xs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run a batch; outputs are bit-identical to per-item
        :meth:`NetworkExecutor.run` calls."""
        return self.executor.run_batch(xs)

    def describe(self) -> str:
        mode = "degraded " if self.degraded else ""
        return (f"{self.network.name}: partition {self.partition_sizes} "
                f"({self.num_groups} groups, {mode}{self.key.precision} "
                f"precision, {self.byte_size / 2**10:.0f} KB)")

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        shape = self.network.input_shape
        return {
            "key": self.key.to_dict(),
            "network_name": self.network.name,
            "input_shape": [shape.channels, shape.height, shape.width],
            "layers": [_spec_to_dict(b.spec) for b in self.network],
            "partition_sizes": list(self.partition_sizes),
            "seed": self.seed,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompiledPlan":
        family = data.get("key", {}).get("family", "linear")
        if family == "graph":
            # Saved DAG plans restore through the graph family so mixed
            # cache files (PlanCache.load, process-mode workers) work.
            from ..graph.plan import CompiledGraphPlan

            return CompiledGraphPlan.from_dict(data)
        if family == "pipeline":
            # Sharded plans likewise: the saved boundaries are re-priced,
            # never re-searched.
            from ..dist.plan import PipelinePlan

            return PipelinePlan.from_dict(data)
        c, h, w = data["input_shape"]
        network = Network(data["network_name"], TensorShape(c, h, w),
                          [_spec_from_dict(d) for d in data["layers"]])
        key = PlanKey.from_dict(data["key"])
        sizes = tuple(int(s) for s in data["partition_sizes"])
        geometry = _partition_geometry(network, sizes, key.tip)
        return cls(key=key, network=network, partition_sizes=sizes,
                   geometry=geometry, seed=int(data["seed"]),
                   degraded=bool(data["degraded"]))


def _partition_geometry(network: Network, sizes: Tuple[int, ...],
                        tip: int) -> Tuple[PyramidGeometry, ...]:
    """Pyramid geometry for each fused group of the chosen partition."""
    units = independent_units(extract_levels(network.feature_extractor()))
    geometry: List[PyramidGeometry] = []
    for group in split_groups(units, sizes):
        levels = units_to_levels(group)
        geometry.append(build_pyramid(levels, *group_tip(levels, tip)))
    return tuple(geometry)


def compile_plan(network: Network, strategy: Strategy = Strategy.REUSE,
                 tip: int = 1, storage_budget_bytes: Optional[int] = None,
                 precision: str = "int", seed: int = 0,
                 budget: Optional[ExplorationBudget] = None,
                 on_budget: str = "degrade",
                 partition_sizes: Optional[Sequence[int]] = None,
                 tuned: Optional[Any] = None,
                 validate: bool = True,
                 devices: Optional[Sequence[Any]] = None,
                 link: Optional[Any] = None,
                 weight_items: Optional[int] = None) -> CompiledPlan:
    """Compile ``network`` into an executable plan.

    Without ``partition_sizes`` the fusion partition comes from a full
    :func:`~repro.core.explore` sweep — minimum feature-map transfer,
    constrained to ``storage_budget_bytes`` of extra on-chip storage
    when given (falling back to the minimum-storage partition if nothing
    fits). ``budget`` bounds that search; a budget-truncated sweep still
    compiles, with ``degraded=True`` recorded on the plan. With
    ``partition_sizes`` (an explicit spec, or a cache restore) no
    exploration runs at all — only the chosen partition's geometry is
    built.

    ``tuned`` accepts a :class:`repro.tune.TunedRecord` (anything with
    ``fingerprint``/``objective``/``partition_sizes``/``strategy``/
    ``tip`` attributes): the record's configuration overrides
    ``strategy``/``tip``/``partition_sizes`` wholesale, the plan's key
    gets variant ``"tuned:<objective>"``, and the record's fingerprint
    must match ``network`` — a tuning result never silently applies to
    a different network.

    Every compiled plan is passed through the static analyzer
    (:func:`repro.check.check_compiled_plan`) before it is returned;
    a plan with error diagnostics raises :class:`ConfigError` instead
    of entering the serving path. ``validate=False`` opts out.

    Networks of the ``"graph"`` plan family (DAGs) dispatch to
    :func:`repro.graph.plan.compile_graph_plan`; ``tuned`` records and
    explicit ``partition_sizes`` are linear-only and rejected there.

    ``devices`` (a sequence of :class:`repro.hw.DeviceSpec`) shards the
    compiled plan across a simulated device pipeline: the result is a
    :class:`repro.dist.PipelinePlan` (family ``"pipeline"``) whose
    served outputs remain bit-identical to the unsharded plan. ``link``
    (:class:`repro.hw.LinkSpec`) and ``weight_items`` tune the
    inter-device transfer model and the micro-batch weight-reuse run
    length. A ``tuned`` record carrying a ``devices`` axis (the tuner's
    device-count co-search) shards automatically onto the resource-
    neutral ``split_device(DEFAULT_DEVICE, K)`` fleet when no explicit
    ``devices`` are given; pass ``devices=()`` to force an unsharded
    compile of such a record.
    """
    if devices is None and tuned is not None:
        tuned_devices = int(getattr(tuned, "devices", 1) or 1)
        if tuned_devices > 1:
            from ..hw.device import DEFAULT_DEVICE, split_device

            devices = split_device(DEFAULT_DEVICE, tuned_devices)
    if devices:
        from ..dist.plan import DEFAULT_WEIGHT_ITEMS, compile_pipeline_plan
        from ..hw.link import DEFAULT_LINK

        return compile_pipeline_plan(
            network=network, devices=tuple(devices),
            link=link if link is not None else DEFAULT_LINK,
            weight_items=(weight_items if weight_items is not None
                          else DEFAULT_WEIGHT_ITEMS),
            validate=validate, strategy=strategy, tip=tip,
            storage_budget_bytes=storage_budget_bytes, precision=precision,
            seed=seed, budget=budget, on_budget=on_budget,
            partition_sizes=partition_sizes, tuned=tuned)
    if getattr(network, "plan_family", "linear") == "graph":
        if tuned is not None or partition_sizes is not None:
            raise ConfigError(
                "tuned records and explicit partition_sizes apply only to "
                "linear networks", network=network.name, family="graph")
        from ..graph.plan import compile_graph_plan

        return compile_graph_plan(
            network, strategy=strategy, tip=tip,
            storage_budget_bytes=storage_budget_bytes, precision=precision,
            seed=seed, validate=validate)
    variant = "default"
    if tuned is not None:
        fingerprint = network.fingerprint()
        if tuned.fingerprint != fingerprint:
            raise ConfigError(
                "tuned record fingerprint does not match the network",
                network=network.name, network_fingerprint=fingerprint,
                record_fingerprint=tuned.fingerprint)
        strategy = Strategy(tuned.strategy)
        tip = int(tuned.tip)
        partition_sizes = tuple(tuned.partition_sizes)
        variant = f"tuned:{tuned.objective}"
    key = make_plan_key(network, strategy=strategy, tip=tip,
                        storage_budget_bytes=storage_budget_bytes,
                        precision=precision, seed=seed, variant=variant)
    t0 = time.perf_counter()
    degraded = False
    with obs.span("serve.compile", network=network.name, key=str(key)):
        if partition_sizes is None:
            result = explore(network, strategy=strategy, tip_h=tip, tip_w=tip,
                             budget=budget, on_budget=on_budget)
            chosen = None
            if storage_budget_bytes is not None:
                chosen = result.best_under_storage(storage_budget_bytes)
            if chosen is None and storage_budget_bytes is not None:
                # nothing fits: serve the minimum-storage partition
                chosen = result.best_under_transfer(float("inf"))
            if chosen is None:
                chosen = result.best_under_storage(float("inf"))
            sizes = chosen.sizes
            degraded = result.degraded
        else:
            sizes = tuple(int(s) for s in partition_sizes)
        geometry = _partition_geometry(network, tuple(sizes), tip)
    plan = CompiledPlan(key=key, network=network,
                        partition_sizes=tuple(sizes), geometry=geometry,
                        seed=seed, degraded=degraded,
                        compile_s=time.perf_counter() - t0)
    if validate:
        from ..check import check_compiled_plan

        findings = [d for d in check_compiled_plan(plan, network=network)
                    if d.is_error]
        if findings:
            raise ConfigError(
                "compiled plan failed static validation: "
                + "; ".join(d.render() for d in findings[:3]),
                key=str(key), findings=len(findings))
        obs.add_counter("serve.plans_validated")
    if degraded:
        obs.add_counter("serve.degraded_plans")
    obs.add_counter("serve.plans_compiled")
    return plan


class PlanCache:
    """LRU cache of compiled plans with byte-size accounting.

    ``max_plans`` bounds the entry count and ``max_bytes`` (optional)
    the summed :attr:`CompiledPlan.byte_size`; eviction is
    least-recently-used but always leaves the most recent plan resident.
    Hits, misses, and evictions are mirrored into
    ``serve.plan_cache.{hits,misses,evictions}`` obs counters.

    Thread-safe: one lock guards the LRU order, the byte budget, and
    the hit/miss/eviction counters — the cache is shared between the
    caller thread that registers networks and any worker or background
    thread that compiles on demand. Compilation itself deliberately
    runs *outside* the lock (holding it through a full exploration
    sweep would stall every concurrent lookup); two threads missing on
    the same key may both compile, deterministically producing
    equivalent plans, and the last ``put`` wins.
    """

    def __init__(self, max_plans: int = 32,
                 max_bytes: Optional[int] = None):
        if max_plans < 1:
            raise ConfigError("plan cache needs max_plans >= 1",
                              max_plans=max_plans)
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigError("max_bytes must be positive when given",
                              max_bytes=max_bytes)
        self.max_plans = max_plans
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = make_lock("serve.plan_cache.state")
        self._plans: "OrderedDict[PlanKey, CompiledPlan]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._plans

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes_locked()

    def _total_bytes_locked(self) -> int:
        return sum(plan.byte_size for plan in self._plans.values())

    def lookup(self, key: PlanKey) -> Optional[CompiledPlan]:
        """Fetch without compiling; counts a hit or miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
            else:
                self._plans.move_to_end(key)
                self.hits += 1
        obs.add_counter("serve.plan_cache.misses" if plan is None
                        else "serve.plan_cache.hits")
        return plan

    def get_or_compile(self, network: Network,
                       strategy: Strategy = Strategy.REUSE, tip: int = 1,
                       storage_budget_bytes: Optional[int] = None,
                       precision: str = "int", seed: int = 0,
                       budget: Optional[ExplorationBudget] = None,
                       on_budget: str = "degrade",
                       tuned: Optional[Any] = None,
                       partition_sizes: Optional[Sequence[int]] = None,
                       devices: Optional[Sequence[Any]] = None,
                       link: Optional[Any] = None,
                       weight_items: Optional[int] = None) -> CompiledPlan:
        """The serving entry point: memoized compilation.

        With ``devices`` the memoized artifact is the sharded
        ``"pipeline"``-family plan — its key is derived *before*
        compiling (the fleet fingerprint needs no search), so a warm
        cache never re-runs the stage balancer.
        """
        if tuned is not None:
            strategy = Strategy(tuned.strategy)
            tip = int(tuned.tip)
            if devices is None and int(getattr(tuned, "devices", 1) or 1) > 1:
                from ..hw.device import DEFAULT_DEVICE, split_device

                devices = split_device(DEFAULT_DEVICE, int(tuned.devices))
        key = make_plan_key(network, strategy=strategy, tip=tip,
                            storage_budget_bytes=storage_budget_bytes,
                            precision=precision, seed=seed,
                            variant=(f"tuned:{tuned.objective}"
                                     if tuned is not None else "default"))
        if devices:
            from ..dist.plan import DEFAULT_WEIGHT_ITEMS, pipeline_plan_key
            from ..hw.link import DEFAULT_LINK
            key = pipeline_plan_key(
                key, tuple(devices),
                link if link is not None else DEFAULT_LINK,
                (weight_items if weight_items is not None
                 else DEFAULT_WEIGHT_ITEMS))
        plan = self.lookup(key)
        if plan is not None:
            return plan
        # Compile with no lock held (see the class docstring): a
        # concurrent miss on the same key compiles redundantly but
        # deterministically; both callers serve identical plans.
        plan = compile_plan(network, strategy=strategy, tip=tip,
                            storage_budget_bytes=storage_budget_bytes,
                            precision=precision, seed=seed, budget=budget,
                            on_budget=on_budget, tuned=tuned,
                            partition_sizes=partition_sizes,
                            devices=devices, link=link,
                            weight_items=weight_items)
        self.put(plan)
        return plan

    def put(self, plan: CompiledPlan) -> None:
        """Insert (or refresh) a plan, evicting LRU entries over budget."""
        evicted = 0
        with self._lock:
            self._plans[plan.key] = plan
            self._plans.move_to_end(plan.key)
            while len(self._plans) > 1 and (
                    len(self._plans) > self.max_plans
                    or (self.max_bytes is not None
                        and self._total_bytes_locked() > self.max_bytes)):
                self._plans.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            obs.add_counter("serve.plan_cache.evictions", evicted)

    def stats_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {"plans": len(self._plans),
                    "bytes": self._total_bytes_locked(),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        """Write every resident plan to ``path`` as JSON (LRU order)."""
        with self._lock:
            resident = list(self._plans.values())
        # serialize outside the lock: to_dict + file IO are slow
        payload = {"version": 1,
                   "plans": [plan.to_dict() for plan in resident]}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def load(self, path) -> int:
        """Merge plans from ``path`` into the cache; returns the count.

        Restored plans rebuild their network and geometry from the saved
        description and reject a partition or decisions that do not fit
        it. No exploration work runs and no weights are built: each plan
        builds its weights on its first execution.
        """
        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or "plans" not in payload:
            raise ConfigError("not a plan-cache file", path=str(path))
        count = 0
        for data in payload["plans"]:
            self.put(CompiledPlan.from_dict(data))
            count += 1
            obs.add_counter("serve.plan_cache.loads")
        return count
