"""PipelinePlan: the ``"pipeline"`` compiled-plan family.

A pipeline plan wraps a base compiled plan (linear or graph) together
with a device fleet, a link model, and a frozen stage split. It mirrors
the :class:`~repro.serve.plan.CompiledPlan` surface (``key``,
``execute``, ``byte_size``, ``num_groups``, ``describe``,
``to_dict``/``from_dict``) so the serving stack — ``PlanCache``,
``InferenceService``, ``WorkerPool`` — treats sharded plans like any
other.

Two things are deliberately decoupled:

* **numerics** run stage-by-stage through the *same* operator sequence
  the base plan's executor applies: at construction the plan slices its
  base plan's execution atoms (:func:`~repro.dist.stage.linear_atoms` or
  :func:`~repro.graph.executor.graph_atoms`, the lists the estimate was
  priced from) by the stage split, without building the base executor.
  A batch crosses every stage in turn, carried as the base executor's
  ``batch_envs`` carries it (the one stacking rule,
  :func:`repro.sim.ops.carrying_dtype`), and each stage runs its atoms
  through the base executor's ``run_atom`` — the routine its own runs
  use — so outputs are **bit-identical** to direct execution, including
  under fault plans (faults live inside the unchanged fused executors);
* **timing** is priced in virtual cycles by the frozen stage costs
  (:meth:`PipelineEstimate.simulate` runs a micro-batch through them);
  every ``execute`` call records each stage's wall-clock interval
  (``last_stage_report``, per calling thread) for the per-device trace
  lanes.

The plan key carries ``family="pipeline"`` and a variant tagged with the
device count and fleet fingerprint (``pipe:d<K>:<fp>``), so a sharded
plan can never alias its base plan — or a differently sharded sibling —
in a cache (RC805 enforces this statically).
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.partition import split_groups
from ..errors import ConfigError
from ..hw.device import DeviceSpec
from ..hw.link import DEFAULT_LINK, LinkSpec
from ..graph.ir import INPUT
from .stage import PipelineEstimate, balance_stages, linear_atoms, plan_atoms


#: Micro-batch run length weights amortize over by default: a stage
#: streams its weights once, then serves this many items before the next
#: fetch. Priced identically into single-device baselines for fairness.
DEFAULT_WEIGHT_ITEMS = 8


def fleet_fingerprint(devices: Sequence[DeviceSpec], link: LinkSpec,
                      weight_items: int = DEFAULT_WEIGHT_ITEMS) -> str:
    """Order-sensitive fingerprint of the device chain, its links, and
    the weight-amortization run length (all the pricing inputs)."""
    payload = "|".join([d.fingerprint() for d in devices]
                       + [link.fingerprint(), f"m{weight_items}"])
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def pipeline_variant(base_variant: str, devices: Sequence[DeviceSpec],
                     link: LinkSpec,
                     weight_items: int = DEFAULT_WEIGHT_ITEMS) -> str:
    """The variant string a sharded plan's key carries.

    Encodes the device count and fleet fingerprint so pipeline plans of
    the same base configuration but different fleets never alias.
    """
    fp = fleet_fingerprint(devices, link, weight_items)[:8]
    tag = f"pipe:d{len(devices)}:{fp}"
    if base_variant and base_variant != "default":
        return f"{base_variant}|{tag}"
    return tag


def pipeline_plan_key(base_key, devices: Sequence[DeviceSpec],
                      link: LinkSpec,
                      weight_items: int = DEFAULT_WEIGHT_ITEMS):
    """The :class:`~repro.serve.plan.PlanKey` a sharded compilation of
    ``base_key`` gets — family ``"pipeline"``, fleet-tagged variant —
    computable without compiling (the cache's lookup path)."""
    return dataclasses.replace(
        base_key, family="pipeline",
        variant=pipeline_variant(base_key.variant, devices, link,
                                 weight_items))


class PipelinePlan:
    """A base plan sharded across a device fleet."""

    def __init__(self, base, devices: Sequence[DeviceSpec], link: LinkSpec,
                 estimate: PipelineEstimate,
                 weight_items: int = DEFAULT_WEIGHT_ITEMS,
                 compile_s: float = 0.0):
        if base.key.family not in ("linear", "graph"):
            raise ConfigError(
                f"cannot shard a {base.key.family!r} plan",
                family=base.key.family)
        self.base = base
        self.devices = tuple(devices)
        self.link = link
        self.estimate = estimate
        self.weight_items = weight_items
        self.compile_s = compile_s
        self.key = pipeline_plan_key(base.key, self.devices, link,
                                     weight_items)
        self.network = base.network
        self.seed = base.seed
        self.degraded = base.degraded
        self._tls = threading.local()
        if base.key.family == "graph":
            from ..graph.executor import graph_atoms

            atoms = graph_atoms(base.program, base.decisions)
        else:
            atoms = linear_atoms(base.network, base.partition_sizes)
        self._stage_atoms = split_groups(atoms, estimate.boundaries)

    # -- CompiledPlan surface ---------------------------------------------------

    @property
    def partition_sizes(self) -> Tuple[int, ...]:
        return tuple(self.base.partition_sizes)

    @property
    def num_groups(self) -> int:
        return self.base.num_groups

    @property
    def num_stages(self) -> int:
        return self.estimate.num_stages

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return self.estimate.boundaries

    @property
    def byte_size(self) -> int:
        return self.base.byte_size

    @property
    def last_stage_report(self) -> Optional[List[Dict[str, Any]]]:
        """When each stage of this thread's last ``execute`` call ran:
        ``[{stage, device, start_s, end_s}, ...]`` measured on the
        :func:`time.perf_counter` clock — the tracer's time base, so the
        serving worker can replay them as per-device spans."""
        return getattr(self._tls, "report", None)

    def describe(self) -> str:
        interval = self.estimate.interval_cycles
        return (f"{self.network.name}: {self.num_groups} groups over "
                f"{self.num_stages} devices {self.boundaries}, interval "
                f"{interval} cycles, {self.estimate.link_bytes} link B/item "
                f"({self.key.precision} precision)")

    # -- execution --------------------------------------------------------------

    def execute(self, xs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run a batch stage by stage; bit-identical to the base plan.

        The whole batch crosses each stage before the next one starts,
        carried as the base executor's ``batch_envs`` decides — one
        stacked array where :func:`repro.sim.ops.carrying_dtype` allows,
        item by item otherwise, for linear and graph plans alike — and
        each stage runs its atoms through the executor's ``run_atom``.
        The pipeline overlap is priced, not run; each stage's wall-clock
        interval lands in ``last_stage_report``.
        """
        items = [np.asarray(x) for x in xs]
        if not items:
            return []
        executor = self.base.executor
        report: List[Dict[str, Any]] = []
        with obs.span("dist.execute", network=self.network.name,
                      devices=self.num_stages, batch=len(items)) as span:
            envs = executor.batch_envs(np.stack(items))
            span.set(dtype=envs[0][INPUT].dtype.name)
            for idx, atoms in enumerate(self._stage_atoms):
                start = time.perf_counter()
                for env in envs:
                    for atom in atoms:
                        executor.run_atom(atom, env)
                report.append({"stage": idx,
                               "device": self.devices[idx].name,
                               "start_s": start,
                               "end_s": time.perf_counter()})
        outs = list(executor.batch_outputs(envs))
        self._tls.report = report
        obs.add_counter("dist.items_executed", len(items))
        obs.add_counter("dist.link_bytes",
                        self.estimate.link_bytes * len(items))
        return outs

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key.to_dict(),
            "base": self.base.to_dict(),
            "devices": [d.to_dict() for d in self.devices],
            "link": self.link.to_dict(),
            "boundaries": list(self.estimate.boundaries),
            "weight_items": self.weight_items,
            "estimate": self.estimate.to_dict(),
            "seed": self.seed,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PipelinePlan":
        from ..serve.plan import CompiledPlan

        base = CompiledPlan.from_dict(data["base"])
        devices = [DeviceSpec.from_dict(d) for d in data["devices"]]
        link = LinkSpec.from_dict(data["link"])
        boundaries = tuple(int(b) for b in data["boundaries"])
        weight_items = int(data.get("weight_items", DEFAULT_WEIGHT_ITEMS))
        atoms = plan_atoms(base)
        estimate = balance_stages(atoms, devices, link,
                                  boundaries=boundaries,
                                  weight_items=weight_items)
        return cls(base=base, devices=devices, link=link, estimate=estimate,
                   weight_items=weight_items)


def compile_pipeline_plan(network=None, devices: Sequence[DeviceSpec] = (),
                          link: LinkSpec = DEFAULT_LINK,
                          boundaries: Optional[Sequence[int]] = None,
                          weight_items: int = DEFAULT_WEIGHT_ITEMS,
                          base=None, validate: bool = True,
                          **compile_kwargs) -> PipelinePlan:
    """Compile a network (or wrap an existing ``base`` plan) into a
    pipeline plan over ``devices``.

    Without explicit ``boundaries`` the stage split comes from
    :func:`~repro.dist.stage.balance_stages` — the minimum steady-state
    interval over all contiguous splits; with them (a cache restore, or
    a tuner's choice) the split is only re-priced. Any remaining keyword
    arguments go to :func:`repro.serve.plan.compile_plan` for the base
    compilation.
    """
    if not devices:
        raise ConfigError("a pipeline plan needs at least one device")
    t0 = time.perf_counter()
    if base is None:
        if network is None:
            raise ConfigError("need a network or a base plan")
        from ..serve.plan import compile_plan

        # devices=() (not None) keeps a tuned record's own device count
        # from re-triggering the auto-shard recursively.
        base = compile_plan(network, validate=validate, devices=(),
                            **compile_kwargs)
    atoms = plan_atoms(base)
    with obs.span("dist.balance", network=base.network.name,
                  devices=len(devices), groups=len(atoms)):
        estimate = balance_stages(atoms, devices, link,
                                  boundaries=boundaries,
                                  weight_items=weight_items)
    plan = PipelinePlan(base=base, devices=devices, link=link,
                        estimate=estimate,
                        weight_items=weight_items,
                        compile_s=time.perf_counter() - t0)
    if validate:
        from ..check import check_pipeline_plan

        findings = [d for d in check_pipeline_plan(plan) if d.is_error]
        if findings:
            raise ConfigError(
                "pipeline plan failed static validation: "
                + "; ".join(d.render() for d in findings[:3]),
                key=str(plan.key), findings=len(findings))
        obs.add_counter("serve.plans_validated")
    obs.add_counter("serve.plans_compiled")
    obs.add_counter("dist.plans_compiled")
    return plan
