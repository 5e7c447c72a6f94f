"""repro.dist: multi-device pipeline-parallel serving.

The paper fuses adjacent layers into groups so each group's pyramid
runs out of on-chip buffers; this package takes the next structural
step and maps each fused group (of a linear partition or a DAG segment
schedule) onto its **own simulated device** — a
:class:`~repro.hw.device.DeviceSpec` with a private DSP/BRAM budget and
DRAM channel — connected by :class:`~repro.hw.link.LinkSpec` links that
stream the inter-group activation footprints the partition analysis
already computes.

Two layers:

* :mod:`~repro.dist.stage` — group *atoms* (uniform over linear and
  graph plans), the contiguous stage partitioner, and the stage/link
  cost model (compute vs private-DRAM vs link, steady-state interval =
  max over stages of stage cycles + link transfer), and
  :meth:`PipelineEstimate.simulate`, a bounded-queue micro-batch run of
  the priced stages on :func:`repro.hw.pipeline.simulate_pipeline`;
* :mod:`~repro.dist.plan` — :class:`PipelinePlan`, the ``"pipeline"``
  plan family: a sharded, *bit-identical* executable the serving stack
  (``InferenceService``/``WorkerPool``/``PlanCache``) treats like any
  other compiled plan.
"""

from ..hw.device import (
    DEFAULT_DEVICE,
    DeviceSpec,
    replicate_device,
    split_device,
)
from ..hw.link import DEFAULT_LINK, LinkSpec
from .plan import (
    DEFAULT_WEIGHT_ITEMS,
    PipelinePlan,
    compile_pipeline_plan,
    fleet_fingerprint,
    pipeline_plan_key,
    pipeline_variant,
)
from .stage import (
    GroupAtom,
    PipelineEstimate,
    StageEstimate,
    balance_stages,
    enumerate_boundaries,
    plan_atoms,
    price_stages,
)

__all__ = [
    "DEFAULT_DEVICE",
    "DEFAULT_LINK",
    "DEFAULT_WEIGHT_ITEMS",
    "DeviceSpec",
    "fleet_fingerprint",
    "GroupAtom",
    "LinkSpec",
    "PipelineEstimate",
    "PipelinePlan",
    "StageEstimate",
    "pipeline_plan_key",
    "balance_stages",
    "compile_pipeline_plan",
    "enumerate_boundaries",
    "pipeline_variant",
    "plan_atoms",
    "price_stages",
    "replicate_device",
    "split_device",
]
