"""Hardware models: baseline and fused FPGA accelerators, resources, HLS."""

from .bandwidth import (
    EffectivePerformance,
    SweepPoint,
    bandwidth_sweep,
    memory_bound_threshold,
    performance_under_bandwidth,
    required_bandwidth_bytes_per_sec,
)
from .baseline import (
    BaselineDesign,
    ConvStage,
    StageCost,
    group_stages,
    optimize_baseline,
    stage_cost,
)
from .codegen import generate_standalone
from .device import (
    DEFAULT_DEVICE,
    DSP_PER_ADD,
    DSP_PER_MAC,
    DSP_PER_MUL,
    VIRTEX7_485T,
    VIRTEX7_690T,
    DeviceSpec,
    FpgaDevice,
    replicate_device,
    split_device,
)
from .link import DEFAULT_LINK, LinkSpec
from .energy import EnergyBreakdown, EnergyModel, estimate_energy
from .fused_accel import FusedDesign, ModuleConfig, module_cycles, optimize_fused
from .multi import PartitionDesign, PoolEngine, design_partition
from .hls import generate_baseline, generate_compute_module, generate_fused
from .precision import FP16, FP32, INT16, Precision, equivalent_dsp_budget, precision_summary, scale_bytes
from .pipeline import PipelineSchedule, StageTiming, analytic_makespan, simulate_pipeline
from .resources import BufferSpec, ResourceEstimate

__all__ = [
    "BaselineDesign",
    "EffectivePerformance",
    "EnergyBreakdown",
    "EnergyModel",
    "SweepPoint",
    "bandwidth_sweep",
    "equivalent_dsp_budget",
    "estimate_energy",
    "memory_bound_threshold",
    "performance_under_bandwidth",
    "required_bandwidth_bytes_per_sec",
    "BufferSpec",
    "ConvStage",
    "DEFAULT_DEVICE",
    "DEFAULT_LINK",
    "DeviceSpec",
    "LinkSpec",
    "replicate_device",
    "split_device",
    "DSP_PER_ADD",
    "DSP_PER_MAC",
    "DSP_PER_MUL",
    "FP16",
    "FP32",
    "FpgaDevice",
    "INT16",
    "FusedDesign",
    "ModuleConfig",
    "PartitionDesign",
    "PoolEngine",
    "PipelineSchedule",
    "Precision",
    "ResourceEstimate",
    "StageCost",
    "StageTiming",
    "VIRTEX7_485T",
    "VIRTEX7_690T",
    "analytic_makespan",
    "design_partition",
    "generate_baseline",
    "generate_compute_module",
    "generate_standalone",
    "generate_fused",
    "group_stages",
    "module_cycles",
    "optimize_baseline",
    "optimize_fused",
    "precision_summary",
    "scale_bytes",
    "simulate_pipeline",
    "stage_cost",
]
