"""Functional simulator: reference and fused executors with traffic tracing."""

from .cache import CacheSim, CacheStats
from .fused import FusedExecutor, plan_levels
from .memtrace import build_address_map, fused_trace, reference_trace
from .ops import (apply_spec, avgpool2d, conv2d, fully_connected, lrn,
                  maxpool2d, pad2d, relu, run_level)
from .network_exec import NetworkExecutor
from .partitioned import PartitionedExecutor
from .recompute import InputLineBuffer, RecomputeExecutor
from .reference import ReferenceExecutor
from .reuse import MapReuseState, ReuseError
from .tiled import TiledBaselineExecutor
from .trace import TrafficTrace
from .weights import (
    load_params,
    make_input,
    make_network_weights,
    save_params,
)

__all__ = [
    "CacheSim",
    "CacheStats",
    "FusedExecutor",
    "InputLineBuffer",
    "MapReuseState",
    "NetworkExecutor",
    "PartitionedExecutor",
    "RecomputeExecutor",
    "ReferenceExecutor",
    "ReuseError",
    "TiledBaselineExecutor",
    "TrafficTrace",
    "apply_spec",
    "avgpool2d",
    "build_address_map",
    "conv2d",
    "fully_connected",
    "fused_trace",
    "load_params",
    "lrn",
    "make_input",
    "make_network_weights",
    "maxpool2d",
    "pad2d",
    "plan_levels",
    "reference_trace",
    "relu",
    "save_params",
    "run_level",
]
