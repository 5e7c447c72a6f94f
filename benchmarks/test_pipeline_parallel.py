"""Pipeline parallelism: K-device shards vs the single-device baseline.

The acceptance bar for `repro.dist`: on paper-scale networks (VGGNet-E
and a ResNet-18-class DAG), the balanced 4-device shard of a
resource-neutral fleet — `split_device` hands each stage 3600/4 DSPs,
so total silicon is conserved — must sustain at least **2x** the
single-device throughput, absolute and per DSP slice (the two
coincide on a resource-neutral fleet by construction). On top of the
analytical verdict, a sharded ToyNet service must serve bit-identical
outputs through the worker pool, under a `transfer_corrupt` fault
plan, and a device-count co-search must hand the serving stack a
record that auto-shards.

Results land in ``benchmarks/results/BENCH_pipeline.json``; an
identical-seed rebuild of the summary is byte-identical.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.dist import (
    DEFAULT_DEVICE,
    DEFAULT_LINK,
    DEFAULT_WEIGHT_ITEMS,
    balance_stages,
    plan_atoms,
    split_device,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import resnet18
from repro.nn.zoo import toynet, vggnet_e
from repro.serve import InferenceService, compile_plan
from repro.sim import NetworkExecutor, make_input
from repro.tune import tune

RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "BENCH_pipeline.json")

DEVICE_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR = 2.0  # at 4 devices, absolute == per-DSP (resource-neutral)


def _sweep(atoms):
    """Balanced K-device estimates for every device count, as a dict."""
    rows = {}
    for count in DEVICE_COUNTS:
        fleet = split_device(DEFAULT_DEVICE, count)
        est = balance_stages(atoms, fleet, DEFAULT_LINK,
                             weight_items=DEFAULT_WEIGHT_ITEMS)
        run = est.simulate(max(DEFAULT_WEIGHT_ITEMS, 2))
        rows[str(count)] = {
            "boundaries": list(est.boundaries),
            "interval_cycles": est.interval_cycles,
            "latency_cycles": est.latency_cycles,
            "link_bytes_per_item": est.link_bytes,
            "items_per_s": round(est.items_per_s, 4),
            "throughput_per_dsp": est.throughput_per_dsp,
            "total_dsp": est.total_dsp,
            "min_stage_utilization": round(min(est.stage_utilization), 4),
            "fill_drain_cycles": run.fill_drain_cycles,
            "measured_interval": run.measured_interval,
        }
    base = rows["1"]["throughput_per_dsp"]
    for row in rows.values():
        row["speedup_per_dsp"] = round(row["throughput_per_dsp"] / base, 3)
        row["throughput_per_dsp"] = round(row["throughput_per_dsp"], 8)
    return rows


@pytest.fixture(scope="module")
def scaling():
    """Analytical scaling sweeps for both paper-scale networks."""
    sweeps = {}
    vgg = vggnet_e()
    vgg_base = compile_plan(vgg, partition_sizes=(1,) * 21, validate=False)
    sweeps["vggnet_e"] = _sweep(plan_atoms(vgg_base))
    res = resnet18(input_size=69)
    res_base = compile_plan(res, validate=False)
    sweeps["resnet18"] = _sweep(plan_atoms(res_base))
    return sweeps


def _summary(scaling, serving):
    return {
        "bench": "pipeline_parallel",
        "device_counts": list(DEVICE_COUNTS),
        "weight_items": DEFAULT_WEIGHT_ITEMS,
        "link": {"latency_cycles": DEFAULT_LINK.latency_cycles,
                 "bytes_per_cycle": DEFAULT_LINK.bytes_per_cycle},
        "device": DEFAULT_DEVICE.to_dict(),
        "scaling": scaling,
        "serving": serving,
    }


def test_vgg_4dev_at_least_2x(scaling):
    rows = scaling["vggnet_e"]
    assert rows["4"]["speedup_per_dsp"] >= SPEEDUP_FLOOR, rows
    # monotone: more stages never hurt the balanced split's verdict
    assert (rows["1"]["interval_cycles"] >= rows["2"]["interval_cycles"]
            >= rows["4"]["interval_cycles"])
    # the micro-batch scheduler confirms the analytical interval
    assert rows["4"]["measured_interval"] == rows["4"]["interval_cycles"]


def test_resnet_4dev_at_least_2x(scaling):
    rows = scaling["resnet18"]
    assert rows["4"]["speedup_per_dsp"] >= SPEEDUP_FLOOR, rows
    assert rows["4"]["min_stage_utilization"] > 0.0


def test_sharded_serving_bit_identical_and_results_written(scaling):
    net = toynet()
    xs = [make_input(net.input_shape, seed=42 + i, integer=True)
          for i in range(16)]
    reference = NetworkExecutor(net, seed=0, integer=True)
    golden = [reference.run(x) for x in xs]
    fleet = split_device(DEFAULT_DEVICE, 2)

    with InferenceService(net, devices=fleet,
                          partition_sizes=(1, 1)) as svc:
        clean = [f.result(timeout=120) for f in svc.submit_batch(xs)]
    injector = FaultPlan.parse("transfer_corrupt:p=0.5", seed=11).injector()
    with InferenceService(net, devices=fleet, partition_sizes=(1, 1),
                          faults=injector,
                          retry=RetryPolicy(max_attempts=16)) as svc:
        faulted = [f.result(timeout=120) for f in svc.submit_batch(xs)]
    assert injector.total_injected > 0
    for out, bad, ref in zip(clean, faulted, golden):
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(bad, ref)

    # device-count co-search hands serving an auto-sharding record
    record = tune(net, objective="interval_dsp",
                  device_counts=(1, 2), evals=16, seed=7).record
    tuned_plan = compile_plan(net, tuned=record)
    serving = {
        "network": net.name,
        "devices": [d.name for d in fleet],
        "requests": len(xs),
        "bit_identical": True,
        "bit_identical_under_faults": True,
        "faults_injected": injector.total_injected,
        "tuned": {"objective": "interval_dsp", "device_counts": [1, 2],
                  "devices": record.devices,
                  "plan_family": tuned_plan.key.family,
                  "value": record.value},
    }

    summary = _summary(scaling, serving)
    blob = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    # identical-seed rebuild is byte-identical (no wall-clock leaks)
    assert json.dumps(_summary(scaling, serving), indent=2,
                      sort_keys=True) + "\n" == blob
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(blob)
    print(f"\npipeline parallelism: vgg 4-dev "
          f"{scaling['vggnet_e']['4']['speedup_per_dsp']}x, resnet18 4-dev "
          f"{scaling['resnet18']['4']['speedup_per_dsp']}x "
          f"[written to {RESULTS_PATH}]")
