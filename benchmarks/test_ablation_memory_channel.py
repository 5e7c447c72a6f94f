"""Extension: event-driven DRAM-channel simulation vs the roofline.

Validates the bandwidth model of `repro.hw.bandwidth` with a
discrete-event simulation in which the fused design's loads and stores
contend for one DRAM channel: simulated makespans respect both roofline
bounds and converge to whichever dominates.
"""

import pytest

from repro import extract_levels, vggnet_e
from repro.analysis import render_table
from repro.hw import optimize_fused, simulate_pipeline


@pytest.fixture(scope="module")
def design():
    levels = extract_levels(vggnet_e().prefix(5))
    return optimize_fused(levels, dsp_budget=2987)


def sweep(design, bandwidths):
    stages = design.stage_timings()
    return [(bw, simulate_pipeline(stages, design.num_pyramids,
                                   words_per_cycle=bw))
            for bw in bandwidths]


def test_channel_simulation_vs_roofline(benchmark, record, design):
    bandwidths = [0.01, 0.05, 0.25, 1, 4, 64]
    results = benchmark.pedantic(sweep, args=(design, bandwidths),
                                 rounds=1, iterations=1)

    record(render_table(
        ["words/cycle", "sim kcyc", "compute bound", "memory bound",
         "bound", "channel util"],
        [(bw, f"{s.makespan / 1e3:.0f}", f"{s.compute_bound / 1e3:.0f}",
          f"{s.memory_bound / 1e3:.0f}", s.bound,
          f"{s.channel_utilization:.0%}") for bw, s in results],
    ), "ablation_memory_channel")

    for _, schedule in results:
        assert schedule.makespan >= schedule.compute_bound
        # (fill effects keep the simulated time near but above the bounds)
    # Starved: memory-bound; simulated time tracks the traffic bound.
    starved = results[0][1]
    assert starved.bound == "memory"
    assert starved.makespan == pytest.approx(starved.memory_bound, rel=0.05)
    # Ample: compute-bound; simulated time tracks the pipeline model.
    ample = results[-1][1]
    assert ample.bound == "compute"
    assert ample.makespan == pytest.approx(design.total_cycles, rel=0.01)
