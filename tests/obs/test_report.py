"""Human-readable run report rendering."""

from repro.hw.pipeline import StageTiming, simulate_pipeline
from repro.obs import Registry, render_report
from repro.obs.report import MAX_SIBLINGS


def test_report_sections():
    registry = Registry()
    with registry.span("explore", network="vgg"):
        registry.add("explore.partitions_scored", 64)
    registry.add("sim.fused.dram_read_bytes", 2 ** 20)
    registry.gauge("sim.outputs_match", 1.0)
    registry.record_pipeline(simulate_pipeline(
        [StageTiming("load", 2), StageTiming("conv1", 5)], 4))  # makespan 22
    report = render_report(registry)
    assert "explore" in report and "network=vgg" in report
    assert "explore.partitions_scored" in report and "64" in report
    # Byte counters render scaled to MB.
    assert "1.000 MB" in report
    assert "pipeline pipeline0" in report
    assert "90.9%" in report  # conv1: 20 busy / 22 makespan
    assert "util" in report


def test_report_aggregates_repeated_siblings():
    registry = Registry()
    with registry.span("run"):
        for i in range(MAX_SIBLINGS + 4):
            with registry.span("pyramid", p=i):
                pass
    report = render_report(registry)
    assert f"pyramid x{MAX_SIBLINGS + 4}" in report
    assert "(aggregated)" in report
    # Individual repeats are collapsed.
    assert "p=3" not in report


def test_report_empty_registry():
    report = render_report(Registry())
    assert "(none)" in report
