"""The instrumented hot layers feed the registry correctly."""

import numpy as np

from repro import explore, obs, toynet, vggnet_e
from repro.hw.pipeline import StageTiming, simulate_pipeline
from repro.nn.stages import extract_levels
from repro.sim import (
    FusedExecutor,
    NetworkExecutor,
    PartitionedExecutor,
    ReferenceExecutor,
    TrafficTrace,
    make_input,
)


class TestExplorerInstrumentation:
    def test_spans_and_counters(self):
        with obs.capture() as registry:
            result = explore(vggnet_e(), num_convs=5)
        names = {s.name for s in registry.spans}
        assert {"explore", "explore.enumerate", "explore.pareto",
                "partition.enumerate"} <= names
        assert registry.counters["explore.partitions_scored"] == result.num_partitions
        assert registry.counters["explore.partitions_pruned"] == (
            result.num_partitions - len(result.front))

    def test_disabled_explore_records_nothing(self):
        explore(vggnet_e(), num_convs=3)
        registry = obs.get_registry()
        assert "explore.partitions_scored" not in registry.counters


class TestSimulatorMirroring:
    def _run_fused(self):
        levels = extract_levels(toynet())
        x = make_input(levels[0].in_shape, integer=True)
        reference = ReferenceExecutor(levels, integer=True)
        expected = reference.run(x)
        fused = FusedExecutor(levels, params=reference.params, integer=True)
        trace = TrafficTrace()
        got = fused.run(x, trace)
        assert np.array_equal(expected, got)
        return trace

    def test_fused_counters_match_trace_exactly(self):
        with obs.capture() as registry:
            trace = self._run_fused()
        assert registry.counters["sim.fused.dram_read_bytes"] == trace.dram_read_bytes
        assert registry.counters["sim.fused.dram_write_bytes"] == trace.dram_write_bytes
        assert registry.counters["sim.fused.dram_total_bytes"] == trace.dram_total_bytes
        assert registry.counters["sim.fused.ops"] == trace.ops
        assert registry.counters["sim.fused.macs"] == trace.macs

    def test_fused_per_label_counters_match_trace(self):
        with obs.capture() as registry:
            trace = self._run_fused()
        for label, (read_bytes, write_bytes, ops) in trace.by_label().items():
            if read_bytes:
                assert registry.counters[
                    f"sim.fused.dram_read_bytes[{label}]"] == read_bytes
            if write_bytes:
                assert registry.counters[
                    f"sim.fused.dram_write_bytes[{label}]"] == write_bytes

    def test_reference_mirrors_per_level(self):
        levels = extract_levels(toynet())
        x = make_input(levels[0].in_shape, integer=True)
        with obs.capture() as registry:
            trace = TrafficTrace()
            ReferenceExecutor(levels, integer=True).run(x, trace)
        assert registry.counters["sim.reference.dram_read_bytes"] == trace.dram_read_bytes
        level_spans = [s for s in registry.spans if s.name == "reference.level"]
        assert len(level_spans) == len(levels)

    def test_pyramid_spans_and_counter(self):
        with obs.capture() as registry:
            self._run_fused()
        pyramids = [s for s in registry.spans if s.name == "fused.pyramid"]
        assert pyramids
        assert registry.counters["sim.fused.pyramids"] == len(pyramids)
        assert "sim.fused.buffer_bytes" in registry.gauges


    def test_shared_trace_mirrors_each_calls_own_traffic(self):
        """A per-item loop of network runs and a two-group partitioned
        run each share one trace across calls; the counters equal that
        trace."""
        net = toynet()
        levels = extract_levels(net)
        network = NetworkExecutor(net)
        runs = {
            "sim.network": lambda trace: [
                network.run(make_input(net.input_shape, seed=i), trace)
                for i in range(4)],
            "sim.fused": lambda trace: PartitionedExecutor(
                levels, (1, 1), integer=True).run(
                    make_input(levels[0].in_shape, integer=True), trace),
        }
        for prefix, run in runs.items():
            trace = TrafficTrace()
            with obs.capture() as registry:
                run(trace)
            for name in ("dram_read_bytes", "dram_write_bytes", "ops",
                         "macs"):
                assert registry.counters[f"{prefix}.{name}"] == getattr(
                    trace, name), (prefix, name)
            for label, (read_bytes, _, _) in trace.by_label().items():
                if read_bytes:
                    assert registry.counters[
                        f"{prefix}.dram_read_bytes[{label}]"] == read_bytes


class TestPipelineInstrumentation:
    def test_schedule_recorded(self):
        stages = [StageTiming("a", 3), StageTiming("b", 5)]
        with obs.capture() as registry:
            schedule = simulate_pipeline(stages, 4, name="unit")
        assert registry.pipelines == [("unit", schedule)]
        assert registry.counters["pipeline.busy_cycles[b]"] == 4 * 5
        assert registry.counters["pipeline.idle_cycles[b]"] == schedule.makespan - 20

    def test_disabled_records_no_pipeline(self):
        before = len(obs.get_registry().pipelines)
        simulate_pipeline([StageTiming("a", 1)], 2)
        assert len(obs.get_registry().pipelines) == before
