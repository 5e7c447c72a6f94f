"""End-to-end CLI commands."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCli:
    def test_figure2(self, capsys):
        out = run(capsys, "figure2")
        assert "conv1_1" in out and "weights MB" in out

    def test_figure3(self, capsys):
        out = run(capsys, "figure3")
        assert "5x5" in out and "overlap" in out

    def test_figure7_vgg_front(self, capsys):
        out = run(capsys, "figure7", "vgg", "--front-only")
        assert "64 partitions" in out and "3.64" in out

    def test_figure7_alexnet(self, capsys):
        out = run(capsys, "figure7", "alexnet", "--front-only")
        assert "128 partitions" in out

    def test_sec3c(self, capsys):
        out = run(capsys, "sec3c")
        assert "AlexNet conv1-conv2" in out
        assert "VGGNet-E all conv+pool" in out

    def test_simulate_small(self, capsys):
        out = run(capsys, "simulate", "vgg", "--convs", "2", "--scale", "8",
                  "--tip", "2")
        assert "True" in out

    def test_hls(self, capsys):
        out = run(capsys, "hls", "vgg", "--convs", "2", "--dsp", "600")
        assert "#pragma HLS" in out
        assert "fused_accelerator" in out

    def test_unknown_network(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "resnet"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_explore(self, capsys):
        out = run(capsys, "explore", "vgg", "--convs", "5",
                  "--storage-budget", "128")
        assert "64 partitions" in out
        assert "best under 128 KB" in out

    def test_explore_recompute(self, capsys):
        out = run(capsys, "explore", "googlenet-stem", "--recompute")
        assert "Mops" in out

    def test_explore_from_file(self, capsys, tmp_path):
        from repro import dump_network, vggnet_e

        path = tmp_path / "net.torchtxt"
        path.write_text(dump_network(vggnet_e()))
        out = run(capsys, "explore", "parsed", "--file", str(path),
                  "--convs", "5")
        assert "64 partitions" in out
        assert "3.64" in out

    def test_codegen(self, capsys, tmp_path):
        out_file = tmp_path / "fused.cpp"
        out = run(capsys, "codegen", "nin", "--convs", "2", "--out", str(out_file))
        assert "wrote" in out
        assert "FUSED_OK" in out_file.read_text()

    def test_codegen_stdout(self, capsys):
        out = run(capsys, "codegen", "nin", "--convs", "1")
        assert "GRID_ROWS" in out

    def test_bandwidth(self, capsys):
        out = run(capsys, "bandwidth", "vgg", "--convs", "2", "--dsp", "600")
        assert "speedup" in out and "x" in out

    def test_energy(self, capsys):
        out = run(capsys, "energy", "vgg", "--convs", "2", "--dsp", "600")
        assert "fused" in out and "baseline" in out

    def test_codegen_too_large_is_clean_error(self):
        with pytest.raises(SystemExit) as err:
            main(["codegen", "vgg", "--convs", "5"])
        assert "codegen" in str(err.value)


class TestNetworkFlags:
    def test_list_networks(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--list-networks"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "vgg" in out and "toynet" in out

    def test_input_size_without_file_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["explore", "vgg", "--input-size", "112"])
        assert "--input-size" in str(err.value)
        assert "--file" in str(err.value)

    def test_nonpositive_input_size_rejected(self, tmp_path):
        from repro import dump_network, vggnet_e

        path = tmp_path / "net.torchtxt"
        path.write_text(dump_network(vggnet_e()))
        with pytest.raises(SystemExit) as err:
            main(["explore", "parsed", "--file", str(path), "--input-size", "0"])
        assert "positive" in str(err.value)

    def test_input_size_with_file_accepted(self, capsys, tmp_path):
        from repro import dump_network, vggnet_e

        path = tmp_path / "net.torchtxt"
        path.write_text(dump_network(vggnet_e()))
        out = run(capsys, "explore", "parsed", "--file", str(path),
                  "--input-size", "64", "--convs", "3")
        assert "partitions" in out


class TestStatsAndProfile:
    def test_stats_emits_metrics_json(self, capsys):
        import json

        out = run(capsys, "stats", "toynet", "--convs", "2", "--scale", "1",
                  "--dsp", "600")
        metrics = json.loads(out)
        assert metrics["meta"]["outputs_match"] is True
        counters = metrics["counters"]
        assert counters["explore.partitions_scored"] >= 2
        assert counters["sim.fused.dram_read_bytes"] > 0
        assert metrics["pipelines"], "pipeline schedule missing"
        stage_names = [s["name"] for s in metrics["pipelines"][0]["stages"]]
        assert "load" in stage_names and "store" in stage_names

    def test_stats_json_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        out = run(capsys, "stats", "toynet", "--convs", "2", "--scale", "1",
                  "--dsp", "600", "--json", str(path))
        assert "wrote metrics JSON" in out
        metrics = json.loads(path.read_text())
        assert "counters" in metrics and "spans" in metrics

    def test_profile_flag_prints_report(self, capsys):
        out = run(capsys, "explore", "vgg", "--convs", "3", "--profile")
        assert "run report" in out
        assert "explore.partitions_scored" in out
        assert "partitions" in out  # the command's own output still prints

    def test_profile_flag_before_subcommand(self, capsys):
        out = run(capsys, "--profile", "explore", "vgg", "--convs", "3")
        assert "run report" in out

    def test_profile_writes_chrome_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        out = run(capsys, "stats", "toynet", "--convs", "2", "--scale", "1",
                  "--dsp", "600", f"--profile={path}")
        assert "wrote Chrome trace" in out
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events and all("ph" in e and "pid" in e for e in events)
        span_names = {e["name"] for e in events if e.get("cat") == "span"}
        assert "explore" in span_names and "stats" in span_names
        assert any(e.get("cat") == "pipeline" for e in events)

    @pytest.mark.parametrize("argv", [
        ("stats", "toynet", "--convs", "2", "--scale", "1", "--dsp", "600"),
        ("stats", "yolohead"),
    ])
    def test_stats_restores_global_registry(self, capsys, argv):
        """Without --profile, stats records into a registry of its own and
        leaves the global one installed and disabled afterwards."""
        from repro import obs

        before = obs.get_registry()
        run(capsys, *argv)
        assert obs.get_registry() is before
        assert not obs.enabled()

    def test_profile_disabled_after_run(self, capsys):
        from repro import obs

        run(capsys, "explore", "vgg", "--convs", "2", "--profile")
        assert not obs.enabled()

    def test_empty_profile_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "vgg", "--profile="])


class TestFaultFlags:
    def test_faultsim_matches_golden_reference(self, capsys):
        out = run(capsys, "faultsim", "toynet", "--convs", "2", "--scale", "1",
                  "--dsp", "600", "--faults", "transfer_corrupt:p=0.3",
                  "--seed", "7")
        assert "fused output == fault-free golden reference: True" in out
        assert "transfer_corrupt" in out

    def test_faultsim_default_plan(self, capsys):
        out = run(capsys, "faultsim", "toynet", "--convs", "2", "--scale", "1",
                  "--dsp", "600")
        assert "fault plan:" in out
        assert "golden reference: True" in out

    def test_faultsim_deterministic(self, capsys):
        argv = ["faultsim", "toynet", "--convs", "2", "--scale", "1",
                "--dsp", "600", "--faults", "dram_stall:p=0.2", "--seed", "3"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_global_flags_position_independent(self, capsys):
        before = run(capsys, "--faults", "dram_stall:p=0.2", "--seed", "3",
                     "faultsim", "toynet", "--convs", "2", "--scale", "1",
                     "--dsp", "600")
        after = run(capsys, "faultsim", "toynet", "--convs", "2", "--scale", "1",
                    "--dsp", "600", "--faults=dram_stall:p=0.2", "--seed=3")
        assert before == after

    def test_stats_reports_fault_counts(self, capsys):
        import json

        out = run(capsys, "stats", "toynet", "--convs", "2", "--scale", "1",
                  "--dsp", "600", "--faults", "stage_stall:p=1,cycles=2",
                  "--seed", "1")
        metrics = json.loads(out)
        meta = metrics["meta"]["faults"]
        assert meta["seed"] == 1
        assert meta["injected"]["stage_stall"] > 0
        assert metrics["counters"]["faults.injected[stage_stall]"] > 0

    def test_stats_without_faults_reports_none(self, capsys):
        import json

        out = run(capsys, "stats", "toynet", "--convs", "2", "--scale", "1",
                  "--dsp", "600")
        assert json.loads(out)["meta"]["faults"] is None

    def test_explore_budget_degrades(self, capsys):
        out = run(capsys, "explore", "vgg", "--convs", "5",
                  "--max-partitions", "10")
        assert "10 partitions" in out
        assert "degraded" in out

    def test_plan_cleared_after_run(self, capsys):
        from repro import faults

        run(capsys, "faultsim", "toynet", "--convs", "2", "--scale", "1",
            "--dsp", "600", "--faults", "dram_stall:p=0.1")
        assert faults.get_active_plan() is None


class TestPinnedSimulatorOutputs:
    """Pipeline, shared-channel and micro-batch numbers pinned before
    the three simulators became one."""

    def test_faultsim_dram_stall_alexnet(self, capsys):
        out = run(capsys, "faultsim", "alexnet", "--faults",
                  "dram_stall:p=0.05", "--seed", "7")
        assert ("channel makespan: 1,337,496 cycles (1.00x fault-free; "
                "13 stalls, 13 retries, 936 stall cycles)") in out
        assert "pipeline makespan under stage stalls: 1,337,496 cycles" in out

    def test_faultsim_mixed_plan_vgg(self, capsys):
        out = run(capsys, "faultsim", "vgg", "--faults",
                  "dram_stall:p=0.02;stage_stall:p=0.05;bandwidth_degrade",
                  "--seed", "7")
        assert ("channel makespan: 12,433,045 cycles (1.00x fault-free; "
                "134 stalls, 134 retries, 9,664 stall cycles)") in out
        assert "pipeline makespan under stage stalls: 12,438,490 cycles" in out
        assert ("injected: bandwidth_degrade=1, dram_stall=134, retries=134, "
                "stage_stall=1433") in out

    def test_stats_stage_stall_alexnet(self, capsys):
        import json

        meta = json.loads(run(capsys, "stats", "alexnet", "--faults",
                              "stage_stall:p=0.05", "--seed", "7"))["meta"]
        assert meta["pipeline_makespan_cycles"] == 1_337_912
        assert meta["faults"]["injected"] == {"stage_stall": 73}

    def test_pipeline_json_run_resnet18(self, capsys, tmp_path):
        import json

        path = tmp_path / "pipeline.json"
        run(capsys, "pipeline", "resnet18", "--input-size", "37",
            "--devices", "2", "--json", str(path))
        summary = json.loads(path.read_text())["run"]
        assert summary["makespan_cycles"] == 58_253_066
        assert summary["fill_cycles"] == 3_147_156
        assert summary["fill_drain_cycles"] == 1_369_546
        assert summary["max_queue"] == [31, 0]

    def test_pipeline_zero_items_exits_2(self, capsys):
        assert main(["pipeline", "toynet", "--devices", "2", "--partition",
                     "1,1", "--items", "0"]) == 2
        assert "at least one item" in capsys.readouterr().err


class TestErrorExitCodes:
    def test_bad_fault_spec_exits_2_with_one_line_error(self, capsys):
        assert main(["explore", "vgg", "--faults", "cosmic_ray:p=1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "cosmic_ray" in captured.err
        assert "Traceback" not in captured.err

    def test_retry_exhaustion_exits_2(self, capsys):
        code = main(["faultsim", "toynet", "--convs", "2", "--scale", "1",
                     "--dsp", "600", "--faults", "dram_stall:p=1",
                     "--max-attempts", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "persisted through 2 attempts" in err

    def test_config_error_exits_2(self, capsys):
        assert main(["explore", "vgg", "--max-partitions", "0"]) == 2
        assert "max_evaluations" in capsys.readouterr().err

    def test_flag_without_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "vgg", "--faults"])
        with pytest.raises(SystemExit):
            main(["explore", "vgg", "--seed"])

    def test_non_integer_seed_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "vgg", "--faults", "dram_stall", "--seed", "pi"])


class TestServeBench:
    def test_basic_run_with_check(self, capsys):
        out = run(capsys, "serve-bench", "toynet", "--requests", "16",
                  "--workers", "2", "--check")
        assert "requests/s" in out
        assert "16 submitted, 16 ok" in out
        assert "served outputs == direct NetworkExecutor.run: True" in out

    def test_cache_file_cold_then_warm(self, capsys, tmp_path):
        cache = str(tmp_path / "plans.json")
        cold = run(capsys, "serve-bench", "toynet", "--requests", "8",
                   "--cache", cache)
        assert "0 plans loaded" in cold and "1 misses" in cold
        warm = run(capsys, "serve-bench", "toynet", "--requests", "8",
                   "--cache", cache)
        assert "1 plans loaded" in warm and "1 hits" in warm

    def test_overload_exits_2(self, capsys):
        code = main(["serve-bench", "toynet", "--workers", "0",
                     "--max-queue", "2", "--requests", "8",
                     "--fail-on-overload"])
        assert code == 2
        err = capsys.readouterr().err
        assert "serving queue full" in err

    def test_overload_without_fail_flag_drops_and_continues(self, capsys):
        out = run(capsys, "serve-bench", "toynet", "--requests", "12",
                  "--workers", "1", "--max-queue", "4", "--max-batch", "4",
                  "--max-wait-ms", "0.1")
        assert "requests/s" in out  # rejected some, served the rest

    def test_cached_plan_not_reused_across_seeds(self, capsys, tmp_path):
        """Weight seed is part of the plan key: a cache warmed under the
        default seed must not serve a --seed 3 run (whose --check compares
        against seed-3 weights)."""
        cache = str(tmp_path / "plans.json")
        run(capsys, "serve-bench", "toynet", "--requests", "4",
            "--cache", cache, "--check")
        out = run(capsys, "--seed", "3", "serve-bench", "toynet",
                  "--requests", "4", "--cache", cache, "--check")
        assert "1 plans loaded" in out and "1 misses" in out
        assert "served outputs == direct NetworkExecutor.run: True" in out

    def test_bit_identical_under_faults(self, capsys):
        out = run(capsys, "--faults", "transfer_corrupt:p=0.4", "--seed", "3",
                  "serve-bench", "toynet", "--requests", "12",
                  "--max-attempts", "12", "--check")
        assert "served outputs == direct NetworkExecutor.run: True" in out

    def test_json_summary(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        run(capsys, "serve-bench", "toynet", "--requests", "8",
            "--json", str(path))
        import json

        summary = json.loads(path.read_text())
        assert summary["completed"] == 8
        assert summary["requests_per_s"] > 0


class TestServeObservability:
    def test_trace_chrome_export_validates(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        out = run(capsys, "serve-bench", "toynet", "--requests", "8",
                  "--trace", trace)
        assert "wrote request trace (Chrome Trace Format)" in out
        assert "tracing  :" in out  # the report counts recorded traces
        run(capsys, "check", "--trace", trace)  # RC5xx-clean -> exit 0

    def test_trace_jsonl_export_validates(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        out = run(capsys, "serve-bench", "toynet", "--requests", "8",
                  "--trace", trace)
        assert "trace spans (JSONL)" in out
        run(capsys, "check", "--trace", trace)

    def test_check_trace_flags_broken_file(self, capsys, tmp_path):
        bad = tmp_path / "broken.jsonl"
        bad.write_text('{"trace": 0, "span": 0, "parent": -1, '
                       '"name": "serve.request", "start_s": 0.0, '
                       '"end_s": null, "complete": false}\n')
        with pytest.raises(SystemExit) as err:
            main(["check", "--trace", str(bad)])
        assert err.value.code == 2
        assert "RC502" in capsys.readouterr().out

    def test_slo_flag_renders_burn_rate(self, capsys):
        out = run(capsys, "serve-bench", "toynet", "--requests", "8",
                  "--slo", "1000")
        assert "burn-rate" in out

    def test_prom_export(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        run(capsys, "serve-bench", "toynet", "--requests", "8",
            "--slo", "1000", "--prom", str(prom))
        text = prom.read_text()
        assert "# TYPE" in text
        assert "repro_serve_submitted" in text
        assert "repro_slo" in text


class TestSloCli:
    def test_clean_run_reports_ok(self, capsys):
        out = run(capsys, "slo", "toynet", "--requests", "16",
                  "--target-ms", "1000")
        assert "burn-rate 0.00x" in out
        assert "[ok]" in out
        assert "0/16 violations" in out

    def test_dram_stall_burst_alerts(self, capsys):
        out = run(capsys, "--faults", "dram_stall:p=0.3,cycles=64",
                  "--seed", "3", "slo", "toynet", "--requests", "32",
                  "--target-ms", "5")
        assert "fault plan: dram_stall" in out
        assert "[ALERT]" in out
        assert "burn-rate 0.00x" not in out

    def test_fail_on_breach_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["slo", "toynet", "--requests", "8",
                  "--target-ms", "0.001", "--fail-on-breach"])
        assert err.value.code == 1

    def test_json_and_trace_outputs(self, capsys, tmp_path):
        import json

        payload = tmp_path / "slo.json"
        trace = tmp_path / "trace.json"
        run(capsys, "slo", "toynet", "--requests", "8",
            "--target-ms", "1000", "--json", str(payload),
            "--trace", str(trace))
        data = json.loads(payload.read_text())
        assert data["observed"] == 8
        assert data["burn_rate"] == 0.0
        run(capsys, "check", "--trace", str(trace))


class TestBenchDiffCli:
    def write(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_regression_flagged(self, capsys, tmp_path):
        base = self.write(tmp_path, "base.json", {"p99_ms": 2.0, "hits": 10})
        cur = self.write(tmp_path, "cur.json", {"p99_ms": 4.0, "hits": 12})
        out = run(capsys, "bench-diff", base, cur)
        assert "REGRESSED" in out and "p99_ms" in out
        assert "1 regressions, 1 improvements" in out

    def test_fail_on_regression_exits_1(self, capsys, tmp_path):
        base = self.write(tmp_path, "base.json", {"p99_ms": 2.0})
        cur = self.write(tmp_path, "cur.json", {"p99_ms": 4.0})
        with pytest.raises(SystemExit) as err:
            main(["bench-diff", base, cur, "--fail-on-regression"])
        assert err.value.code == 1
        clean = main(["bench-diff", base, base, "--fail-on-regression"])
        assert clean == 0

    def test_json_output(self, capsys, tmp_path):
        import json

        base = self.write(tmp_path, "base.json", {"p99_ms": 2.0})
        cur = self.write(tmp_path, "cur.json", {"p99_ms": 4.0})
        out = run(capsys, "bench-diff", base, cur, "--json")
        payload = json.loads(out)
        assert payload["regressions"] == ["p99_ms"]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        base = self.write(tmp_path, "base.json", {"a": 1})
        assert main(["bench-diff", base,
                     str(tmp_path / "missing.json")]) == 2
        assert "benchmark" in capsys.readouterr().err


class TestTuneCli:
    def test_tune_toynet(self, capsys):
        out = run(capsys, "tune", "toynet", "--evals", "30", "--seed", "7")
        assert "minimize cycles" in out
        assert "incumbent" in out and "baseline" in out
        assert "x better" in out

    def test_tune_warm_resume_message(self, capsys, tmp_path):
        db = str(tmp_path / "tunedb.json")
        first = run(capsys, "--seed", "7", "tune", "toynet",
                    "--evals", "30", "--db", db)
        assert "warm resume" not in first
        second = run(capsys, "--seed", "7", "tune", "toynet",
                     "--evals", "30", "--db", db)
        assert "warm resume" in second
        assert "0 fresh evaluations" in second

    def test_tune_json_summary(self, capsys, tmp_path):
        import json

        path = tmp_path / "tune.json"
        run(capsys, "--seed", "7", "tune", "toynet", "--evals", "30",
            "--json", str(path))
        data = json.loads(path.read_text())
        assert data["considered"] == 30
        assert data["incumbent"]["value"] <= data["baseline"]["value"]

    def test_tune_weighted_objective(self, capsys):
        out = run(capsys, "tune", "toynet", "--evals", "20",
                  "--objective", "cycles=0.7,energy=0.3")
        assert "0.7*cycles" in out

    def test_tune_bad_objective_exits_2(self, capsys):
        assert main(["tune", "toynet", "--objective", "luck"]) == 2
        assert "metric" in capsys.readouterr().err

    def test_tune_profile_reports_counters(self, capsys):
        out = run(capsys, "--profile", "tune", "toynet", "--evals", "20",
                  "--seed", "1")
        assert "tune.candidates_evaluated" in out


class TestMultiCli:
    def test_multi_explicit_partition(self, capsys):
        out = run(capsys, "multi", "vgg", "--convs", "5",
                  "--partition", "4+3")
        assert "group" in out and "latency" in out
        assert "throughput interval" in out

    def test_multi_default_is_fully_fused(self, capsys):
        out = run(capsys, "multi", "vgg", "--convs", "5")
        assert "(7,)" in out

    def test_multi_bad_partition_exits(self):
        with pytest.raises(SystemExit) as err:
            main(["multi", "vgg", "--convs", "5", "--partition", "nope"])
        assert "partition" in str(err.value)

    def test_multi_wrong_total_is_clean_error(self, capsys):
        assert main(["multi", "vgg", "--convs", "5",
                     "--partition", "2+2"]) == 2
        assert "cover" in capsys.readouterr().err

    def test_multi_tuned_lookup(self, capsys, tmp_path):
        db = str(tmp_path / "tunedb.json")
        run(capsys, "--seed", "7", "tune", "toynet", "--evals", "30",
            "--db", db)
        out = run(capsys, "multi", "toynet", "--convs", "2",
                  "--tuned", db)
        assert "tuned partition" in out

    def test_multi_tuned_missing_incumbent_exits(self, tmp_path):
        db = str(tmp_path / "empty.json")
        with pytest.raises(SystemExit) as err:
            main(["multi", "toynet", "--convs", "2", "--tuned", db])
        assert "no tuned incumbent" in str(err.value)
