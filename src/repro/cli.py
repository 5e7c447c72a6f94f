"""Command-line interface: ``python -m repro <command>`` (or ``fused-cnn``).

Commands map one-to-one to the paper's evaluation artifacts::

    figure2     per-layer feature-map / weight sizes of VGGNet-E
    figure3     the two-layer pyramid walkthrough
    figure7     the storage/transfer design space (alexnet | vgg; --plot)
    table1      AlexNet fused vs baseline accelerator comparison
    table2      VGGNet-E fused vs baseline accelerator comparison
    sec3c       reuse vs recompute strategy comparison
    simulate    run the fused executor and verify against layer-by-layer
    explore     Pareto front for any zoo network or --file description;
                DAG zoo networks (resnet18, resnet50, mobilenetv2,
                yolohead) get branch-aware segment fusion with
                fused-vs-all-boundary baselines
    frontier    exact DP frontier (tractable even for all of VGGNet-E)
    tune        guided autotuning over the joint fusion x tiling space
                (seeded, resumable via --db, parallel via --jobs)
    multi       per-group latency/throughput of a multi-pyramid design
                for an explicit --partition (or a tuned record)
    stats       explore + simulate + pipeline for one network; emit the
                full observability metrics JSON
    faultsim    run fused-vs-reference under an injected fault plan and
                report whether outputs still match the golden reference
    serve-bench batched inference serving benchmark: compiled-plan cache,
                micro-batching scheduler, parallel workers; per-request
                tracing (--trace), latency SLOs (--slo), Prometheus
                exposition (--prom)
    slo         serve a short load against a latency SLO target and
                report the monitor's error-budget burn rate
    bench-diff  compare two benchmark summary JSON files and flag
                metrics that regressed past a threshold
    check       static analysis: verify a network/partition/plan without
                executing, lint the repo's own invariants (--lint),
                analyze lock discipline and races (--concurrency), and
                validate plan-cache/tuning-db/trace files (--plan,
                --tunedb, --trace) and DAG descriptions (--graph)
    hls         emit the specialized HLS C++ for a fused design
    codegen     emit a standalone self-checking C++ program
    bandwidth   roofline sweep, fused vs baseline
    energy      per-image energy breakdown
    verify      run the built-in correctness self-checks
    reproduce   everything above, in order

Every command accepts a global ``--profile[=TRACE_JSON]`` flag (before or
after the subcommand): it enables the :mod:`repro.obs` registry, prints
the run report after the command, and — when a path is given — writes a
Chrome Trace Event Format file loadable in Perfetto. ``--list-networks``
prints the model-zoo keys.

Two more global flags wire up :mod:`repro.faults`: ``--faults SPEC``
installs a fault plan (e.g. ``dram_stall:p=0.05;transfer_corrupt:p=0.02``)
that ``simulate``, ``stats``, and ``faultsim`` inject, and ``--seed N``
seeds the plan's deterministic decision streams. Any diagnosed
:class:`~repro.errors.ReproError` exits with code 2 and a one-line
message instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from . import analysis, faults as faults_mod, obs
from .errors import ReproError
from .hw.device import VIRTEX7_690T
from .nn.stages import extract_levels
from .nn.zoo import alexnet, googlenet_stem, nin_cifar, toynet, vgg16, vggnet_e, zfnet

_NETWORKS = {
    "alexnet": lambda: alexnet(),
    "vgg": lambda: vggnet_e(),
    "vggnet-e": lambda: vggnet_e(),
    "vgg16": lambda: vgg16(),
    "zfnet": lambda: zfnet(),
    "nin": lambda: nin_cifar(),
    "googlenet-stem": lambda: googlenet_stem(),
    "toynet": lambda: toynet(),
}


def _is_graph_network(name: Optional[str]) -> bool:
    """Whether ``name`` is a DAG zoo network (:mod:`repro.graph.zoo`)."""
    if not name:
        return False
    from .graph.zoo import GRAPH_ZOO

    return name.lower() in GRAPH_ZOO


def _graph_network(name: str, input_size: Optional[int] = None):
    """Build a DAG zoo network, honoring ``--input-size`` when given.

    The builders validate the size themselves (each family only accepts
    ``stride * k + offset`` inputs) and raise a diagnosed
    :class:`~repro.graph.ir.GraphError` naming the legal sizes.
    """
    from .graph.zoo import GRAPH_ZOO

    builder, _ = GRAPH_ZOO[name.lower()]
    if input_size is None:
        return builder()
    if input_size <= 0:
        raise SystemExit(f"--input-size must be positive, got {input_size}")
    return builder(input_size)


def _network(name: str, file: Optional[str] = None,
             input_size: Optional[int] = None, graph: bool = False):
    if file is None and _is_graph_network(name):
        if not graph:
            raise SystemExit(
                f"{name!r} is a DAG zoo network; this command only handles "
                "linear networks (DAG networks work with: explore, stats, "
                "serve-bench, check)")
        return _graph_network(name, input_size)
    if input_size is not None:
        if file is None:
            raise SystemExit(
                "--input-size only applies to --file networks and DAG zoo "
                f"networks; linear zoo network {name!r} fixes its own input "
                "size (drop --input-size or pass --file DESCRIPTION)")
        if input_size <= 0:
            raise SystemExit(f"--input-size must be positive, got {input_size}")
    if file is not None:
        from .nn.parse import parse_network

        with open(file) as handle:
            text = handle.read()
        size = input_size or 224
        return parse_network(text, name=name or "parsed", input_size=(size, size))
    try:
        return _NETWORKS[name.lower()]()
    except KeyError:
        from .graph.zoo import GRAPH_ZOO

        known = sorted(_NETWORKS) + sorted(GRAPH_ZOO)
        raise SystemExit(f"unknown network {name!r}; choose from {known}")


def cmd_figure2(args) -> None:
    print(analysis.render_figure2(analysis.figure2_series()))


def cmd_figure3(args) -> None:
    rows = analysis.figure3_walkthrough()
    body = [
        (r.name, r.kind, f"{r.in_tile[0]}x{r.in_tile[1]}",
         f"{r.out_tile[0]}x{r.out_tile[1]}", r.channels_in, r.channels_out,
         r.overlap_points_per_map)
        for r in rows
    ]
    print(analysis.render_table(
        ["level", "kind", "in tile", "out tile", "N", "M", "overlap pts/map"], body))


def cmd_figure7(args) -> None:
    if args.network.lower() in ("alexnet",):
        data = analysis.figure7_data(alexnet())
    else:
        data = analysis.figure7_data(vggnet_e(), num_convs=5)
    if args.plot:
        print(analysis.plot_figure7(data))
        print()
    print(analysis.render_figure7(data, front_only=args.front_only))


def cmd_table1(args) -> None:
    print(analysis.render_comparison(analysis.table1()))


def cmd_table2(args) -> None:
    print(analysis.render_comparison(analysis.table2()))


def cmd_sec3c(args) -> None:
    for rows in analysis.section3c().values():
        print(analysis.render_strategy_rows(rows))
        print()


def cmd_simulate(args) -> None:
    import numpy as np

    from .sim import FusedExecutor, ReferenceExecutor, TrafficTrace, make_input

    network = _network(args.network)
    sliced = network.prefix(args.convs) if args.convs else network.feature_extractor()
    levels = extract_levels(sliced)
    scale = args.scale
    if scale != 1:
        from .nn.network import Network
        from .nn.shapes import TensorShape

        shape = sliced.input_shape
        sliced = Network(sliced.name,
                         TensorShape(shape.channels, shape.height // scale,
                                     shape.width // scale),
                         sliced.specs)
        levels = extract_levels(sliced)
    x = make_input(levels[0].in_shape, integer=True)
    reference = ReferenceExecutor(levels, integer=True)
    expected = reference.run(x)
    plan = faults_mod.get_active_plan()
    injector = plan.injector() if plan is not None else None
    fused = FusedExecutor(levels, params=reference.params,
                          tip_h=args.tip, tip_w=args.tip, integer=True,
                          faults=injector)
    trace = TrafficTrace()
    got = fused.run(x, trace)
    match = bool(np.array_equal(expected, got))
    print(f"network: {sliced.name} input {levels[0].in_shape}")
    print(f"fused output == layer-by-layer output: {match}")
    print(f"DRAM traffic: {trace.summary()}")
    print(f"reuse-buffer footprint: {fused.buffer_bytes / 1024:.1f} KB")
    if injector is not None:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(injector.counts.items()))
        print(f"fault plan: {plan} (seed {plan.seed}); "
              f"injected: {counts or 'none'}")
    if not match:
        raise SystemExit(1)


_DEFAULT_FAULTSIM_SPEC = "dram_stall:p=0.05;transfer_corrupt:p=0.05"


def cmd_faultsim(args) -> None:
    """Fused executor vs fault-free golden reference under a fault plan.

    The reference runs clean; the fused simulator runs with the plan's
    corruption faults injected (detected and repaired by bounded
    re-fetch), then the optimized design's channel and pipeline models
    replay the same plan to price DRAM stalls, bandwidth degradation,
    and stage stalls in cycles. Exit 1 if the outputs diverge.
    """
    import numpy as np

    from .faults import FaultPlan, RetryPolicy
    from .hw import optimize_fused, simulate_pipeline
    from .sim import FusedExecutor, ReferenceExecutor, TrafficTrace, make_input

    plan = faults_mod.get_active_plan()
    if plan is None:
        plan = FaultPlan.parse(_DEFAULT_FAULTSIM_SPEC,
                               seed=getattr(args, "fault_seed", 0))
    retry = RetryPolicy(max_attempts=args.max_attempts)

    network = _network(args.network)
    sliced = _scaled_prefix(network, args.convs, args.scale)
    levels = extract_levels(sliced)
    x = make_input(levels[0].in_shape, integer=True)
    reference = ReferenceExecutor(levels, integer=True)
    expected = reference.run(x)

    injector = plan.injector()
    fused = FusedExecutor(levels, params=reference.params,
                          tip_h=args.tip, tip_w=args.tip, integer=True,
                          faults=injector, retry=retry)
    trace = TrafficTrace()
    got = fused.run(x, trace)
    match = bool(np.array_equal(expected, got))

    design = optimize_fused(extract_levels(network.prefix(args.convs)),
                            dsp_budget=args.dsp)
    stages = design.stage_timings()
    clean = simulate_pipeline(stages, design.num_pyramids,
                              words_per_cycle=args.words_per_cycle)
    faulty = simulate_pipeline(stages, design.num_pyramids,
                               words_per_cycle=args.words_per_cycle,
                               faults=injector, retry=retry)
    schedule = simulate_pipeline(stages, design.num_pyramids,
                                 name=f"{network.name}[:conv{args.convs}]",
                                 faults=injector)

    print(f"fault plan: {plan} (seed {plan.seed})")
    print(f"network: {sliced.name} input {levels[0].in_shape}")
    print(f"fused output == fault-free golden reference: {match}")
    print(f"DRAM traffic: {trace.summary()}")
    print(f"channel makespan: {faulty.makespan:,} cycles "
          f"({faulty.makespan / clean.makespan:.2f}x fault-free; "
          f"{faulty.stalls} stalls, {faulty.retries} retries, "
          f"{faulty.stall_cycles:,} stall cycles)")
    print(f"pipeline makespan under stage stalls: {schedule.makespan:,} cycles")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(injector.counts.items()))
    print(f"injected: {counts or 'none'}")
    if not match:
        raise SystemExit(1)


def cmd_hls(args) -> None:
    from .hw import generate_fused, optimize_fused

    network = _network(args.network)
    levels = extract_levels(network.prefix(args.convs))
    design = optimize_fused(levels, dsp_budget=args.dsp)
    print(generate_fused(design))


def _config_row(config) -> Tuple[int, int, int]:
    """(transfer, storage, fused layers) of one graph configuration."""
    return (config.feature_transfer_bytes, config.extra_storage_bytes,
            config.fused_layer_count)


def _explore_graph(args) -> None:
    """Branch-aware exploration of a DAG zoo network (:mod:`repro.graph`).

    Reports the chosen configuration against two baselines: the same
    per-segment sweeps with every join at a boundary (branch-unaware
    fusion) and the layer-by-layer schedule. The ``fused layers:`` lines
    are the greppable acceptance surface — branch-aware fusion must fuse
    strictly more layers (and move strictly fewer bytes) than the
    all-boundary baseline whenever a join is structurally fusable.
    """
    import json

    from .core import Strategy
    from .graph import explore_graph

    network = _graph_network(args.network, args.input_size)
    strategy = Strategy.RECOMPUTE if args.recompute else Strategy.REUSE
    budget = (None if args.storage_budget is None
              else args.storage_budget * 2 ** 10)
    result = explore_graph(network, strategy=strategy,
                           storage_budget_bytes=budget)
    program = result.program
    KB, MB = 2 ** 10, 2 ** 20
    shape = network.input_shape
    print(f"{network.name}: input {shape.channels}x{shape.height}x"
          f"{shape.width}, {len(network)} nodes -> "
          f"{len(program.segments)} segments, "
          f"{len(program.boundary_joins)} boundary joins, "
          f"{len(program.opaques)} opaque steps")
    print(f"  chosen: {result.chosen.describe()}")
    rows = [("chosen", result.chosen), ("all-boundary", result.all_boundary),
            ("layer-by-layer", result.layer_by_layer)]
    for label, config in rows:
        transfer, storage, layers = _config_row(config)
        print(f"  {label:14s} {transfer / MB:8.2f} MB  "
              f"{storage / KB:9.1f} KB  fused layers: {layers}  "
              f"(joins fused: {config.fused_join_count})")
    if budget is not None:
        print(f"  (storage budget: {args.storage_budget} KB)")
    if args.json:
        payload = {
            "bench": "graph-explore",
            "network": network.name,
            "input_shape": [shape.channels, shape.height, shape.width],
            "strategy": strategy.name.lower(),
            "segments": len(program.segments),
            "storage_budget_bytes": budget,
        }
        for label, config in rows:
            transfer, storage, layers = _config_row(config)
            payload[label.replace("-", "_")] = {
                "transfer_bytes": transfer,
                "storage_bytes": storage,
                "fused_layers": layers,
                "fused_joins": config.fused_join_count,
                "decisions": [d.to_dict() for d in config.decisions],
            }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote exploration JSON to {args.json}")


def cmd_explore(args) -> None:
    if args.file is None and _is_graph_network(args.network):
        _explore_graph(args)
        return

    from .core import Strategy, explore

    network = _network(args.network, file=args.file, input_size=args.input_size)
    strategy = Strategy.RECOMPUTE if args.recompute else Strategy.REUSE
    budget = None
    if args.max_partitions is not None or args.max_seconds is not None:
        from .faults import ExplorationBudget

        budget = ExplorationBudget(max_evaluations=args.max_partitions,
                                   max_seconds=args.max_seconds)
    result = explore(network, num_convs=args.convs, strategy=strategy,
                     budget=budget)
    KB, MB = 2 ** 10, 2 ** 20
    degraded = " [degraded: budget hit, best-so-far]" if result.degraded else ""
    print(f"{result.network_name}: {result.num_partitions} partitions, "
          f"{len(result.front)} Pareto-optimal{degraded}")
    for point in result.front:
        cost = (f"{point.extra_storage_bytes / KB:9.1f} KB"
                if strategy is Strategy.REUSE
                else f"{point.extra_ops / 1e6:9.1f} Mops")
        print(f"  {str(point.sizes):24s} {point.feature_transfer_bytes / MB:8.2f} MB  {cost}")
    if args.storage_budget is not None:
        pick = result.best_under_storage(args.storage_budget * KB)
        if pick is None:
            print(f"no partition fits {args.storage_budget} KB")
        else:
            print(f"best under {args.storage_budget} KB: {pick.sizes} -> "
                  f"{pick.feature_transfer_bytes / MB:.2f} MB/image")
    if args.json:
        import json

        payload = {
            "bench": "explore",
            "network": result.network_name,
            "strategy": strategy.name.lower(),
            "num_partitions": result.num_partitions,
            "degraded": result.degraded,
            "front": [{"sizes": list(p.sizes),
                       "transfer_bytes": p.feature_transfer_bytes,
                       "storage_bytes": p.extra_storage_bytes,
                       "extra_ops": p.extra_ops}
                      for p in result.front],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote exploration JSON to {args.json}")


def _parse_sizes(text: str) -> Tuple[int, ...]:
    """Parse a partition spec like ``2+2+1`` (or ``2,2,1``)."""
    parts = [p for p in text.replace("+", ",").split(",") if p.strip()]
    try:
        sizes = tuple(int(p) for p in parts)
    except ValueError:
        raise SystemExit(f"bad partition spec {text!r}: expected e.g. 2+2+1")
    if not sizes or any(s <= 0 for s in sizes):
        raise SystemExit(f"partition sizes must be positive: {text!r}")
    return sizes


def cmd_tune(args) -> None:
    """Guided search over the joint fusion x tiling design space.

    Couples the paper's fusion-partition axis with per-group (Tm, Tn)
    caps, reuse vs recompute, and the pyramid tip, scoring candidates
    with the multi-pyramid hardware simulator under the chosen
    ``--objective``. ``--db`` makes runs resumable: a re-run of the same
    seed and budget replays its trajectory entirely from the database
    (zero fresh evaluations).
    """
    import json

    from .tune import tune

    network = _network(args.network, file=args.file, input_size=args.input_size)
    device_counts = (tuple(int(d) for d in args.device_counts.split(","))
                     if args.device_counts else None)
    result = tune(network, objective=args.objective, strategy=args.strategy,
                  evals=args.evals, seconds=args.seconds,
                  seed=args.fault_seed, jobs=args.jobs, batch=args.batch,
                  num_convs=args.convs, dsp_budget=args.dsp, db=args.db,
                  device_counts=device_counts)

    print(f"{result.network_name}: {result.objective.describe()} over "
          f"{result.space.num_units} fusion units "
          f"(strategy {args.strategy}, seed {args.fault_seed})")
    degraded = " [degraded: wall-clock budget hit]" if result.degraded else ""
    print(f"  considered {result.considered} candidates in "
          f"{result.generations} generations: {result.fresh} fresh, "
          f"{result.cached} cached, {result.pruned} pruned, "
          f"{result.invalid} invalid ({result.elapsed_s:.2f}s){degraded}")
    if args.db and result.fresh == 0:
        print(f"  warm resume: every candidate already in {args.db} "
              f"(0 fresh evaluations)")
    print(f"  baseline  {result.baseline.candidate.key():32s} "
          f"-> {result.baseline.value:,.0f}")
    print(f"  incumbent {result.incumbent.candidate.key():32s} "
          f"-> {result.incumbent.value:,.0f} "
          f"({result.improvement:.2f}x better)")
    metrics = result.incumbent.result.metrics
    print(f"  incumbent metrics: cycles {metrics['cycles']:,.0f}, "
          f"interval {metrics['interval']:,.0f}, "
          f"energy {metrics['energy'] * 1e3:.2f} mJ, "
          f"transfer {metrics['bytes'] / 2**20:.2f} MB, "
          f"DSP {metrics.get('dsp', 0):,.0f}, "
          f"BRAM18 {metrics.get('bram18', 0):,.0f}")
    if "pipe_interval" in metrics and device_counts:
        print(f"  pipeline: {result.incumbent.candidate.devices} device(s), "
              f"interval {metrics['pipe_interval']:,.0f} cycles, "
              f"interval*DSP {metrics['interval_dsp']:,.0f}, "
              f"link {metrics.get('link_bytes', 0):,.0f} B/item, "
              f"{metrics.get('throughput_per_dsp', 0):.6g} items/s/DSP")
    if len(result.pareto) > 1:
        print(f"  pareto archive ({len(result.pareto)} points, "
              f"cycles/energy/bytes):")
        for s in sorted(result.pareto, key=lambda s: s.result.metrics["cycles"]):
            m = s.result.metrics
            print(f"    {s.candidate.key():32s} {m['cycles']:>14,.0f} cyc "
                  f"{m['energy'] * 1e3:8.2f} mJ {m['bytes'] / 2**20:8.2f} MB")
    if args.db:
        print(f"  tuning db: {args.db}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote tuning summary JSON to {args.json}")


def cmd_multi(args) -> None:
    """Per-group breakdown of a multi-pyramid partition design.

    Builds one fused engine per group of ``--partition`` (DSP budget
    split by work) and reports each group's cycles alongside the
    design's latency (sum) and streaming interval (max). With
    ``--tuned DB`` the partition/tiling comes from the database's
    incumbent for this network and ``--objective`` instead.
    """
    network = _network(args.network)
    sliced = (network.prefix(args.convs) if args.convs
              else network.feature_extractor())
    levels = extract_levels(sliced)

    if args.tuned:
        from .hw.device import VIRTEX7_690T as _device
        from .tune import TuningDB, space_key
        from .tune.evaluate import candidate_design

        db = TuningDB.open(args.tuned)
        key = space_key(sliced.fingerprint(), _device.name,
                        args.dsp, args.objective)
        record = db.tuned_record(key, sliced.fingerprint(), args.objective)
        if record is None:
            raise SystemExit(
                f"no tuned incumbent for {sliced.name} "
                f"(objective {args.objective}, dsp {args.dsp}) in {args.tuned}")
        candidate = record.candidate
        design = candidate_design(levels, candidate, device=_device,
                                  dsp_budget=args.dsp)
        print(f"{sliced.name}: tuned partition {candidate.describe()} "
              f"(objective {record.objective}, value {record.value:,.0f})")
    else:
        from .hw.multi import design_partition

        sizes = (_parse_sizes(args.partition) if args.partition
                 else (len(levels),))
        design = design_partition(levels, sizes, dsp_budget=args.dsp,
                                  tip_h=args.tip, tip_w=args.tip)
        print(f"{sliced.name}: partition {design.sizes} "
              f"(DSP budget {args.dsp}, tip {args.tip})")

    interval = design.throughput_interval
    print(f"  {'group':>5s} {'levels':32s} {'cycles':>14s} {'dsp':>6s} "
          f"{'bound':>6s}")
    for i, engine in enumerate(design.engines):
        name = f"{engine.levels[0].name}..{engine.levels[-1].name}"
        bound = "max" if engine.total_cycles == interval else ""
        print(f"  {i:>5d} {name:32s} {engine.total_cycles:>14,} "
              f"{engine.dsp:>6,} {bound:>6s}")
    MB = 2 ** 20
    print(f"  latency (sum of groups):      {design.latency_cycles:>14,} cycles")
    print(f"  throughput interval (max):    {interval:>14,} cycles")
    print(f"  feature-map DRAM transfer:    "
          f"{design.feature_transfer_bytes / MB:>11.2f} MB/image")
    print(f"  total DSP: {design.dsp:,} | BRAM18: "
          f"{design.resources().bram18:,}")


def cmd_pipeline(args) -> None:
    """Stage table of a multi-device pipeline shard of one network.

    Shards the compiled plan's fused groups across ``--devices``
    simulated accelerators (a resource-neutral split of the Virtex-7
    device: each shard gets 1/K of the DSPs and BRAM, its own clock and
    DRAM channel) and prints the per-stage compute/DRAM/link breakdown,
    the steady-state initiation interval, per-stage utilization, and the
    fill/drain verdict of an ``--items``-long micro-batch run.
    """
    import json

    from .hw.device import DEFAULT_DEVICE, split_device
    from .hw.link import LinkSpec
    from .serve import compile_plan

    network = _network(args.network, input_size=args.input_size, graph=True)
    devices = split_device(DEFAULT_DEVICE, args.devices)
    link = LinkSpec(latency_cycles=args.link_latency,
                    bytes_per_cycle=args.link_bandwidth)
    partition = _parse_sizes(args.partition) if args.partition else None
    plan = compile_plan(network, devices=devices, link=link,
                        weight_items=args.weight_items,
                        partition_sizes=partition)
    est = plan.estimate
    utils = est.stage_utilization
    print(plan.describe())
    print(f"  {'stage':>5s} {'device':16s} {'groups':>6s} "
          f"{'compute':>12s} {'dram':>12s} {'link':>10s} {'cost':>12s} "
          f"{'util':>6s}")
    for s, util in zip(est.stages, utils):
        groups = (f"{s.atom_start}" if s.atom_count == 1
                  else f"{s.atom_start}-{s.atom_start + s.atom_count - 1}")
        bound = " max" if s.cost == est.interval_cycles else ""
        print(f"  {s.index:>5d} {s.device.name:16s} {groups:>6s} "
              f"{s.compute_cycles:>12,} {s.dram_cycles:>12,} "
              f"{s.link_cycles:>10,} {s.cost:>12,} {util:>6.2f}{bound}")
    run = est.simulate(args.items)
    print(f"  steady interval:  {est.interval_cycles:>14,} cycles "
          f"({est.items_per_s:,.1f} items/s)")
    print(f"  per-item latency: {est.latency_cycles:>14,} cycles")
    print(f"  link traffic:     {est.link_bytes:>14,} B/item")
    print(f"  fill/drain over {args.items} items: "
          f"{run.fill_drain_cycles:,} cycles "
          f"(bottleneck stage {run.bottleneck.name})")
    print(f"  throughput/DSP:   {est.throughput_per_dsp:.6g} items/s/DSP "
          f"({est.total_dsp:,} DSPs total)")
    if args.json:
        summary = {"bench": "pipeline", "network": network.name,
                   "devices": args.devices,
                   "key": str(plan.key),
                   "estimate": est.to_dict(),
                   "stage_utilization": list(utils),
                   "run": run.to_dict()}
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote pipeline summary JSON to {args.json}")


def cmd_serve_bench(args) -> None:
    """Benchmark the :mod:`repro.serve` subsystem on one network.

    Compiles (or loads from ``--cache``) a plan, then pushes
    ``--requests`` inputs through the micro-batching scheduler and
    worker pool, reporting throughput, latency percentiles, and
    plan-cache hits. ``--check`` verifies every served output
    bit-identical to a direct :class:`NetworkExecutor` run (including
    under a global ``--faults`` plan). ``--fail-on-overload`` turns the
    first admission rejection into exit code 2.

    Observability flags: ``--trace PATH`` records a span tree per
    request and writes it out (Chrome trace by default, JSONL when the
    path ends in ``.jsonl``; validate with ``repro check --trace``),
    ``--slo MS`` attaches a p99 latency SLO whose burn rate lands in
    the stats report, and ``--prom PATH`` writes a Prometheus text
    exposition snapshot (``-`` for stdout).
    """
    import json
    import os
    import time as _time

    import numpy as np

    from .core import Strategy
    from .faults import RetryPolicy
    from .serve import InferenceService, PlanCache, ServeOverloadError
    from .sim import NetworkExecutor, make_input

    network = _network(args.network, input_size=args.input_size, graph=True)
    xs = [make_input(network.input_shape, seed=args.fault_seed + i,
                     integer=args.precision == "int")
          for i in range(args.requests)]

    cache = PlanCache()
    loaded = 0
    if args.cache and os.path.exists(args.cache):
        loaded = cache.load(args.cache)

    plan = faults_mod.get_active_plan()
    injector = plan.injector() if plan is not None else None
    storage = (None if args.storage_budget is None
               else args.storage_budget * 2 ** 10)
    strategy = Strategy.RECOMPUTE if args.recompute else Strategy.REUSE
    devices = None
    if args.devices:
        from .hw.device import DEFAULT_DEVICE, split_device

        devices = split_device(DEFAULT_DEVICE, args.devices)
    partition = _parse_sizes(args.partition) if args.partition else None
    svc = InferenceService(
        network, workers=args.workers, mode=args.mode,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue, strategy=strategy, tip=args.tip,
        storage_budget_bytes=storage, precision=args.precision,
        seed=args.fault_seed, faults=injector,
        retry=RetryPolicy(max_attempts=args.max_attempts), cache=cache,
        trace=args.trace is not None, slo=args.slo,
        devices=devices, partition_sizes=partition)
    if devices:
        print(svc.plan().describe())

    futures = []
    admitted = []
    interval = 1.0 / args.rate if args.rate else 0.0
    try:
        svc.start()
        for x in xs:
            try:
                futures.append(svc.submit(x))
                admitted.append(x)
            except ServeOverloadError:
                if args.fail_on_overload:
                    raise
            if interval:
                _time.sleep(interval)
        outs = [f.result(timeout=120) for f in futures]
    finally:
        svc.shutdown()

    print(f"serve-bench: {network.name}, {args.requests} requests, "
          f"{args.workers} workers ({args.mode}), max_batch {args.max_batch}")
    if args.cache:
        print(f"plan cache file: {args.cache} ({loaded} plans loaded)")
    print(svc.report())

    if args.check:
        if getattr(network, "plan_family", "linear") == "graph":
            from .graph import GraphExecutor

            direct = GraphExecutor(network, seed=args.fault_seed,
                                   integer=args.precision == "int")
            reference, label = direct.run_reference, "GraphExecutor.run_reference"
        else:
            direct = NetworkExecutor(network, seed=args.fault_seed,
                                     integer=args.precision == "int")
            reference, label = direct.run, "NetworkExecutor.run"
        mismatches = sum(
            0 if np.array_equal(out, reference(x)) else 1
            for x, out in zip(admitted, outs))
        print(f"served outputs == direct {label}: "
              f"{mismatches == 0} ({len(futures)} checked)")
        if mismatches:
            raise SystemExit(1)

    if args.cache:
        cache.save(args.cache)
    if args.trace is not None:
        if args.trace.endswith(".jsonl"):
            count = svc.tracer.to_jsonl(args.trace)
            print(f"wrote {count} trace spans (JSONL) to {args.trace}")
        else:
            obs.write_chrome_trace(args.trace, svc.tracer)
            print(f"wrote request trace (Chrome Trace Format) to "
                  f"{args.trace}")
    if args.prom is not None:
        from .obs import write_prometheus

        counts = svc.stats.summary()
        write_prometheus(
            args.prom,
            registry=obs.get_registry() if obs.enabled() else None,
            slos=svc.stats.slos,
            extra={f"serve.{key}": float(counts[key])
                   for key in ("submitted", "completed", "failed",
                               "rejected")})
        if args.prom != "-":
            print(f"wrote Prometheus exposition to {args.prom}")
    if args.json:
        summary = {"bench": "serve", "network": network.name,
                   "workers": args.workers, "max_batch": args.max_batch,
                   "mode": args.mode, **svc.stats.summary(),
                   "plan_cache": cache.stats_dict()}
        if devices:
            est = svc.plan().estimate
            summary["pipeline"] = {
                "devices": args.devices,
                "interval_cycles": est.interval_cycles,
                "link_bytes": est.link_bytes,
                "throughput_per_dsp": est.throughput_per_dsp,
            }
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote summary JSON to {args.json}")


def cmd_slo(args) -> None:
    """Serve a short load against a latency SLO and report its burn rate.

    Drives ``--requests`` seeded inputs through an
    :class:`InferenceService` carrying one
    :class:`~repro.obs.slo.SLOTarget` and prints the monitor report —
    the ``burn-rate ...x`` line CI greps — plus the serving stats. A
    global ``--faults`` plan (e.g. ``dram_stall:p=0.2``) injects the
    latency bursts the monitor is there to catch; ``--fail-on-breach``
    exits 1 when the error budget is exhausted.
    """
    import json

    from .obs.slo import SLOTarget
    from .serve import InferenceService
    from .sim import make_input

    target = SLOTarget(latency_ms=args.target_ms,
                       percentile=args.percentile,
                       error_budget=args.budget,
                       window_s=args.window,
                       alert_threshold=args.alert_threshold)
    plan = faults_mod.get_active_plan()
    injector = plan.injector() if plan is not None else None
    network = _network(args.network)
    xs = [make_input(network.input_shape, seed=args.fault_seed + i,
                     integer=True)
          for i in range(args.requests)]

    svc = InferenceService(network, workers=args.workers,
                           max_batch=args.max_batch,
                           max_wait_ms=args.max_wait_ms,
                           seed=args.fault_seed, faults=injector,
                           trace=args.trace is not None, slo=target)
    with svc:
        for future in [svc.submit(x) for x in xs]:
            future.result(timeout=120)

    monitor = svc.stats.slos[0]
    print(f"slo: {network.name}, {args.requests} requests, "
          f"{target.describe()}")
    if plan is not None:
        print(f"fault plan: {plan} (seed {plan.seed})")
    print(monitor.render())
    print()
    print(svc.stats.render())
    if args.trace is not None:
        obs.write_chrome_trace(args.trace, svc.tracer)
        print(f"wrote request trace to {args.trace}")
    if args.json:
        payload = {"network": network.name, "requests": args.requests,
                   "faults": None if plan is None else str(plan),
                   **monitor.summary()}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote SLO summary JSON to {args.json}")
    if args.fail_on_breach and monitor.breached():
        raise SystemExit(1)


def cmd_serve_soak(args) -> None:
    """Deterministic overload soak: load shedding + autoscaling + faults.

    Drives an open-loop arrival trace (``--trace-kind poisson | diurnal
    | burst``) through the real admission/batching/autoscaling control
    plane on a virtual clock — 100k requests in seconds, byte-identical
    replays per ``--seed``. A global ``--faults`` plan prices injected
    stalls/corruptions into service times; every ``--spot-check-every``th
    completed request executes its compiled plan for real and
    bit-compares against an independent reference (the ``wrong
    answers: 0`` line CI greps). ``--json`` writes the report for
    ``repro check --soak`` and ``bench-diff``.
    """
    import os

    from .serve import AutoscalePolicy, PlanCache, run_soak

    names = [name.strip() for name in args.networks.split(",") if name.strip()]
    networks = [_network(name) for name in names]
    plan = faults_mod.get_active_plan()
    injector = plan.injector() if plan is not None else None

    cache = PlanCache()
    loaded = 0
    if args.cache and os.path.exists(args.cache):
        loaded = cache.load(args.cache)

    trace_kwargs = {}
    if args.trace_kind == "burst":
        trace_kwargs = {"burst_every_s": args.burst_every,
                        "burst_len_s": args.burst_len,
                        "burst_factor": args.burst_factor}
    report = run_soak(
        networks, args.requests, trace=args.trace_kind, rate_rps=args.rate,
        seed=args.fault_seed, guaranteed_fraction=args.guaranteed,
        faults=injector, max_batch=args.max_batch, max_queue=args.max_queue,
        shed_depth_fraction=args.shed_fraction, deadline_ms=args.deadline_ms,
        autoscale=AutoscalePolicy(min_workers=args.min_workers,
                                  max_workers=args.max_workers),
        mean_service_ms=args.mean_service_ms,
        spot_check_every=args.spot_check_every, cache=cache,
        trace_kwargs=trace_kwargs)

    print(f"serve-soak: {', '.join(names)}, {args.requests} requests, "
          f"{args.trace_kind} trace at {args.rate:g} req/s, seed "
          f"{args.fault_seed}")
    if plan is not None:
        print(f"fault plan: {plan} (seed {plan.seed})")
    if args.cache:
        print(f"plan cache file: {args.cache} ({loaded} plans loaded)")
    print(report.render())

    if args.cache:
        cache.save(args.cache)
    if args.json:
        report.save(args.json)
        print(f"wrote soak report JSON to {args.json}")
    if args.check:
        from .check import CheckReport, check_soak_report_dict

        check = CheckReport()
        check.extend("soak report", check_soak_report_dict(report.to_dict()))
        print(check.render(verbose=False))
        if not check.ok():
            raise SystemExit(2)


def cmd_bench_diff(args) -> None:
    """Compare two benchmark summary JSON files and flag regressions.

    Pairs every numeric leaf of ``baseline`` and ``current`` by dotted
    path, classifies deltas with a metric-name direction heuristic
    (latencies should fall, throughputs should rise), and lists any
    that moved the bad way by more than ``--threshold``.
    ``--fail-on-regression`` turns a non-empty regression list into
    exit code 1; metrics present in only one file never fail the diff.
    """
    import json

    from .obs import diff_benchmarks, render_diff

    diff = diff_benchmarks(args.baseline, args.current,
                           threshold=args.threshold)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff(diff, verbose=args.verbose))
    if args.fail_on_regression and diff.regressions:
        raise SystemExit(1)


def cmd_codegen(args) -> None:
    from .hw.codegen import generate_standalone

    network = _network(args.network, file=args.file, input_size=args.input_size)
    sliced = network.prefix(args.convs) if args.convs else network.feature_extractor()
    levels = extract_levels(sliced)
    try:
        code = generate_standalone(levels, tip_h=args.tip, tip_w=args.tip)
    except ValueError as err:
        raise SystemExit(f"codegen: {err} (try --convs to shrink the group)")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(code)
        print(f"wrote {len(code.splitlines())} lines to {args.out}; "
              f"build: g++ -O2 -std=c++17 -o fused_check {args.out}")
    else:
        print(code)


def cmd_bandwidth(args) -> None:
    from .hw import bandwidth_sweep, optimize_baseline, optimize_fused

    levels = extract_levels(_network(args.network).prefix(args.convs))
    fused = optimize_fused(levels, dsp_budget=args.dsp)
    baseline = optimize_baseline(levels, dsp_budget=args.dsp)
    points = bandwidth_sweep(
        fused.total_cycles, fused.feature_transfer_bytes,
        baseline.total_cycles, baseline.feature_transfer_bytes,
        bandwidths=[0.5, 1, 2, 4, 8, 16, 32, 64, 128],
    )
    print(f"{'bytes/cycle':>12s} {'fused kcyc':>12s} {'baseline kcyc':>14s} {'speedup':>8s}")
    for p in points:
        print(f"{p.bytes_per_cycle:12.1f} {p.fused_cycles / 1e3:12.0f} "
              f"{p.baseline_cycles / 1e3:14.0f} {p.speedup:7.2f}x")


def cmd_energy(args) -> None:
    from .core.costs import one_pass_ops
    from .hw import estimate_energy, optimize_baseline, optimize_fused

    levels = extract_levels(_network(args.network).prefix(args.convs))
    fused = optimize_fused(levels, dsp_budget=args.dsp)
    baseline = optimize_baseline(levels, dsp_budget=args.dsp)
    ops = one_pass_ops(levels)
    print(f"{'design':>10s} {'DRAM mJ':>9s} {'SRAM mJ':>9s} {'compute mJ':>11s} {'total mJ':>9s}")
    for name, transfer in (("fused", fused.feature_transfer_bytes),
                           ("baseline", baseline.feature_transfer_bytes)):
        e = estimate_energy(name, transfer, ops)
        print(f"{name:>10s} {e.dram_j * 1e3:9.2f} {e.sram_j * 1e3:9.2f} "
              f"{e.compute_j * 1e3:11.2f} {e.total_j * 1e3:9.2f}")


def cmd_frontier(args) -> None:
    from .core.frontier import pareto_frontier_dp
    from .nn.stages import independent_units

    network = _network(args.network, file=args.file, input_size=args.input_size)
    sliced = network.prefix(args.convs) if args.convs else network.feature_extractor()
    units = independent_units(extract_levels(sliced))
    front = pareto_frontier_dp(units)
    KB, MB = 2 ** 10, 2 ** 20
    print(f"{sliced.name}: exact Pareto front over 2^{len(units) - 1} partitions "
          f"({len(front)} points)")
    for point in front:
        print(f"  {str(point.sizes):40s} {point.transfer_bytes / MB:8.2f} MB "
              f"{point.storage_bytes / KB:9.1f} KB")


def _scaled_prefix(network, convs: int, scale: int):
    """Prefix of ``network`` with input resolution divided by ``scale``.

    Not every extent is legal (AlexNet's K=11/S=4 conv rejects partial
    windows), so search upward from the target for the smallest input
    size whose shapes check out; fall back to full resolution.
    """
    sliced = network.prefix(convs)
    shape = sliced.input_shape
    if scale <= 1 or shape.height != shape.width:
        return sliced
    from .nn.network import Network
    from .nn.shapes import ShapeError, TensorShape

    target = max(shape.height // scale, 1)
    for extent in range(target, shape.height):
        try:
            return Network(sliced.name,
                           TensorShape(shape.channels, extent, extent),
                           sliced.specs)
        except ShapeError:
            continue
    return sliced


def _stats_graph(args) -> None:
    """``stats`` for a DAG zoo network: explore + execute + bit-compare.

    Runs the branch-aware explorer, then executes the chosen
    configuration with :class:`~repro.graph.GraphExecutor` and verifies
    the fused path bit-identical to the node-by-node reference (under
    the global ``--faults`` plan, if any). Defaults to the smallest
    legal input size for the family so the NumPy execution stays fast;
    ``--input-size`` overrides.
    """
    import json

    import numpy as np

    from .core import Strategy
    from .faults import RetryPolicy
    from .graph import GraphExecutor, explore_graph
    from .graph.zoo import GRAPH_ZOO
    from .sim import TrafficTrace

    plan = faults_mod.get_active_plan()
    injector = plan.injector() if plan is not None else None
    input_size = args.input_size
    if input_size is None:
        input_size = GRAPH_ZOO[args.network.lower()][1]
    network = _graph_network(args.network, input_size)
    with obs.capture(fresh=not obs.enabled()) as registry, \
            obs.span("stats", network=network.name):
        result = explore_graph(network, strategy=Strategy.REUSE)
        obs.set_gauge("explore.chosen_transfer_mb",
                      result.chosen.feature_transfer_bytes / 2**20)

        executor = GraphExecutor(
            network, decisions=result.chosen.decisions, seed=args.fault_seed,
            integer=True, faults=injector,
            retry=RetryPolicy(max_attempts=12) if injector else None)
        x = executor.make_input()
        expected = executor.run_reference(x)
        fused_trace = TrafficTrace()
        got = executor.run_fused(x, fused_trace)
        match = bool(np.array_equal(expected, got))
        obs.set_gauge("sim.outputs_match", float(match))

    metrics = registry.to_dict()
    metrics["meta"] = {
        "network": network.name,
        "input_size": input_size,
        "outputs_match": match,
        "segments": len(result.program.segments),
        "fused_layers": result.chosen.fused_layer_count,
        "fused_layers_all_boundary": result.all_boundary.fused_layer_count,
        "fused_joins": result.chosen.fused_join_count,
        "transfer_bytes": result.chosen.feature_transfer_bytes,
        "transfer_bytes_all_boundary":
            result.all_boundary.feature_transfer_bytes,
        "fused_dram": fused_trace.summary(),
        "faults": (None if plan is None else {
            "plan": str(plan),
            "seed": plan.seed,
            "injected": dict(sorted(injector.counts.items())),
        }),
    }
    text = json.dumps(metrics, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(f"{network.name}: {len(result.program.segments)} segments, "
              f"fused layers {result.chosen.fused_layer_count} vs "
              f"{result.all_boundary.fused_layer_count} all-boundary, "
              f"outputs match: {match}")
        print(f"wrote metrics JSON to {args.json}")
    else:
        print(text)
    if not match:
        raise SystemExit(1)


def cmd_stats(args) -> None:
    """Explore + simulate + pipeline one network, emitting metrics JSON.

    The three hot layers all run instrumented: the partition explorer
    (spans + scored/pruned counters), the fused-vs-reference simulators
    (per-layer DRAM counters mirroring their ``TrafficTrace``), and the
    discrete-event pipeline of the optimized fused design (per-stage
    busy/idle cycles and utilization). DAG zoo networks take the
    explore + execute + bit-compare path of :func:`_stats_graph`.
    """
    if _is_graph_network(args.network):
        _stats_graph(args)
        return

    import json

    import numpy as np

    from .core import Strategy, explore
    from .hw import optimize_fused, simulate_pipeline
    from .sim import FusedExecutor, ReferenceExecutor, TrafficTrace, make_input

    plan = faults_mod.get_active_plan()
    injector = plan.injector() if plan is not None else None
    network = _network(args.network)
    with obs.capture(fresh=not obs.enabled()) as registry, \
            obs.span("stats", network=network.name):
        result = explore(network, num_convs=args.convs,
                         strategy=Strategy.REUSE)
        obs.set_gauge("explore.front_transfer_mb",
                      result.front[0].feature_transfer_bytes / 2**20)

        sliced = _scaled_prefix(network, args.convs, args.scale)
        levels = extract_levels(sliced)
        x = make_input(levels[0].in_shape, integer=True)
        reference = ReferenceExecutor(levels, integer=True)
        ref_trace = TrafficTrace()
        expected = reference.run(x, ref_trace)
        fused = FusedExecutor(levels, params=reference.params, integer=True,
                              faults=injector)
        fused_trace = TrafficTrace()
        got = fused.run(x, fused_trace)
        match = bool(np.array_equal(expected, got))
        obs.set_gauge("sim.outputs_match", float(match))

        design = optimize_fused(extract_levels(network.prefix(args.convs)),
                                dsp_budget=args.dsp)
        schedule = simulate_pipeline(design.stage_timings(), design.num_pyramids,
                                     name=f"{network.name}[:conv{args.convs}]",
                                     faults=injector)

    metrics = registry.to_dict()
    metrics["meta"] = {
        "network": network.name,
        "convs": args.convs,
        "scale": args.scale,
        "dsp_budget": args.dsp,
        "outputs_match": match,
        "num_partitions": result.num_partitions,
        "pareto_points": len(result.front),
        "fused_dram": fused_trace.summary(),
        "reference_dram": ref_trace.summary(),
        "pipeline_makespan_cycles": schedule.makespan,
        "faults": (None if plan is None else {
            "plan": str(plan),
            "seed": plan.seed,
            "injected": dict(sorted(injector.counts.items())),
        }),
    }
    text = json.dumps(metrics, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(f"{network.name}: {result.num_partitions} partitions explored, "
              f"simulators match: {match}, pipeline makespan "
              f"{schedule.makespan:,} cycles")
        print(f"wrote metrics JSON to {args.json}")
    else:
        print(text)
    if not match:
        raise SystemExit(1)


def _check_request(report, request_path: str) -> None:
    """Run a check described by a JSON request file (CI fixtures).

    The request names a zoo network plus the same knobs the ``check``
    subcommand takes: ``{"network": ..., "partition": [...], "tip": N,
    "convs": N, "strategy": ..., "dsp": N}``.
    """
    import json

    from .check import check_network

    with open(request_path) as handle:
        spec = json.load(handle)
    network = _network(str(spec.get("network", "toynet")))
    partition = spec.get("partition")
    report.merge(check_network(
        network,
        partition=None if partition is None else [int(s) for s in partition],
        tip=int(spec.get("tip", 1)),
        strategy=str(spec.get("strategy", "reuse")),
        num_convs=spec.get("convs"),
        dsp_budget=spec.get("dsp")))


def _check_graph_file(path: str):
    """Diagnostics for a DAG description file (text form or JSON).

    ``.json`` files are treated as the ``GraphNetwork.to_dict`` form and
    get the exhaustive raw-dictionary checks; anything else is parsed as
    the :mod:`repro.graph.parse` text form, with parse failures surfaced
    as RC705 instead of an exception so they aggregate into the report.
    """
    import json

    from .check import check_graph_dict, check_graph_network, diag
    from .graph import parse_graph
    from .nn.parse import ParseError

    with open(path) as handle:
        text = handle.read()
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            return [diag("RC705", f"not valid JSON: {err}", site=path)]
        return check_graph_dict(data, site=path)
    try:
        network = parse_graph(text, name=path)
    except ParseError as err:
        return [diag("RC705", f"graph text does not parse: {err}",
                     site=path)]
    return check_graph_network(network, site=path)


def cmd_check(args) -> None:
    """Static analysis: verify networks/plans/records without executing.

    Aggregates every requested check into one report. Exit code 2 when
    any error is found (or any warning, under ``--strict``); 0 when
    clean — the contract the CI smoke job greps for.
    """
    from .check import (CheckReport, check_concurrency_paths,
                        check_graph_network, check_network,
                        check_plan_cache_file, check_soak_report_file,
                        check_trace_file, check_tuning_db_file, lint_paths)

    report = CheckReport()
    network = None
    if args.network:
        if _is_graph_network(args.network):
            if args.partition:
                raise SystemExit(
                    "--partition does not apply to DAG networks: graph "
                    "plans carry one partition per fusion segment "
                    "(check a plan cache with --plan instead)")
            network = _graph_network(args.network, args.input_size)
            report.extend(f"graph network {network.name}",
                          check_graph_network(network))
        else:
            network = _network(args.network, input_size=args.input_size)
            partition = _parse_sizes(args.partition) if args.partition else None
            report.merge(check_network(
                network, partition=partition, tip=args.tip,
                strategy=args.strategy, num_convs=args.convs,
                dsp_budget=args.dsp))
    if args.graph:
        report.extend(f"graph {args.graph}", _check_graph_file(args.graph))
    if args.request:
        _check_request(report, args.request)
    if args.plan:
        report.extend(f"plan cache {args.plan}",
                      check_plan_cache_file(args.plan, network=network))
    if args.tunedb:
        fingerprint = None
        if network is not None and getattr(network, "plan_family",
                                           "linear") == "linear":
            sliced = (network.prefix(args.convs) if args.convs
                      else network.feature_extractor())
            fingerprint = sliced.fingerprint()
        report.extend(f"tuning db {args.tunedb}",
                      check_tuning_db_file(args.tunedb,
                                           fingerprint=fingerprint))
    if args.trace:
        report.extend(f"trace {args.trace}", check_trace_file(args.trace))
    if args.soak:
        report.extend(f"soak report {args.soak}",
                      check_soak_report_file(args.soak))
    if args.lint:
        report.extend("lint " + " ".join(args.lint),
                      lint_paths(args.lint, readme=args.readme))
    if args.concurrency:
        report.extend("concurrency " + " ".join(args.concurrency),
                      check_concurrency_paths(args.concurrency))
    if not report.checks_run:
        raise SystemExit("nothing to check: give a NETWORK, --graph PATH, "
                         "--lint PATH, --concurrency PATH, --plan "
                         "PATH, --tunedb PATH, --trace PATH, --soak "
                         "PATH, or --request PATH")
    print(report.to_json() if args.json else report.render())
    code = report.exit_code(strict=args.strict)
    if code:
        raise SystemExit(code)


def cmd_verify(args) -> None:
    from .verify import render_results, run_verification

    results = run_verification(scale=args.scale)
    print(render_results(results))
    if any(not r.passed for r in results):
        raise SystemExit(1)


def cmd_reproduce(args) -> None:
    print("=" * 72)
    print("Figure 2: VGGNet-E per-layer data sizes")
    cmd_figure2(args)
    print("=" * 72)
    print("Figure 3: fusion pyramid walkthrough")
    cmd_figure3(args)
    for net in ("alexnet", "vgg"):
        print("=" * 72)
        print(f"Figure 7 ({net}): design space Pareto front")
        data = (analysis.figure7_data(alexnet()) if net == "alexnet"
                else analysis.figure7_data(vggnet_e(), num_convs=5))
        print(analysis.render_figure7(data, front_only=True))
    print("=" * 72)
    print("Section III-C: reuse vs recompute")
    cmd_sec3c(args)
    print("=" * 72)
    cmd_table1(args)
    print("=" * 72)
    cmd_table2(args)
    print("=" * 72)
    print("Extension: exact frontier of all of VGGNet-E (2^20 partitions)")
    from argparse import Namespace

    cmd_frontier(Namespace(network="vgg", file=None, input_size=None, convs=None))
    print("=" * 72)
    print("Bandwidth roofline and energy, Table II designs")
    cmd_bandwidth(Namespace(network="vgg", convs=5, dsp=2880))
    print()
    cmd_energy(Namespace(network="vgg", convs=5, dsp=2880))


class _ListNetworksAction(argparse.Action):
    """``--list-networks``: print the model-zoo keys and exit."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from .graph.zoo import GRAPH_ZOO

        for name in sorted(_NETWORKS):
            print(name)
        for name in sorted(GRAPH_ZOO):
            print(f"{name} (graph)")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fused-cnn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--list-networks", action=_ListNetworksAction,
                        help="print the model-zoo network keys and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figure2").set_defaults(func=cmd_figure2)
    sub.add_parser("figure3").set_defaults(func=cmd_figure3)

    p7 = sub.add_parser("figure7")
    p7.add_argument("network", nargs="?", default="vgg")
    p7.add_argument("--front-only", action="store_true")
    p7.add_argument("--plot", action="store_true",
                    help="render an ASCII scatter of the space")
    p7.set_defaults(func=cmd_figure7)

    sub.add_parser("table1").set_defaults(func=cmd_table1)
    sub.add_parser("table2").set_defaults(func=cmd_table2)
    sub.add_parser("sec3c").set_defaults(func=cmd_sec3c)

    sim = sub.add_parser("simulate")
    sim.add_argument("network", nargs="?", default="vgg")
    sim.add_argument("--convs", type=int, default=5)
    sim.add_argument("--scale", type=int, default=4,
                     help="divide input resolution by this factor for speed")
    sim.add_argument("--tip", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)

    hls = sub.add_parser("hls")
    hls.add_argument("network", nargs="?", default="vgg")
    hls.add_argument("--convs", type=int, default=5)
    hls.add_argument("--dsp", type=int, default=2987)
    hls.set_defaults(func=cmd_hls)

    exp = sub.add_parser("explore")
    exp.add_argument("network", nargs="?", default="vgg")
    exp.add_argument("--file", default=None,
                     help="Torch-style description file instead of a zoo net")
    exp.add_argument("--input-size", type=int, default=None)
    exp.add_argument("--convs", type=int, default=None)
    exp.add_argument("--recompute", action="store_true")
    exp.add_argument("--storage-budget", type=int, default=None, metavar="KB")
    exp.add_argument("--max-partitions", type=int, default=None, metavar="N",
                     help="evaluation budget: stop after scoring N partitions "
                          "and return the best-so-far frontier (degraded)")
    exp.add_argument("--max-seconds", type=float, default=None, metavar="S",
                     help="wall-clock budget for the sweep (degrades)")
    exp.add_argument("--json", default=None, metavar="PATH",
                     help="write the exploration summary JSON here "
                          "(Pareto front; chosen/baseline configs for "
                          "DAG networks)")
    exp.set_defaults(func=cmd_explore)

    sb = sub.add_parser(
        "serve-bench",
        help="batched inference serving benchmark (repro.serve)")
    sb.add_argument("network", nargs="?", default="toynet")
    sb.add_argument("--input-size", type=int, default=None,
                    help="input resolution for DAG zoo networks (each "
                         "family only accepts stride*k+offset sizes)")
    sb.add_argument("--requests", type=int, default=64)
    sb.add_argument("--rate", type=float, default=0.0, metavar="REQ_S",
                    help="arrival rate in requests/s (0 = submit as fast "
                         "as possible)")
    sb.add_argument("--workers", type=int, default=2)
    sb.add_argument("--mode", choices=("thread", "process"), default="thread")
    sb.add_argument("--max-batch", type=int, default=8)
    sb.add_argument("--max-wait-ms", type=float, default=2.0)
    sb.add_argument("--max-queue", type=int, default=1024)
    sb.add_argument("--tip", type=int, default=1)
    sb.add_argument("--recompute", action="store_true")
    sb.add_argument("--storage-budget", type=int, default=None, metavar="KB")
    sb.add_argument("--precision", choices=("int", "float"), default="int")
    sb.add_argument("--max-attempts", type=int, default=4,
                    help="worker retry budget per faulted request")
    sb.add_argument("--cache", default=None, metavar="PATH",
                    help="plan-cache JSON: loaded before the run when it "
                         "exists, saved after")
    sb.add_argument("--check", action="store_true",
                    help="verify every served output bit-identical to a "
                         "direct NetworkExecutor run")
    sb.add_argument("--fail-on-overload", action="store_true",
                    help="exit 2 on the first admission rejection instead "
                         "of dropping the request")
    sb.add_argument("--json", default=None, metavar="PATH",
                    help="write the stats summary JSON here")
    sb.add_argument("--trace", default=None, metavar="PATH",
                    help="trace every request and write the span trees "
                         "here (Chrome trace; .jsonl for JSONL)")
    sb.add_argument("--slo", type=float, default=None, metavar="MS",
                    help="attach a p99 latency SLO with this target "
                         "(milliseconds) and report its burn rate")
    sb.add_argument("--prom", default=None, metavar="PATH",
                    help="write a Prometheus text exposition snapshot "
                         "('-' for stdout)")
    sb.add_argument("--devices", type=int, default=0, metavar="K",
                    help="serve a pipeline plan sharded across K simulated "
                         "devices (a resource-neutral split of the Virtex-7 "
                         "part); 0 serves the unsharded plan")
    sb.add_argument("--partition", default=None, metavar="SIZES",
                    help="explicit fused-group sizes (e.g. 2,3,2) for the "
                         "sharded plan instead of the explored partition")
    sb.set_defaults(func=cmd_serve_bench)

    pl = sub.add_parser(
        "pipeline",
        help="stage table of a plan sharded across simulated devices")
    pl.add_argument("network", nargs="?", default="toynet")
    pl.add_argument("--input-size", type=int, default=None,
                    help="input resolution for DAG zoo networks")
    pl.add_argument("--devices", type=int, default=2, metavar="K",
                    help="number of pipeline devices (resource-neutral "
                         "split of the Virtex-7 part)")
    pl.add_argument("--partition", default=None, metavar="SIZES",
                    help="explicit fused-group sizes (e.g. 1,1,1) instead "
                         "of the explored partition")
    pl.add_argument("--items", type=int, default=32, metavar="N",
                    help="micro-batch items for the fill/drain simulation")
    pl.add_argument("--weight-items", type=int, default=8, metavar="N",
                    dest="weight_items",
                    help="micro-batch run length weights amortize over")
    pl.add_argument("--link-latency", type=int, default=500,
                    dest="link_latency", metavar="CYCLES",
                    help="per-transfer link latency in cycles")
    pl.add_argument("--link-bandwidth", type=float, default=16.0,
                    dest="link_bandwidth", metavar="B_PER_CYCLE",
                    help="sustained link streaming rate in bytes/cycle")
    pl.add_argument("--json", default=None, metavar="PATH",
                    help="write the stage table and estimate JSON here")
    pl.set_defaults(func=cmd_pipeline)

    sl = sub.add_parser(
        "slo",
        help="serve a short load against a latency SLO, report burn rate")
    sl.add_argument("network", nargs="?", default="toynet")
    sl.add_argument("--requests", type=int, default=64)
    sl.add_argument("--target-ms", type=float, default=5.0,
                    dest="target_ms",
                    help="latency target in milliseconds")
    sl.add_argument("--percentile", type=float, default=99.0,
                    help="percentile the target applies to")
    sl.add_argument("--budget", type=float, default=0.01,
                    help="error budget: tolerated violation fraction")
    sl.add_argument("--window", type=float, default=60.0, metavar="S",
                    help="burn-rate observation window in seconds")
    sl.add_argument("--alert-threshold", type=float, default=1.0,
                    dest="alert_threshold",
                    help="burn-rate multiple that trips the alert")
    sl.add_argument("--workers", type=int, default=2)
    sl.add_argument("--max-batch", type=int, default=8)
    sl.add_argument("--max-wait-ms", type=float, default=2.0)
    sl.add_argument("--trace", default=None, metavar="PATH",
                    help="also record request traces and write them here")
    sl.add_argument("--json", default=None, metavar="PATH",
                    help="write the SLO summary JSON here")
    sl.add_argument("--fail-on-breach", action="store_true",
                    help="exit 1 when the error budget is exhausted")
    sl.set_defaults(func=cmd_slo)

    so = sub.add_parser(
        "serve-soak",
        help="deterministic virtual-time overload soak with shedding, "
             "deadlines, autoscaling, and fault spot checks")
    so.add_argument("networks", nargs="?", default="toynet",
                    help="comma-separated zoo networks to serve "
                         "(e.g. toynet,nin)")
    so.add_argument("--requests", type=int, default=100_000)
    so.add_argument("--trace-kind", choices=("poisson", "diurnal", "burst"),
                    default="burst", dest="trace_kind",
                    help="open-loop arrival trace shape")
    so.add_argument("--rate", type=float, default=2000.0, metavar="REQ_S",
                    help="mean arrival rate in requests/s")
    so.add_argument("--guaranteed", type=float, default=0.1,
                    help="fraction of arrivals in the guaranteed class")
    so.add_argument("--max-batch", type=int, default=8)
    so.add_argument("--max-queue", type=int, default=256)
    so.add_argument("--shed-fraction", type=float, default=0.75,
                    dest="shed_fraction",
                    help="sheddable-class depth watermark as a fraction "
                         "of --max-queue")
    so.add_argument("--deadline-ms", type=float, default=25.0,
                    dest="deadline_ms",
                    help="per-request latency budget for deadline batching")
    so.add_argument("--min-workers", type=int, default=1,
                    dest="min_workers")
    so.add_argument("--max-workers", type=int, default=8,
                    dest="max_workers")
    so.add_argument("--mean-service-ms", type=float, default=1.0,
                    dest="mean_service_ms",
                    help="zoo-mean modeled service time per request")
    so.add_argument("--spot-check-every", type=int, default=1000,
                    dest="spot_check_every",
                    help="bit-compare every Nth completed request against "
                         "an independent reference executor (0 = off)")
    so.add_argument("--burst-every", type=float, default=5.0,
                    dest="burst_every", metavar="S")
    so.add_argument("--burst-len", type=float, default=1.0,
                    dest="burst_len", metavar="S")
    so.add_argument("--burst-factor", type=float, default=8.0,
                    dest="burst_factor")
    so.add_argument("--cache", default=None, metavar="PATH",
                    help="plan-cache JSON: loaded before the run when it "
                         "exists, saved after")
    so.add_argument("--json", default=None, metavar="PATH",
                    help="write the soak report JSON here (checkable with "
                         "'repro check --soak')")
    so.add_argument("--check", action="store_true",
                    help="verify the report's RC6xx invariants before exit")
    so.set_defaults(func=cmd_serve_soak)

    bd = sub.add_parser(
        "bench-diff",
        help="compare two benchmark JSON files and flag regressions")
    bd.add_argument("baseline", help="baseline BENCH_*.json (or any "
                                     "--json output)")
    bd.add_argument("current", help="current benchmark JSON to compare")
    bd.add_argument("--threshold", type=float, default=0.10,
                    help="relative change that counts as a regression "
                         "(default 0.10 = 10%%)")
    bd.add_argument("--verbose", action="store_true",
                    help="list every compared metric, not just flagged "
                         "ones")
    bd.add_argument("--json", action="store_true",
                    help="emit the machine-readable diff summary")
    bd.add_argument("--fail-on-regression", action="store_true",
                    help="exit 1 when any metric regressed past the "
                         "threshold")
    bd.set_defaults(func=cmd_bench_diff)

    gen = sub.add_parser("codegen")
    gen.add_argument("network", nargs="?", default="nin")
    gen.add_argument("--file", default=None)
    gen.add_argument("--input-size", type=int, default=None)
    gen.add_argument("--convs", type=int, default=None)
    gen.add_argument("--tip", type=int, default=1)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_codegen)

    bw = sub.add_parser("bandwidth")
    bw.add_argument("network", nargs="?", default="vgg")
    bw.add_argument("--convs", type=int, default=5)
    bw.add_argument("--dsp", type=int, default=2880)
    bw.set_defaults(func=cmd_bandwidth)

    en = sub.add_parser("energy")
    en.add_argument("network", nargs="?", default="vgg")
    en.add_argument("--convs", type=int, default=5)
    en.add_argument("--dsp", type=int, default=2880)
    en.set_defaults(func=cmd_energy)

    fr = sub.add_parser("frontier")
    fr.add_argument("network", nargs="?", default="vgg")
    fr.add_argument("--file", default=None)
    fr.add_argument("--input-size", type=int, default=None)
    fr.add_argument("--convs", type=int, default=None)
    fr.set_defaults(func=cmd_frontier)

    tn = sub.add_parser(
        "tune",
        help="guided autotuning over the joint fusion x tiling space")
    tn.add_argument("network", nargs="?", default="vgg")
    tn.add_argument("--file", default=None,
                    help="Torch-style description file instead of a zoo net")
    tn.add_argument("--input-size", type=int, default=None)
    tn.add_argument("--convs", type=int, default=None,
                    help="conv-layer prefix to tune (default: all convs)")
    tn.add_argument("--objective", default="cycles",
                    help="metric to minimize: cycles | interval | energy | "
                         "bytes | pipe_interval | interval_dsp (a.k.a. "
                         "throughput_per_dsp), or a weighted sum like "
                         "cycles=0.7,energy=0.3")
    tn.add_argument("--device-counts", default=None, metavar="K1,K2,...",
                    dest="device_counts",
                    help="open the pipeline devices axis: co-search the "
                         "partition with these fleet sizes (e.g. 1,2,4), "
                         "priced by the repro.dist stage/link model")
    tn.add_argument("--strategy", choices=("random", "evolve"),
                    default="evolve", help="search strategy")
    tn.add_argument("--evals", type=int, default=None, metavar="N",
                    help="candidate budget (default 64 when no --seconds)")
    tn.add_argument("--seconds", type=float, default=None, metavar="S",
                    help="wall-clock budget (degrades to best-so-far)")
    tn.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="evaluate fresh candidates across N processes")
    tn.add_argument("--batch", type=int, default=8, metavar="N",
                    help="candidates proposed per generation")
    tn.add_argument("--dsp", type=int, default=VIRTEX7_690T.dsp_slices)
    tn.add_argument("--db", default=None, metavar="PATH",
                    help="tuning database JSON: loaded before the run when "
                         "it exists, saved after (enables warm resume)")
    tn.add_argument("--json", default=None, metavar="PATH",
                    help="write the tuning summary JSON here")
    tn.set_defaults(func=cmd_tune)

    mu = sub.add_parser(
        "multi",
        help="per-group latency/throughput of a multi-pyramid partition")
    mu.add_argument("network", nargs="?", default="vgg")
    mu.add_argument("--convs", type=int, default=None,
                    help="conv-layer prefix (default: full feature "
                         "extractor, matching tune's default slicing)")
    mu.add_argument("--partition", default=None, metavar="SIZES",
                    help="group sizes like 2+2+1 (default: fully fused)")
    mu.add_argument("--dsp", type=int, default=VIRTEX7_690T.dsp_slices)
    mu.add_argument("--tip", type=int, default=1)
    mu.add_argument("--tuned", default=None, metavar="DB",
                    help="take the partition from this tuning database's "
                         "incumbent instead of --partition")
    mu.add_argument("--objective", default="cycles",
                    help="objective key for the --tuned lookup")
    mu.set_defaults(func=cmd_multi)

    st = sub.add_parser(
        "stats",
        help="explore + simulate + pipeline one network; emit metrics JSON")
    st.add_argument("network", nargs="?", default="vgg")
    st.add_argument("--input-size", type=int, default=None,
                    help="input resolution for DAG zoo networks "
                         "(default: the family's smallest legal size)")
    st.add_argument("--convs", type=int, default=5,
                    help="conv-layer prefix to analyse (paper scope: 5)")
    st.add_argument("--scale", type=int, default=8,
                    help="divide simulator input resolution for speed")
    st.add_argument("--dsp", type=int, default=2880)
    st.add_argument("--json", default=None, metavar="PATH",
                    help="write metrics JSON here instead of stdout")
    st.set_defaults(func=cmd_stats)

    fs = sub.add_parser(
        "faultsim",
        help="fused vs golden reference under an injected fault plan")
    fs.add_argument("network", nargs="?", default="alexnet")
    fs.add_argument("--convs", type=int, default=5)
    fs.add_argument("--scale", type=int, default=4,
                    help="divide simulator input resolution for speed")
    fs.add_argument("--tip", type=int, default=1)
    fs.add_argument("--dsp", type=int, default=2880)
    fs.add_argument("--words-per-cycle", type=float, default=16.0,
                    dest="words_per_cycle")
    fs.add_argument("--max-attempts", type=int, default=4,
                    help="retry budget per faulted transfer")
    fs.set_defaults(func=cmd_faultsim)

    ck = sub.add_parser(
        "check",
        help="static plan/schedule verifier and repo invariant linter")
    ck.add_argument("network", nargs="?", default=None,
                    help="zoo network to verify (dataflow mode without "
                         "--partition, full design mode with it)")
    ck.add_argument("--input-size", type=int, default=None,
                    help="input resolution for DAG zoo networks")
    ck.add_argument("--partition", default=None, metavar="SIZES",
                    help="group sizes like 2+3: verify this concrete "
                         "design's geometry AND resource bounds")
    ck.add_argument("--graph", default=None, metavar="PATH",
                    help="validate a DAG description file (text form, or "
                         "a GraphNetwork JSON dump; RC7xx)")
    ck.add_argument("--convs", type=int, default=None,
                    help="conv-layer prefix (default: feature extractor)")
    ck.add_argument("--tip", type=int, default=1,
                    help="output tile tip (reported as RC102 if oversized)")
    ck.add_argument("--dsp", type=int, default=None,
                    help="DSP budget (default: the device's)")
    ck.add_argument("--strategy", default="reuse",
                    choices=["reuse", "recompute"])
    ck.add_argument("--lint", nargs="+", default=None, metavar="PATH",
                    help="lint these files/directories (repo invariants "
                         "RL101..RL401)")
    ck.add_argument("--concurrency", nargs="+", default=None,
                    metavar="PATH",
                    help="concurrency-lint these files/directories: "
                         "races, lock discipline, lost wakeups "
                         "(RL501..RL505)")
    ck.add_argument("--readme", default=None, metavar="PATH",
                    help="README to cross-check CLI docs against "
                         "(default: nearest README.md above the lint roots)")
    ck.add_argument("--plan", default=None, metavar="PATH",
                    help="validate a plan-cache JSON file (RC4xx)")
    ck.add_argument("--tunedb", default=None, metavar="PATH",
                    help="validate a tuning-db JSON file (RC4xx)")
    ck.add_argument("--trace", default=None, metavar="PATH",
                    help="validate an exported request-trace file "
                         "(JSONL or Chrome trace; RC5xx)")
    ck.add_argument("--soak", default=None, metavar="PATH",
                    help="validate a serve-soak report JSON (RC6xx)")
    ck.add_argument("--request", default=None, metavar="PATH",
                    help="run a check described by a JSON request file")
    ck.add_argument("--strict", action="store_true",
                    help="exit 2 on warnings too, not just errors")
    ck.add_argument("--json", action="store_true",
                    help="emit the machine-readable report for CI")
    ck.set_defaults(func=cmd_check)

    ver = sub.add_parser("verify")
    ver.add_argument("--scale", type=int, default=4)
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("reproduce")
    rep.set_defaults(func=cmd_reproduce)
    return parser


def _extract_profile(argv: List[str]) -> Tuple[Optional[str], List[str]]:
    """Strip the global ``--profile[=PATH]`` flag from anywhere in argv.

    Returns ``(profile, rest)`` where ``profile`` is None (off), ``""``
    (report only), or a path to write the Chrome trace to. Handled before
    argparse so the flag works both before and after the subcommand.
    """
    profile: Optional[str] = None
    rest: List[str] = []
    for arg in argv:
        if arg == "--profile":
            profile = ""
        elif arg.startswith("--profile="):
            profile = arg.split("=", 1)[1]
            if not profile:
                raise SystemExit("--profile= needs a path (or drop the '=')")
        else:
            rest.append(arg)
    return profile, rest


def _extract_faults(argv: List[str]) -> Tuple[Optional[str], int, List[str]]:
    """Strip the global ``--faults SPEC`` / ``--seed N`` flags from argv.

    Like ``--profile``, these are handled before argparse so they work
    position-independently on every subcommand. Returns
    ``(spec, seed, rest)`` where ``spec`` is None when faults are off.
    """
    spec: Optional[str] = None
    seed = 0
    rest: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--faults", "--seed"):
            if i + 1 >= len(argv):
                raise SystemExit(f"{arg} needs a value")
            value = argv[i + 1]
            i += 2
        elif arg.startswith("--faults=") or arg.startswith("--seed="):
            arg, value = arg.split("=", 1)
            i += 1
        else:
            rest.append(arg)
            i += 1
            continue
        if arg == "--faults":
            if not value:
                raise SystemExit("--faults needs a non-empty spec "
                                 "(e.g. dram_stall:p=0.05)")
            spec = value
        else:
            try:
                seed = int(value)
            except ValueError:
                raise SystemExit(f"--seed expects an integer, got {value!r}")
    return spec, seed, rest


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    profile, argv = _extract_profile(list(argv))
    fault_spec, fault_seed, argv = _extract_faults(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fault_seed = fault_seed
    try:
        plan = (faults_mod.FaultPlan.parse(fault_spec, seed=fault_seed)
                if fault_spec is not None else None)
        with faults_mod.active_plan(plan):
            if profile is None:
                args.func(args)
                return 0
            with obs.capture() as registry:
                args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print()
    print(obs.render_report(registry))
    if profile:
        obs.write_chrome_trace(profile, registry)
        print(f"\nwrote Chrome trace to {profile} "
              "(load in https://ui.perfetto.dev or chrome://tracing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
