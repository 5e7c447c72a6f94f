"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload design --seed 0 --seconds 45 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` a separate traced run gives every per-layer metric. A
human-readable report precedes it, and the full record (host
fingerprint, host-speed probe, per-job/per-tenant detail and, when
traced, every span) goes to ``.perfbench/`` in the checkout. The
command exits non-zero on any correctness mismatch.

``--record-expected`` rewrites ``perfbench/expected/design.json`` from
one ``design`` job at the current commit.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# NumPy asks the kernel for transparent huge pages for large arrays, and
# whether it gets them depends on the host's memory state: a design job
# peaked at 420-485 MB with them and at 270-290 MB without. Read at NumPy
# import, and inherited by the set-up children.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
#: fresh set-up samples taken just before and just after the timed
#: phase; with this process's own set-up, setup_s is a median of seven
SETUP_CHILDREN_EACH_SIDE = 3


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up end time, exit")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected/design.json and exit")
    return parser.parse_args(argv)


def _child_setup_s(workload: str, seed: int) -> float:
    """Full set-up (interpreter start included) in a fresh process."""
    from perfbench.measure import monotonic

    t0 = monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_end"] - t0


def _write_record(name: str, record: dict, recorder=None) -> str:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name + ".json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    if recorder is not None:
        dump = recorder.dump()
        spans_path = os.path.join(out_dir, name + "-spans.jsonl.gz")
        with gzip.open(spans_path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps(dump["columns"]) + "\n")
            for row in dump["rows"]:
                handle.write(json.dumps(row, default=str) + "\n")
    return path


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro package under {ROOT}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    import repro  # noqa: F401  (import time is part of set-up)
    from perfbench import measure
    from perfbench.workloads import (END_TO_END, PER_LAYER, WORKLOADS,
                                     EXPECTED_PATH, Outcome, Tracer)
    from perfbench.tracing import summary

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    if args.record_expected:
        if args.workload != "design":
            print("error: only design has an expected-values file",
                  file=sys.stderr)
            return 2
        workload.setup(args.seed)
        record: dict = {}
        workload.job(Outcome(), None, record=record)
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {EXPECTED_PATH}")
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload.setup(args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_end": measure.monotonic()}))
        if hasattr(workload, "shutdown"):
            workload.shutdown()
        return 0
    setup_main = measure.process_age_s()
    setup_samples = [setup_main] if setup_main is not None else []

    def sample_setups() -> None:
        if tracer is None:
            for _ in range(SETUP_CHILDREN_EACH_SIDE):
                setup_samples.append(_child_setup_s(args.workload, args.seed))

    sample_setups()
    out = Outcome()
    probe_before = measure.host_probe_s()
    t0 = time.perf_counter()
    workload.run(args.seed, args.seconds, out, tracer)
    timed_s = time.perf_counter() - t0
    probe_after = measure.host_probe_s()
    sample_setups()
    if not out.attempted:
        out.attempted = 1
        out.fail("no operation was attempted")

    if tracer is None:
        out.metrics["setup_s"] = statistics.median(setup_samples)
        out.notes["setup_samples_s"] = setup_samples
        declared = END_TO_END
    else:
        declared = PER_LAYER
    metrics = {name: {"value": float(out.metrics.get(name, 0.0)),
                      "unit": unit} for name, unit in declared}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "timed_s": timed_s, "host": measure.fingerprint(ROOT),
              "host_probe_s": {"before": probe_before, "after": probe_after},
              "attempted": out.attempted, "failures": out.failures,
              "metrics": metrics, "notes": out.notes}
    if tracer is not None:
        record["span_summary"] = summary(tracer.recorder)
    path = _write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}", record,
        tracer.recorder if tracer is not None else None)

    host = record["host"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed {timed_s:.1f} s")
    print(f"host: {host['nproc']} cpu x {host['cpu_model']}, python "
          f"{host['python']}, numpy {host['numpy']}, {host['blas']} "
          f"({host['blas_threads']} threads), commit {host['git_commit']}")
    print(f"host probe (diagnostic, not a metric): {probe_before:.3f} s "
          f"before, {probe_after:.3f} s after")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    for failure in out.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"operations: {len(out.failures)} failed / {out.attempted} "
          f"attempted; full record in {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not out.failures,
                      "attempted": out.attempted,
                      "failed": len(out.failures),
                      "metrics": metrics}))
    return 0 if not out.failures else 1


if __name__ == "__main__":
    sys.exit(main())
