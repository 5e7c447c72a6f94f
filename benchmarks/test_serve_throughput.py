"""Serving throughput: batched parallel serving vs one-at-a-time.

The acceptance bar for the serving subsystem: on ToyNet, 4 workers with
``max_batch=8`` must sustain at least 2x the requests/s of 1 worker with
``max_batch=1``. On a single-core runner the win comes from vectorized
batched execution (one NumPy call per layer per batch instead of per
item), which is exactly the amortization micro-batching exists to buy —
worker parallelism adds on top when cores are available.

Results land in ``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.nn.zoo import toynet
from repro.serve import InferenceService, PlanCache
from repro.sim import NetworkExecutor, make_input

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_serve.json"

REQUESTS = 256


@pytest.fixture(scope="module")
def workload():
    network = toynet()
    xs = [make_input(network.input_shape, seed=i, integer=True)
          for i in range(REQUESTS)]
    cache = PlanCache()
    cache.get_or_compile(network)  # compile once, outside the timed runs
    return network, xs, cache


def _serve(network, xs, cache, workers, max_batch):
    svc = InferenceService(network, workers=workers, max_batch=max_batch,
                           max_wait_ms=0.5, max_queue=len(xs), cache=cache)
    futures = svc.submit_batch(xs)
    outs = [f.result(timeout=120) for f in futures]
    svc.shutdown()
    return outs, svc.stats


def test_batched_parallel_serving_at_least_2x(workload):
    network, xs, cache = workload
    _serve(network, xs, cache, workers=1, max_batch=1)  # warm-up
    _, single = _serve(network, xs, cache, workers=1, max_batch=1)
    outs, batched = _serve(network, xs, cache, workers=4, max_batch=8)

    direct = NetworkExecutor(network, seed=0, integer=True)
    assert np.array_equal(outs[0], direct.run(xs[0]))
    assert np.array_equal(outs[-1], direct.run(xs[-1]))

    single_rps = single.requests_per_s()
    batched_rps = batched.requests_per_s()
    speedup = batched_rps / single_rps
    summary = {
        "bench": "serve_throughput",
        "network": network.name,
        "requests": REQUESTS,
        "single": {"workers": 1, "max_batch": 1,
                   "requests_per_s": round(single_rps, 1),
                   **{k: single.summary()[k]
                      for k in ("queue_wait_ms", "execute_ms")}},
        "batched": {"workers": 4, "max_batch": 8,
                    "requests_per_s": round(batched_rps, 1),
                    **{k: batched.summary()[k]
                       for k in ("queue_wait_ms", "execute_ms")}},
        "speedup": round(speedup, 2),
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True)
                            + "\n")
    print(f"\nserving throughput: {single_rps:,.0f} -> {batched_rps:,.0f} "
          f"requests/s ({speedup:.2f}x) [written to {RESULTS_PATH}]")
    assert single.completed == REQUESTS and batched.completed == REQUESTS
    assert speedup >= 2.0, (
        f"batched parallel serving managed only {speedup:.2f}x "
        f"({single_rps:.0f} vs {batched_rps:.0f} requests/s)")
