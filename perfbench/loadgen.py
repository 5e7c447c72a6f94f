"""The seeded request sequence and the closed-loop generator."""

from __future__ import annotations

import queue
import random
from array import array
import time
from collections import Counter, defaultdict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


def request_stream(tenants: Sequence[Tuple[str, int]], pool_size: int,
                   seed: int) -> Iterator[Tuple[str, int]]:
    """Endless seeded (tenant, pooled-input index) pairs.

    Tenants come in shuffled blocks that hold each tenant exactly its
    integer weight times, so every run serves the stated mix exactly and
    the seed only changes the order and the inputs.
    """
    rng = random.Random(seed)
    block = [name for name, weight in tenants for _ in range(weight)]
    while True:
        rng.shuffle(block)
        for name in block:
            yield name, rng.randrange(pool_size)


@dataclass
class LoopResult:
    attempted: int = 0
    completed: int = 0
    failures: List[str] = field(default_factory=list)
    #: seconds per completed request, by tenant (compact: a long run's
    #: samples must not show up in the process's peak memory)
    latencies: Dict[str, array] = field(
        default_factory=lambda: defaultdict(lambda: array("d")))
    first_submit: float = 0.0
    last_done: float = 0.0
    max_in_flight: int = 0
    #: how many requests were in flight each time the generator blocked
    in_flight_at_wait: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wall_s(self) -> float:
        return self.last_done - self.first_submit

    def all_latencies(self) -> List[float]:
        return [v for values in self.latencies.values() for v in values]


def closed_loop(submit: Callable[[str, int, int], Future],
                check: Callable[[str, int, object], bool],
                stream: Iterator[Tuple[str, int]], window: int,
                seconds: float, min_samples: int = 0,
                on_done: Optional[Callable[[int, str, float, float], None]]
                = None) -> LoopResult:
    """Keep exactly ``window`` requests in flight from this one thread.

    A new request is sent only when an earlier one completes. Sending
    stops once ``seconds`` have passed and at least ``min_samples``
    requests were sent (or, whatever the count, at three times ``seconds``
    plus 30); the loop then waits for every request still in flight. Latency runs from just before
    ``submit`` until the future is done. A rejection at submit, an
    exception in the future, or a response ``check`` refuses all count
    as failed.
    """
    done: "queue.SimpleQueue[Tuple[int, float, Future]]" = queue.SimpleQueue()
    in_flight: Dict[int, Tuple[str, int, float]] = {}
    out = LoopResult()
    hard_stop = 3 * seconds + 30
    start = time.perf_counter()
    out.first_submit = start
    next_id = 0
    sending = True
    while True:
        while sending and len(in_flight) < window:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and next_id >= min_samples) \
                    or elapsed >= hard_stop:
                sending = False
                break
            tenant, index = next(stream)
            rid = next_id
            next_id += 1
            out.attempted += 1
            t_submit = time.perf_counter()
            try:
                future = submit(tenant, index, rid)
            except Exception as exc:  # a rejection is a failed request
                out.failures.append(f"{tenant}#{rid}: rejected: {exc!r}")
                continue
            in_flight[rid] = (tenant, index, t_submit)
            out.max_in_flight = max(out.max_in_flight, len(in_flight))
            future.add_done_callback(
                lambda f, rid=rid: done.put((rid, time.perf_counter(), f)))
        if not in_flight:
            break
        out.in_flight_at_wait[len(in_flight)] += 1
        rid, t_done, future = done.get(timeout=120)
        tenant, index, t_submit = in_flight.pop(rid)
        out.last_done = max(out.last_done, t_done)
        if on_done is not None:
            on_done(rid, tenant, t_submit, t_done)
        try:
            result = future.result()
        except Exception as exc:
            out.failures.append(f"{tenant}#{rid}: {exc!r}")
            continue
        if not check(tenant, index, result):
            out.failures.append(f"{tenant}#{rid}: response differs from "
                                "the reference")
            continue
        out.completed += 1
        out.latencies[tenant].append(t_done - t_submit)
    return out
