"""Discrete-event simulation of the fused pipeline (Figure 6).

The fused accelerator instantiates one module per fused layer and
pipelines pyramids through them: pyramid two starts its first stage as
soon as pyramid one leaves it. :func:`simulate_pipeline`, the one
scheduler behind every pipeline model here, simulates such a chain:

* by default with unbounded queues: the Figure 6 schedule, whose
  makespan the analytic model approximates with ``fill + (n - 1) *
  bottleneck``;
* with ``queue_depth``, a stage may not *begin* an item until the queue
  slot its output will take downstream is free (blocking-before-service
  backpressure, as between the devices of :mod:`repro.dist`);
* with ``words_per_cycle``, stages that move ``words`` share one DRAM
  channel serving a transfer at a time in ready order, which checks the
  overlap the roofline of :mod:`repro.hw.bandwidth` assumes.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from math import ceil
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import ConfigError
from ..faults.retry import RetryPolicy
from ..faults.spec import DRAM_STALL


@dataclass(frozen=True)
class StageTiming:
    """One pipeline stage: name, per-item busy time (cycles) and, for a
    stage that moves data through the shared channel, its words."""

    name: str
    cycles: int
    words: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ConfigError(f"stage {self.name}: negative cycles",
                              stage=self.name, cycles=self.cycles)
        if self.words is not None and self.words < 0:
            raise ConfigError(f"stage {self.name}: negative words",
                              stage=self.name, words=self.words)


@dataclass(frozen=True)
class PipelineSchedule:
    """Result of simulating ``num_items`` through the stage chain.

    ``stage_begin``/``stage_finish[item][stage]`` are the cycles a stage
    starts and completes an item; ``words_per_cycle`` and ``queue_depth``
    are the run's channel and queue bound (``None``: none). The tallies
    count channel occupancy, ``dram_stall`` faults with their retries and
    repair cycles, and cycles stages spent blocked by full queues.
    """

    stages: Tuple[StageTiming, ...]
    num_items: int
    makespan: int
    stage_begin: Tuple[Tuple[int, ...], ...]
    stage_finish: Tuple[Tuple[int, ...], ...]
    queue_depth: Optional[int] = None
    words_per_cycle: Optional[float] = None
    channel_busy: int = 0
    stalls: int = 0
    retries: int = 0
    stall_cycles: int = 0
    blocked_cycles: int = 0

    def on_channel(self, stage_index: int) -> bool:
        """Whether a stage's work is a shared-channel transfer."""
        return (self.words_per_cycle is not None
                and self.stages[stage_index].words is not None)

    @property
    def service(self) -> Tuple[int, ...]:
        """Fault-free cycles each stage spends on one item."""
        return tuple(ceil(stage.words / self.words_per_cycle)
                     if self.on_channel(s) else stage.cycles
                     for s, stage in enumerate(self.stages))

    @property
    def bottleneck(self) -> StageTiming:
        service = self.service
        return self.stages[service.index(max(service))]

    @property
    def steady_state_interval(self) -> int:
        """Cycles between consecutive item completions once full."""
        return max(self.service)

    @property
    def fill_cycles(self) -> int:
        """Time for the first item to traverse the whole pipeline."""
        return self.stage_finish[0][-1] if self.stage_finish else 0

    @property
    def fill_drain_cycles(self) -> int:
        """Makespan beyond a perfectly steady ``num_items * interval``."""
        return max(self.makespan
                   - self.num_items * self.steady_state_interval, 0)

    @property
    def measured_interval(self) -> float:
        """Mean gap between consecutive completions (the fill time for a
        single item)."""
        if self.num_items < 2:
            return float(self.fill_cycles)
        return ((self.stage_finish[-1][-1] - self.stage_finish[0][-1])
                / (self.num_items - 1))

    @property
    def utilization(self) -> List[float]:
        """Busy fraction of each stage over the makespan."""
        if self.makespan == 0:
            return [0.0 for _ in self.stages]
        return [self.num_items * c / self.makespan for c in self.service]

    def busy_cycles(self, stage_index: int) -> int:
        """Total busy cycles of one stage over the whole run."""
        return self.num_items * self.service[stage_index]

    def idle_cycles(self, stage_index: int) -> int:
        """Cycles one stage spends waiting (fill, drain, stalls)."""
        return self.makespan - self.busy_cycles(stage_index)

    @property
    def max_queue(self) -> Tuple[int, ...]:
        """Peak input-queue occupancy per stage, sampled at every arrival.
        Arrivals and begins rise with the item, so the items waiting when
        item ``i`` arrives are those up to ``i`` that begin after it."""
        peaks = []
        for s in range(len(self.stages)):
            begins = [row[s] for row in self.stage_begin]
            peaks.append(max((i + 1 - bisect_right(
                begins, row[s - 1] if s else 0, 0, i + 1))
                for i, row in enumerate(self.stage_finish)) if begins else 0)
        return tuple(peaks)

    @property
    def compute_bound(self) -> int:
        """Makespan floor set by the slowest stage off the channel."""
        cycles = [c for s, c in enumerate(self.service)
                  if not self.on_channel(s)]
        return self.num_items * max(cycles) if cycles else 0

    @property
    def memory_bound(self) -> int:
        """Makespan floor set by all channel traffic at full bandwidth."""
        words = sum(stage.words for s, stage in enumerate(self.stages)
                    if self.on_channel(s))
        return (ceil(self.num_items * words / self.words_per_cycle)
                if words else 0)

    @property
    def channel_utilization(self) -> float:
        return self.channel_busy / self.makespan if self.makespan else 0.0

    @property
    def bound(self) -> str:
        return "memory" if self.memory_bound >= self.compute_bound else "compute"

    def to_dict(self) -> Dict[str, Any]:
        """The micro-batch run summary ``repro pipeline --json`` writes."""
        return {
            "num_items": self.num_items,
            "queue_depth": self.queue_depth,
            "stage_service": list(self.service),
            "makespan_cycles": self.makespan,
            "fill_cycles": self.fill_cycles,
            "fill_drain_cycles": self.fill_drain_cycles,
            "steady_interval": self.steady_state_interval,
            "measured_interval": self.measured_interval,
            "stage_busy": [self.num_items * c for c in self.service],
            "stage_utilization": self.utilization,
            "blocked_cycles": self.blocked_cycles,
            "max_queue": list(self.max_queue),
        }


def _transfer(stage: StageTiming, item: int, start: int,
              words_per_cycle: float, faults,
              retry: RetryPolicy) -> Tuple[int, int, int]:
    """Channel occupancy ``(busy, stalls, stall_cycles)`` for one
    transfer under injected faults.

    Each attempt moves the words at the bandwidth in effect when the
    transfer starts (``bandwidth_degrade``: sustained DRAM bandwidth sags
    below the datasheet number under real access patterns); one that
    trips ``dram_stall`` wastes its duration plus the stall penalty,
    backs off, and retries, holding the channel throughout. Raises
    :class:`~repro.errors.SimFaultError` once the retry budget runs out.
    """
    duration = ceil(stage.words
                    / (words_per_cycle * faults.bandwidth_factor(start)))
    site = f"channel[{stage.name}]#{item}"
    stalls = stall_cycles = 0
    while penalty := faults.transfer_stalls(site):
        if stalls + 1 >= retry.max_attempts:
            raise retry.exhausted(site, DRAM_STALL, stage=stage.name, item=item)
        stalls += 1
        backoff = retry.backoff_cycles(stalls)
        faults.record_retry(site, backoff)
        obs.add_counter("faults.stall_cycles", penalty)
        stall_cycles += penalty + backoff
    return (stalls + 1) * duration + stall_cycles, stalls, stall_cycles


def simulate_pipeline(stages: Sequence[StageTiming], num_items: int,
                      name: Optional[str] = None, faults=None,
                      queue_depth: Optional[int] = None,
                      words_per_cycle: Optional[float] = None,
                      retry: Optional[RetryPolicy] = None) -> PipelineSchedule:
    """Schedule ``num_items`` items through ``stages`` in order.

    Item ``i`` is ready at stage ``s`` once it left stage ``s-1``, stage
    ``s`` finished item ``i-1`` and, with a ``queue_depth`` of ``d``,
    stage ``s+1`` began item ``i-d``. Ready work runs at once, except
    that channel transfers wait for the channel.

    ``faults`` (a :class:`~repro.faults.injector.FaultInjector`) subjects
    channel transfers to ``dram_stall`` and ``bandwidth_degrade``,
    repaired by bounded retry with backoff under ``retry`` (default
    :class:`~repro.faults.retry.RetryPolicy`). Without a channel it
    subjects each stage execution to ``stage_stall`` instead, a bubble
    that ripples through the schedule.

    The observability registry records Figure 6 runs (no channel,
    unbounded queues) under ``name``, one timeline track per stage; the
    bounded-queue runs are estimates a tuner makes per candidate.
    """
    stages = tuple(stages)
    if num_items < 0:
        raise ConfigError("num_items must be non-negative", num_items=num_items)
    if not stages:
        raise ConfigError("a pipeline needs at least one stage")
    if queue_depth is not None and queue_depth < 1:
        raise ConfigError("queue depth must be >= 1", queue_depth=queue_depth)
    if words_per_cycle is not None and words_per_cycle <= 0:
        raise ConfigError("words_per_cycle must be positive",
                          words_per_cycle=words_per_cycle)
    if faults is not None and retry is None:
        retry = RetryPolicy()
    figure6 = queue_depth is None and words_per_cycle is None
    with (obs.span("pipeline.simulate", stages=len(stages), items=num_items)
          if figure6 else obs.NOOP_SPAN):
        schedule = _schedule(stages, num_items, faults, queue_depth,
                             words_per_cycle, retry)
    if figure6 and obs.enabled():
        obs.record_pipeline(schedule, name=name)
        for i, stage in enumerate(stages):
            obs.add_counter(f"pipeline.busy_cycles[{stage.name}]",
                            schedule.busy_cycles(i))
            obs.add_counter(f"pipeline.idle_cycles[{stage.name}]",
                            schedule.idle_cycles(i))
    return schedule


def _schedule(stages: Tuple[StageTiming, ...], num_items: int, faults,
              depth: Optional[int], words_per_cycle: Optional[float],
              retry: Optional[RetryPolicy]) -> PipelineSchedule:
    """The event loop behind :func:`simulate_pipeline`.

    Job ``j = item * width + stage`` is queued when its last dependency
    is done, ready at the latest of their times. Only the channel needs
    jobs in time order, serving transfers as they become ready: a heap
    pops by (ready, item, stage), and as no job is ready before the job
    that queued it, the pops never go back in time. Without a channel
    any order that respects the dependencies gives the same schedule, so
    a plain stack does.
    """
    width = len(stages)
    on_channel = [words_per_cycle is not None and stage.words is not None
                  for stage in stages]
    durations = [ceil(stage.words / words_per_cycle) if on_channel[s]
                 else stage.cycles for s, stage in enumerate(stages)]
    jobs = num_items * width
    begin = [0] * jobs
    finish = [0] * jobs
    # Dependencies: the item at the previous stage, the previous item at
    # this stage and, with bounded queues, the item ``depth`` back
    # beginning at the next stage (freeing the queue slot ahead).
    waits = [(s > 0) + (i > 0) + (depth is not None and i >= depth
                                  and s + 1 < width)
             for i in range(num_items) for s in range(width)]
    queue: List[Tuple[int, int]] = [(0, 0)] if jobs else []
    pop, push = ((heapq.heappop, heapq.heappush) if any(on_channel)
                 else (list.pop, list.append))
    slot_step = (depth or 0) * width - 1  # job j's freed slot: j + this
    channel_free = channel_busy = stalls = stall_cycles = blocked = 0
    while queue:
        start, j = pop(queue)
        s = j % width
        stage = stages[s]
        busy = durations[s]
        if on_channel[s]:
            start = max(start, channel_free)
            if faults is not None:
                busy, tripped, cycles = _transfer(
                    stage, j // width, start, words_per_cycle, faults, retry)
                stalls += tripped
                stall_cycles += cycles
            channel_free = start + busy
            channel_busy += busy
        elif faults is not None and words_per_cycle is None:
            stall = faults.stage_stall_cycles(
                stage.name, f"{stage.name}#{j // width}")
            if stall:
                busy += stall
                obs.add_counter("faults.stage_stall_cycles", stall)
        begin[j] = start
        finish[j] = start + busy
        for k in (j + 1 if s + 1 < width else -1,
                  j + width if j + width < jobs else -1,
                  j + slot_step if depth and s and j + slot_step < jobs
                  else -1):
            if k < 0:
                continue
            waits[k] -= 1
            if waits[k]:
                continue
            ready = max(finish[k - 1] if k % width else 0,
                        finish[k - width] if k >= width else 0)
            if depth and k >= depth * width and (k + 1) % width:
                slot_free = begin[k - slot_step]
                if slot_free > ready:
                    blocked += slot_free - ready
                    ready = slot_free
            push(queue, (ready, k))
    rows = range(0, jobs, width)
    return PipelineSchedule(
        stages=stages, num_items=num_items,
        makespan=finish[-1] if jobs else 0,
        stage_begin=tuple(tuple(begin[r:r + width]) for r in rows),
        stage_finish=tuple(tuple(finish[r:r + width]) for r in rows),
        queue_depth=depth, words_per_cycle=words_per_cycle,
        channel_busy=channel_busy, stalls=stalls, retries=stalls,
        stall_cycles=stall_cycles, blocked_cycles=blocked)


def analytic_makespan(stages: Sequence[StageTiming], num_items: int) -> int:
    """Closed form for a linear pipeline: fill + (n-1) * bottleneck."""
    if num_items == 0:
        return 0
    fill = sum(stage.cycles for stage in stages)
    bottleneck = max(stage.cycles for stage in stages)
    return fill + (num_items - 1) * bottleneck
