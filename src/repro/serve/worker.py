"""The worker pool: N workers drain batches from the scheduler.

Workers are threads by default; ``mode="process"`` additionally gives
each worker a child process executing the compiled plan, so NumPy work
that holds the GIL still overlaps across workers (the parent thread
blocks on the pipe with the GIL released). Every plan executes through
its :class:`~repro.graph.executor.GraphExecutor` (a linear plan's runs
its network's chain graph), and outputs are bit-identical to the direct
reference — :meth:`~repro.sim.network_exec.NetworkExecutor.run` for a
linear network, ``GraphExecutor.run_reference`` for a DAG — either way:
thread workers share the plan's executor, process workers rebuild it
deterministically from the plan's serialized form.

Worker-level faults follow the :mod:`repro.faults` contract: when an
injector is installed, each served result may arrive "corrupted"
(``transfer_corrupt``, always detected) and is repaired by re-executing
the request under the bounded
:class:`~repro.faults.retry.RetryPolicy`; exhaustion surfaces as a
diagnosed :class:`~repro.errors.SimFaultError` on that request's future,
never as silent corruption. A batch whose execution raises is re-run one
request at a time, so a request that cannot run fails alone, with its
own error on its future, and the rest are served. A worker that dies
mid-batch (a crash outside execution, or a dead child process) is
respawned and its unfinished requests are requeued at the front of the
line.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .. import obs
from ..errors import ConfigError, SimFaultError
from ..faults.injector import FaultInjector
from ..faults.retry import RetryPolicy
from ..faults.spec import TRANSFER_CORRUPT
from .autoscale import Autoscaler, AutoscalePolicy, ScaleEvent
from .clock import SYSTEM_CLOCK, Clock, SystemClock
from .plan import CompiledPlan
from .sanitizer import make_lock
from .scheduler import BatchScheduler, ServeRequest
from .stats import ServeStats

MODES = ("thread", "process")

#: What a dead child process raises on its pipe (BrokenPipeError is an
#: OSError): a worker death, not a fault of the batch it was running.
_CHILD_DEATHS = (EOFError, OSError)


def _process_main(conn, plan_state) -> None:
    """Child-process loop: rebuild the plan, execute batches off the pipe."""
    plan = CompiledPlan.from_dict(plan_state)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            conn.close()
            return
        try:
            conn.send(("ok", plan.execute(msg)))
        except Exception as err:  # diagnosed on the parent side
            conn.send(("err", f"{type(err).__name__}: {err}"))


class _ProcessClient:
    """Parent-side handle on one child process executing one plan."""

    def __init__(self, plan: CompiledPlan):
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            self._ctx = multiprocessing.get_context()
        self._state = plan.to_dict()
        self._spawn()

    def _spawn(self) -> None:
        self._conn, child_conn = self._ctx.Pipe()
        self._proc = self._ctx.Process(target=_process_main,
                                       args=(child_conn, self._state),
                                       daemon=True)
        self._proc.start()
        child_conn.close()

    def execute(self, xs: List[np.ndarray]) -> List[np.ndarray]:
        self._conn.send(xs)
        status, payload = self._conn.recv()
        if status != "ok":
            raise SimFaultError("plan execution failed in worker process",
                                detail=payload)
        return payload

    def respawn(self) -> None:
        self.close(timeout=0.1)
        self._spawn()

    def close(self, timeout: float = 1.0) -> None:
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.terminate()
        self._conn.close()


#: Wall seconds one simulated stall cycle costs a served request. With
#: the default ``dram_stall`` spec (cycles=64) one stall adds ~6.4 ms —
#: comfortably over a millisecond-scale latency SLO, which is the point:
#: injected stall bursts must be *observable* in the latency timeline.
STALL_S_PER_CYCLE = 1e-4


class WorkerPool:
    """N workers pulling batches from a :class:`BatchScheduler`."""

    def __init__(self, scheduler: BatchScheduler,
                 resolve_plan: Callable[[Any], CompiledPlan],
                 workers: int = 1, mode: str = "thread",
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[FaultInjector] = None,
                 stats: Optional[ServeStats] = None,
                 stall_s_per_cycle: float = STALL_S_PER_CYCLE,
                 autoscale: Optional[AutoscalePolicy] = None,
                 clock: Optional[Clock] = None,
                 tick_s: float = 0.02):
        if workers < 0:
            raise ConfigError("workers must be >= 0", workers=workers)
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}", mode=mode)
        if tick_s <= 0:
            raise ConfigError("tick_s must be positive", tick_s=tick_s)
        self.scheduler = scheduler
        self.resolve_plan = resolve_plan
        self.workers = workers
        self.mode = mode
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.stats = stats
        self.stall_s_per_cycle = stall_s_per_cycle
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.tick_s = tick_s
        self.autoscaler = (Autoscaler(autoscale, workers=workers)
                           if autoscale is not None else None)
        if self.autoscaler is not None:
            self.workers = self.autoscaler.workers
        self.respawns = 0
        # guards _threads, _seats, _started, workers, and respawns —
        # everything the worker threads, the autoscaler supervisor, and
        # the caller thread all touch
        self._lock = make_lock("serve.worker.pool")
        self._threads: List[threading.Thread] = []
        self._seats: Dict[int, threading.Thread] = {}
        self._started = False
        #: test hook: callable(worker_id, batch); an exception it raises is
        #: an "unexpected worker death" exercising requeue + respawn
        self.fail_hook: Optional[Callable[[int, List[ServeRequest]], None]] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            for wid in range(self.workers):
                self._spawn_locked(wid)
            # The live supervisor only makes sense on real time; a
            # ManualClock pool is driven by explicit scale_tick() calls
            # (tests, the virtual-time soak), where a background ticker
            # would race the deterministic schedule.
            if (self.autoscaler is not None
                    and isinstance(self.clock, SystemClock)):
                supervisor = threading.Thread(target=self._supervise,
                                              name="serve-autoscaler",
                                              daemon=True)
                self._threads.append(supervisor)
                supervisor.start()

    def _spawn_locked(self, wid: int) -> None:
        """Seat a fresh worker thread; caller must hold ``self._lock``."""
        thread = threading.Thread(target=self._run, args=(wid,),
                                  name=f"serve-worker-{wid}", daemon=True)
        self._threads.append(thread)
        self._seats[wid] = thread
        thread.start()

    # -- autoscaling -----------------------------------------------------------

    @property
    def scale_events(self) -> List[ScaleEvent]:
        return [] if self.autoscaler is None else list(self.autoscaler.events)

    def scale_tick(self, now: Optional[float] = None) -> Optional[ScaleEvent]:
        """Run one autoscaling observation and apply its decision.

        The live supervisor thread calls this every ``tick_s``; tests
        and the soak harness call it directly with an explicit ``now``
        so scaling decisions replay deterministically.
        """
        if self.autoscaler is None:
            return None
        t = self.clock.now() if now is None else now
        with self._lock:
            if not self._started:
                return None
            event = self.autoscaler.observe(self.scheduler.depth, t)
            if event is not None:
                self.workers = event.workers_to
                if event.action == "up":
                    for wid in range(event.workers_from, event.workers_to):
                        seat = self._seats.get(wid)
                        if seat is None or not seat.is_alive():
                            self._spawn_locked(wid)
        if event is not None:
            obs.add_counter(f"serve.scale_{event.action}")
            if self.stats is not None:
                self.stats.record_scale(event)
        return event

    def _supervise(self) -> None:
        while True:
            if self.scheduler.closed and self.scheduler.depth == 0:
                return
            self.scale_tick()
            self.clock.sleep(self.tick_s)

    def _should_retire(self, wid: int) -> bool:
        """Scale-down retirement: seats at/above the target count exit."""
        if self.autoscaler is None:
            return False
        with self._lock:
            return wid >= self.workers

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for every worker to exit (scheduler must be closed)."""
        while True:
            with self._lock:
                threads = list(self._threads)
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                return
            for thread in alive:
                thread.join(timeout=timeout)
            if timeout is not None:
                return

    # -- the worker loop -------------------------------------------------------

    def _run(self, wid: int) -> None:
        clients: Dict[Any, _ProcessClient] = {}
        # autoscaling pools poll with a bounded wait so retired seats
        # notice the lowered target; fixed pools block indefinitely
        timeout = self.tick_s if self.autoscaler is not None else None
        try:
            while True:
                if self._should_retire(wid):
                    return
                batch = self.scheduler.next_batch(timeout)
                if batch is None:
                    return
                if not batch:
                    continue
                try:
                    self._execute_batch(wid, batch, clients)
                except Exception:
                    # unexpected worker death: requeue what this batch
                    # still owes, then hand the seat to a fresh worker
                    pending = [r for r in batch if not r.future.done()]
                    self.scheduler.requeue(pending)
                    with self._lock:
                        self.respawns += 1
                        self._spawn_locked(wid)
                    obs.add_counter("serve.worker_respawns")
                    return
        finally:
            with self._lock:
                if self._seats.get(wid) is threading.current_thread():
                    del self._seats[wid]
            for client in clients.values():
                client.close()

    def _execute_batch(self, wid: int, batch: List[ServeRequest],
                       clients: Dict[Any, _ProcessClient]) -> None:
        plan = self.resolve_plan(batch[0].key)
        # Trace: the queue stint ends here; the batch span opens before
        # the crash hook so a dying worker leaves spans the requeue path
        # can close (scheduler.requeue marks them "crashed").
        for request in batch:
            if request.tracer is not None:
                request.tracer.end(request.enqueue_span)
                request.batch_span = request.tracer.begin(
                    "serve.batch", request.trace_id,
                    parent_id=request.root_span, worker=wid,
                    size=len(batch))
        if self.fail_hook is not None:
            self.fail_hook(wid, batch)
        execute = self._executor_for(plan, clients)
        t0 = self.clock.now()  # the clock that stamped enqueued_s
        queue_waits = [t0 - r.enqueued_s for r in batch]
        exec_spans: Dict[int, int] = {}
        for request in batch:
            if request.tracer is not None:
                exec_spans[request.id] = request.tracer.begin(
                    "serve.execute", request.trace_id,
                    parent_id=request.batch_span, worker=wid)
        with obs.span("serve.batch", worker=wid, size=len(batch),
                      network=plan.network.name):
            outs = self._run_with_retry(plan, execute, batch, exec_spans)
        exec_s = self.clock.now() - t0
        self._trace_stages(plan, batch, exec_spans)
        # feed the admission controller's service-rate EWMA (estimated
        # wait watermark + retry-after hints)
        self.scheduler.note_service(len(batch), exec_s)
        failed = 0
        for request, out in zip(batch, outs):
            if request.tracer is not None:
                request.tracer.end(
                    exec_spans.get(request.id, -1),
                    status="error" if isinstance(out, Exception) else "ok")
                request.tracer.end(request.batch_span)
            if isinstance(out, Exception):
                request.future.set_exception(out)
                failed += 1
            else:
                request.future.set_result(out)
        if self.stats is not None:
            self.stats.record_batch(len(batch), queue_waits, exec_s,
                                    failed=failed)

    def _trace_stages(self, plan: CompiledPlan, batch: List[ServeRequest],
                      exec_spans: Dict[int, int]) -> None:
        """Replay a sharded plan's per-device stage windows into the trace.

        Pipeline plans record wall-clock per-stage offsets while
        executing (``last_stage_report``, raw ``perf_counter`` values).
        Emitted once per batch under the first traced request's execute
        span; each span carries a ``device`` attribute so the Chrome
        export gives every device its own lane.
        """
        report = getattr(plan, "last_stage_report", None)
        if not report:
            return
        for request in batch:
            if request.tracer is None:
                continue
            epoch = request.tracer.epoch
            parent = exec_spans.get(request.id, -1)
            for entry in report:
                request.tracer.span_at(
                    "serve.stage", request.trace_id,
                    entry["start_s"] - epoch, entry["end_s"] - epoch,
                    parent_id=parent, device=entry["device"],
                    stage=entry["stage"])
            return

    def _executor_for(self, plan: CompiledPlan,
                      clients: Dict[Any, _ProcessClient]
                      ) -> Callable[[List[np.ndarray]], List[np.ndarray]]:
        if self.mode == "thread":
            return plan.execute
        client = clients.get(plan.key)
        if client is None:
            client = clients[plan.key] = _ProcessClient(plan)

        def execute(xs: List[np.ndarray]) -> List[np.ndarray]:
            try:
                return client.execute(xs)
            except _CHILD_DEATHS:
                # dead child: respawn it and retry the batch once
                client.respawn()
                with self._lock:
                    self.respawns += 1
                obs.add_counter("serve.worker_respawns")
                return client.execute(xs)

        return execute

    def _run_with_retry(self, plan: CompiledPlan, execute,
                        batch: List[ServeRequest],
                        exec_spans: Dict[int, int]) -> List:
        """Execute a batch, repairing injected per-request transfer faults.

        A batch whose execution raises (``plan.execute`` in a thread, the
        child's error reply in a process) is re-run one item at a time,
        and each item that raises again gets its exception as its
        result. A dead child is the worker's death instead: it
        propagates, and the batch is requeued.

        Each result's delivery may be corrupted (``transfer_corrupt``
        site ``serve[<request id>]`` — per-request streams, so decisions
        are deterministic whatever worker or batch carries the request).
        Corruption is detected and repaired by re-executing the request,
        bounded by the retry policy; the repaired value equals the
        original (execution is pure), keeping served outputs
        bit-identical to direct runs.

        ``dram_stall`` faults hit the same per-request sites: a tripped
        stall holds the result for ``cycles``
        × ``stall_s_per_cycle`` wall seconds — the latency burst an SLO
        monitor must catch — without touching the payload. The stall
        sleeps on the pool's clock, so a :class:`ManualClock` pool
        advances virtual time instead of blocking.
        """
        xs = [r.x for r in batch]
        try:
            outs: List = list(execute(xs))
        except _CHILD_DEATHS:
            raise  # the worker died: requeue and respawn
        except Exception:
            outs = self._run_items(execute, xs)
        injector = self.faults
        if injector is None or not injector.enabled:
            return outs
        for idx, request in enumerate(batch):
            if isinstance(outs[idx], Exception):
                continue  # it never ran, so nothing was delivered
            rid = request.id
            site = f"serve[{rid}]"
            attempt = 1
            while injector.corrupts(site):
                if attempt >= self.retry.max_attempts:
                    outs[idx] = self.retry.exhausted(site, TRANSFER_CORRUPT,
                                                     request=rid)
                    break
                injector.record_retry(
                    site, self.retry.backoff_cycles(attempt, site=site))
                obs.add_counter("serve.retries")
                if request.tracer is not None:
                    request.tracer.instant(
                        "serve.retry", request.trace_id,
                        parent_id=exec_spans.get(rid, -1), attempt=attempt)
                outs[idx] = execute([xs[idx]])[0]
                attempt += 1
            stall_cycles = injector.transfer_stalls(site)
            if stall_cycles and self.stall_s_per_cycle > 0:
                obs.add_counter("serve.stall_cycles", stall_cycles)
                if request.tracer is not None:
                    request.tracer.instant(
                        "serve.stall", request.trace_id,
                        parent_id=exec_spans.get(rid, -1),
                        value=float(stall_cycles), cycles=stall_cycles)
                self.clock.sleep(stall_cycles * self.stall_s_per_cycle)
        return outs

    @staticmethod
    def _run_items(execute, xs: List[np.ndarray]) -> List:
        """Re-run a batch whose execution raised one item at a time: an
        item that raises again gets its exception as its result, so only
        a request that cannot run fails."""
        outs: List = []
        for x in xs:
            try:
                outs.append(execute([x])[0])
            except _CHILD_DEATHS:
                raise
            except Exception as err:
                outs.append(err)
        return outs
