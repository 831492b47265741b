"""The analysis stage — Figure 2's per-protocol demodulators, scheduled.

The dispatcher hands this stage per-protocol lists of
:class:`~repro.core.dispatcher.DispatchedRange`; the stage turns every
range into one :class:`AnalysisTask` — the only work unit — and decodes
the task list

* **inline** when ``workers == 1``: in the calling thread, in order,
  with no executor, thread or process behind it, or
* **on a pool** otherwise (``backend="thread"`` / ``"process"``), with
  at most one task per free worker in flight,

and everything around the decode is the same code for both: tasks run
in dispatch order, or in deadline-priority order
(:func:`~repro.core.deadline.order_tasks`) once a window budget or a
watchdog is set; the budget is checked before each task starts and a
spent budget sheds the rest (``ErrorRecord(action="shed")``, counted);
worker-side :class:`~repro.core.accounting.StageClock` accounting merges
back into the caller's clock; one span per decoded range is replayed
into the tracer in ``(protocol, start_sample)`` order; and the packets
come back sorted by :func:`packet_sort_key`, so every worker count and
backend returns the same list.

What only a pool can do is abandon a decode that is still running:

* ``timeout_per_range`` is its watchdog.  A task's absolute deadline is
  fixed when it is handed to a free worker (watchdog seconds from then,
  capped by the window budget's own deadline).  A task that misses it
  is **shed** under every policy — one ``ErrorRecord(action="timeout")``,
  counted on ``rfdump_ranges_shed_total`` — except ``"raise"``, which
  raises :class:`~repro.errors.DecodeTimeoutError`; its protocol gets
  no further worker in this window (the rest of its ranges are shed at
  once instead of costing a slot and a watchdog period each).  Inline
  execution cannot abandon a running decode: it checks the budget
  between ranges and nothing else.
* ``Future.cancel()`` on a running worker is a no-op, so an abandoned
  decode keeps its pool slot until it returns.  Those slots are counted
  on ``rfdump_parallel_leaked_workers``, reclaimed when the worker
  returns, never handed a task meanwhile, and in ``"degrade"`` mode a
  pool with no slot left is rebuilt (a bounded number of times per
  window); otherwise the tasks nobody can run are shed.
* A task whose worker crashes or cannot be scheduled is re-run inline —
  never silently: every handled failure leaves an
  :class:`~repro.core.errorpolicy.ErrorRecord` on the report.
  ``"raise"`` turns it into :class:`~repro.errors.WorkerCrashError`,
  ``"skip"`` drops the task instead, and ``"degrade"`` first rebuilds a
  broken process pool and gives the task another worker.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.analysis.decoders import PacketRecord
from repro.core.accounting import StageClock
from repro.core.deadline import (
    SHED_HELP,
    WindowBudget,
    order_tasks,
    shed_record,
)
from repro.core.dispatcher import DispatchedRange
from repro.core.errorpolicy import ErrorRecord, validate_error_policy
from repro.dsp.samples import SampleBuffer
from repro.errors import DecodeTimeoutError, WorkerCrashError
from repro.obs import NULL
from repro.sanitize.hooks import new_lock

BACKENDS = ("thread", "process")

_LEAKED_HELP = ("pool slots occupied by abandoned analysis workers "
                "(timed out but still running)")
_RESTARTS_HELP = "worker pools rebuilt mid-run (broken, or every slot leaked)"


def packet_sort_key(packet: PacketRecord) -> Tuple:
    """Total order on decoded packets, whatever ran the decodes.

    Dispatched ranges never overlap within a protocol, so sorting by
    position (with protocol/decoder tie-breaks for simultaneous
    cross-protocol transmissions) makes the output independent of worker
    completion order.
    """
    return (
        packet.start_sample,
        packet.end_sample,
        packet.protocol,
        packet.decoder,
        -1 if packet.channel is None else packet.channel,
    )


@dataclass
class AnalysisTask:
    """The work unit: one dispatched range of one protocol.

    Carries what :func:`~repro.core.deadline.range_priority` reads off a
    :class:`~repro.core.dispatcher.DispatchedRange`, so tasks and ranges
    sort by the same key.
    """

    protocol: str
    #: the range's samples (a zero-copy slice of the window)
    buffer: SampleBuffer
    channel: Optional[int] = None
    #: the range's classification confidence (0.0 when unknown)
    confidence: float = 0.0

    @property
    def length(self) -> int:
        return len(self.buffer)

    @property
    def start_sample(self) -> int:
        return self.buffer.start_sample

    @property
    def end_sample(self) -> int:
        return self.buffer.end_sample


@dataclass
class TaskOutcome:
    """What one task produced, with its own worker-side accounting."""

    packets: List[PacketRecord]
    #: seconds and samples under ``"demodulation"``, measured where the
    #: decode ran
    clock: StageClock
    worker: str = "main"
    #: True when the task was re-run inline after its worker failed
    fell_back: bool = False


@dataclass
class _TaskEntry:
    """Collection-side bookkeeping for one task."""

    index: int
    task: AnalysisTask
    fut: Optional["futures.Future"] = None
    #: absolute monotonic instant the task must be done by (None: no bound)
    deadline: Optional[float] = None
    outcome: Optional[TaskOutcome] = None


def _worker_id() -> str:
    """Stable-enough identity of the executing worker for traces."""
    thread = threading.current_thread().name
    if thread == "MainThread":
        return f"pid-{os.getpid()}"
    return thread


def decode_task(decoder, task: AnalysisTask) -> TaskOutcome:
    """Decode one task; runs inside a worker or in the calling thread.

    The decode is timed on the executing thread's CPU clock: a wall
    clock would also count the time a thread worker waits for the
    interpreter lock while its neighbour decodes, which is not this
    range's cost.
    """
    clock = StageClock()
    clock.touch("demodulation", task.length)
    started = time.thread_time()
    packets = list(decoder.scan(task.buffer, channel_hint=task.channel))
    clock.seconds["demodulation"] = time.thread_time() - started
    return TaskOutcome(packets, clock, worker=_worker_id())


# Process workers receive the decoder map once (via the pool initializer)
# instead of re-pickling it into every task.
_PROCESS_DECODERS: Dict[str, object] = {}


def _process_init(decoders: Dict[str, object]) -> None:
    global _PROCESS_DECODERS
    _PROCESS_DECODERS = decoders


def _process_decode(task: AnalysisTask) -> TaskOutcome:
    return decode_task(_PROCESS_DECODERS[task.protocol], task)


class AnalysisStage:
    """Decodes every dispatched range, inline or over a worker pool.

    Parameters
    ----------
    decoders:
        Protocol name -> stream decoder (``None`` values are skipped, as
        for protocols like microwave where classification is the output).
        For the process backend the decoders and the task buffers must be
        picklable; every decoder in :mod:`repro.analysis.decoders` is.
    workers:
        1 decodes inline in the calling thread; more is the pool size.
    backend:
        ``"thread"`` (shared memory, zero-copy buffers, best when the
        numpy-heavy demodulators release the GIL or analyzers block on
        I/O) or ``"process"`` (true CPU parallelism at the cost of
        pickling buffers and results).
    timeout_per_range:
        Pool watchdog: seconds a task may spend on a worker before it is
        abandoned and shed.  ``None`` disables it; inline execution has
        no watchdog.
    on_error:
        Fault policy (:mod:`repro.core.errorpolicy`) for pool failures.
        ``None`` re-runs a crashed task inline, recorded; ``"raise"``
        surfaces :class:`WorkerCrashError` / :class:`DecodeTimeoutError`;
        ``"skip"`` drops the crashed task; ``"degrade"`` adds a bounded
        pool rebuild before the inline re-run.
    max_pool_restarts:
        How many times one :meth:`run` may rebuild the pool in
        ``"degrade"`` mode before giving up on it.
    """

    def __init__(
        self,
        decoders: Dict[str, object],
        workers: int = 1,
        backend: str = "thread",
        timeout_per_range: Optional[float] = None,
        on_error: Optional[str] = None,
        max_pool_restarts: int = 2,
        obs=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if timeout_per_range is not None and timeout_per_range <= 0:
            raise ValueError("timeout_per_range must be positive")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be non-negative")
        self.decoders = {p: d for p, d in decoders.items() if d is not None}
        self.workers = int(workers)
        self.backend = backend
        self.timeout_per_range = timeout_per_range
        self.on_error = validate_error_policy(on_error)
        self.max_pool_restarts = int(max_pool_restarts)
        #: optional repro.obs.Observability for spans and fallback counts
        self.obs = obs
        #: lifetime count of tasks re-run inline after a worker failure
        self.fallbacks = 0
        #: lifetime count of ranges shed (budget spent, watchdog, no worker)
        self.shed_ranges = 0
        #: lifetime count of pools rebuilt because leaks exhausted them
        self.leak_rebuilds = 0
        #: most recent handled worker failure, surviving across runs
        self.last_error: Optional[ErrorRecord] = None
        self._run_errors: List[ErrorRecord] = []
        self._executor: Optional[futures.Executor] = None
        # guards the executor handle: the streaming monitor's run loop
        # rebuilds a broken pool while a daemon stop() may close() the
        # stage from another thread; a torn handoff leaks a pool
        self._pool_lock = new_lock("parallel.pool")
        # guards the leaked-slot count and its pool generation; leaks
        # are reclaimed from worker done-callbacks, i.e. other threads
        self._leak_lock = new_lock("parallel.leaks")
        self._leaked = 0
        self._pool_generation = 0

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_executor(self) -> futures.Executor:
        with self._pool_lock:
            if self._executor is None:
                if self.backend == "thread":
                    self._executor = futures.ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="rfdump-analysis",
                    )
                else:
                    self._executor = futures.ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_process_init,
                        initargs=(self.decoders,),
                    )
            return self._executor

    def _reset_leaks(self) -> int:
        """New pool generation: stale leak callbacks become no-ops.

        Returns the number of slots that were leaked at reset time.
        """
        with self._leak_lock:
            leaked, self._leaked = self._leaked, 0
            self._pool_generation += 1
        (self.obs or NULL).gauge(
            "rfdump_parallel_leaked_workers", help=_LEAKED_HELP,
        ).set(0)
        return leaked

    def _discard_executor(self) -> None:
        """Drop a broken pool so the next submit builds a fresh one."""
        with self._pool_lock:
            executor, self._executor = self._executor, None
        self._reset_leaks()
        if executor is not None:
            executor.shutdown(wait=False)

    def close(self) -> None:
        """Shut the pool down; the stage may be reused (pool is rebuilt)."""
        with self._pool_lock:
            executor, self._executor = self._executor, None
        leaked = self._reset_leaks()
        if executor is not None:
            # don't join workers we already know are stuck mid-decode
            executor.shutdown(wait=leaked == 0)

    def __enter__(self) -> "AnalysisStage":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the one task list ----------------------------------------------------

    def tasks_for(
        self, buffer: SampleBuffer, ranges: Dict[str, List[DispatchedRange]]
    ) -> List[AnalysisTask]:
        """One task per dispatched range that has a decoder, in dispatch
        order."""
        return [
            AnalysisTask(protocol, buffer.slice(r.start_sample, r.end_sample),
                         r.channel, r.confidence)
            for protocol, proto_ranges in ranges.items()
            if protocol in self.decoders
            for r in proto_ranges
        ]

    def run(
        self,
        buffer: SampleBuffer,
        ranges: Dict[str, List[DispatchedRange]],
        clock: Optional[StageClock] = None,
        budget: Optional[WindowBudget] = None,
    ) -> Tuple[List[PacketRecord], Dict[str, float], int]:
        """Decode every dispatched range.

        Returns ``(packets, demod_seconds_by_protocol, fallbacks)``.
        ``packets`` is sorted by :func:`packet_sort_key`; each task's
        accounting is merged into ``clock`` under ``"demodulation"``, and
        a pool adds its own wall time under ``"demodulation_wall"`` so
        the achieved overlap stays visible.

        ``budget`` is the window's deadline budget, if any: a task does
        not start once it is spent, and it caps every pooled task's
        absolute deadline.
        """
        clock = clock if clock is not None else StageClock()
        obs = self.obs or NULL
        self._run_errors = []
        tasks = self.tasks_for(buffer, ranges)
        if budget is not None or self.timeout_per_range is not None:
            # confident, cheap work starts first, so whatever the budget
            # cannot cover is the least valuable tail
            tasks = order_tasks(tasks)
        entries = [_TaskEntry(i, task) for i, task in enumerate(tasks)]
        fallbacks_before = self.fallbacks
        with obs.span("analysis", workers=self.workers, backend=self.backend):
            wall_start = time.perf_counter()
            if self.workers == 1:
                for entry in entries:
                    if not self._shed_if_spent(entry, budget):
                        entry.outcome = self._decode(entry.task)
            else:
                self._run_pooled(entries, budget, obs)
                clock.seconds["demodulation_wall"] = (
                    clock.seconds.get("demodulation_wall", 0.0)
                    + time.perf_counter() - wall_start
                )
            packets: List[PacketRecord] = []
            demod_by_protocol: Dict[str, float] = {}
            # replayed by position, not completion order, so the trace's
            # structure is the same for every worker count and backend
            for entry in sorted(
                    entries,
                    key=lambda e: (e.task.protocol, e.task.start_sample)):
                task, outcome = entry.task, entry.outcome
                if outcome is None:
                    continue
                packets.extend(outcome.packets)
                clock.merge_in(outcome.clock)
                seconds = outcome.clock.seconds.get("demodulation", 0.0)
                demod_by_protocol[task.protocol] = (
                    demod_by_protocol.get(task.protocol, 0.0) + seconds)
                obs.record(
                    f"demod[{task.protocol}]", seconds, category="range",
                    worker=outcome.worker, start_sample=task.start_sample,
                    end_sample=task.end_sample, protocol=task.protocol,
                    fell_back=outcome.fell_back,
                )
        packets.sort(key=packet_sort_key)
        return packets, demod_by_protocol, self.fallbacks - fallbacks_before

    def _decode(self, task: AnalysisTask) -> TaskOutcome:
        return decode_task(self.decoders[task.protocol], task)

    def take_error_records(self) -> List[ErrorRecord]:
        """Drain the error records the most recent :meth:`run` produced."""
        records, self._run_errors = self._run_errors, []
        return records

    # -- shedding -------------------------------------------------------------

    def _shed(self, entry: _TaskEntry, reason: str) -> None:
        """Drop a task that never started; one record, one count."""
        self.shed_ranges += 1
        self._run_errors.append(
            shed_record(self.obs, entry.task.protocol, entry.task, reason))

    def _shed_if_spent(self, entry: _TaskEntry,
                       budget: Optional[WindowBudget]) -> bool:
        """The budget check before every task: a mid-window overrun
        sheds the rest instead of digging deeper."""
        if budget is None or not budget.expired:
            return False
        self._shed(entry, "window budget exhausted mid-analysis")
        return True

    # -- the pool -------------------------------------------------------------

    def _record_error(self, task: AnalysisTask, exc: BaseException,
                      action: str) -> None:
        """Keep a per-range record of a handled worker failure."""
        record = ErrorRecord.from_exception(
            stage="analysis", component=task.protocol, exc=exc,
            action=action, start_sample=task.start_sample,
            end_sample=task.end_sample,
        )
        self._run_errors.append(record)
        self.last_error = record
        (self.obs or NULL).counter(
            "rfdump_parallel_fallback_errors_total",
            help="worker-side analysis failures handled by the fallback "
                 "path (type/message recorded per range on the report)",
            protocol=task.protocol,
        ).inc()

    def _submit(self, entry: _TaskEntry,
                budget: Optional[WindowBudget]) -> bool:
        """Hand a task to a free worker; its deadline runs from now."""
        task = entry.task
        try:
            pool = self._ensure_executor()
            if self.backend == "process":
                entry.fut = pool.submit(_process_decode, task)
            else:
                entry.fut = pool.submit(
                    decode_task, self.decoders[task.protocol], task)
        except Exception as exc:
            self._discard_executor()
            self._record_error(task, exc, action="fallback")
            if self.on_error == "raise":
                raise WorkerCrashError(
                    f"could not schedule {task.protocol} task: {exc}",
                    protocol=task.protocol,
                ) from exc
            return False
        deadline = (None if self.timeout_per_range is None
                    else time.monotonic() + self.timeout_per_range)
        if budget is not None:
            deadline = (budget.deadline if deadline is None
                        else min(deadline, budget.deadline))
        entry.deadline = deadline
        return True

    def _run_pooled(self, entries: List[_TaskEntry],
                    budget: Optional[WindowBudget], obs) -> None:
        """Drain the task queue through the pool.

        At most one task per free worker is in flight, so a task's
        deadline — fixed when it is submitted — measures the decode, not
        the queue behind a stalled neighbour; one ``futures.wait`` over
        the in-flight set against those absolute deadlines means waiting
        on one stalled task never extends another's allowance.
        """
        queue: Deque[_TaskEntry] = deque(entries)
        pending: Dict["futures.Future", _TaskEntry] = {}
        #: protocols whose decode blew the watchdog in this window
        stalled: Set[str] = set()
        restarts = 0
        # a deadline must run from when a worker takes the task; with
        # nothing to expire the whole queue goes to the executor at once
        # (the per-task hand-off costs the process pool 0.1-0.2x of its
        # measured speed-up; EXPERIMENTS.md, "Analysis-stage workers")
        bounded = budget is not None or self.timeout_per_range is not None
        while queue or pending:
            while queue:
                entry = queue[0]
                if self._shed_if_spent(entry, budget):
                    queue.popleft()
                elif entry.task.protocol in stalled:
                    self._shed(queue.popleft(),
                               f"{entry.task.protocol} decoder timed out "
                               "earlier in this window")
                elif not self._has_room(len(pending), bounded):
                    break
                elif self._submit(queue.popleft(), budget):
                    pending[entry.fut] = entry
                else:
                    self._fail_entry(entry, budget, obs)
            if not pending:
                if not queue:
                    break
                # every slot is held by an abandoned decode
                if (self.on_error == "degrade"
                        and restarts < self.max_pool_restarts):
                    restarts += 1
                    self.leak_rebuilds += 1
                    self._discard_executor()
                    obs.counter("rfdump_parallel_pool_restarts_total",
                                help=_RESTARTS_HELP).inc()
                    continue
                while queue:
                    self._shed(queue.popleft(),
                               "no analysis worker left: every pool slot "
                               "is held by an abandoned decode")
                break
            now = time.monotonic()
            deadlines = [e.deadline for e in pending.values()
                         if e.deadline is not None]
            wait_for = (None if not deadlines
                        else max(min(deadlines) - now, 0.0))
            done, _ = futures.wait(set(pending), timeout=wait_for,
                                   return_when=futures.FIRST_COMPLETED)
            broken: List[_TaskEntry] = []
            for fut in sorted(done, key=lambda f: pending[f].index):
                entry = pending.pop(fut)
                task = entry.task
                if fut.cancelled():
                    exc: Optional[BaseException] = futures.CancelledError(
                        f"{task.protocol} task cancelled by its broken "
                        "pool before it started"
                    )
                else:
                    exc = fut.exception()
                if exc is None:
                    entry.outcome = fut.result()
                    continue
                self._record_error(task, exc, action="fallback")
                if self.on_error == "raise":
                    self._cancel_all(pending)
                    raise WorkerCrashError(
                        f"{task.protocol} analysis worker failed: {exc}",
                        protocol=task.protocol,
                    ) from exc
                if isinstance(exc, futures.BrokenExecutor):
                    broken.append(entry)
                else:
                    self._fail_entry(entry, budget, obs)
            if broken:
                # the pool died under these tasks: degrade rebuilds it (a
                # bounded number of times per run) and gives them another
                # worker before re-running them inline
                self._discard_executor()
                if (self.on_error == "degrade"
                        and restarts < self.max_pool_restarts):
                    restarts += 1
                    obs.counter("rfdump_parallel_pool_restarts_total",
                                help=_RESTARTS_HELP).inc()
                    queue.extendleft(reversed(broken))
                else:
                    for entry in broken:
                        self._fail_entry(entry, budget, obs)
            if done:
                continue
            # the wait timed out with nothing finished: expire every
            # entry whose absolute deadline has passed
            now = time.monotonic()
            expired = [e for e in pending.values()
                       if e.deadline is not None and e.deadline <= now]
            for entry in sorted(expired, key=lambda e: e.index):
                del pending[entry.fut]
                self._handle_timeout(entry, pending, budget, obs)
                stalled.add(entry.task.protocol)

    @staticmethod
    def _cancel_all(pending: Dict) -> None:
        """Best-effort cancel before propagating a raise-policy error."""
        for fut in pending:
            fut.cancel()

    def _fail_entry(self, entry: _TaskEntry,
                    budget: Optional[WindowBudget], obs) -> None:
        """A task with no usable worker result (crash/schedule failure)."""
        if self.on_error == "skip":
            obs.counter(
                "rfdump_parallel_skipped_tasks_total",
                help="analysis tasks dropped by the skip error policy",
            ).inc()
            return
        if self.on_error == "degrade" and self._shed_if_spent(entry, budget):
            return  # no budget left to re-run it inline
        entry.outcome = self._decode(entry.task)
        entry.outcome.fell_back = True
        self.fallbacks += 1
        obs.counter(
            "rfdump_parallel_fallbacks_total",
            help="analysis tasks re-run inline after a worker failure",
        ).inc()

    def _handle_timeout(self, entry: _TaskEntry, pending: Dict,
                        budget: Optional[WindowBudget], obs) -> None:
        """One task blew its absolute deadline; its worker may still run."""
        task = entry.task
        assert entry.fut is not None
        if not entry.fut.cancel():
            # cancel() on a running future is a no-op: the worker keeps
            # occupying its pool slot until the abandoned decode returns
            self._note_leak(entry.fut, obs)
        allowed = self.timeout_per_range
        if allowed is None:  # then the deadline was the window budget's
            allowed = budget.seconds if budget is not None else 0.0
        if self.on_error == "raise":
            self._cancel_all(pending)
            raise DecodeTimeoutError(
                f"{task.protocol} analysis task exceeded its decode "
                f"deadline ({allowed:.3f}s)",
                protocol=task.protocol, budget_seconds=allowed,
            )
        # shed, never retried: re-running a decode that blew its
        # allowance would stall the window exactly the way the watchdog
        # exists to prevent
        self._record_error(task, futures.TimeoutError(
            f"{task.protocol} task missed its {allowed:.3f}s decode "
            "deadline; worker abandoned"
        ), action="timeout")
        self.shed_ranges += 1
        obs.counter(
            "rfdump_ranges_shed_total", help=SHED_HELP,
            protocol=task.protocol,
        ).inc()

    # -- leaked-slot accounting -----------------------------------------------

    def _has_room(self, in_flight: int, bounded: bool) -> bool:
        """May another task go to the pool?  Never onto a pool whose
        every slot is held by an abandoned decode; under deadlines only
        onto a free worker."""
        with self._leak_lock:
            free = self.workers - self._leaked
        return free > 0 and (not bounded or in_flight < free)

    def _note_leak(self, fut: "futures.Future", obs) -> None:
        """Count a pool slot occupied by an abandoned running worker."""
        with self._leak_lock:
            self._leaked += 1
            generation = self._pool_generation
            leaked = self._leaked
        obs.gauge(
            "rfdump_parallel_leaked_workers", help=_LEAKED_HELP,
        ).set(leaked)

        def _reclaimed(_fut, stage=self, generation=generation):
            stage._reclaim_leak(generation)

        fut.add_done_callback(_reclaimed)

    def _reclaim_leak(self, generation: int) -> None:
        """An abandoned worker finally returned; its slot is usable again."""
        with self._leak_lock:
            if generation != self._pool_generation or self._leaked <= 0:
                return
            self._leaked -= 1
            leaked = self._leaked
        (self.obs or NULL).gauge(
            "rfdump_parallel_leaked_workers", help=_LEAKED_HELP,
        ).set(leaked)
