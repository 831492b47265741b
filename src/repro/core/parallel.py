"""Executor-backed parallel analysis stage — Figure 2's fan-out, for real.

The paper ran single-threaded only because 2009-era GNU Radio could not
multithread (Section 2.2), and :mod:`repro.core.parallelism` merely
*estimates* what the architecture's "inherent parallelism" would buy.
This module cashes the estimate in: the dispatcher's per-protocol
:class:`~repro.core.dispatcher.DispatchedRange` lists are scheduled over
a :mod:`concurrent.futures` pool, with

* thread and process backends (``backend="thread"`` / ``"process"``),
* the estimator's two work units (``granularity="protocol"`` schedules
  one task per analyzer block — the literal Figure 2 decomposition —
  while ``"range"`` schedules every dispatched range independently),
* per-worker :class:`~repro.core.accounting.StageClock` accounting that
  merges back into the caller's clock,
* deterministic output (packets sorted by :func:`packet_sort_key`, so a
  parallel run is list-identical to a serial one),
* **absolute per-task deadlines measured from submit time**: results are
  collected with :func:`concurrent.futures.wait` against deadlines fixed
  when each task is submitted (``timeout_per_range × n_ranges``, capped
  by the window's :class:`~repro.core.deadline.WindowBudget`).  The old
  submission-order ``fut.result(timeout)`` loop restarted the clock per
  future and serialized head-of-line waits; here a task that was never
  even started still expires on time, and a stalled worker cannot push
  any other task past its deadline,
* crash fallback: a task whose worker fails or cannot be scheduled is
  re-run serially in the calling thread — never silently: every handled
  failure leaves an :class:`~repro.core.errorpolicy.ErrorRecord` that
  the monitor surfaces on its report,
* timeout handling *per policy*: ``"degrade"``/``"skip"`` **shed** the
  task (re-running a decode that already blew its budget would stall
  the window exactly the way the watchdog exists to prevent),
  ``"raise"`` raises :class:`~repro.errors.DecodeTimeoutError`, and the
  legacy ``None`` policy keeps its calling-thread inline-retry contract
  when no window budget is set, but under a budget the retry is
  *bounded* (an abandonable daemon thread joined for at most the
  remaining budget),
* leaked-worker accounting: ``Future.cancel()`` on a running worker is
  a no-op, so a timed-out worker keeps occupying its pool slot until
  the abandoned decode finishes.  The stage counts those slots on the
  ``rfdump_parallel_leaked_workers`` gauge, reclaims them when the
  worker eventually returns, and in ``"degrade"`` mode rebuilds the
  pool outright once leaks exhaust every slot, and
* an ``on_error`` policy (:mod:`repro.core.errorpolicy`): ``"raise"``
  turns worker failures into :class:`~repro.errors.WorkerCrashError`,
  ``"skip"`` drops a failed task's ranges instead of re-running them,
  and ``"degrade"`` additionally rebuilds a broken process pool (a
  bounded number of times) and resubmits before falling back inline.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.decoders import PacketRecord
from repro.core.accounting import StageClock
from repro.core.deadline import SHED_HELP, WindowBudget, order_tasks
from repro.core.dispatcher import DispatchedRange
from repro.core.errorpolicy import ErrorRecord, validate_error_policy
from repro.dsp.samples import SampleBuffer
from repro.errors import DecodeTimeoutError, WorkerCrashError
from repro.obs import NULL
from repro.sanitize.hooks import new_lock

BACKENDS = ("thread", "process")
GRANULARITIES = ("protocol", "range")

_LEAKED_HELP = ("pool slots occupied by abandoned analysis workers "
                "(timed out but still running)")


def packet_sort_key(packet: PacketRecord) -> Tuple:
    """Total order on decoded packets, shared by serial and parallel runs.

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
    """One schedulable unit: a protocol plus the ranges it must decode."""

    protocol: str
    #: ``(sample range, channel hint)`` pairs, in dispatch order
    jobs: List[Tuple[SampleBuffer, Optional[int]]] = field(default_factory=list)
    #: strongest classification confidence over the task's ranges; the
    #: deadline scheduler's priority signal (0.0 when unknown)
    confidence: float = 0.0

    @property
    def n_ranges(self) -> int:
        return len(self.jobs)

    @property
    def samples(self) -> int:
        return sum(len(buf) for buf, _ in self.jobs)

    @property
    def start_sample(self) -> int:
        """Absolute start of the earliest range (0 for an empty task)."""
        return min((buf.start_sample for buf, _ in self.jobs), default=0)

    @property
    def end_sample(self) -> int:
        """Absolute end of the latest range (0 for an empty task)."""
        return max((buf.end_sample for buf, _ in self.jobs), default=0)


@dataclass
class TaskOutcome:
    """What one task produced, with its own worker-side accounting."""

    protocol: str
    packets: List[PacketRecord]
    clock: StageClock
    fell_back: bool = False
    #: worker-side span measurements as plain (picklable) dicts — one
    #: per decoded range, carrying absolute sample bounds, the measured
    #: duration and the worker identity; replayed into the caller's
    #: tracer in deterministic order
    spans: List[dict] = field(default_factory=list)
    worker: str = "main"


@dataclass
class _TaskEntry:
    """Collection-side bookkeeping for one submitted task."""

    index: int
    task: AnalysisTask
    fut: Optional["futures.Future"]
    #: absolute monotonic instant the task must be done by (None: no bound)
    deadline: Optional[float]
    outcome: Optional[TaskOutcome] = None
    #: why the outcome came from an inline re-run ("crash" | "timeout")
    fallback_reason: Optional[str] = None
    skipped: bool = False
    shed: bool = False


def _worker_id() -> str:
    """Stable-enough identity of the executing worker for traces."""
    thread = threading.current_thread().name
    if thread == "MainThread":
        return f"pid-{os.getpid()}"
    return thread


def decode_task(decoder, task: AnalysisTask) -> TaskOutcome:
    """Decode every range of one task; runs inside a worker (or inline)."""
    clock = StageClock()
    packets: List[PacketRecord] = []
    worker = _worker_id()
    spans: List[dict] = []
    with clock.stage("demodulation"):
        for buf, hint in task.jobs:
            clock.touch("demodulation", len(buf))
            t0 = time.perf_counter()
            packets.extend(decoder.scan(buf, channel_hint=hint))
            spans.append({
                "start_sample": buf.start_sample,
                "end_sample": buf.end_sample,
                "duration": time.perf_counter() - t0,
            })
    return TaskOutcome(task.protocol, packets, clock, spans=spans, worker=worker)


# Process workers receive the decoder map once (via the pool initializer)
# instead of re-pickling it into every task.
_PROCESS_DECODERS: Dict[str, object] = {}


def _process_init(decoders: Dict[str, object]) -> None:
    global _PROCESS_DECODERS
    _PROCESS_DECODERS = decoders


def _process_decode(task: AnalysisTask) -> TaskOutcome:
    return decode_task(_PROCESS_DECODERS[task.protocol], task)


class ParallelAnalysisStage:
    """Runs the per-protocol demodulators concurrently over a worker pool.

    Parameters
    ----------
    decoders:
        Protocol name -> stream decoder (``None`` values are skipped, as
        for protocols like microwave where classification is the output).
        For the process backend the decoders and the task buffers must be
        picklable; every decoder in :mod:`repro.analysis.decoders` is.
    workers:
        Pool size; must be >= 1.  A single worker still exercises the
        executor path (useful for testing) but cannot overlap work.
    backend:
        ``"thread"`` (shared memory, zero-copy buffers, best when the
        numpy-heavy demodulators release the GIL or analyzers block on
        I/O) or ``"process"`` (true CPU parallelism at the cost of
        pickling buffers and results).
    granularity:
        ``"protocol"`` or ``"range"`` — the same work units
        :func:`repro.core.parallelism.estimate_parallel_speedup` models.
    timeout_per_range:
        Watchdog seconds granted per dispatched range in a task; a task
        that exceeds its budget is abandoned and re-run serially.
        ``None`` disables the watchdog.
    on_error:
        Fault policy (:mod:`repro.core.errorpolicy`).  ``None`` keeps the
        legacy contract (worker failures fall back inline, recorded);
        ``"raise"`` surfaces them as :class:`WorkerCrashError`;
        ``"skip"`` drops the failed task's output; ``"degrade"`` adds a
        bounded pool-rebuild retry on a broken process pool before the
        inline fallback.
    max_pool_restarts:
        How many times one :meth:`run` may rebuild a broken pool in
        ``"degrade"`` mode before giving up on the executor entirely.
    """

    def __init__(
        self,
        decoders: Dict[str, object],
        workers: int = 2,
        backend: str = "thread",
        granularity: str = "protocol",
        timeout_per_range: Optional[float] = None,
        on_error: Optional[str] = None,
        max_pool_restarts: int = 2,
        obs=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if timeout_per_range is not None and timeout_per_range <= 0:
            raise ValueError("timeout_per_range must be positive")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be non-negative")
        self.decoders = {p: d for p, d in decoders.items() if d is not None}
        self.workers = int(workers)
        self.backend = backend
        self.granularity = granularity
        self.timeout_per_range = timeout_per_range
        self.on_error = validate_error_policy(on_error)
        self.max_pool_restarts = int(max_pool_restarts)
        #: optional repro.obs.Observability for spans and fallback counts
        self.obs = obs
        #: lifetime count of tasks that fell back to serial execution
        self.fallbacks = 0
        #: lifetime count of ranges shed on timeout (budget exhausted)
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
        """Drop a broken pool so the next run can build a fresh one."""
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

    def __enter__(self) -> "ParallelAnalysisStage":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduling -----------------------------------------------------------

    def tasks_for(
        self, buffer: SampleBuffer, ranges: Dict[str, List[DispatchedRange]]
    ) -> List[AnalysisTask]:
        """Turn the dispatcher's output into schedulable tasks."""
        tasks: List[AnalysisTask] = []
        for protocol, proto_ranges in ranges.items():
            if protocol not in self.decoders or not proto_ranges:
                continue
            jobs = [
                (buffer.slice(r.start_sample, r.end_sample), r.channel)
                for r in proto_ranges
            ]
            if self.granularity == "range":
                tasks.extend(
                    AnalysisTask(protocol, [job], confidence=r.confidence)
                    for job, r in zip(jobs, proto_ranges)
                )
            else:
                tasks.append(AnalysisTask(
                    protocol, jobs,
                    confidence=max(r.confidence for r in proto_ranges),
                ))
        return tasks

    def _run_inline(self, task: AnalysisTask) -> TaskOutcome:
        outcome = decode_task(self.decoders[task.protocol], task)
        outcome.fell_back = True
        return outcome

    def _record_error(self, task: AnalysisTask, exc: BaseException,
                      action: str) -> ErrorRecord:
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
        return record

    def take_error_records(self) -> List[ErrorRecord]:
        """Drain the error records the most recent :meth:`run` produced."""
        records, self._run_errors = self._run_errors, []
        return records

    def _submit(self, pool: Optional[futures.Executor], task: AnalysisTask,
                record: bool = True):
        if pool is None:
            return None
        try:
            if self.backend == "process":
                return pool.submit(_process_decode, task)
            return pool.submit(decode_task, self.decoders[task.protocol], task)
        except Exception as exc:
            self._discard_executor()
            if record:
                self._record_error(task, exc, action="fallback")
                if self.on_error == "raise":
                    raise WorkerCrashError(
                        f"could not schedule {task.protocol} task: {exc}",
                        protocol=task.protocol,
                    ) from exc
            return None

    def run(
        self,
        buffer: SampleBuffer,
        ranges: Dict[str, List[DispatchedRange]],
        clock: Optional[StageClock] = None,
        budget: Optional[WindowBudget] = None,
    ) -> Tuple[List[PacketRecord], Dict[str, float], int]:
        """Decode every dispatched range concurrently.

        Returns ``(packets, demod_seconds_by_protocol, fallbacks)``.
        ``packets`` is sorted by :func:`packet_sort_key`; the per-worker
        clocks are merged into ``clock`` (worker CPU under
        ``"demodulation"``, the stage's own wall time under
        ``"demodulation_wall"``), keeping the accounting comparable to a
        serial run while still exposing the achieved overlap.

        ``budget`` is the window's deadline budget, if any: it caps every
        task's absolute deadline, and once it expires remaining tasks are
        shed rather than retried inline.
        """
        clock = clock if clock is not None else StageClock()
        obs = self.obs or NULL
        self._run_errors = []
        tasks = self.tasks_for(buffer, ranges)
        if budget is not None or self.timeout_per_range is not None:
            # deadline-priority submission order: confident, cheap work
            # starts first, so whatever the budget cannot cover is the
            # least valuable tail (see repro.core.deadline)
            tasks = order_tasks(tasks)
        wall_start = time.perf_counter()
        if self.on_error == "degrade":
            self._rebuild_if_leaks_exhausted(obs)
        try:
            pool: Optional[futures.Executor] = self._ensure_executor()
        except Exception as exc:
            pool = None
            record = ErrorRecord.from_exception(
                stage="analysis", component="pool", exc=exc, action="fallback"
            )
            self._run_errors.append(record)
            self.last_error = record
            obs.counter(
                "rfdump_parallel_fallback_errors_total",
                help="worker-side analysis failures handled by the fallback "
                     "path (type/message recorded per range on the report)",
                protocol="pool",
            ).inc()
            if self.on_error == "raise":
                raise WorkerCrashError(
                    f"could not start the analysis pool: {exc}"
                ) from exc
        entries: List[_TaskEntry] = []
        for index, task in enumerate(tasks):
            fut = self._submit(pool, task)
            entries.append(_TaskEntry(
                index=index, task=task, fut=fut,
                deadline=None if fut is None
                else self._task_deadline(task, budget),
            ))
        for entry in entries:
            if entry.fut is None:
                self._fail_entry(entry, budget, obs)
        self._collect(entries, budget, obs)
        wall = time.perf_counter() - wall_start

        outcomes: List[TaskOutcome] = []
        crash_fallbacks = 0
        timeout_fallbacks = 0
        skipped = 0
        shed = 0
        for entry in entries:
            if entry.outcome is not None:
                outcomes.append(entry.outcome)
                if entry.fallback_reason == "crash":
                    crash_fallbacks += 1
                elif entry.fallback_reason == "timeout":
                    timeout_fallbacks += 1
            elif entry.shed:
                shed += max(entry.task.n_ranges, 1)
            elif entry.skipped:
                skipped += 1
        fallbacks = crash_fallbacks + timeout_fallbacks
        self.fallbacks += fallbacks
        self.shed_ranges += shed
        if crash_fallbacks:
            obs.counter(
                "rfdump_parallel_fallbacks_total",
                help="analysis tasks re-run serially, by reason (crash: "
                     "worker failure; timeout: bounded legacy retry after "
                     "a missed decode deadline)",
                reason="crash",
            ).inc(crash_fallbacks)
        if timeout_fallbacks:
            obs.counter(
                "rfdump_parallel_fallbacks_total",
                help="analysis tasks re-run serially, by reason (crash: "
                     "worker failure; timeout: bounded legacy retry after "
                     "a missed decode deadline)",
                reason="timeout",
            ).inc(timeout_fallbacks)
        if skipped:
            obs.counter(
                "rfdump_parallel_skipped_tasks_total",
                help="analysis tasks dropped by the skip error policy",
            ).inc(skipped)
        self._record_spans(obs, outcomes, wall)

        packets: List[PacketRecord] = []
        demod_by_protocol: Dict[str, float] = {}
        for outcome in outcomes:
            packets.extend(outcome.packets)
            clock.merge_in(outcome.clock)
            demod_by_protocol[outcome.protocol] = demod_by_protocol.get(
                outcome.protocol, 0.0
            ) + outcome.clock.seconds.get("demodulation", 0.0)
        clock.seconds["demodulation_wall"] = (
            clock.seconds.get("demodulation_wall", 0.0) + wall
        )
        packets.sort(key=packet_sort_key)
        return packets, demod_by_protocol, fallbacks

    # -- result collection ----------------------------------------------------

    def _task_deadline(self, task: AnalysisTask,
                       budget: Optional[WindowBudget]) -> Optional[float]:
        """Absolute monotonic deadline for a task submitted *now*.

        ``timeout_per_range × n_ranges`` from the submit instant, capped
        by the window budget's own deadline; measured from submit (not
        from when the caller gets around to waiting), so a task that
        never even starts still expires on time.
        """
        deadline: Optional[float] = None
        if self.timeout_per_range is not None:
            deadline = (time.monotonic()
                        + self.timeout_per_range * max(task.n_ranges, 1))
        if budget is not None:
            deadline = (budget.deadline if deadline is None
                        else min(deadline, budget.deadline))
        return deadline

    def _collect(self, entries: List[_TaskEntry],
                 budget: Optional[WindowBudget], obs) -> None:
        """Drain the pending futures against their absolute deadlines.

        One ``futures.wait`` over the whole pending set replaces the old
        submission-order ``fut.result(timeout)`` loop: deadlines are
        fixed instants rather than per-future countdowns, so waiting on
        one stalled task can no longer extend any other task's allowance
        (the head-of-line serialization this module used to have).
        """
        pending: Dict["futures.Future", _TaskEntry] = {
            e.fut: e for e in entries if e.fut is not None
        }
        pool_restarts = 0
        while pending:
            now = time.monotonic()
            deadlines = [e.deadline for e in pending.values()
                         if e.deadline is not None]
            wait_for = (None if not deadlines
                        else max(min(deadlines) - now, 0.0))
            done, _ = futures.wait(set(pending), timeout=wait_for,
                                   return_when=futures.FIRST_COMPLETED)
            for fut in sorted(done, key=lambda f: pending[f].index):
                entry = pending.pop(fut)
                if fut.cancelled():
                    exc: BaseException = futures.CancelledError(
                        f"{entry.task.protocol} task cancelled by its "
                        "broken pool before it started"
                    )
                else:
                    exc = fut.exception()  # type: ignore[assignment]
                if exc is None:
                    entry.outcome = fut.result()
                elif isinstance(exc, futures.BrokenExecutor):
                    self._discard_executor()
                    self._record_error(entry.task, exc, action="fallback")
                    if self.on_error == "raise":
                        self._cancel_all(pending)
                        raise WorkerCrashError(
                            f"analysis pool broke decoding "
                            f"{entry.task.protocol}: {exc}",
                            protocol=entry.task.protocol,
                        ) from exc
                    resubmitted = False
                    # degrade: rebuild the pool (a bounded number of
                    # times per run) and give the task one more shot on
                    # a worker before re-running it inline
                    if (self.on_error == "degrade"
                            and pool_restarts < self.max_pool_restarts):
                        pool_restarts += 1
                        obs.counter(
                            "rfdump_parallel_pool_restarts_total",
                            help="broken worker pools rebuilt mid-run",
                        ).inc()
                        try:
                            new_fut = self._submit(
                                self._ensure_executor(), entry.task,
                                record=False)
                        except Exception:
                            new_fut = None
                        if new_fut is not None:
                            entry.fut = new_fut
                            entry.deadline = self._task_deadline(
                                entry.task, budget)
                            pending[new_fut] = entry
                            resubmitted = True
                    if not resubmitted:
                        self._fail_entry(entry, budget, obs)
                else:
                    self._record_error(entry.task, exc, action="fallback")
                    if self.on_error == "raise":
                        self._cancel_all(pending)
                        raise WorkerCrashError(
                            f"{entry.task.protocol} analysis worker "
                            f"failed: {exc}",
                            protocol=entry.task.protocol,
                        ) from exc
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

    @staticmethod
    def _cancel_all(pending: Dict) -> None:
        """Best-effort cancel before propagating a raise-policy error."""
        for fut in pending:
            fut.cancel()

    def _fail_entry(self, entry: _TaskEntry,
                    budget: Optional[WindowBudget], obs) -> None:
        """A task with no usable worker result (crash/schedule failure)."""
        if self.on_error == "skip":
            entry.skipped = True
            return
        if (self.on_error == "degrade" and budget is not None
                and budget.expired):
            # no budget left to re-run it inline; shed instead
            self._shed_entry(entry, obs)
            return
        entry.outcome = self._run_inline(entry.task)
        entry.fallback_reason = "crash"

    def _shed_entry(self, entry: _TaskEntry, obs) -> None:
        """Drop a task's ranges to hold the latency budget, counted."""
        entry.shed = True
        obs.counter(
            "rfdump_ranges_shed_total", help=SHED_HELP,
            protocol=entry.task.protocol,
        ).inc(max(entry.task.n_ranges, 1))

    def _handle_timeout(self, entry: _TaskEntry, pending: Dict,
                        budget: Optional[WindowBudget], obs) -> None:
        """One task blew its absolute deadline; its worker may still run."""
        task = entry.task
        assert entry.fut is not None
        if not entry.fut.cancel():
            # cancel() on a running future is a no-op: the worker keeps
            # occupying its pool slot until the abandoned decode returns
            self._note_leak(entry.fut, obs)
        per_task = (None if self.timeout_per_range is None
                    else self.timeout_per_range * max(task.n_ranges, 1))
        allowed = per_task
        if allowed is None:
            allowed = budget.seconds if budget is not None else 0.0
        if self.on_error == "raise":
            self._cancel_all(pending)
            raise DecodeTimeoutError(
                f"{task.protocol} analysis task exceeded its decode "
                f"deadline ({allowed:.3f}s)",
                protocol=task.protocol, budget_seconds=allowed,
            )
        self._record_error(task, futures.TimeoutError(
            f"{task.protocol} task missed its {allowed:.3f}s decode "
            "deadline; worker abandoned"
        ), action="timeout")
        if self.on_error in ("skip", "degrade"):
            # shed: the budget is already spent, and re-running a decode
            # that blew it would stall the window exactly the way the
            # watchdog exists to prevent
            self._shed_entry(entry, obs)
            return
        # legacy policy (on_error=None): the historical contract re-runs
        # the task inline *in the calling thread*.  Without a window
        # budget that contract is preserved verbatim; under a budget the
        # retry is bounded on an abandonable thread instead — the
        # unbounded calling-thread retry was the bug that let one stuck
        # demodulator stall the whole window
        if budget is None:
            entry.outcome = self._run_inline(task)
            entry.fallback_reason = "timeout"
            return
        bound = per_task if per_task is not None else float("inf")
        bound = min(bound, max(budget.remaining(), 0.0))
        outcome = self._run_inline_bounded(task, bound)
        if outcome is not None:
            entry.outcome = outcome
            entry.fallback_reason = "timeout"
            return
        self._record_error(task, futures.TimeoutError(
            f"bounded inline retry of the {task.protocol} task also "
            f"exceeded {bound:.3f}s"
        ), action="shed")
        self._shed_entry(entry, obs)

    def _run_inline_bounded(self, task: AnalysisTask,
                            bound: float) -> Optional[TaskOutcome]:
        """The legacy policy's inline retry, with an actual bound.

        The retry runs on a daemon thread the stage can abandon —
        blocking the calling thread on an unbounded ``_run_inline`` was
        the bug that let one stuck demodulator stall the whole window.
        Returns None when the retry also misses (or crashes; the crash
        is recorded).
        """
        if bound <= 0:
            return None
        box: Dict[str, object] = {}
        finished = threading.Event()

        def _target() -> None:
            try:
                box["outcome"] = self._run_inline(task)
            except Exception as exc:
                box["error"] = exc
            finally:
                finished.set()

        thread = threading.Thread(
            target=_target, daemon=True,
            name=f"rfdump-inline-retry-{task.protocol}")
        thread.start()
        if not finished.wait(bound):
            return None
        error = box.get("error")
        if error is not None:
            self._record_error(task, error, action="fallback")  # type: ignore[arg-type]
            return None
        outcome = box.get("outcome")
        return outcome if isinstance(outcome, TaskOutcome) else None

    # -- leaked-slot accounting -----------------------------------------------

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

    def _rebuild_if_leaks_exhausted(self, obs) -> None:
        """Degrade mode: rebuild a pool whose every slot is leaked.

        Nothing submitted to such a pool can ever start, so every task
        would ride its deadline down and be shed; rebuilding outright
        uses the same restart accounting as the broken-pool path.
        """
        with self._leak_lock:
            leaked = self._leaked
        if leaked < self.workers:
            return
        self._discard_executor()
        self.leak_rebuilds += 1
        obs.counter(
            "rfdump_parallel_pool_restarts_total",
            help="broken worker pools rebuilt mid-run",
        ).inc()

    @staticmethod
    def _task_sort_key(outcome: TaskOutcome) -> Tuple:
        first = min(
            (s["start_sample"] for s in outcome.spans), default=0
        )
        return (outcome.protocol, first)

    def _record_spans(self, obs, outcomes: List[TaskOutcome], wall: float) -> None:
        """Replay worker-measured spans into the tracer.

        Outcomes are sorted by (protocol, first range start) — not by
        completion order — so the *structure* of the exported trace is
        deterministic across runs and worker counts; only the measured
        durations differ.
        """
        if not obs:
            return
        with obs.span("analysis", workers=self.workers, backend=self.backend):
            for outcome in sorted(outcomes, key=self._task_sort_key):
                task_span = obs.record(
                    f"demod[{outcome.protocol}]",
                    outcome.clock.seconds.get("demodulation", 0.0),
                    category="task",
                    worker=outcome.worker,
                    protocol=outcome.protocol,
                    fell_back=outcome.fell_back,
                )
                for span in outcome.spans:
                    obs.record(
                        "range",
                        span["duration"],
                        category="range",
                        worker=outcome.worker,
                        parent=task_span.id if task_span else None,
                        start_sample=span["start_sample"],
                        end_sample=span["end_sample"],
                        protocol=outcome.protocol,
                    )
