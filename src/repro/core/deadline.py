"""Deadline-aware scheduling and load shedding (ROADMAP item 4).

The paper's pitch is keeping up with the ether *in real time*; this
module gives every monitoring window a latency budget and decides what
to drop when the budget cannot cover the offered load.  Three pieces:

:class:`WindowBudget`
    One window's budget, anchored to a monotonic clock the moment the
    window enters the pipeline.  Everything downstream measures against
    the same absolute deadline, so a stage cannot "restart the clock"
    the way the old per-future ``result(timeout)`` loop did.
:func:`range_priority` / :func:`order_tasks`
    The deterministic dispatch order: *deadline slack x confidence*.
    Within one window every range shares the budget, so slack
    differences reduce to estimated cost (range length) — cheap,
    confident ranges carry the most value per unit of budget and run
    first; the most expensive, least confident work sorts last, which
    is exactly the tail admission control sheds under overload.
    Ordering is a pure function of dispatch output (no clock reads), so
    it is identical across runs, worker counts and backends.
:class:`AdmissionController` / :class:`DeadlineScheduler`
    Backpressure from the analyzers to the detection stage.  Each
    window that misses its deadline raises the shed level
    (additive-increase), each window that makes it decays the level
    back toward zero; ``admit()`` drops the lowest-priority fraction of
    the dispatched ranges *before* any demodulator sees them, recording
    every shed range as an ``ErrorRecord(action="shed")`` in the PR 5
    failure taxonomy.

Shedding is a *degradation*, so it is always counted:
``rfdump_ranges_shed_total{protocol}`` per dropped range,
``rfdump_deadline_misses_total`` per blown budget, and the current shed
level on the ``rfdump_admission_level`` gauge.  With no ``deadline_ms``
configured none of this code runs and the pipeline is byte-identical to
the pre-deadline behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.errorpolicy import ErrorRecord
from repro.obs import NULL

if TYPE_CHECKING:
    from repro.core.dispatcher import DispatchedRange

#: help text for the shed-ranges counter, shared with the analysis
#: stage's watchdog path so both register the series identically
SHED_HELP = ("dispatched ranges shed (dropped or abandoned) to hold "
             "the window latency budget")


class WindowBudget:
    """One window's latency budget, anchored at construction time.

    The anchor is :func:`time.monotonic` — wall-clock adjustments must
    not move a deadline.  ``t0`` is injectable for tests only.
    """

    __slots__ = ("seconds", "_t0")

    def __init__(self, seconds: float, t0: Optional[float] = None):
        if seconds <= 0:
            raise ValueError("budget seconds must be positive")
        self.seconds = float(seconds)
        self._t0 = time.monotonic() if t0 is None else float(t0)

    @property
    def deadline(self) -> float:
        """Absolute monotonic instant the window must be done by."""
        return self._t0 + self.seconds

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def remaining(self) -> float:
        """Budget left (negative once the deadline has passed)."""
        return self.seconds - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:
        return f"<WindowBudget {self.seconds * 1e3:.1f}ms remaining={self.remaining() * 1e3:.1f}ms>"


def range_priority(protocol: str, rng: "DispatchedRange") -> Tuple:
    """Deadline-slack x confidence dispatch key; ascending = run first.

    Confidence-major (the architecture's own "how sure are we this is
    worth demodulating" signal), estimated cost minor (a cheap range
    consumes less of the shared budget, so at equal confidence it has
    more slack per unit of value).  Protocol/position tie-breaks make
    the order total and deterministic.
    """
    return (-rng.confidence, rng.length, protocol,
            rng.start_sample, rng.end_sample)


def order_tasks(tasks: List) -> List:
    """Analysis tasks (one dispatched range each) in
    :func:`range_priority` order — stable and deterministic."""
    return sorted(tasks, key=lambda task: range_priority(task.protocol, task))


def shed_record(obs, protocol: str, rng, reason: str) -> ErrorRecord:
    """One shed range (or the task made from it) as a taxonomy record,
    counted on the registry."""
    (obs or NULL).counter(
        "rfdump_ranges_shed_total", help=SHED_HELP, protocol=protocol,
    ).inc()
    return ErrorRecord(
        stage="analysis", component=protocol, error="DeadlineError",
        message=reason, action="shed",
        start_sample=rng.start_sample, end_sample=rng.end_sample,
    )


@dataclass
class AdmissionController:
    """AIMD controller for the shed level.

    ``level`` is the fraction of dispatched ranges ``admit()`` drops
    (lowest priority first).  A missed deadline bumps it by ``step_up``
    (additive increase capped at ``max_shed`` — the monitor never sheds
    *everything* on backpressure alone, only on an already-expired
    budget); a made deadline decays it by ``step_down``, so capacity
    recovered after a burst is handed back gradually instead of
    oscillating.
    """

    step_up: float = 0.25
    step_down: float = 0.05
    max_shed: float = 0.9
    level: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.step_up <= 1.0:
            raise ValueError("step_up must be in (0, 1]")
        if not 0.0 < self.step_down <= 1.0:
            raise ValueError("step_down must be in (0, 1]")
        if not 0.0 <= self.max_shed <= 1.0:
            raise ValueError("max_shed must be in [0, 1]")
        if not 0.0 <= self.level <= 1.0:
            raise ValueError("level must be in [0, 1]")

    def record(self, missed: bool) -> float:
        """Fold one window's outcome in; returns the new shed level."""
        if missed:
            self.level = min(self.max_shed, self.level + self.step_up)
        else:
            self.level = max(0.0, self.level - self.step_down)
        return self.level


class DeadlineScheduler:
    """Per-monitor deadline state: budgets out, latencies in, sheds decided.

    One scheduler lives on each :class:`~repro.core.pipeline.RFDumpMonitor`
    configured with ``deadline_ms``; the streaming wrapper inherits it
    through the monitor it wraps, which is how "recent windows ran over
    budget" turns into a smaller admitted range set for the next window.
    """

    def __init__(self, deadline_ms: float,
                 controller: Optional[AdmissionController] = None,
                 obs=None):
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        self.deadline_ms = float(deadline_ms)
        self.seconds = self.deadline_ms * 1e-3
        self.controller = controller if controller is not None else AdmissionController()
        self.obs = obs
        #: lifetime count of windows that blew their budget
        self.deadline_misses = 0
        #: lifetime count of ranges dropped by admission control
        self.ranges_shed = 0
        #: windows accounted so far
        self.windows = 0

    def start_window(self) -> WindowBudget:
        """A fresh budget anchored now; call on window entry."""
        return WindowBudget(self.seconds)

    def shed_record(self, protocol: str, rng: "DispatchedRange",
                    reason: str) -> ErrorRecord:
        """One range shed by admission control, recorded and counted."""
        self.ranges_shed += 1
        return shed_record(self.obs, protocol, rng, reason)

    def admit(self, ranges: Dict[str, List["DispatchedRange"]],
              budget: Optional[WindowBudget] = None,
              ) -> Tuple[Dict[str, List["DispatchedRange"]], List[ErrorRecord]]:
        """Split dispatched ranges into (admitted, shed-records).

        The shed set is the lowest-priority ``level`` fraction of the
        window's ranges (see :func:`range_priority`); an already-expired
        budget sheds everything — there is no budget left to spend on
        demodulation at all.  Admitted ranges keep their per-protocol
        dispatch order, so downstream output stays deterministic.
        """
        total = sum(len(rs) for rs in ranges.values())
        if total == 0:
            return ranges, []
        expired = budget is not None and budget.expired
        n_shed = total if expired else int(total * self.controller.level)
        if n_shed == 0:
            return ranges, []
        ordered = sorted(
            ((protocol, rng) for protocol, rs in ranges.items() for rng in rs),
            key=lambda pr: range_priority(pr[0], pr[1]),
        )
        shed_pairs = ordered[total - n_shed:]
        shed_ids = {id(rng) for _, rng in shed_pairs}
        reason = (
            "window budget exhausted before demodulation"
            if expired else
            f"admission control shedding {self.controller.level:.0%} of "
            f"dispatched ranges after recent deadline misses"
        )
        records = [
            self.shed_record(protocol, rng, reason)
            for protocol, rng in shed_pairs
        ]
        admitted = {}
        for protocol, rs in ranges.items():
            kept = [rng for rng in rs if id(rng) not in shed_ids]
            if kept:
                admitted[protocol] = kept
        return admitted, records

    def finish_window(self, elapsed: float) -> bool:
        """Account one finished window; returns True on a deadline miss.

        Updates the AIMD shed level and the miss counter/level gauge —
        the backpressure edge from the analyzers back to admission.
        """
        obs = self.obs or NULL
        missed = elapsed > self.seconds
        self.windows += 1
        if missed:
            self.deadline_misses += 1
            obs.counter(
                "rfdump_deadline_misses_total",
                help="windows whose processing latency exceeded the "
                     "configured deadline budget",
            ).inc()
        level = self.controller.record(missed)
        obs.gauge(
            "rfdump_admission_level",
            help="current admission-control shed level (fraction of "
                 "dispatched ranges dropped before demodulation)",
        ).set(level)
        return missed
