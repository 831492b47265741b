"""Event fan-out: one publisher, N subscribers, bounded queues.

The daemon's ingest pump publishes each :class:`~repro.core.PacketEvent`
exactly once; the :class:`EventHub` owns a bounded
:class:`SubscriberQueue` per subscriber plus the session *backlog* — an
append-only list of every event published so far.  A subscriber that
connects with ``from_seq`` is preloaded from the backlog atomically with
its registration, so a late subscriber (the CI smoke test subscribes
*after* the replay finishes) still sees the complete stream with no
race window.

Slow consumers
--------------
A subscriber that cannot drain its queue hits the configured policy,
derived from the monitor's :mod:`repro.core.errorpolicy` taxonomy by
:func:`slow_consumer_policy`:

``disconnect`` (from ``on_error="raise"``)
    the subscriber is cut off — a lossy stream is surfaced, not hidden
``drop_new`` (from ``on_error="skip"``)
    the event is not enqueued for this subscriber; old context wins
``drop_old`` (from ``on_error="degrade"`` and the legacy default)
    the oldest queued event is evicted; the stream degrades to
    most-recent-wins but the subscriber stays attached

Every drop and disconnect is counted and surfaced as an
:class:`~repro.core.errorpolicy.ErrorRecord` with ``stage="service"``,
the same record type the pipeline uses for its handled faults.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.core.errorpolicy import ErrorRecord
from repro.core.events import PacketEvent
from repro.obs import NULL, Observability

#: slow-consumer policies, keyed by the error-policy value they map from
POLICY_DISCONNECT = "disconnect"
POLICY_DROP_NEW = "drop_new"
POLICY_DROP_OLD = "drop_old"

SLOW_CONSUMER_POLICIES = (POLICY_DISCONNECT, POLICY_DROP_NEW, POLICY_DROP_OLD)


def slow_consumer_policy(on_error: Optional[str]) -> str:
    """Map the monitor's ``on_error`` policy onto a fan-out policy."""
    if on_error == "raise":
        return POLICY_DISCONNECT
    if on_error == "skip":
        return POLICY_DROP_NEW
    # "degrade" and the legacy default both keep the daemon serving
    return POLICY_DROP_OLD


class _EndOfStream:
    def __repr__(self) -> str:
        return "<end-of-stream>"


class _Disconnected:
    def __repr__(self) -> str:
        return "<disconnected>"


#: sentinel a subscriber receives after the monitor's final flush
END_OF_STREAM = _EndOfStream()
#: sentinel a subscriber receives after a policy disconnect
DISCONNECTED = _Disconnected()


class SubscriberQueue:
    """Bounded per-subscriber event queue with a drop policy.

    ``put`` is called by the hub's publisher thread and never blocks;
    ``get`` is called by the subscriber's connection thread and blocks
    up to ``timeout`` seconds.  ``maxlen`` bounds only *live* events —
    backlog preload and the end-of-stream sentinel bypass the bound,
    because replaying history and delivering EOS must not be lossy.
    """

    def __init__(self, sid: int, maxlen: int, policy: str,
                 transport: Optional[object] = None):
        if policy not in SLOW_CONSUMER_POLICIES:
            raise ValueError(
                f"policy must be one of {SLOW_CONSUMER_POLICIES}"
            )
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.sid = sid
        self.maxlen = maxlen
        self.policy = policy
        #: the connection object to shut down on a policy disconnect
        #: (opaque to the hub; the daemon stores the socket here)
        self.transport = transport
        self.dropped = 0
        self.delivered = 0
        self._items: Deque[object] = deque()
        # lock-order discipline: "service.subscriber" is a leaf domain,
        # always acquired after (never before) "service.hub"
        self._cond = threading.Condition()
        self._closed = False

    def put(self, event: PacketEvent) -> bool:
        """Enqueue one live event; ``False`` means "disconnect me"."""
        with self._cond:
            if self._closed:
                return True  # already gone; nothing to deliver
            if len(self._items) >= self.maxlen:
                if self.policy == POLICY_DISCONNECT:
                    self._closed = True
                    self._cond.notify_all()
                    return False
                self.dropped += 1
                if self.policy == POLICY_DROP_NEW:
                    return True
                self._items.popleft()  # POLICY_DROP_OLD
            self._items.append(event)
            self._cond.notify()
            return True

    def put_final(self, item: object) -> None:
        """Append past the bound (backlog replay, end-of-stream)."""
        with self._cond:
            if self._closed:
                return
            self._items.append(item)
            self._cond.notify()

    def get(self, timeout: float) -> object:
        """Next item, :data:`END_OF_STREAM`/:data:`DISCONNECTED`, or
        ``None`` on timeout."""
        with self._cond:
            if not self._items and not self._closed:
                self._cond.wait(timeout)
            if self._items:
                item = self._items.popleft()
                if isinstance(item, PacketEvent):
                    self.delivered += 1
                return item
            if self._closed:
                return DISCONNECTED
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._items)


class EventHub:
    """The daemon's fan-out core: backlog + per-subscriber queues.

    Thread contract: ``publish``/``end_stream`` are called from the
    ingest pump thread; ``subscribe``/``unsubscribe`` from connection
    threads.  The hub lock orders backlog appends against subscriber
    registration, which is what makes ``from_seq`` replay exact — an
    event is either in the preloaded backlog slice or delivered live,
    never both, never neither.
    """

    def __init__(self, policy: str = POLICY_DROP_OLD, queue_depth: int = 256,
                 obs: Optional[Observability] = None,
                 on_error_record: Optional[Callable[[ErrorRecord], None]] = None):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.policy = policy
        self.queue_depth = queue_depth
        self._obs = obs if obs is not None else NULL
        self._on_error_record = on_error_record
        self._lock = threading.Lock()
        self._subscribers: Dict[int, SubscriberQueue] = {}
        self._backlog: List[PacketEvent] = []
        self._next_sid = 0
        self._ended = False

    # -- publisher side --------------------------------------------------------

    def publish(self, event: PacketEvent) -> None:
        with self._lock:
            if self._ended:
                raise RuntimeError("publish() after end_stream()")
            self._backlog.append(event)
            targets = list(self._subscribers.values())
        self._obs.counter(
            "rfdumpd_events_published_total",
            help="events fanned out by the daemon",
        ).inc()
        for queue in targets:
            before = queue.dropped
            accepted = queue.put(event)
            if queue.dropped > before:
                self._count_drop(queue)
            if not accepted:
                self._disconnect(queue)

    def end_stream(self) -> None:
        """Deliver end-of-stream to every subscriber, current and future."""
        with self._lock:
            if self._ended:
                return
            self._ended = True
            targets = list(self._subscribers.values())
        for queue in targets:
            queue.put_final(END_OF_STREAM)

    # -- subscriber side -------------------------------------------------------

    def subscribe(self, from_seq: Optional[int] = None,
                  transport: Optional[object] = None) -> SubscriberQueue:
        """Attach a subscriber; ``from_seq`` preloads backlog events with
        ``event.seq >= from_seq`` (``None`` = live events only)."""
        with self._lock:
            queue = SubscriberQueue(
                self._next_sid, self.queue_depth, self.policy,
                transport=transport,
            )
            self._next_sid += 1
            if from_seq is not None:
                for event in self._backlog:
                    if event.seq >= from_seq:
                        queue.put_final(event)
            if self._ended:
                queue.put_final(END_OF_STREAM)
            self._subscribers[queue.sid] = queue
        self._obs.gauge(
            "rfdumpd_subscribers",
            help="currently attached subscribers",
        ).inc()
        return queue

    def unsubscribe(self, queue: SubscriberQueue) -> None:
        with self._lock:
            removed = self._subscribers.pop(queue.sid, None)
        queue.close()
        if removed is not None:
            self._obs.gauge(
                "rfdumpd_subscribers",
                help="currently attached subscribers",
            ).dec()

    def close(self) -> None:
        """Tear down every subscriber (daemon shutdown)."""
        with self._lock:
            targets = list(self._subscribers.values())
            self._subscribers.clear()
        for queue in targets:
            queue.close()

    # -- introspection ---------------------------------------------------------

    @property
    def published(self) -> int:
        with self._lock:
            return len(self._backlog)

    @property
    def ended(self) -> bool:
        with self._lock:
            return self._ended

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def backlog(self) -> List[PacketEvent]:
        """Snapshot of every event published so far, in seq order."""
        with self._lock:
            return list(self._backlog)

    # -- accounting ------------------------------------------------------------

    def _record(self, record: ErrorRecord) -> None:
        if self._on_error_record is not None:
            self._on_error_record(record)

    def _count_drop(self, queue: SubscriberQueue) -> None:
        self._obs.counter(
            "rfdumpd_events_dropped_total",
            help="events dropped by slow-consumer policy",
            policy=queue.policy,
        ).inc()
        self._record(ErrorRecord(
            stage="service",
            component=f"subscriber:{queue.sid}",
            error="SlowConsumer",
            message=f"queue full at depth {queue.maxlen}",
            action=queue.policy,
        ))

    def _disconnect(self, queue: SubscriberQueue) -> None:
        with self._lock:
            self._subscribers.pop(queue.sid, None)
        self._obs.counter(
            "rfdumpd_subscribers_disconnected_total",
            help="subscribers cut off by the disconnect policy",
        ).inc()
        self._obs.gauge(
            "rfdumpd_subscribers",
            help="currently attached subscribers",
        ).dec()
        self._record(ErrorRecord(
            stage="service",
            component=f"subscriber:{queue.sid}",
            error="SlowConsumer",
            message=f"queue full at depth {queue.maxlen}",
            action="disconnected",
        ))
        transport = queue.transport
        if transport is not None:
            try:
                transport.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
