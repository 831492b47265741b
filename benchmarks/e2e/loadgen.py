"""The load generator: one ingest connection, one subscriber connection.

:func:`daemon_pass` plays a workload's framed windows into a fresh
in-process :class:`~repro.service.daemon.RFDumpDaemon` over loopback TCP
(the daemon serves exactly one event stream, so every pass gets its
own) while a second thread drains a live subscription, and returns the
timings the end-to-end metrics are made of.  :func:`inproc_pass` runs
the same windows through an in-process ``StreamingMonitor`` — the second
observation path: it yields the reference event lines the daemon's
output must equal byte for byte, and the wall time the daemon's is
reconciled with.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import MonitorConfig
from repro.core.events import PacketEvent
from repro.core.streaming import StreamingMonitor
from repro.service import protocol
from repro.service.client import subscribe_events
from repro.service.daemon import RFDumpDaemon

from hostspeed import probe
from workloads import Inputs

#: socket timeout for both connections; only a hung daemon reaches it
IO_TIMEOUT_S = 120.0


class IncorrectOutput(Exception):
    """The daemon's output differs from the reference, or it lost work."""


@dataclass
class PassResult:
    """Timings and output of one pass of a workload through the daemon."""

    #: first window byte written (or due) -> ``eos`` read by the subscriber
    wall_s: float
    #: ``time.process_time()`` over the same interval, all threads
    cpu_s: float
    lines: List[str]
    #: per event: subscriber arrival - due time of the window holding
    #: the packet's ``end_sample``
    latencies_ms: List[float]
    #: time the sender spent inside ``send_frame`` (TCP backpressure)
    ingest_wait_s: float
    #: per window: how late the paced sender ran against its schedule
    late_ms: List[float]
    #: due time of the last window -> ``eos``
    drain_lag_ms: float
    events: List[PacketEvent]
    #: mean of the host-speed probes taken just before the first window
    #: byte and just after ``eos``, while the daemon is idle
    probe_s: float


class _Subscriber(threading.Thread):
    """Drains a live subscription, stamping each event on arrival."""

    def __init__(self, address: Tuple[str, int]):
        super().__init__(name="bench-subscriber", daemon=True)
        self.address = address
        self.events: List[PacketEvent] = []
        self.arrivals: List[float] = []
        self.t_eos = 0.0
        self.cpu_eos = 0.0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            for event in subscribe_events(self.address, from_seq=None,
                                          timeout=IO_TIMEOUT_S):
                self.arrivals.append(time.perf_counter())
                self.events.append(event)
            self.t_eos = time.perf_counter()
            self.cpu_eos = time.process_time()
        except Exception as exc:  # handed to the sender, which re-raises
            self.error = exc


def _exchange(rw, frame: dict, expect: str) -> dict:
    """Send one control frame and read the reply, which must be ``expect``."""
    protocol.send_frame(rw, frame)
    reply = protocol.recv_frame(rw)
    if reply is None or reply[0].get("type") != expect:
        raise IncorrectOutput(
            f"daemon answered {frame['type']!r} with {reply and reply[0]!r}")
    return reply[0]


def daemon_pass(inputs: Inputs,
                frames: Optional[Sequence[Tuple[dict, bytes]]] = None,
                paced: Optional[bool] = None) -> PassResult:
    """One pass of ``frames`` (default: all of them) through a fresh daemon.

    Closed loop: the next window is written as soon as the previous
    ``send_frame`` returns, so the bounded ingest queue and TCP
    backpressure set the pace.  Paced (the workload's default when it
    names a rate): window ``k`` is due at ``t0 + k * period`` whatever
    the daemon is doing, and latency counts from the due time.  Either
    way the timed stretch sits between two host-speed probes.
    """
    frames = inputs.frames if frames is None else frames
    rate = inputs.workload.paced_msps
    if paced is None:
        paced = rate is not None
    step = frames[0][0]["nsamples"]
    period = step / (rate * 1e6) if paced else 0.0
    with RFDumpDaemon(MonitorConfig(), kind="streaming") as daemon:
        subscriber = _Subscriber(daemon.address)
        subscriber.start()
        with socket.create_connection(daemon.address,
                                      timeout=IO_TIMEOUT_S) as conn:
            rw = conn.makefile("rwb")
            _exchange(rw, {
                "type": "hello", "role": "ingest",
                "v": protocol.PROTOCOL_VERSION,
                "sample_rate": inputs.sample_rate,
                "center_freq": inputs.center_freq,
            }, "welcome")
            # a live subscriber misses whatever is published before it
            # is registered, so sending waits for the registration
            while daemon.hub.subscriber_count < 1 and subscriber.is_alive():
                time.sleep(0.001)
            dues: List[float] = []
            late_ms: List[float] = []
            wait_s = 0.0
            probes = [probe()]
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            for k, (header, payload) in enumerate(frames):
                begin = time.perf_counter()
                due = begin
                if paced:
                    due = t0 + k * period
                    if due > begin:
                        time.sleep(due - begin)
                        begin = time.perf_counter()
                    late_ms.append((begin - due) * 1e3)
                protocol.send_frame(rw, header, payload)
                wait_s += time.perf_counter() - begin
                dues.append(due)
            done = _exchange(
                rw, {"type": "end", "windows": len(frames)}, "done")
        subscriber.join(IO_TIMEOUT_S)
        if subscriber.error is not None:
            raise subscriber.error
        if subscriber.is_alive():
            raise IncorrectOutput("subscriber never saw end-of-stream")
        probes.append(probe())
        dropped = sum(1 for e in daemon.errors if e.error == "SlowConsumer")
    if done.get("errors") or done.get("stream_error") or dropped:
        raise IncorrectOutput(
            f"daemon reported errors={done.get('errors')} "
            f"stream_error={done.get('stream_error')} dropped={dropped}")
    first = frames[0][0]["start_sample"]
    latencies_ms = [
        (arrival - dues[min((event.meta.end_sample - 1 - first) // step,
                            len(dues) - 1)]) * 1e3
        for arrival, event in zip(subscriber.arrivals, subscriber.events)
    ]
    return PassResult(
        wall_s=subscriber.t_eos - dues[0],
        cpu_s=subscriber.cpu_eos - cpu0,
        lines=[event.to_json() for event in subscriber.events],
        latencies_ms=latencies_ms,
        ingest_wait_s=wait_s,
        late_ms=late_ms,
        drain_lag_ms=(subscriber.t_eos - dues[-1]) * 1e3,
        events=subscriber.events,
        probe_s=sum(probes) / 2,
    )


def inproc_pass(inputs: Inputs, obs=None) -> Tuple[List[str], float]:
    """The same windows through an in-process monitor: lines, wall time."""
    buffers = [
        protocol.decode_window(header, payload, inputs.sample_rate)
        for header, payload in inputs.frames
    ]
    t0 = time.perf_counter()
    with StreamingMonitor(config=MonitorConfig(obs=obs),
                          overlap=48_000) as monitor:
        lines = [event.to_json() for event in monitor.events(buffers)]
    return lines, time.perf_counter() - t0


def score_truth(inputs: Inputs,
                events: Sequence[PacketEvent]) -> Tuple[int, int]:
    """``(attempted, failed)`` against the emulator's ground truth.

    An operation is one transmission the emulator put on the air; it
    failed when no delivered event of the same protocol overlaps it in
    samples.  Independent of the monitor's own code, so a faster
    demodulator that drops packets is caught.
    """
    failed = 0
    for proto, start, end in inputs.truth:
        if not any(e.protocol == proto and e.meta.start_sample < end
                   and e.meta.end_sample > start for e in events):
            failed += 1
    return len(inputs.truth), failed
