"""``rfdumpd``: the RFDump monitoring daemon and its wire protocol.

The paper's deployment model is a shared monitoring service: one
software radio watches the ether and many analysis clients consume the
decoded packet stream.  This package is that service for the
reproduction: :class:`RFDumpDaemon` ingests IQ windows over a socket
(or a replayed trace), runs any :func:`repro.core.make_monitor` kind
behind it, and fans the resulting :class:`repro.core.PacketEvent`
stream out to concurrent subscribers.

Layering
--------
:mod:`repro.service.protocol`
    Framing: newline-delimited JSON control frames, raw complex64
    window payloads.
:mod:`repro.service.hub`
    :class:`EventHub` — per-subscriber bounded queues, slow-consumer
    policy, session backlog for ``from_seq`` replay.
:mod:`repro.service.daemon`
    :class:`RFDumpDaemon` — the TCP server, the ingest session that
    runs the monitor, and the ``/metrics`` HTTP endpoint.
:mod:`repro.service.client`
    ``replay_trace`` / ``subscribe_events`` — the client half the
    ``rfdumpd`` CLI and the tests drive.
"""

from repro.service.daemon import RFDumpDaemon
from repro.service.hub import (
    EventHub,
    SubscriberQueue,
    slow_consumer_policy,
)
from repro.service.client import replay_trace, subscribe_events
from repro.service.protocol import PROTOCOL_VERSION

__all__ = [
    "RFDumpDaemon",
    "EventHub",
    "SubscriberQueue",
    "slow_consumer_policy",
    "replay_trace",
    "subscribe_events",
    "PROTOCOL_VERSION",
]
