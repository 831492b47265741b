"""The event-stream contract: one frozen record per decoded packet.

Every monitor family used to hand back :class:`PacketRecord` lists that
callers flattened into ad-hoc dicts (the CLI packet log, the JSON/CSV
export, the daemon-to-be).  :class:`PacketEvent` is the single wire
contract replacing those dicts: a frozen, JSON-round-trippable record
with a stream sequence number plus radiotap-like capture metadata
(:class:`PacketMeta` — timestamp, protocol, RSSI/SNR, CFO where the
decoder measured one).  ``Monitor.events()`` yields these, the
``rfdumpd`` daemon fans them out to subscribers, and
``rfdump --format jsonl`` prints them — so a serial CLI run and a
daemon subscriber produce byte-identical streams.

The canonical wire form is :meth:`PacketEvent.to_json`: a flat JSON
object with sorted keys and compact separators, so equality of event
streams is plain line equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.decoders import PacketRecord

#: bumped whenever the wire layout of :meth:`PacketEvent.to_dict` changes
EVENT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PacketMeta:
    """Radiotap-like capture metadata for one decoded transmission.

    Positions are absolute sample indices in the stream; ``timestamp``
    is derived from them (``start_sample / sample_rate``), never from a
    wall clock — two replays of the same trace carry identical metadata.
    Fields a decoder did not measure stay None.
    """

    timestamp: float
    sample_rate: float
    start_sample: int
    end_sample: int
    channel: Optional[int] = None
    rate_mbps: Optional[float] = None
    snr_db: Optional[float] = None
    rssi_db: Optional[float] = None
    cfo_hz: Optional[float] = None

    @property
    def duration(self) -> float:
        """Airtime of the transmission in seconds."""
        return (self.end_sample - self.start_sample) / self.sample_rate


@dataclass(frozen=True)
class PacketEvent:
    """One decoded packet as a subscriber sees it.

    ``seq`` is the position in the event stream (assigned by
    ``Monitor.events()``, carried verbatim by the daemon), not a MAC
    sequence number — gaps in it mean events were dropped between the
    monitor and the consumer.
    """

    seq: int
    protocol: str
    decoder: str
    ok: bool
    payload_size: int
    summary: str
    meta: PacketMeta

    def key(self) -> Tuple:
        """Identity of the underlying transmission (seq excluded)."""
        return (self.meta.start_sample, self.meta.end_sample,
                self.protocol, self.decoder, self.meta.channel)

    # -- wire form ------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Flat JSON-ready dict (the wire layout, schema-versioned)."""
        out: Dict = {"v": EVENT_SCHEMA_VERSION, "seq": self.seq,
                     "protocol": self.protocol, "decoder": self.decoder,
                     "ok": self.ok, "payload_size": self.payload_size,
                     "summary": self.summary}
        for f in fields(PacketMeta):
            out[f.name] = getattr(self.meta, f.name)
        return out

    def to_json(self) -> str:
        """Canonical one-line wire form (sorted keys, compact)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict) -> "PacketEvent":
        version = payload.get("v", EVENT_SCHEMA_VERSION)
        if version != EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported event schema v{version} "
                f"(this build speaks v{EVENT_SCHEMA_VERSION})"
            )
        meta = PacketMeta(**{
            f.name: payload[f.name] for f in fields(PacketMeta)
            if f.name in payload
        })
        return cls(
            seq=int(payload["seq"]), protocol=payload["protocol"],
            decoder=payload["decoder"], ok=bool(payload["ok"]),
            payload_size=int(payload["payload_size"]),
            summary=payload.get("summary", ""), meta=meta,
        )

    @classmethod
    def from_json(cls, line: str) -> "PacketEvent":
        return cls.from_dict(json.loads(line))

    # -- construction from the pipeline ---------------------------------------

    @classmethod
    def from_record(cls, record: PacketRecord, sample_rate: float,
                    seq: int) -> "PacketEvent":
        """Lift a pipeline :class:`PacketRecord` into the event contract."""
        from repro.analysis.report import packet_detail

        info = record.info
        meta = PacketMeta(
            timestamp=record.start_sample / sample_rate,
            sample_rate=sample_rate,
            start_sample=record.start_sample,
            end_sample=record.end_sample,
            channel=record.channel,
            rate_mbps=record.rate_mbps,
            snr_db=info.get("snr_db"),
            rssi_db=info.get("rssi_db"),
            cfo_hz=info.get("cfo_hz"),
        )
        return cls(
            seq=seq, protocol=record.protocol, decoder=record.decoder,
            ok=record.ok, payload_size=record.payload_size,
            summary=packet_detail(record), meta=meta,
        )


def events_from_records(records: Iterable[PacketRecord], sample_rate: float,
                        start_seq: int = 0) -> List[PacketEvent]:
    """Convert a finished packet list to events, in list order.

    For already-final output (a one-shot :class:`MonitorReport`, an
    accumulated streaming run); live consumers should iterate
    ``Monitor.events()`` instead, which assigns sequence numbers as
    packets become final.
    """
    return [
        PacketEvent.from_record(record, sample_rate, seq=start_seq + i)
        for i, record in enumerate(records)
    ]


def read_events(lines: Iterable[str]) -> Iterator[PacketEvent]:
    """Parse a JSONL event stream, skipping blank lines."""
    for line in lines:
        line = line.strip()
        if line:
            yield PacketEvent.from_json(line)
