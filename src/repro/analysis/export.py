"""Machine-readable export of monitoring results.

A monitoring tool is a data source for other tooling — tcpdump has pcap;
RFDump's packet log and accuracy reports export here as plain JSON and
CSV so notebooks, dashboards and regression harnesses can consume them
without importing the library.  The event-stream sinks
(:func:`write_pcap`, :func:`write_sigmf_meta`) serialize
:class:`~repro.core.PacketEvent` records — the contract the daemon and
``rfdump --format jsonl`` speak — into the two capture formats the SDR
world already reads.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.analysis.decoders import PacketRecord
from repro.analysis.stats import AccuracyReport

if TYPE_CHECKING:
    from repro.core.events import PacketEvent
    from repro.core.pipeline import MonitorReport

#: columns of the packet CSV, in order
PACKET_FIELDS = [
    "time_s", "protocol", "start_sample", "end_sample", "payload_size",
    "rate_mbps", "channel", "snr_db", "decoder", "ok",
]


def _packet_rows(records: Iterable[PacketRecord], sample_rate: float) -> List[dict]:
    """Flatten packet records to plain dicts (JSON/CSV friendly)."""
    out = []
    for rec in sorted(records, key=lambda r: r.start_sample):
        out.append(
            {
                "time_s": rec.start_sample / sample_rate,
                "protocol": rec.protocol,
                "start_sample": rec.start_sample,
                "end_sample": rec.end_sample,
                "payload_size": rec.payload_size,
                "rate_mbps": rec.rate_mbps,
                "channel": rec.channel,
                "snr_db": rec.info.get("snr_db"),
                "decoder": rec.decoder,
                "ok": rec.ok,
            }
        )
    return out


def packets_to_csv(records: Iterable[PacketRecord], sample_rate: float) -> str:
    """Render packet records as CSV text (header + one row per packet)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=PACKET_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in _packet_rows(records, sample_rate):
        writer.writerow(row)
    return buf.getvalue()


def report_to_json(report: "MonitorReport", sample_rate: float,
                   indent: int = 2) -> str:
    """Serialize a MonitorReport: packets, classifications, stage costs."""
    payload = {
        "total_samples": report.total_samples,
        "duration_s": report.duration,
        "noise_floor": report.noise_floor,
        "cpu_over_realtime": (
            report.cpu_over_realtime if report.duration > 0 else None
        ),
        "stage_seconds": dict(report.clock.seconds),
        "packets": _packet_rows(report.packets, sample_rate),
        "classifications": [
            {
                "protocol": c.protocol,
                "detector": c.detector,
                "confidence": c.confidence,
                "channel": c.channel,
                "peak_start_sample": c.peak.start_sample,
                "peak_end_sample": c.peak.end_sample,
            }
            for c in report.classifications
        ],
        "forwarded_samples": {
            protocol: report.forwarded_samples(protocol)
            for protocol in report.ranges
        },
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def accuracy_to_json(report: AccuracyReport, indent: int = 2) -> str:
    """Serialize an AccuracyReport (the Figure 6-8 / Table 3 quantities)."""
    payload = {
        "miss_rate": report.miss_rate,
        "false_positive_rate": report.false_positive_rate,
        "found": report.found,
        "total": report.total,
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


# -- event-stream capture sinks ------------------------------------------------

#: classic pcap magic (microsecond timestamps, host-written little-endian)
_PCAP_MAGIC = 0xA1B2C3D4
_PCAP_VERSION = (2, 4)
#: DLT_USER0 — reserved for private use; each pcap record's payload is
#: one canonical PacketEvent JSON document
PCAP_LINKTYPE_USER0 = 147


def write_pcap(events: Iterable["PacketEvent"], path) -> int:
    """Write an event stream as a pcap file (DLT_USER0, JSON payloads).

    Each record's timestamp is the event's sample-derived
    ``meta.timestamp`` — no wall clock is read, so two exports of the
    same stream are byte-identical.  Returns the record count.
    """
    count = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack(
            "<IHHiIII", _PCAP_MAGIC, _PCAP_VERSION[0], _PCAP_VERSION[1],
            0, 0, 1 << 16, PCAP_LINKTYPE_USER0,
        ))
        for event in events:
            payload = event.to_json().encode("utf-8")
            ts = event.meta.timestamp
            ts_sec = int(ts)
            ts_usec = int(round((ts - ts_sec) * 1e6))
            if ts_usec >= 1_000_000:  # rounding carried into the next second
                ts_sec += 1
                ts_usec -= 1_000_000
            fh.write(struct.pack(
                "<IIII", ts_sec, ts_usec, len(payload), len(payload)))
            fh.write(payload)
            count += 1
    return count


def sigmf_metadata(events: Iterable["PacketEvent"], sample_rate: float,
                   center_freq: Optional[float] = None,
                   description: str = "") -> dict:
    """The SigMF metadata document for an event stream.

    ``global``/``captures`` describe the recording the events came
    from; each event becomes one annotation over its sample span, with
    the protocol/decoder/summary carried in ``core:label`` and the
    measured RF metadata in the RFDump extension namespace.
    """
    annotations = []
    for event in sorted(events, key=lambda e: e.meta.start_sample):
        annotation = {
            "core:sample_start": event.meta.start_sample,
            "core:sample_count": event.meta.end_sample - event.meta.start_sample,
            "core:label": f"{event.protocol}/{event.decoder}",
            "core:description": event.summary,
            "rfdump:seq": event.seq,
            "rfdump:ok": event.ok,
            "rfdump:payload_size": event.payload_size,
        }
        for field, key in (("snr_db", "rfdump:snr_db"),
                           ("rssi_db", "rfdump:rssi_db"),
                           ("cfo_hz", "rfdump:cfo_hz"),
                           ("rate_mbps", "rfdump:rate_mbps"),
                           ("channel", "rfdump:channel")):
            value = getattr(event.meta, field)
            if value is not None:
                annotation[key] = value
        annotations.append(annotation)
    global_info = {
        "core:datatype": "cf32_le",
        "core:sample_rate": sample_rate,
        "core:version": "1.0.0",
        "core:recorder": "rfdump-repro",
    }
    if description:
        global_info["core:description"] = description
    capture = {"core:sample_start": 0}
    if center_freq is not None:
        capture["core:frequency"] = center_freq
    return {
        "global": global_info,
        "captures": [capture],
        "annotations": annotations,
    }


def write_sigmf_meta(events: Iterable["PacketEvent"], sample_rate: float,
                     path, center_freq: Optional[float] = None,
                     description: str = "") -> int:
    """Write the SigMF metadata sidecar; returns the annotation count."""
    doc = sigmf_metadata(events, sample_rate, center_freq=center_freq,
                         description=description)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(doc["annotations"])
