"""Analysis stage: demodulating decoders, scoring, and reporting.

The decoders here are *stream* decoders: given a range of samples they
locate and decode every packet inside it.  The RFDump monitor feeds them
only the ranges the detection stage classified; the naive baselines feed
them the entire trace — same code path, so the measured cost difference
is exactly the architectural saving the paper quantifies.
"""

from repro.analysis.decoders import (
    PacketRecord,
    WifiStreamDecoder,
    BluetoothStreamDecoder,
    ZigbeeStreamDecoder,
)
from repro.analysis.stats import (
    match_detections,
    packet_miss_rate,
    false_positive_sample_rate,
)
from repro.analysis.report import render_packet_log, render_summary
from repro.analysis.diagnostics import (
    diagnose_interference,
    protocol_airtime,
    station_traffic,
)
from repro.analysis.inspection import (
    PingReport,
    extract_ping_exchanges,
    ping_report,
)

__all__ = [
    "PacketRecord",
    "WifiStreamDecoder",
    "BluetoothStreamDecoder",
    "ZigbeeStreamDecoder",
    "match_detections",
    "packet_miss_rate",
    "false_positive_sample_rate",
    "render_packet_log",
    "render_summary",
    "diagnose_interference",
    "protocol_airtime",
    "station_traffic",
    "PingReport",
    "extract_ping_exchanges",
    "ping_report",
]
