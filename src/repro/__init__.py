"""RFDump reproduction: monitoring the wireless ether with a software radio.

Reproduction of Lakshminarayanan, Sapra, Seshan & Steenkiste, "RFDump: An
Architecture for Monitoring the Wireless Ether" (CoNeXT 2009), as a pure
Python library.

Quick tour
----------
>>> from repro import Scenario, WifiPingSession, RFDumpMonitor
>>> trace = Scenario(duration=0.1).add(WifiPingSession(n_pings=4)).render()
>>> report = RFDumpMonitor().process(trace.buffer)
>>> len(report.packets) > 0
True

Package map: :mod:`repro.core` holds the RFDump architecture (detectors,
dispatcher, monitors), :mod:`repro.phy` the protocol PHYs,
:mod:`repro.emulator` the workload generator, :mod:`repro.analysis` the
decoders and accuracy scoring, :mod:`repro.service` the ``rfdumpd``
daemon, and :mod:`repro.trace` trace file I/O.
"""

from repro.constants import PROTOCOL_FEATURES, features_for
from repro.core import (
    EnergyNaiveMonitor,
    Monitor,
    MonitorConfig,
    MonitorReport,
    NaiveMonitor,
    PacketEvent,
    PacketMeta,
    PeakDetector,
    RFDumpMonitor,
    make_monitor,
)
from repro.obs import Observability
from repro.dsp.samples import SampleBuffer
from repro.emulator import (
    BluetoothL2PingSession,
    MicrowaveSource,
    Scenario,
    WifiBeaconSource,
    WifiBroadcastFlood,
    WifiPingSession,
    ZigbeePingSession,
)
from repro.analysis import (
    packet_miss_rate,
    render_packet_log,
    render_summary,
)
from repro.trace import read_trace, write_trace

__version__ = "1.0.0"

__all__ = [
    "PROTOCOL_FEATURES",
    "features_for",
    "RFDumpMonitor",
    "NaiveMonitor",
    "EnergyNaiveMonitor",
    "Monitor",
    "MonitorConfig",
    "MonitorReport",
    "Observability",
    "PacketEvent",
    "PacketMeta",
    "make_monitor",
    "PeakDetector",
    "SampleBuffer",
    "Scenario",
    "WifiPingSession",
    "WifiBroadcastFlood",
    "WifiBeaconSource",
    "BluetoothL2PingSession",
    "ZigbeePingSession",
    "MicrowaveSource",
    "packet_miss_rate",
    "render_packet_log",
    "render_summary",
    "read_trace",
    "write_trace",
    "__version__",
]
