"""The RFDump core: detection stage, dispatcher, monitors.

This package implements the paper's primary contribution — the two-phase
detection stage (protocol-agnostic peak detection, then protocol-specific
timing/phase/frequency classifiers operating mostly on metadata) in front
of the expensive demodulators, plus the naive baseline architectures the
evaluation compares against.
"""

from repro.core.metadata import Peak, PeakHistory, ChunkMetadata
from repro.core.config import MonitorConfig, resolve_monitor_config
from repro.core.errorpolicy import (
    ERROR_POLICIES,
    CircuitBreaker,
    ErrorRecord,
)
from repro.core.monitor import MONITOR_NAMES, Monitor, make_monitor
from repro.core.events import (
    EVENT_SCHEMA_VERSION,
    PacketEvent,
    PacketMeta,
    events_from_records,
    read_events,
)
from repro.core.peak_detector import PeakDetector
from repro.core.pipeline import RFDumpMonitor, MonitorReport
from repro.core.naive import NaiveMonitor, EnergyNaiveMonitor
from repro.core.accounting import StageClock
from repro.core.streaming import StreamingMonitor
from repro.core.scanning import ScanningMonitor

__all__ = [
    "Peak",
    "PeakHistory",
    "ChunkMetadata",
    "MonitorConfig",
    "resolve_monitor_config",
    "ERROR_POLICIES",
    "CircuitBreaker",
    "ErrorRecord",
    "Monitor",
    "make_monitor",
    "MONITOR_NAMES",
    "EVENT_SCHEMA_VERSION",
    "PacketEvent",
    "PacketMeta",
    "events_from_records",
    "read_events",
    "PeakDetector",
    "RFDumpMonitor",
    "MonitorReport",
    "NaiveMonitor",
    "EnergyNaiveMonitor",
    "StageClock",
    "StreamingMonitor",
    "ScanningMonitor",
]
