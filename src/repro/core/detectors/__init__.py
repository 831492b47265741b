"""Protocol-specific fast detectors (Section 3).

Timing detectors operate purely on the peak-history metadata; phase and
frequency detectors read (subsets of) the samples under a peak.  All of
them are orders of magnitude cheaper than demodulation and are allowed to
produce false positives — the demodulator is the final arbiter.
"""

from repro.core.detectors.base import Classification, Detector
from repro.core.detectors.timing_wifi import WifiSifsTimingDetector, WifiDifsTimingDetector
from repro.core.detectors.timing_bluetooth import BluetoothTimingDetector
from repro.core.detectors.timing_zigbee import ZigbeeTimingDetector
from repro.core.detectors.timing_microwave import MicrowaveTimingDetector
from repro.core.detectors.phase_dbpsk import DbpskPhaseDetector
from repro.core.detectors.phase_gfsk import GfskPhaseDetector
from repro.core.detectors.freq_bluetooth import BluetoothFrequencyDetector
from repro.core.detectors.cp_ofdm import OfdmCyclicPrefixDetector

__all__ = [
    "Classification",
    "Detector",
    "WifiSifsTimingDetector",
    "WifiDifsTimingDetector",
    "BluetoothTimingDetector",
    "ZigbeeTimingDetector",
    "MicrowaveTimingDetector",
    "DbpskPhaseDetector",
    "GfskPhaseDetector",
    "BluetoothFrequencyDetector",
    "OfdmCyclicPrefixDetector",
]
