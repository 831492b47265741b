"""Shared fixtures: rendered scenarios are expensive, so they are cached
at session scope and treated as read-only by tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

#: ``--hypothesis-profile=seam`` (CI's seam step): the partition property
#: of ``tests/test_core_streaming.py`` at 2,000 examples instead of 200
settings.register_profile("seam", max_examples=2_000)

from repro import (
    BluetoothL2PingSession,
    RFDumpMonitor,
    Scenario,
    WifiPingSession,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def wifi_trace():
    """A short 802.11 unicast-ping trace at comfortable SNR."""
    scenario = Scenario(duration=0.08, seed=7)
    scenario.add(WifiPingSession(n_pings=3, snr_db=20.0, interval=22e-3, seed=3))
    return scenario.render()


@pytest.fixture(scope="session")
def bluetooth_trace():
    """An l2ping trace long enough to land a few packets in band."""
    scenario = Scenario(duration=0.4, seed=8)
    scenario.add(
        BluetoothL2PingSession(n_pings=50, snr_db=20.0, interval_slots=12)
    )
    return scenario.render()


@pytest.fixture(scope="session")
def mixed_trace():
    """Wi-Fi + Bluetooth simultaneously (the Table 3 shape, miniature)."""
    scenario = Scenario(duration=0.3, seed=9)
    scenario.add(WifiPingSession(n_pings=8, snr_db=20.0, interval=30e-3, seed=4))
    scenario.add(
        BluetoothL2PingSession(n_pings=40, snr_db=20.0, interval_slots=12)
    )
    return scenario.render()


@pytest.fixture(scope="session")
def wifi_report(wifi_trace):
    """RFDump full-pipeline report over the Wi-Fi trace."""
    return RFDumpMonitor().process(wifi_trace.buffer)
