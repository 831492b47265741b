"""Shared fixtures: rendered scenarios are expensive, so they are cached
at session scope and treated as read-only by tests.

``pytest --sanitize`` additionally installs the runtime lock-order
sanitizer (:mod:`repro.sanitize`) for the whole session: every lock the
hub, daemon, parallel stage and observability layer create through
:mod:`repro.sanitize.hooks` becomes a recording wrapper feeding one
cumulative acquisition-order graph.  An autouse fixture
fails the test that produced any new violation (order cycle, unbounded
held-lock wait, re-acquisition), and the terminal summary prints the
observed edges so CI logs document the discipline the suite actually
exercised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BluetoothL2PingSession,
    RFDumpMonitor,
    Scenario,
    WifiPingSession,
)
from repro.sanitize import hooks as sanitize_hooks


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="install the runtime lock-order sanitizer for this session; "
             "any observed lock-order cycle, unbounded held-lock wait or "
             "re-acquisition fails the test that produced it",
    )


def pytest_configure(config):
    if config.getoption("--sanitize"):
        config._lock_sanitizer = sanitize_hooks.install()


def pytest_unconfigure(config):
    if getattr(config, "_lock_sanitizer", None) is not None:
        sanitize_hooks.uninstall()
        config._lock_sanitizer = None


@pytest.fixture(autouse=True)
def _sanitizer_check(request):
    """Attribute sanitizer violations to the test that produced them."""
    sanitizer = getattr(request.config, "_lock_sanitizer", None)
    if sanitizer is None:
        yield
        return
    before = len(sanitizer.violations)
    yield
    fresh = sanitizer.violations[before:]
    if fresh:
        pytest.fail(
            "lock-order sanitizer observed new violation(s) during this "
            "test:\n" + "\n".join(v.format() for v in fresh),
            pytrace=False,
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    sanitizer = getattr(config, "_lock_sanitizer", None)
    if sanitizer is None:
        return
    terminalreporter.section("lock-order sanitizer")
    terminalreporter.write_line(sanitizer.report().format())


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
