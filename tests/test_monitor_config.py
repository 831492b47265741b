"""Tests for MonitorConfig, the Monitor protocol and make_monitor."""

import dataclasses

import pytest

from repro import Monitor, MonitorConfig, make_monitor
from repro.core import EnergyNaiveMonitor, NaiveMonitor, RFDumpMonitor
from repro.core.config import PROTOCOLS, resolve_monitor_config
from repro.core.monitor import MONITOR_NAMES
from repro.core.streaming import StreamingMonitor
from repro.errors import ConfigurationError


class TestMonitorConfig:
    def test_defaults(self):
        cfg = MonitorConfig()
        assert cfg.protocols == ("wifi", "bluetooth")
        assert cfg.kinds == ("timing", "phase")
        assert cfg.demodulate is True
        assert cfg.on_error is None
        assert cfg.obs is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MonitorConfig().demodulate = False

    def test_sequences_normalised_to_tuples(self):
        cfg = MonitorConfig(protocols=["wifi"], kinds=["timing"])
        assert cfg.protocols == ("wifi",)
        assert cfg.kinds == ("timing",)

    @pytest.mark.parametrize("bad", [
        {"sample_rate": 0},
        {"sample_rate": -8e6},
        {"on_error": "ignore"},
        {"on_error": "RAISE"},
        {"protocols": ("foo",)},
        {"protocols": ("wifi", "foo")},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            MonitorConfig(**bad)

    def test_round_trip(self):
        cfg = MonitorConfig(
            sample_rate=8e6, protocols=("zigbee",), demodulate=False,
            noise_floor=2.0, on_error="skip",
        )
        assert MonitorConfig(**cfg.to_kwargs()) == cfg

    def test_to_kwargs_emits_canonical_names_only(self):
        out = MonitorConfig(on_error="degrade").to_kwargs()
        assert set(out) == {f.name for f in dataclasses.fields(MonitorConfig)}
        assert len(out) == 9
        with pytest.raises(TypeError):
            MonitorConfig().to_kwargs(legacy=True)

    def test_every_known_protocol_has_detectors_and_a_decoder(self):
        """``PROTOCOLS`` is exactly what the pipeline can build: a name
        validation accepts never fails later, inside a pump thread."""
        from repro.analysis.decoders import make_decoder
        from repro.core.pipeline import default_detectors

        for protocol in PROTOCOLS:
            default_detectors((protocol,), ("timing", "phase", "frequency"))
            make_decoder(protocol, 8e6)
        with pytest.raises(ValueError, match="foo.*known: wifi"):
            MonitorConfig(protocols=("foo",))
        with pytest.raises(ValueError):
            default_detectors(("foo",), ("timing",))
        with pytest.raises(ValueError):
            make_decoder("foo", 8e6)

    def test_replace_revalidates(self):
        cfg = MonitorConfig()
        assert cfg.replace(on_error="skip").on_error == "skip"
        with pytest.raises(ValueError):
            cfg.replace(sample_rate=0)


class TestResolve:
    def test_kwargs_only(self):
        cfg = resolve_monitor_config(None, noise_floor=2.0)
        assert cfg.noise_floor == 2.0

    def test_config_only_passthrough(self):
        cfg = MonitorConfig(noise_floor=2.0)
        assert resolve_monitor_config(cfg) is cfg

    def test_inconsistent_mix_raises(self):
        cfg = MonitorConfig(noise_floor=2.0)
        with pytest.raises(ConfigurationError, match="noise_floor"):
            resolve_monitor_config(cfg, noise_floor=4.0)

    def test_agreeing_mix_raises_too(self):
        """One or the other: a keyword that repeats the config is still
        two sources of truth at the call site."""
        cfg = MonitorConfig(noise_floor=2.0, on_error="skip")
        with pytest.raises(ConfigurationError, match="one or the other"):
            resolve_monitor_config(cfg, noise_floor=2.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            resolve_monitor_config(None, warp_factor=9)


class TestMonitorsAcceptConfig:
    def test_rfdump_config_equivalent_to_kwargs(self):
        cfg = MonitorConfig(protocols=("wifi",), kinds=("timing",),
                            on_error="skip")
        a = RFDumpMonitor(config=cfg)
        b = RFDumpMonitor(protocols=("wifi",), kinds=("timing",),
                          on_error="skip")
        assert a.config == b.config
        assert a.protocols == b.protocols == ("wifi",)

    def test_rfdump_conflicting_mix_raises(self):
        cfg = MonitorConfig(protocols=("wifi",))
        with pytest.raises(ConfigurationError, match="protocols"):
            RFDumpMonitor(config=cfg, protocols=("bluetooth",))

    def test_naive_accepts_config(self):
        cfg = MonitorConfig(protocols=("wifi",), demodulate=False)
        monitor = NaiveMonitor(config=cfg)
        assert monitor.protocols == ("wifi",)
        assert monitor.demodulate is False

    def test_energy_accepts_config(self):
        cfg = MonitorConfig(protocols=("wifi",), noise_floor=1e-6)
        monitor = EnergyNaiveMonitor(config=cfg)
        assert monitor.noise_floor == 1e-6

    def test_streaming_builds_inner_monitor_from_config(self):
        cfg = MonitorConfig(protocols=("wifi",))
        streaming = StreamingMonitor(config=cfg)
        assert streaming.monitor.protocols == ("wifi",)

    def test_streaming_requires_monitor_or_config(self):
        with pytest.raises(ValueError):
            StreamingMonitor()


class TestMakeMonitor:
    @pytest.mark.parametrize("name,cls", [
        ("rfdump", RFDumpMonitor),
        ("naive", NaiveMonitor),
        ("energy", EnergyNaiveMonitor),
        ("streaming", StreamingMonitor),
    ])
    def test_factory_names(self, name, cls):
        monitor = make_monitor(name, MonitorConfig())
        assert isinstance(monitor, cls)
        assert isinstance(monitor, Monitor)

    def test_name_normalised(self):
        assert isinstance(make_monitor("  RFDump "), RFDumpMonitor)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError) as err:
            make_monitor("quantum")
        for name in MONITOR_NAMES:
            assert name in str(err.value)

    def test_cli_and_factory_reach_the_same_kinds(self):
        """``rfdump`` runs its 'rfdump' choice as 'streaming'; beyond
        that, a kind is reachable from every entry point or from none."""
        from repro.tools import rfdump

        (monitor_flag,) = [action for action in rfdump.build_parser()._actions
                           if action.dest == "monitor"]
        assert set(monitor_flag.choices) | {"streaming"} == set(MONITOR_NAMES)
        assert MONITOR_NAMES == ("energy", "naive", "rfdump", "streaming")

    def test_default_config(self):
        monitor = make_monitor("rfdump")
        assert monitor.config == MonitorConfig()

    def test_context_manager_protocol(self, wifi_trace):
        with make_monitor("rfdump", MonitorConfig(
            sample_rate=wifi_trace.sample_rate,
            center_freq=wifi_trace.center_freq,
            protocols=("wifi",),
        )) as monitor:
            report = monitor.process(wifi_trace.buffer)
        assert report.packets
