"""The unified monitor configuration: one frozen object, every monitor.

:class:`MonitorConfig` is the single seam ``RFDumpMonitor``,
``StreamingMonitor`` and the naive baselines share (and the one place
observability hangs off).  A monitor takes either a ``config=`` object
or the config's fields as keywords, never both — a daemon serving many
subscribers must not start from an ambiguous configuration.  Every
value is validated here, at construction, so a bad one surfaces before
any thread or socket exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

from repro.constants import DEFAULT_CENTER_FREQ, DEFAULT_SAMPLE_RATE
from repro.core.errorpolicy import validate_error_policy
from repro.errors import ConfigurationError
from repro.obs import Observability

#: the protocol families ``default_detectors`` and ``make_decoder`` know
PROTOCOLS = ("wifi", "bluetooth", "zigbee", "ofdm", "microwave")


@dataclass(frozen=True)
class MonitorConfig:
    """Everything shared across monitor implementations.

    Monitor-specific knobs (explicit detector instances, the energy
    baseline's chunk thresholds) stay plain constructor arguments; this
    object carries the cross-cutting ones, so a config built for the
    RFDump pipeline also configures the baselines it is compared with.
    """

    sample_rate: float = DEFAULT_SAMPLE_RATE
    center_freq: float = DEFAULT_CENTER_FREQ
    protocols: Tuple[str, ...] = ("wifi", "bluetooth")
    kinds: Tuple[str, ...] = ("timing", "phase")
    demodulate: bool = True
    noise_floor: Optional[float] = None
    #: fault policy threaded through every pipeline seam: None (legacy
    #: per-component defaults), "raise", "skip" or "degrade" — see
    #: :mod:`repro.core.errorpolicy`
    on_error: Optional[str] = None
    #: attach an observability sink (metrics registry + tracer); None
    #: runs un-instrumented.  Compared by identity, which is what "the
    #: same config" means for a stateful sink.
    obs: Optional[Observability] = None

    def __post_init__(self):
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(
                f"sample_rate must be finite and positive, got "
                f"{self.sample_rate!r}")
        if not math.isfinite(self.center_freq):
            raise ValueError(
                f"center_freq must be finite, got {self.center_freq!r}")
        unknown = [p for p in self.protocols if p not in PROTOCOLS]
        if unknown:
            raise ValueError(
                f"unknown protocol(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(PROTOCOLS)}"
            )
        validate_error_policy(self.on_error)

    def to_kwargs(self) -> Dict[str, object]:
        """The config as a keyword dict: ``MonitorConfig(**to_kwargs())``
        rebuilds it."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def replace(self, **changes) -> "MonitorConfig":
        return replace(self, **changes)


def resolve_monitor_config(config: Optional[MonitorConfig],
                           **fields) -> MonitorConfig:
    """The config a monitor constructor was given, one way or the other.

    ``fields`` are the :class:`MonitorConfig` fields a caller spelled
    out as keywords; with no ``config`` they build one (the dataclass
    rejects unknown names).  Passing both is ambiguous and raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if config is None:
        return MonitorConfig(**fields)
    if fields:
        raise ConfigurationError(
            f"monitor received both config= and field keyword(s) "
            f"{sorted(fields)}; pass one or the other"
        )
    return config
