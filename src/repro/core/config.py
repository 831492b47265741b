"""The unified monitor configuration: one frozen object, every monitor.

``RFDumpMonitor``, ``StreamingMonitor`` and the naive baselines each
grew their own keyword soup; :class:`MonitorConfig` is the single seam
they now share (and the one place observability hangs off).  Legacy
keyword *names* still resolve (``parallel_backend`` maps to
``backend``), but mixing a ``config=`` object with keywords that
*disagree* with it is an error: :func:`resolve_monitor_config` raises
:class:`~repro.errors.ConfigurationError` where earlier releases only
warned — a daemon serving many subscribers must not start from an
ambiguous configuration.  Pass one or the other.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

from repro.constants import DEFAULT_CENTER_FREQ, DEFAULT_SAMPLE_RATE
from repro.core.errorpolicy import validate_error_policy
from repro.errors import ConfigurationError
from repro.obs import Observability


class _Unset:
    """Sentinel distinguishing "not passed" from any real value."""

    def __repr__(self) -> str:
        return "<unset>"


UNSET = _Unset()

#: legacy keyword name -> MonitorConfig field
LEGACY_ALIASES: Dict[str, str] = {
    "parallel_backend": "backend",
    "parallel_granularity": "granularity",
    "parallel_timeout": "timeout",
}

_BACKENDS = ("thread", "process")
_GRANULARITIES = ("protocol", "range")


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
    decode_payload: bool = True
    noise_floor: Optional[float] = None
    workers: int = 1
    backend: str = "thread"
    granularity: str = "protocol"
    timeout: Optional[float] = None
    #: per-window latency budget in milliseconds; enables the deadline/
    #: admission layer (:mod:`repro.core.deadline`): dispatched ranges
    #: are ordered by deadline slack × confidence, analysis tasks get
    #: absolute deadlines capped by the window budget, and under
    #: sustained overload the lowest-confidence ranges are shed before
    #: demodulation.  None (the default) disables deadlines entirely.
    deadline_ms: Optional[float] = None
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
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if self.granularity not in _GRANULARITIES:
            raise ValueError(f"granularity must be one of {_GRANULARITIES}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        validate_error_policy(self.on_error)

    @classmethod
    def from_kwargs(cls, **kwargs) -> "MonitorConfig":
        """Build a config from keyword arguments, accepting the legacy
        names (``parallel_backend`` etc.) alongside the canonical ones."""
        mapped: Dict[str, object] = {}
        for key, value in kwargs.items():
            canonical = LEGACY_ALIASES.get(key, key)
            if canonical in mapped and mapped[canonical] != value:
                raise ValueError(
                    f"conflicting values for {canonical!r} "
                    f"(given via both alias and canonical name)"
                )
            mapped[canonical] = value
        known = {f.name for f in fields(cls)}
        unknown = set(mapped) - known
        if unknown:
            raise TypeError(f"unknown monitor config fields: {sorted(unknown)}")
        return cls(**mapped)

    def to_kwargs(self) -> Dict[str, object]:
        """The config as a keyword dict of canonical field names.

        (The ``legacy=True`` variant that re-emitted the pre-unification
        per-monitor keyword names is gone — internal callers consume
        :class:`MonitorConfig` objects directly now.)"""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def replace(self, **changes) -> "MonitorConfig":
        return replace(self, **changes)


def resolve_monitor_config(config: Optional[MonitorConfig],
                           **overrides) -> MonitorConfig:
    """Merge a ``config=`` object with explicitly-passed keywords.

    ``overrides`` values equal to :data:`UNSET` were not passed and are
    ignored.  With no config, the explicit keywords build one; keywords
    that *agree* with an explicit config are tolerated (a call site
    spelling out what the config already says is redundant, not wrong);
    a keyword that *disagrees* raises
    :class:`~repro.errors.ConfigurationError`.  Earlier releases let the
    keyword win under a DeprecationWarning — that grace period is over.
    """
    explicit = {k: v for k, v in overrides.items() if v is not UNSET}
    if config is None:
        return MonitorConfig.from_kwargs(**explicit)
    if not explicit:
        return config
    canonical = {LEGACY_ALIASES.get(k, k): v for k, v in explicit.items()}
    merged = config.replace(**canonical)
    clashes = sorted(
        k for k in canonical if getattr(merged, k) != getattr(config, k)
    )
    if clashes:
        raise ConfigurationError(
            f"monitor received both config= and conflicting keyword(s) "
            f"{clashes}; pass one or the other"
        )
    return config
