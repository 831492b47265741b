"""The shared monitor interface and the one factory that builds them.

Every architecture the paper compares (Figure 1 naive, naive+energy,
the RFDump pipeline) plus its streaming driver satisfies the same
contract: ``process(buffer) -> MonitorReport``,
``events(windows) -> Iterator[PacketEvent]``, ``close()``,
context-manager.  :func:`make_monitor` maps a name to a constructor so
the CLI, the daemon and the benchmarks pick architectures through one
seam instead of per-call-site ``if/elif`` ladders.

``events()`` is the uniform streaming surface: whatever the family
(one-shot pipeline, seam-carrying streaming wrapper), consuming it
over the same windows yields the same
:class:`~repro.core.events.PacketEvent` stream — which is what lets
``rfdump --format jsonl`` and a ``rfdumpd`` subscriber diff clean.
"""

from __future__ import annotations

import abc
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.core.config import MonitorConfig

if TYPE_CHECKING:
    from repro.analysis.decoders import PacketRecord
    from repro.core.events import PacketEvent
    from repro.core.pipeline import MonitorReport


class Monitor(abc.ABC):
    """What every monitoring architecture exposes."""

    @abc.abstractmethod
    def process(self, buffer) -> "MonitorReport":
        """Run the architecture over one sample buffer."""

    def events(self, windows: Iterable, *,
               start_seq: int = 0) -> Iterator["PacketEvent"]:
        """Stream finalized packets over ``windows`` as event records.

        Processes each window in order and yields a
        :class:`~repro.core.events.PacketEvent` for every packet the
        moment it becomes *final* (for stateful monitors: once its range
        closes; for one-shot monitors: immediately).  When the window
        iterable is exhausted, what is still open is finalised and
        yielded too, so the generator ends with the stream complete.  ``seq`` numbers are consecutive from ``start_seq``.
        """
        for _, events in self.window_events(windows, start_seq=start_seq):
            yield from events

    def window_events(self, windows: Iterable, *, start_seq: int = 0
                      ) -> Iterator[Tuple[Optional["MonitorReport"],
                                          List["PacketEvent"]]]:
        """:meth:`events`, one window at a time: each window's report
        with the events it made final, then ``(None, flushed events)``."""
        from repro.core.events import PacketEvent

        sample_rate = self.config.sample_rate
        seq = start_seq
        for window in windows:
            report = self.process(window)
            records = self._final_packets(report)
            yield report, [PacketEvent.from_record(r, sample_rate, seq=seq + i)
                           for i, r in enumerate(records)]
            seq += len(records)
        yield None, [PacketEvent.from_record(r, sample_rate, seq=seq + i)
                     for i, r in enumerate(self._final_flush())]

    # -- events() hooks (stateful monitors override both) ---------------------

    def _final_packets(self, report: "MonitorReport") -> List["PacketRecord"]:
        """Packets made final by the window just processed.  One-shot
        monitors finalize everything per window; a seam-carrying monitor
        returns the packets of the ranges that closed."""
        return report.packets

    def _final_flush(self) -> List["PacketRecord"]:
        """Packets released by the end-of-stream flush (none for
        monitors that carry nothing across windows)."""
        return []

    def close(self) -> None:
        """Release any resources; no monitor here holds one."""

    def __enter__(self) -> "Monitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _make_rfdump(config: MonitorConfig, kwargs: dict):
    from repro.core.pipeline import RFDumpMonitor

    return RFDumpMonitor(config=config, **kwargs)


def _make_naive(config: MonitorConfig, kwargs: dict):
    from repro.core.naive import NaiveMonitor

    return NaiveMonitor(config=config, **kwargs)


def _make_energy(config: MonitorConfig, kwargs: dict):
    from repro.core.naive import EnergyNaiveMonitor

    return EnergyNaiveMonitor(config=config, **kwargs)


def _make_streaming(config: MonitorConfig, kwargs: dict):
    from repro.core.streaming import StreamingMonitor

    return StreamingMonitor(config=config, **kwargs)


#: name -> constructor
_FACTORIES: Dict[str, Callable[[MonitorConfig, dict], Monitor]] = {
    "rfdump": _make_rfdump,
    "naive": _make_naive,
    "energy": _make_energy,
    "streaming": _make_streaming,
}

MONITOR_NAMES = tuple(sorted(_FACTORIES))


def make_monitor(name: str, config: Optional[MonitorConfig] = None,
                 **kwargs) -> Monitor:
    """Build a monitor by architecture name.

    ``config`` carries the shared knobs (:class:`MonitorConfig`);
    remaining keyword arguments are monitor-specific extras (e.g.
    ``threshold_db=`` for the energy baseline, or ``overlap=`` for
    streaming: the cap on the samples the seam carries from one window
    into the next — a window whose open activity needs more closes its
    ranges at its end instead, as ``flush()`` does).
    """
    try:
        factory = _FACTORIES[name.lower().strip()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown monitor {name!r}; known: {', '.join(MONITOR_NAMES)}"
        ) from None
    return factory(config if config is not None else MonitorConfig(), kwargs)
