"""Component-level fault injection: crashing detectors and analyzers.

Where :mod:`repro.faults.injectors` damages the *stream*, these wrappers
damage the *pipeline components* processing it — a per-protocol fast
detector that raises mid-classify, an analyzer whose worker throws,
stalls, or takes its whole process down.  All of them are deterministic:
faults fire on explicit call indices (``at=``) or on every call
(``at=None``), never on a wall clock or ambient RNG.

The decoder wrappers are picklable (plain attributes, module-level
classes) so they ride into :class:`~repro.core.analysis_stage.AnalysisStage`
process workers unchanged.  Note that call counting is per process: in a
process pool each worker counts its own calls.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional, Sequence

from repro.core.detectors.base import Detector


class InjectedFault(RuntimeError):
    """The exception every injected component fault raises.

    Deliberately *not* an :class:`~repro.errors.RFDumpError`: injected
    faults model buggy third-party components, and the error-policy
    layer must handle arbitrary exceptions, not just well-behaved ones.
    """


def _hit(at: Optional[frozenset], call_index: int) -> bool:
    return at is None or call_index in at


def _normalize_at(at) -> Optional[frozenset]:
    if at is None:
        return None
    return frozenset(int(i) for i in at)


class CrashingDetector(Detector):
    """A fast detector that raises on selected ``classify`` calls.

    Wraps a real detector (delegating protocol/kind and the healthy-call
    behavior) or stands alone as a detector that finds nothing.  With
    ``at=None`` every call crashes — the shape that trips the circuit
    breaker.
    """

    def __init__(self, wrapped: Optional[Detector] = None,
                 at: Optional[Sequence[int]] = (0,),
                 protocol: str = "wifi", kind: str = "timing"):
        self.wrapped = wrapped
        self.at = _normalize_at(at)
        self.calls = 0
        self.crashes = 0
        self.protocol = wrapped.protocol if wrapped is not None else protocol
        self.kind = wrapped.kind if wrapped is not None else kind

    @property
    def name(self) -> str:
        inner = self.wrapped.name if self.wrapped is not None else "none"
        return f"CrashingDetector[{inner}]"

    def classify(self, detection, buffer):
        index = self.calls
        self.calls += 1
        if _hit(self.at, index):
            self.crashes += 1
            raise InjectedFault(
                f"injected detector crash (call {index})"
            )
        if self.wrapped is not None:
            return self.wrapped.classify(detection, buffer)
        return []


class CrashingDecoder:
    """An analyzer whose ``scan`` raises on selected calls.

    ``only_in_worker=True`` limits the crash to non-main threads and
    child processes, so the inline fallback path re-decodes cleanly —
    the worker-crash fault the degrade policy must absorb without
    losing packets.
    """

    def __init__(self, wrapped=None, at: Optional[Sequence[int]] = None,
                 only_in_worker: bool = True):
        self.wrapped = wrapped
        self.at = _normalize_at(at)
        self.only_in_worker = only_in_worker
        self.calls = 0
        self._parent_pid = os.getpid()

    def _in_worker(self) -> bool:
        if os.getpid() != self._parent_pid:
            return True
        return threading.current_thread() is not threading.main_thread()

    def scan(self, buffer, **kwargs):
        index = self.calls
        self.calls += 1
        if _hit(self.at, index) and (
                not self.only_in_worker or self._in_worker()):
            raise InjectedFault(f"injected worker crash (call {index})")
        if self.wrapped is not None:
            return self.wrapped.scan(buffer, **kwargs)
        return []


class PoolKillerDecoder:
    """An analyzer that kills its *process* on selected worker calls.

    ``os._exit`` from inside a process-pool worker takes the process
    down without cleanup — exactly how a segfaulting native demodulator
    presents — and the executor surfaces it as ``BrokenProcessPool``.
    In the parent (inline fallback) it decodes normally, so a degrade
    run still produces every packet.
    """

    def __init__(self, wrapped=None, at: Optional[Sequence[int]] = None):
        self.wrapped = wrapped
        self.at = _normalize_at(at)
        self.calls = 0
        self._parent_pid = os.getpid()

    def scan(self, buffer, **kwargs):
        index = self.calls
        self.calls += 1
        if os.getpid() != self._parent_pid and _hit(self.at, index):
            os._exit(13)
        if self.wrapped is not None:
            return self.wrapped.scan(buffer, **kwargs)
        return []


class SlowDecoder:
    """An analyzer that stalls for ``delay`` seconds on selected worker
    calls — the slow-worker fault the per-range timeout exists for.

    With ``hang=True`` the stall is *unbounded*: selected calls block
    until :meth:`release` is called — the permanently-stalled
    demodulator the deadline layer must shed rather than wait out.
    Tests must call :meth:`release` during teardown; the abandoned
    worker thread otherwise blocks pool shutdown and interpreter exit.
    ``hang`` mode carries a :class:`threading.Event`, so it is
    thread-backend only (unpicklable); ``hang=False`` instances stay
    picklable for process pools.
    """

    def __init__(self, wrapped=None, delay: float = 1.0,
                 at: Optional[Sequence[int]] = None,
                 only_in_worker: bool = True,
                 hang: bool = False):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.wrapped = wrapped
        self.delay = delay
        self.at = _normalize_at(at)
        self.only_in_worker = only_in_worker
        self.hang = hang
        self.calls = 0
        self.stalls = 0
        self._parent_pid = os.getpid()
        self._release = threading.Event() if hang else None

    def release(self) -> None:
        """Unblock every hung call (no-op unless ``hang=True``)."""
        if self._release is not None:
            self._release.set()

    def _in_worker(self) -> bool:
        if os.getpid() != self._parent_pid:
            return True
        return threading.current_thread() is not threading.main_thread()

    def scan(self, buffer, **kwargs):
        index = self.calls
        self.calls += 1
        if _hit(self.at, index) and (
                not self.only_in_worker or self._in_worker()):
            self.stalls += 1
            if self._release is not None:
                self._release.wait()
            else:
                time.sleep(self.delay)
        if self.wrapped is not None:
            return self.wrapped.scan(buffer, **kwargs)
        return []
