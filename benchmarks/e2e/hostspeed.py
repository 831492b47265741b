"""A probe of how fast the host is right now, and the reference it is held to.

The benchmark runs on a few virtual cores of a shared host whose speed
flips between a fast and a slow state (about 1 : 1.5, whatever the
code) every few tenths of a second to tens of seconds.  ``process_time``
moves with wall time, so it is the core being slowed, not the process
being descheduled; identical passes differ by 50%, and the median of an
18 s run still differs by 20-30% from the next run's.  No run length
the driver's time limit allows averages that out.

What does: :func:`probe` times a fixed piece of work that has nothing to
do with the program under test - a Python loop of small numpy calls,
FFTs and correlations on cache-resident arrays, the same kinds of
operation the pipeline's hot paths are made of, so the host's slow state
slows both alike (measured: a pass and its probes keep the same ratio in
either state).  Every pass is bracketed by a probe just before its
first byte and one just after its ``eos``, and its timings are restated
at the speed at which the probe takes :data:`REFERENCE_S`.  Passes are
kept short (about a second) so that the two probes mostly see the state
the pass ran in, and the median over the passes of a run discards the
ones that straddled a flip.  Ten 22 s runs of the same code then spread
3-8% (inter-quartile distance / median) where their raw timings spread
11-31%; the README has the table.

A change to the program moves the passes and not the probe, so gains and
regressions show in full.  A probe takes 20-30 ms and runs on the load
generator's main thread while the daemon is idle.
"""

from __future__ import annotations

import time

import numpy as np

#: What one probe takes on the host this benchmark was built on, in its
#: quieter moods.  Only a scale: metrics are stated as if every probe
#: took this long.
REFERENCE_S = 0.020

_rng = np.random.default_rng(0)
_IQ = (_rng.standard_normal(1 << 16)
       + 1j * _rng.standard_normal(1 << 16)).astype(np.complex64)
_TEMPLATE = np.array([1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1] * 2,
                     dtype=np.complex64)


def probe() -> float:
    """Seconds the fixed work takes on this host, now."""
    t0 = time.perf_counter()
    # interpreter-bound: many small array calls, as in timing acquisition
    # and SFD search
    level = 0.0
    for start in range(0, 44 * 1400, 44):
        level += float(np.abs(_IQ[start:start + 44]).mean())
    # numeric kernels on L2-resident arrays, as in despreading and
    # channelisation
    for start in range(0, 1 << 16, 1 << 13):
        np.abs(np.convolve(_IQ[start:start + (1 << 13)], _TEMPLATE,
                           mode="valid"))
    for _ in range(5):
        np.fft.fft(_IQ)
    return time.perf_counter() - t0


def host_speed(probe_s: float) -> float:
    """The host's speed as a multiple of the reference (> 1 is faster).

    A duration measured while a probe took ``probe_s``, multiplied by
    this, is what it would have been at the reference speed.
    """
    return REFERENCE_S / probe_s
