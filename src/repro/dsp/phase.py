"""Phase extraction and analysis (Section 3.3).

The phase detectors all build on the same primitives: per-sample phase (one
``arctan`` per sample, as the paper emphasizes), its first derivative (which
carries the CFO plus modulation), its second derivative (zero for
continuous-phase schemes like GFSK/GMSK), and a phase-jump histogram that
estimates the PSK constellation order.
"""

from __future__ import annotations

import numpy as np


def instantaneous_phase(samples: np.ndarray) -> np.ndarray:
    """Per-sample phase in radians, in (-pi, pi]."""
    return np.angle(np.asarray(samples))


def phase_derivative(samples: np.ndarray) -> np.ndarray:
    """First difference of phase, wrapped to (-pi, pi].

    Computed as ``angle(x[n] * conj(x[n-1]))`` — one complex conjugation,
    multiplication and arctan per sample, exactly the cost the paper quotes
    for GFSK detection.  Output has length ``len(samples) - 1``.
    """
    x = np.asarray(samples)
    if x.size < 2:
        return np.zeros(0, dtype=np.float64)
    return np.angle(x[1:] * np.conj(x[:-1]))


def phase_second_derivative(samples: np.ndarray) -> np.ndarray:
    """Second difference of phase, wrapped to (-pi, pi]."""
    d1 = phase_derivative(samples)
    if d1.size < 2:
        return np.zeros(0, dtype=np.float64)
    d2 = np.diff(d1)
    # wrap back into (-pi, pi]: a trick on float64 phase differences,
    # not an IQ buffer
    return np.angle(np.exp(1j * d2))  # rfdump: noqa[RFD202]


def estimate_cfo(samples: np.ndarray, sample_rate: float) -> float:
    """Estimate carrier-frequency offset from the median phase derivative.

    The frequency offset between the monitored band's center and the
    signal's center contributes a constant to the first derivative of
    phase; the median is robust to the modulation's symbol transitions.
    Returns the offset in Hz.
    """
    d1 = phase_derivative(samples)
    if d1.size == 0:
        return 0.0
    return float(np.median(d1)) * sample_rate / (2.0 * np.pi)


def phase_histogram(phase_values: np.ndarray, nbins: int = 16) -> np.ndarray:
    """Histogram of angles over (-pi, pi] with ``nbins`` equal bins."""
    if nbins <= 0:
        raise ValueError("nbins must be positive")
    counts, _ = np.histogram(
        np.asarray(phase_values), bins=nbins, range=(-np.pi, np.pi)
    )
    return counts


def count_constellation_points(
    phase_jumps: np.ndarray,
    nbins: int = 16,
    occupancy_threshold: float = 0.05,
) -> int:
    """Estimate the number of distinct phase-jump values (Figure 4).

    For differential PSK the symbol-to-symbol phase jumps *are* the
    information, so the number of occupied histogram bins estimates the
    constellation order: DBPSK fills ~2 clusters (0, pi), DQPSK ~4.

    A bin counts as occupied when it holds more than
    ``occupancy_threshold`` of the mass; adjacent occupied bins are merged
    into one cluster so a cluster straddling a bin edge is not counted
    twice (the +/-pi wrap is treated as adjacent).
    """
    jumps = np.asarray(phase_jumps)
    if jumps.size == 0:
        return 0
    counts = phase_histogram(jumps, nbins=nbins).astype(np.float64)
    occupied = counts / jumps.size > occupancy_threshold
    if not occupied.any():
        return 0
    if occupied.all():
        return 1  # a uniform smear is one "cluster" (i.e. not PSK-like)
    # Count runs of occupied bins on a circular histogram.
    transitions = np.logical_and(occupied, ~np.roll(occupied, 1))
    return int(np.count_nonzero(transitions))


def remove_cfo(samples: np.ndarray, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """Mix ``samples`` down by ``cfo_hz`` to center the signal at DC."""
    x = np.asarray(samples)
    n = np.arange(x.size, dtype=np.float64)
    # the mixing oscillator stays float64 so the phase ramp is accurate
    # over long buffers; decoders re-cast at the boundary
    return x * np.exp(-2j * np.pi * cfo_hz * n / sample_rate)  # rfdump: noqa[RFD202]
