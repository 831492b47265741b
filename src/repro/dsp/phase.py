"""Phase extraction (Section 3.3).

The phase detectors build on one primitive: the first derivative of
per-sample phase, which carries the CFO plus modulation (one ``arctan``
per sample, as the paper emphasizes).
"""

from __future__ import annotations

import numpy as np


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
