"""Fractional-rate sample generation helpers.

The USRP samples the 22 MHz-wide 802.11 signal at only 8 Msps, so chip
boundaries do not align with sample boundaries (the paper's "uneven 11:8
ratio").  We reproduce that by synthesizing chip streams and then *sampling*
them at the capture rate via fractional indexing, rather than pretending the
rates divide.
"""

from __future__ import annotations

import numpy as np


def fractional_indices(n_out: int, rate_in: float, rate_out: float,
                       phase: float = 0.0) -> np.ndarray:
    """Indices into a ``rate_in`` stream for ``n_out`` samples at ``rate_out``.

    ``phase`` is an initial offset in input-stream units (fractions of an
    input sample), modelling arbitrary timing alignment between transmitter
    chips and receiver samples.
    """
    if rate_in <= 0 or rate_out <= 0:
        raise ValueError("rates must be positive")
    if n_out < 0:
        raise ValueError("n_out must be non-negative")
    return np.floor(phase + np.arange(n_out) * (rate_in / rate_out)).astype(np.int64)


def sample_held(values: np.ndarray, n_out: int, rate_in: float, rate_out: float,
                phase: float = 0.0) -> np.ndarray:
    """Zero-order-hold resample of ``values`` from ``rate_in`` to ``rate_out``.

    Indices past the end of ``values`` hold the final value, so the caller
    can size ``n_out`` by duration without off-by-one anxiety.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    idx = fractional_indices(n_out, rate_in, rate_out, phase)
    return values[np.minimum(idx, values.size - 1)]
