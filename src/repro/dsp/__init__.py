"""Signal-processing substrate: buffers, energy, phase, filters, FFT."""

from repro.dsp.samples import SampleBuffer, chunk_views, frame_view
from repro.dsp.energy import (
    moving_average_power,
    chunk_average_power,
    instant_power,
    interval_stats,
)
from repro.dsp.phase import (
    instantaneous_phase,
    phase_derivative,
    phase_second_derivative,
    phase_histogram,
    estimate_cfo,
    count_constellation_points,
)
from repro.dsp.filters import (
    fir_lowpass,
    gaussian_pulse,
    filter_signal,
)
from repro.dsp.fftutil import (
    FftPlan,
    channelize_power,
    get_plan,
    plan_cache_stats,
    reset_plan_cache,
    set_plan_cache_obs,
    spectrogram,
    spectrogram_frames,
)
from repro.dsp.resample import fractional_indices, repeat_to_rate

__all__ = [
    "SampleBuffer",
    "chunk_views",
    "frame_view",
    "moving_average_power",
    "chunk_average_power",
    "instant_power",
    "interval_stats",
    "instantaneous_phase",
    "phase_derivative",
    "phase_second_derivative",
    "phase_histogram",
    "estimate_cfo",
    "count_constellation_points",
    "fir_lowpass",
    "gaussian_pulse",
    "filter_signal",
    "FftPlan",
    "channelize_power",
    "get_plan",
    "plan_cache_stats",
    "reset_plan_cache",
    "set_plan_cache_obs",
    "spectrogram",
    "spectrogram_frames",
    "fractional_indices",
    "repeat_to_rate",
]
