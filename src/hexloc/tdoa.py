"""Pairwise time-difference-of-arrival estimation with subsample refinement.

Each time window's channel matrix is transformed once and band-gated once,
keeping only the band's bins; the estimator chain cross_power -> phat_weight
-> correlate_many then runs on those bins over the whole pair table at once,
followed per pair by an integer-grid argmax restricted to feasible lags and a
least-squares quadratic fit over a 6-point window around the peak whose vertex
(-b / 2a) supplies the subsample correction. A single pair takes this path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dsp, geometry
from .dsp import CorrelationFunction, MultichannelRecording, RealSignal, Spectrum
from .errors import NoSignalError
from .geometry import MicArray, PropagationModel

MAX_LAG_SLACK = 1.2
MIN_WINDOW_SAMPLES = 1024
DEFAULT_NUM_WINDOWS = 2


@dataclass(frozen=True)
class PairDelay:
    """One measured delay for an ordered element pair, in seconds.

    ``low_confidence`` marks estimates whose quadratic fit was non-concave
    (or could not be formed), i.e. the subsample correction fell back to the
    integer-grid peak.
    """

    pair: tuple[int, int]
    delay: float
    peak_score: float
    window_index: int = 0
    low_confidence: bool = False

    def __post_init__(self):
        if not np.isfinite(self.delay) or not np.isfinite(self.peak_score):
            raise ValueError("delay and peak_score must be finite")


@dataclass(frozen=True)
class DelayVector:
    """Stacked pairwise delays for one array across time windows."""

    entries: tuple[PairDelay, ...]
    source_array: str
    num_windows: int = 1

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for e in self.entries:
            key = (e.pair, e.window_index)
            if key in seen:
                raise ValueError(f"duplicate delay entry for {key}")
            seen.add(key)


def quadratic_peak_offset(values: np.ndarray, peak: int,
                          circular: bool = False) -> tuple[float, float, bool]:
    """Subsample offset of a discrete peak via a least-squares parabola.

    Fits f(t) = a t^2 + b t + c over the six samples at indices
    peak-2 .. peak+3 (t centered for conditioning) and converts the vertex
    -b / 2a back to an offset from ``peak``, clamped to [-1, +1] grid steps.
    Near a boundary the window shrinks symmetrically, down to 3 points.

    Returns (offset_in_steps, value_at_vertex, concave). A non-concave fit
    falls back to offset 0 with the discrete peak value.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if circular:
        positions = np.arange(peak - 2, peak + 4)
        window = values[positions % n]
    else:
        if peak - 2 >= 0 and peak + 3 < n:
            positions = np.arange(peak - 2, peak + 4)
        else:
            k = min(peak, n - 1 - peak, 2)
            if k < 1:
                return 0.0, float(values[peak]), False
            positions = np.arange(peak - k, peak + k + 1)
        window = values[positions]
    t = positions - positions.mean()
    a, b, c = np.polyfit(t, window, 2)
    if a >= 0 or not np.isfinite(a):
        return 0.0, float(values[peak]), False
    vertex_t = -b / (2.0 * a)
    offset = float(np.clip(vertex_t + (positions.mean() - peak), -1.0, 1.0))
    vertex_value = float(c - b * b / (4.0 * a))
    return offset, vertex_value, True


def refine_peak(corr: CorrelationFunction, peak_index: int) -> tuple[float, bool]:
    """Refine a discrete correlation peak to a subsample lag in seconds.

    Returns (lag_seconds, concave); a non-concave quadratic fit keeps the
    integer-grid lag and reports False so callers can flag low confidence.
    """
    if not 0 <= peak_index < corr.values.size:
        raise ValueError(f"peak_index {peak_index} out of range")
    offset, _, ok = quadratic_peak_offset(corr.values, peak_index)
    lag = (peak_index - corr.center + offset) * corr.lag_spacing
    return float(lag), ok


REFINE_MARGIN = 3


def _pick_peak(corr, max_steps: int, refine: bool, pair: tuple[int, int],
               window_index: int) -> PairDelay:
    lo = corr.center - max_steps
    window = corr.values[lo: corr.center + max_steps + 1]
    peak = int(np.argmax(window)) + lo
    if refine:
        offset, score, ok = quadratic_peak_offset(corr.values, peak)
    else:
        offset, score, ok = 0.0, float(corr.values[peak]), True
    delay = (peak - corr.center + offset) * corr.lag_spacing
    return PairDelay(pair=pair, delay=float(delay), peak_score=score,
                     window_index=window_index, low_confidence=not ok)


def _pair_delays(spectra: Spectrum, pairs: list[tuple[int, int]],
                 max_lags: list[float], upsample_factor: int, refine: bool,
                 window_index: int,
                 band_hz: tuple[float, float] | None) -> list[PairDelay]:
    """Delays for channel pairs of one window, given the window's stacked
    channel spectra: band gate, then cross-power and PHAT over the pair
    table, then one batched correlation over a lag window shared by all
    pairs, each searched within its own max lag."""
    if band_hz is not None:  # gating a channel gates its every product
        spectra = dsp.band_limit(spectra, *band_hz).trimmed()
    first, second = np.array(pairs).T
    g = dsp.cross_power(spectra.rows(first), spectra.rows(second))
    if band_hz is not None and not np.all(np.any(g.bins, axis=-1)):
        raise NoSignalError("no cross-power energy inside the band")
    phi = dsp.phat_weight(g)
    del g  # released before the lag evaluation, which sets the peak memory

    lag_spacing = 1.0 / (phi.bin_spacing * phi.origin_length * upsample_factor)
    support = dsp.correlation_support_steps(phi.origin_length, upsample_factor)
    steps = []
    for max_lag in max_lags:
        max_steps = int(np.floor(max_lag / lag_spacing))
        if max_steps > support:
            raise ValueError(
                f"max_lag {max_lag} s exceeds the correlation support "
                f"({support * lag_spacing} s)")
        steps.append(max(max_steps, 1))
    shared = min(max(steps) + REFINE_MARGIN, support)
    corrs = dsp.correlate_many(phi, upsample_factor, max_lag_steps=shared)
    return [_pick_peak(corr, max_steps, refine, pair, window_index)
            for pair, corr, max_steps in zip(pairs, corrs, steps)]


def estimate_pair_delay(x1: RealSignal, x2: RealSignal, max_lag: float,
                        upsample_factor: int = dsp.DEFAULT_UPSAMPLE,
                        refine: bool = True,
                        pair: tuple[int, int] = (0, 1),
                        window_index: int = 0,
                        band_hz: tuple[float, float] | None = None) -> PairDelay:
    """Estimate the delay of channel 2 relative to channel 1 (seconds).

    Positive delay means channel 1 leads. The search is restricted to
    |lag| <= max_lag; choose max_lag from the pair baseline
    (baseline / c * 1.2) when geometry is known. Pass ``band_hz`` for
    band-limited content so whitening ignores empty bins.
    """
    if x1.samples.size != x2.samples.size or x1.sample_rate != x2.sample_rate:
        raise ValueError("signals must share length and sample rate")
    if not max_lag > 0:
        raise ValueError(f"max_lag must be positive, got {max_lag}")
    dsp.ensure_signal_present(x1, x2)
    nfft = dsp.correlation_fft_length(x1.samples.size)
    spectra = dsp.real_spectrum(MultichannelRecording(
        np.stack([x1.samples, x2.samples]), x1.sample_rate), nfft)
    [delay] = _pair_delays(spectra, [(0, 1)], [max_lag], upsample_factor,
                           refine, window_index, band_hz)
    return replace(delay, pair=pair)


def default_max_lag(array: MicArray, pair: tuple[int, int],
                    model: PropagationModel) -> float:
    """Physically feasible lag bound for a pair: baseline / c times slack."""
    return geometry.pair_baseline(array, pair) / model.speed_of_sound * MAX_LAG_SLACK


def expand_delay_features(rec: MultichannelRecording, array: MicArray,
                          num_windows: int = DEFAULT_NUM_WINDOWS,
                          upsample_factor: int = dsp.DEFAULT_UPSAMPLE,
                          model: PropagationModel | None = None,
                          refine: bool = True,
                          band_hz: tuple[float, float] | None = None) -> DelayVector:
    """All-pairs delay vector over equal non-overlapping time windows.

    A six-channel recording yields C(6,2) = 15 pairwise delays per window,
    stacked across ``num_windows`` windows into a single feature vector.
    Per-pair max-lag gating rejects physically impossible delays.
    """
    if rec.num_channels != array.num_elements:
        raise ValueError(
            f"recording has {rec.num_channels} channels, "
            f"array has {array.num_elements} elements")
    if num_windows < 1:
        raise ValueError(f"num_windows must be >= 1, got {num_windows}")
    window_len = rec.num_samples // num_windows
    if window_len < MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"recording too short: {num_windows} windows of {window_len} "
            f"samples (need >= {MIN_WINDOW_SAMPLES})")
    if model is None:
        model = PropagationModel(sample_rate=rec.sample_rate)

    pairs = geometry.mic_pairs(array.num_elements)
    max_lags = [default_max_lag(array, pair, model) for pair in pairs]
    nfft = dsp.correlation_fft_length(window_len)
    entries = []
    for w in range(num_windows):
        seg = rec.samples[:, w * window_len:(w + 1) * window_len]
        if not np.any(seg):
            raise NoSignalError(f"window {w} is all zeros")
        spectra = dsp.real_spectrum(MultichannelRecording(seg, rec.sample_rate),
                                    nfft)
        entries.extend(_pair_delays(spectra, pairs, max_lags, upsample_factor,
                                    refine, w, band_hz))
    return DelayVector(entries=tuple(entries), source_array=array.id,
                       num_windows=num_windows)
