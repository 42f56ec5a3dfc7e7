"""Pairwise time-difference-of-arrival estimation with subsample refinement.

All time windows of all channels are transformed in one pass, as the rows of
a (channels x windows, window_len) matrix, and band-gated by copying out the
band's bins, after which the full spectra are freed. The estimator chain
cross_power -> phat_weight -> correlate_many then runs once over every pair
of every window, followed by one integer-grid argmax per row, restricted
to the pair's feasible lags, and one vectorised least-squares quadratic fit
over a 6-point window around each peak whose vertex (-b / 2a) supplies the
subsample correction. A single pair takes this path as a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dsp, geometry
from .dsp import MultichannelRecording, Spectrum
from .errors import NoSignalError
from .geometry import MicArray, PropagationModel

MAX_LAG_SLACK = 1.2
MIN_WINDOW_SAMPLES = 1024
DEFAULT_NUM_WINDOWS = 2


class PairDelay(NamedTuple):
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


@dataclass(frozen=True, eq=False)
class DelayVector:
    """Pairwise delays for one array across time windows: ``delays``,
    ``peak_scores`` and ``low_confidence`` each hold one row per window and
    one column per pair of ``pairs``."""

    pairs: tuple[tuple[int, int], ...]
    delays: np.ndarray
    peak_scores: np.ndarray
    low_confidence: np.ndarray
    source_array: str

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(map(tuple, self.pairs)))
        for name in ("delays", "peak_scores", "low_confidence"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        shape = self.delays.shape[:1] + (len(self.pairs),)
        if not self.delays.size or not self.delays.shape \
                == self.peak_scores.shape == self.low_confidence.shape == shape:
            raise ValueError("delays, peak_scores and low_confidence must each "
                             f"be a non-empty (windows, {len(self.pairs)}) array")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError(f"duplicate pairs in {self.pairs}")
        if not (np.isfinite(self.delays).all()
                and np.isfinite(self.peak_scores).all()):
            raise ValueError("delays and peak_scores must be finite")

    @property
    def num_windows(self) -> int:
        return self.delays.shape[0]

    @property
    def entries(self) -> tuple[PairDelay, ...]:
        """One record per (window, pair), window-major."""
        rows = zip(self.delays.tolist(), self.peak_scores.tolist(),
                   self.low_confidence.tolist())
        return tuple(PairDelay(pair, d, s, w, low) for w, row in enumerate(rows)
                     for pair, d, s, low in zip(self.pairs, *row))


def _parabola_stencils() -> np.ndarray:
    """Least-squares fits of f(t) = a t^2 + b t + c, as (3, 6) matrices that
    map the samples at t = -2 .. 3 about a peak to (a, b, c): over all six,
    over t = -2 .. 2, and over t = -1 .. 1."""
    t = np.arange(-2, 4)
    stencils = np.zeros((3, 3, t.size))
    for stencil, k in zip(stencils, (3, 2, 1)):
        used = np.abs(t) <= k
        stencil[:, used] = np.linalg.pinv(np.vander(t[used], 3))
    return stencils


_PARABOLA_STENCILS = _parabola_stencils()


def quadratic_peak_offset(values: np.ndarray, peak: int | np.ndarray) -> tuple:
    """Subsample offset of a discrete peak via a least-squares parabola,
    row by row: ``values`` has shape (..., n) and ``peak`` one index per row.

    Fits f(t) = a t^2 + b t + c over the six samples at indices
    peak-2 .. peak+3 (t counted from the peak) and returns the vertex
    -b / 2a, clamped to [-1, +1] grid steps. Near a boundary the window
    shrinks symmetrically, down to 3 points.

    Returns (offset_in_steps, value_at_vertex, concave), each with the
    shape of ``peak``: floats for one row. A non-concave fit falls back to
    offset 0 with the discrete peak value.
    """
    values = np.asarray(values, dtype=float)
    peak = np.asarray(peak)
    n = values.shape[-1]
    positions = peak[..., None] + np.arange(-2, 4)
    room = np.minimum(peak, n - 1 - peak)
    fit = np.where(room >= 2, np.where(peak + 3 < n, 0, 1), 2)
    np.clip(positions, 0, n - 1, out=positions)
    window = np.take_along_axis(values, positions, axis=-1)
    a, b, c = np.moveaxis(
        np.matmul(_PARABOLA_STENCILS[fit], window[..., None])[..., 0], -1, 0)
    concave = np.isfinite(a) & (a < 0) & (room >= 1)
    a = np.where(concave, a, -1.0)
    offset = np.where(concave, np.clip(-b / (2.0 * a), -1.0, 1.0), 0.0)
    vertex_value = np.where(concave, c - b * b / (4.0 * a), window[..., 2])
    return offset[()], vertex_value[()], concave[()]


REFINE_MARGIN = 3


def _pair_delays(spectra: Spectrum, first: np.ndarray, second: np.ndarray,
                 max_lags: np.ndarray, upsample_factor: int, refine: bool,
                 band_hz: tuple[float, float] | None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delays, peak scores, concave flags) for every pair of spectrum rows
    ``first[w, p]``, ``second[w, p]``: band gate, then cross-power and PHAT
    over all the pair rows, one batched correlation over a lag window shared
    by all of them, an argmax within pair p's own max lag ``max_lags[p]``
    and one vectorised peak fit."""
    if band_hz is not None:  # gating a channel gates its every product
        # rebinding drops the last reference to the full spectra
        spectra = dsp.band_limit(spectra, *band_hz)
    g = dsp.cross_power(spectra.rows(first), spectra.rows(second))
    if not np.all(np.any(g.bins, axis=-1)):
        raise NoSignalError("no cross-power energy inside the band")
    phi = dsp.phat_weight(g)
    del g  # released before the lag evaluation, which sets the peak memory

    lag_spacing = 1.0 / (phi.bin_spacing * phi.origin_length * upsample_factor)
    support = dsp.correlation_support_steps(phi.origin_length, upsample_factor)
    steps = np.floor(np.asarray(max_lags) / lag_spacing)
    if np.any(steps > support):
        raise ValueError(
            f"max_lag {max(max_lags)} s exceeds the correlation support "
            f"({support * lag_spacing} s)")
    steps = np.maximum(steps.astype(int), 1)
    shared = min(int(steps.max()) + REFINE_MARGIN, support)
    values = dsp.correlate_many(phi, upsample_factor, max_lag_steps=shared)
    lags = np.abs(np.arange(-shared, shared + 1))
    peak = np.argmax(np.where(lags <= steps[:, None], values, -np.inf), axis=-1)
    if refine:
        offset, score, concave = quadratic_peak_offset(values, peak)
    else:
        offset, concave = 0.0, np.ones(peak.shape, dtype=bool)
        score = np.take_along_axis(values, peak[..., None], axis=-1)[..., 0]
    return (peak - shared + offset) * lag_spacing, score, concave


def estimate_pair_delay(rec: MultichannelRecording, max_lag: float,
                        upsample_factor: int = dsp.DEFAULT_UPSAMPLE,
                        refine: bool = True,
                        band_hz: tuple[float, float] | None = None) -> PairDelay:
    """Estimate the delay of a two-channel recording's channel 2 relative
    to its channel 1 (seconds).

    Positive delay means channel 1 leads. The search is restricted to
    |lag| <= max_lag; choose max_lag from the pair baseline
    (``geometry.pair_baseline`` / c * ``MAX_LAG_SLACK``) when geometry is
    known. Pass ``band_hz`` for
    band-limited content so whitening ignores empty bins. The result is
    labelled pair (0, 1), window 0.
    """
    if rec.num_channels != 2:
        raise ValueError(f"need a two-channel recording, got {rec.num_channels}")
    if not max_lag > 0:
        raise ValueError(f"max_lag must be positive, got {max_lag}")
    nfft = dsp.correlation_fft_length(rec.num_samples)
    [[delay]], [[score]], [[concave]] = _pair_delays(
        dsp.real_spectrum(rec, nfft), np.array([[0]]), np.array([[1]]),
        [max_lag], upsample_factor, refine, band_hz)
    # fields in order: pair, delay, peak score, window, low confidence
    return PairDelay((0, 1), float(delay), float(score), 0, not concave)


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
    geometry.check_channels(array, rec.num_channels)
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
    nfft = dsp.correlation_fft_length(window_len)
    # row c * num_windows + w holds window w of channel c
    rows = rec.samples[:, :num_windows * window_len].reshape(-1, window_len)
    first, second = np.array(pairs).T
    windows = np.arange(num_windows)[:, None]
    # no reference to the full spectra is kept here, so the band gate frees
    # them
    delays, scores, concave = _pair_delays(
        dsp.real_spectrum(MultichannelRecording(rows, rec.sample_rate), nfft),
        first * num_windows + windows, second * num_windows + windows,
        geometry.pair_baseline(array, pairs) / model.speed_of_sound
        * MAX_LAG_SLACK, upsample_factor, refine, band_hz)
    # fields in order: pairs, delays, peak scores, low confidence, array
    return DelayVector(tuple(pairs), delays, scores, ~concave, array.id)
