"""Per-array azimuth estimation.

Two estimator families share the AoA result types: a delay-vector grid
matcher (the enhanced estimator and its coarse ablation baseline) and a
wideband incoherent MUSIC scan used as a comparison method. An estimator
returns a bearing or raises AmbiguousEstimateError, never a grid angle.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dsp, geometry, tdoa
from .dsp import MultichannelRecording
from .errors import AmbiguousEstimateError, NoSignalError
from .geometry import MicArray, PropagationModel
from .tdoa import DelayVector

DEFAULT_GRID_STEP_DEG = 1.0
MUSIC_FRAME = 1024
MUSIC_HOP = 512
MUSIC_NUM_BINS = 32
COVARIANCE_LOADING = 1e-9
# scores spanning less than this share of their largest magnitude are flat:
# constant recordings span <= 3.1e-3 of it, 20 dB scenes >= 0.77
FLAT_SPREAD = 1e-2


class AoaMethod(str, enum.Enum):
    GCC_PLUS = "gcc+"
    GCC_PHAT = "gcc-phat"
    MUSIC = "music"


@dataclass(frozen=True)
class AoaSpectrum:
    """Score per azimuth over a uniform grid covering [0, 360) degrees;
    ``ambiguous`` marks the spectrum an AmbiguousEstimateError carries."""

    angles_deg: np.ndarray
    scores: np.ndarray
    method: AoaMethod
    ambiguous: bool = False

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "scores", scores)
        if angles.shape != scores.shape or angles.ndim != 1 or angles.size < 2:
            raise ValueError("angles and scores must be matching 1D grids")
        steps = np.diff(angles)
        if not np.allclose(steps, steps[0]):
            raise ValueError("azimuth grid must be uniform")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class AoaEstimate:
    """Refined azimuth in global-frame radians, [0, 2pi)."""

    azimuth: float
    method: AoaMethod
    array_id: str

    def __post_init__(self):
        object.__setattr__(self, "azimuth", float(self.azimuth) % (2.0 * math.pi))

    @property
    def azimuth_deg(self) -> float:
        return math.degrees(self.azimuth)


class CovarianceStack(NamedTuple):
    """Per-bin spatial covariance matrices from STFT snapshots."""

    matrices: np.ndarray      # (num_bins, channels, channels), Hermitian PSD
    frequencies: np.ndarray   # Hz
    snapshot_count: int


def circular_error_deg(a_deg: float, b_deg: float) -> float:
    """Smallest absolute angular difference in degrees."""
    d = abs(a_deg - b_deg) % 360.0
    return min(d, 360.0 - d)


def _bearing(angles_deg: np.ndarray, scores: np.ndarray, method: AoaMethod,
             array_id: str, doubt: str | None
             ) -> tuple[AoaSpectrum, AoaEstimate]:
    """The scored spectrum and the azimuth at its peak, refined between grid
    angles by every method but GCC-PHAT. Raises AmbiguousEstimateError naming
    the array when the scores are flat or the estimator states a ``doubt``."""
    spread = float(scores.max() - scores.min())
    if spread <= FLAT_SPREAD * float(np.abs(scores).max()):
        doubt = "the spectrum is flat"
    spectrum = AoaSpectrum(angles_deg=angles_deg, scores=scores,
                           method=method, ambiguous=doubt is not None)
    if spectrum.ambiguous:
        raise AmbiguousEstimateError(
            f"no azimuth stands out for array {array_id!r}: {doubt}",
            spectrum=spectrum)
    peak = int(np.argmax(scores))
    step = float(angles_deg[1] - angles_deg[0])
    offset = 0.0
    if method is not AoaMethod.GCC_PHAT:
        # vertex of the parabola through the peak and its two circular
        # neighbours; symmetric about the peak, so a source halfway between
        # two grid angles lands at the same azimuth whichever of the tied
        # scores the argmax picks. The peak is the maximum, so the vertex
        # lies within half a step (up to rounding); three equal scores
        # leave it at 0
        before, top, after = scores[[peak - 1, peak, (peak + 1) % scores.size]]
        curvature = before - 2.0 * top + after
        if curvature < 0.0:
            offset = float((before - after) / (2.0 * curvature))
    azimuth_deg = (float(angles_deg[peak]) + offset * step) % 360.0
    return spectrum, AoaEstimate(azimuth=math.radians(azimuth_deg),
                                 method=method, array_id=array_id)


def _azimuth_grid(grid_step_deg: float) -> np.ndarray:
    if not 0.0 < grid_step_deg <= 5.0:
        raise ValueError(f"grid_step_deg must be in (0, 5], got {grid_step_deg}")
    return np.arange(0.0, 360.0, grid_step_deg)


def estimate_aoa_gcc(delays: DelayVector, array: MicArray,
                     model: PropagationModel,
                     grid_step_deg: float = DEFAULT_GRID_STEP_DEG,
                     method: AoaMethod = AoaMethod.GCC_PLUS
                     ) -> tuple[AoaSpectrum, AoaEstimate]:
    """Match an observed delay vector against predicted delays on an
    azimuth grid.

    score(theta) = -sum_e w_e (observed_e - predicted_e(theta))^2. GCC+
    weighs each entry by its correlation peak score (normalized) and refines
    the discrete argmax by the vertex of the parabola through it and its two
    circular neighbours on the grid; GCC-PHAT weighs entries uniformly and
    keeps the grid angle. Any other method raises ValueError. Predictions
    use global-frame element positions, so the returned azimuth is global.
    A flat spectrum or all-low-confidence delays raise AmbiguousEstimateError.
    """
    method = AoaMethod(method)
    if method is AoaMethod.MUSIC:
        raise ValueError("the delay matcher runs gcc+ or gcc-phat, not music")
    angles_deg = _azimuth_grid(grid_step_deg)
    grid_rad = np.deg2rad(angles_deg)
    predicted = geometry.predicted_pair_delay(array, delays.pairs, grid_rad,
                                              model)  # (pairs, angles)
    w = np.maximum(delays.peak_scores, 0.0) if method is AoaMethod.GCC_PLUS \
        else np.ones(delays.delays.shape)
    total = w.sum()
    w = w / total if total > 0 else np.full(w.shape, 1.0 / w.size)

    diff = predicted - delays.delays[..., None]    # (windows, pairs, angles)
    # summed over the window-major (window, pair) rows in order
    scores = -(w[..., None] * diff * diff).reshape(-1, angles_deg.size).sum(axis=0)

    doubt = "every pairwise delay was flagged low-confidence" \
        if np.all(delays.low_confidence) else None
    return _bearing(angles_deg, scores, method, delays.source_array, doubt)


def baseline_aoa_gcc_phat(rec: MultichannelRecording, array: MicArray,
                          model: PropagationModel,
                          grid_step_deg: float = DEFAULT_GRID_STEP_DEG,
                          band_hz: tuple[float, float] | None = dsp.DEFAULT_BAND_HZ
                          ) -> tuple[AoaSpectrum, AoaEstimate]:
    """Ablation baseline: integer-grid delays, one window, uniform weights,
    no quadratic refinement anywhere."""
    delays = tdoa.expand_delay_features(rec, array, num_windows=1,
                                        upsample_factor=1, model=model,
                                        refine=False, band_hz=band_hz)
    return estimate_aoa_gcc(delays, array, model, grid_step_deg,
                            AoaMethod.GCC_PHAT)


def covariance_stack(rec: MultichannelRecording,
                     band_hz: tuple[float, float] = dsp.DEFAULT_BAND_HZ
                     ) -> CovarianceStack:
    """Spatial covariance matrices on ``MUSIC_NUM_BINS`` frequency bins sampled
    uniformly inside the band, from 50%-overlap Hann STFT snapshots."""
    low, high = band_hz
    dsp.check_band(low, high, rec.sample_rate)
    if rec.num_samples < MUSIC_FRAME:
        raise ValueError(f"recording shorter than one {MUSIC_FRAME}-sample frame")

    num_frames = 1 + (rec.num_samples - MUSIC_FRAME) // MUSIC_HOP
    window = np.hanning(MUSIC_FRAME)
    freqs = np.fft.rfftfreq(MUSIC_FRAME, d=1.0 / rec.sample_rate)
    in_band = np.flatnonzero((freqs >= low) & (freqs <= high))
    if in_band.size == 0:
        raise ValueError("band contains no FFT bins at this frame length")
    take = np.unique(np.round(
        np.linspace(0, in_band.size - 1, min(MUSIC_NUM_BINS, in_band.size))).astype(int))
    selected = in_band[take]

    frames = np.lib.stride_tricks.sliding_window_view(
        rec.samples, MUSIC_FRAME, axis=1)[:, ::MUSIC_HOP]  # (channels, frames, frame)
    # all frames of a channel in one transform; all channels at once would
    # hold every windowed frame and its full spectrum (8.9 MB for six
    # channels of 1.06 s)
    snapshots = np.stack([np.fft.rfft(f * window)[:, selected]
                          for f in frames])
    x = snapshots.transpose(2, 0, 1)  # a (channels, frames) matrix per bin
    mats = x @ x.conj().transpose(0, 2, 1) / num_frames
    return CovarianceStack(matrices=mats, frequencies=freqs[selected],
                           snapshot_count=num_frames)


def estimate_aoa_music(rec: MultichannelRecording, array: MicArray,
                       model: PropagationModel,
                       band_hz: tuple[float, float] = dsp.DEFAULT_BAND_HZ,
                       grid_step_deg: float = DEFAULT_GRID_STEP_DEG
                       ) -> tuple[AoaSpectrum, AoaEstimate]:
    """Wideband incoherent MUSIC scan assuming a single source.

    Per frequency bin: eigendecompose the spatial covariance, take the five
    smallest eigenvectors as the noise subspace E_n, and score
    1 / (a^H E_n E_n^H a) with the steering vector
    a_m(f, theta) = exp(-j 2 pi f tau_m(theta)); the bin spectra are then
    averaged non-coherently across bins. A flat spectrum or a peak below
    twice the median raise AmbiguousEstimateError.
    """
    geometry.check_channels(array, rec.num_channels)
    if not np.any(rec.samples):
        raise NoSignalError("recording is all zeros")

    stack = covariance_stack(rec, band_hz)
    if stack.snapshot_count < rec.num_channels:
        warnings.warn(
            f"only {stack.snapshot_count} snapshots for "
            f"{rec.num_channels} channels: covariance is rank-deficient",
            RuntimeWarning)
    if float(np.trace(stack.matrices.sum(axis=0)).real) <= 0.0:
        raise NoSignalError("degenerate covariance: no in-band energy")

    angles_deg = _azimuth_grid(grid_step_deg)
    grid_rad = np.deg2rad(angles_deg)
    taus = geometry.element_delays(array, grid_rad, model)  # (6, n_angles)

    n = rec.num_channels
    r = stack.matrices
    trace = np.trace(r, axis1=1, axis2=2).real
    loaded = r + (COVARIANCE_LOADING * trace / n)[:, None, None] * np.eye(n)
    _, vecs = np.linalg.eigh(loaded)
    noise = vecs[..., : n - 1]  # single-source assumption
    a = np.exp((-2j * np.pi * stack.frequencies)[:, None, None] * taus)
    proj = noise.conj().transpose(0, 2, 1) @ a
    denom = np.maximum(np.sum(np.abs(proj) ** 2, axis=1), 1e-18 * n)
    scores = (1.0 / denom).sum(axis=0) / r.shape[0]

    doubt = "the peak fails to double the median floor" \
        if float(scores.max()) < 2.0 * float(np.median(scores)) else None
    return _bearing(angles_deg, scores, AoaMethod.MUSIC, array.id, doubt)
