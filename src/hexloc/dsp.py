"""Spectral kernels: band-pass filtering, cross-power spectra, PHAT
whitening, and frequency-domain upsampled cross-correlation.

Delay sign convention, used consistently by every module downstream:
positive lag means channel 1 leads channel 2, i.e. the signal arrived at
microphone 1 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

DEFAULT_BAND_HZ = (300.0, 3500.0)
DEFAULT_UPSAMPLE = 8
PHAT_EPSILON = 1e-12
STOPBAND_ATTEN_DB = 60.0


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(0, int(n) - 1).bit_length()


@lru_cache(maxsize=64)
def next_fast_len(target: int, real: bool = False) -> int:
    """Smallest length >= ``target`` that the FFT factors into small radices:
    5-smooth for real transforms, 11-smooth for complex ones, the rule of
    ``scipy.fft.next_fast_len``."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    n = max(1, int(target))
    while True:
        rest = n
        for p in primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


@dataclass(frozen=True)
class MultichannelRecording:
    """Synchronized sample matrix for one array, shape (channels, samples);
    a single channel is a one-row recording.

    The samples are stored C-contiguous, one channel per row: the row-wise
    transforms downstream are slower over strided rows, such as those of a
    transposed (samples, channels) WAV matrix.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 2:
            raise ValueError("samples must have shape (channels, samples>=2)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum of a real signal of ``origin_length`` samples.

    ``bins`` may carry leading batch axes; every row then shares the same
    layout (bin spacing, origin length and first bin). The bins start at bin
    ``first_bin`` of the one-sided layout (a band's bins, say) and end at or
    before its last bin, ``origin_length // 2``; every bin they do not cover
    is zero.
    """

    bins: np.ndarray
    bin_spacing: float
    origin_length: int
    first_bin: int = 0

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=complex)
        object.__setattr__(self, "bins", bins)
        last = self.origin_length // 2 + 1
        if bins.ndim < 1 or not 0 <= self.first_bin <= last - bins.shape[-1]:
            raise ValueError(
                f"bins of shape {bins.shape} from bin {self.first_bin} do not "
                f"fit the {last} one-sided bins of a length-"
                f"{self.origin_length} signal")

    @property
    def frequencies(self) -> np.ndarray:
        return (self.first_bin + np.arange(self.bins.shape[-1])) * self.bin_spacing

    def rows(self, index) -> Spectrum:
        """The spectra at ``index`` along the leading batch axis."""
        return replace(self, bins=self.bins[index])


def real_spectrum(signal: MultichannelRecording,
                  nfft: int | None = None) -> Spectrum:
    """Forward one-sided FFT of each channel, optionally zero-padded: a
    stacked spectrum with one row per channel."""
    length = signal.samples.shape[-1]
    n = int(nfft) if nfft is not None else length
    if n < length:
        raise ValueError("nfft must be >= signal length")
    return Spectrum(rfft(signal.samples, n=n), signal.sample_rate / n, n)


def inverse_real_spectrum(spectrum: Spectrum) -> np.ndarray:
    """Inverse of :func:`real_spectrum`; returns ``origin_length`` samples."""
    n, first = spectrum.origin_length, spectrum.first_bin
    bins = np.zeros(spectrum.bins.shape[:-1] + (n // 2 + 1,), dtype=complex)
    bins[..., first:first + spectrum.bins.shape[-1]] = spectrum.bins
    return irfft(bins, n=n)


def check_band(low_hz: float, high_hz: float, fs: float) -> None:
    """Refuse a band that is not ``0 <= low < high <= fs / 2``."""
    if not 0.0 <= low_hz < high_hz <= fs / 2.0:
        raise ValueError(f"band edges must satisfy 0 <= low < high <= "
                         f"{fs / 2.0}, got [{low_hz}, {high_hz}]")


def bandpass(signal: MultichannelRecording, low_hz: float,
             high_hz: float) -> MultichannelRecording:
    """Linear-phase FIR band-pass, then gain normalization by the input peak.

    The filter is a Kaiser windowed-sinc designed for >= 60 dB stopband
    rejection (comfortably past the 40 dB requirement) with <= 1 dB passband
    ripple. Linear phase plus integer group-delay compensation preserves
    inter-channel delays, which are the measured quantity downstream. The
    output is scaled so the input peak maps to unit amplitude, equalizing
    per-device gain without masking stopband attenuation.

    The channels are filtered row by row with one filter design, each
    normalized by its own peak; an all-zero channel stays zero.
    """
    fs = signal.sample_rate
    check_band(low_hz, high_hz, fs)
    x = signal.samples
    peak = np.max(np.abs(x), axis=-1, keepdims=True)
    n = x.shape[-1]
    response, size, start = _band_filter(fs, low_hz, high_hz, n)
    # the linear convolution with the taps, centred: what
    # fftconvolve(mode="same") computes, at the same transform length
    filtered = irfft(rfft(x, size, axis=-1) * response, size,
                     axis=-1)[..., start:start + n]
    return MultichannelRecording(filtered / np.where(peak > 0.0, peak, 1.0), fs)


@lru_cache(maxsize=8)
def _band_filter(fs: float, low_hz: float, high_hz: float,
                 n: int) -> tuple[np.ndarray, int, int]:
    """The band-pass FIR for ``n``-sample signals, designed once per
    (rate, band, length): the one-sided spectrum of its taps at the fast
    length for the full linear convolution (read-only, shared by every
    caller), that length, and the offset of the centred ``n`` samples.
    """
    nyq = fs / 2.0
    # Transition width: narrow enough that typical interferers (e.g. mains
    # hum below a 300 Hz edge) fall in the stopband, wide enough to keep the
    # filter short.
    candidates = [0.25 * (high_hz - low_hz)]
    if low_hz > 0.0:
        candidates.append(0.8 * low_hz)
    if high_hz < nyq:
        candidates.append(0.8 * (nyq - high_hz))
    width = max(min(candidates), 2.0 * fs / n, 1.0)

    # Kaiser's length and shape estimates (Oppenheim & Schafer) for a
    # stopband attenuation above 50 dB, as scipy.signal.kaiserord gives them
    beta = 0.1102 * (STOPBAND_ATTEN_DB - 8.7)
    ntaps = math.ceil(
        (STOPBAND_ATTEN_DB - 7.95) / 2.285 / (np.pi * (width / nyq)) + 1)
    ntaps += (ntaps + 1) % 2  # odd length: integer group delay, type I
    # firwin is looked up as a module global on each design, with
    # scipy.signal.firwin's arguments, so it can be counted or swapped. An
    # edge at DC or Nyquist is no cutoff: the band reaches that end
    taps = firwin(ntaps, [f for f in (low_hz, high_hz) if 0.0 < f < nyq],
                  window=("kaiser", beta), pass_zero=low_hz <= 0.0, fs=fs)
    size = next_fast_len(n + ntaps - 1, True)
    response = rfft(taps, size)
    response.flags.writeable = False
    return response, size, (ntaps - 1) // 2


def firwin(numtaps: int, cutoff, window: tuple[str, float],
           pass_zero: bool = True, fs: float = 2.0) -> np.ndarray:
    """Linear-phase FIR taps by the window method: ``scipy.signal.firwin``
    for a ``("kaiser", beta)`` window.

    ``cutoff`` holds the band edges in Hz, increasing, strictly inside
    (0, fs / 2). The passbands alternate with the stopbands between them,
    starting with a passband at DC when ``pass_zero``; one that reaches
    Nyquist needs an odd ``numtaps``. The ideal response, a sum of sincs, is
    tapered by the window and scaled to unit gain at the centre of the
    first passband (at DC or Nyquist when that band touches it).
    """
    name, beta = window
    if name != "kaiser":
        raise ValueError(f"firwin designs with a Kaiser window, got {name!r}")
    edges = np.atleast_1d(np.asarray(cutoff, dtype=float)) / (0.5 * fs)
    pass_nyquist = (edges.size % 2 == 0) == pass_zero
    bands = np.concatenate(([0.0] * pass_zero, edges,
                            [1.0] * pass_nyquist)).reshape(-1, 2)
    m = np.arange(numtaps, dtype=float) - 0.5 * (numtaps - 1)
    h = np.zeros(numtaps)
    for left, right in bands:
        h += right * np.sinc(right * m)
        h -= left * np.sinc(left * m)
    h *= np.kaiser(numtaps, beta)
    left, right = bands[0]
    centre = 0.0 if left == 0.0 else 1.0 if right == 1.0 else 0.5 * (left + right)
    h /= np.sum(h * np.cos(np.pi * m * centre))
    return h


def bandpass_recording(rec: MultichannelRecording, low_hz: float,
                       high_hz: float) -> MultichannelRecording:
    """Apply :func:`bandpass` to every channel of a recording."""
    return bandpass(rec, low_hz, high_hz)


def cross_power(a: Spectrum, b: Spectrum) -> Spectrum:
    """Bin-wise cross-power spectrum a * conj(b), row by row."""
    if a.bins.shape != b.bins.shape or a.bin_spacing != b.bin_spacing \
            or a.origin_length != b.origin_length or a.first_bin != b.first_bin:
        raise ValueError("cross_power requires identically shaped spectra")
    # conj(b) times a, in place: numpy's SIMD complex product is not bitwise
    # commutative, and one fixed order keeps a row's bits independent of the
    # batch size (numpy reuses large temporaries in place, operands swapped)
    bins = np.conj(b.bins)
    bins *= a.bins
    return replace(a, bins=bins)


def phat_weight(g: Spectrum) -> Spectrum:
    """Whiten a cross-power spectrum to unit magnitude, keeping only phase.

    Works row by row. ``PHAT_EPSILON``, relative to the row's peak bin
    magnitude, guards the division; bins that are exactly zero stay zero.
    """
    mag = np.abs(g.bins)
    peak = np.max(mag, axis=-1, keepdims=True, initial=0.0)
    # an all-zero row divides by 1 and stays zero
    np.maximum(mag, np.where(peak > 0.0, PHAT_EPSILON * peak, 1.0), out=mag)
    return replace(g, bins=g.bins / mag)


def band_limit(spectrum: Spectrum, low_hz: float, high_hz: float) -> Spectrum:
    """Zero every bin outside [low_hz, high_hz], row by row.

    The result holds the band's bins as their own contiguous array,
    starting at the band's first bin; the bins outside it are zero by the
    :class:`Spectrum` layout. Copying the band, rather than viewing it,
    lets the full spectrum be freed once it is gated. A band narrower than
    one bin keeps no bins.

    Band-limited signals carry no delay information outside their band, only
    window-truncation leakage that PHAT would otherwise re-amplify to unit
    magnitude; gating the cross-power spectrum confines the whitening to
    informative bins.
    """
    if not 0.0 <= low_hz < high_hz:
        raise ValueError(f"invalid band [{low_hz}, {high_hz}]")
    freqs = spectrum.frequencies
    lo = int(np.searchsorted(freqs, low_hz, side="left"))
    hi = int(np.searchsorted(freqs, high_hz, side="right"))
    return replace(spectrum, bins=spectrum.bins[..., lo:hi].copy(),
                   first_bin=spectrum.first_bin + lo)


def correlation_support_steps(origin_length: int, upsample_factor: int) -> int:
    """Largest |lag| index the centered correlation function can represent."""
    n_up = origin_length * upsample_factor
    return n_up // 2 - 1 if n_up % 2 == 0 else (n_up - 1) // 2


def correlate_many(phis: Spectrum, upsample_factor: int = 1,
                   max_lag_steps: int | None = None) -> np.ndarray:
    """Inverse-transform (whitened) cross-power spectra to correlation
    functions on a centered lag axis, optionally upsampled, row by row.

    Each row is the inverse real FFT of its spectrum zero-extended to
    ``upsample_factor * origin_length`` bins; frequency-domain zero-padding
    is ideal band-limited interpolation, so no extra smoothing filter is
    applied. For even origin lengths the original Nyquist bin is split in
    half across +-f_nyq when upsampling makes it interior. The lag axis
    follows the module's sign convention (positive lag = channel 1 leads),
    with lag index spacing 1 / (sample_rate * upsample_factor) seconds.

    Returns an array of shape ``phis.bins.shape[:-1] + (2 L + 1,)`` with lag
    0 at index L. L defaults to the full support (see
    :func:`correlation_support_steps`), making the length
    ``upsample_factor * origin_length``, minus one for even products (one
    extreme lag dropped to center lag 0 exactly). ``max_lag_steps`` sets a
    smaller L; the values equal the corresponding slice of the full
    function. All rows go through one batched chirp-z transform over the lag
    window, whose cost grows with the window and the spectrum's bins rather
    than the upsampled length.
    """
    if upsample_factor < 1:
        raise ValueError(f"upsample_factor must be >= 1, got {upsample_factor}")
    n = phis.origin_length
    support = correlation_support_steps(n, upsample_factor)
    if max_lag_steps is None:
        max_lag_steps = support
    elif not 0 <= max_lag_steps <= support:
        raise ValueError(
            f"max_lag_steps {max_lag_steps} outside correlation support "
            f"({support} steps)")

    bins = phis.bins
    if bins.shape[-1] == 0:  # a band without bins: zero everywhere
        bins = np.zeros(bins.shape[:-1] + (1,), dtype=complex)
    rows = bins.reshape(-1, bins.shape[-1])
    k = np.arange(phis.first_bin, phis.first_bin + rows.shape[-1])
    # each interior bin stands for itself and its mirror image; DC and an
    # even length's Nyquist bin (split in half across +-f_nyq when
    # upsampling makes it interior) count once
    weights = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
    values = _lag_window(rows, weights, phis.first_bin, max_lag_steps,
                         n * upsample_factor)
    values *= upsample_factor
    return values.reshape(bins.shape[:-1] + values.shape[-1:])


def _lag_window(rows: np.ndarray, weights: np.ndarray, first_bin: int,
                max_lag_steps: int, n_up: int) -> np.ndarray:
    """``Re sum_k weights[k'] conj(rows[:, k']) exp(2 pi i k l / n_up) / n_up``
    with k' = k - first_bin, over the bins k from ``first_bin`` on, for
    every lag l in [-max_lag_steps, max_lag_steps], row by row, lag 0 in
    the middle. The rows are conjugated so a delayed second channel yields
    a positive-lag peak.

    Chirp-z transform (Rabiner, Schafer & Rader 1969): with
    k l = (k^2 + l^2 - (l - k)^2) / 2 the sum is one circular convolution
    with the chirp w_m = exp(i pi m^2 / n_up), whose phase is taken from
    m^2 mod 2 n_up in integers so it stays exact for any m. The
    convolution runs in one zero-padded buffer, transformed in place.
    """
    num_bins = rows.shape[-1]
    last = first_bin + num_bins
    span = num_bins + 2 * max_lag_steps
    m = np.arange(last + max_lag_steps, dtype=np.int64)
    chirp = np.exp((1j * np.pi / n_up) * ((m * m) % (2 * n_up)))
    # conj(w_{l - k}) for every l - k from 1 - last - max_lag_steps up to
    # max_lag_steps - first_bin; w is even in m
    kernel = np.conj(chirp[np.abs(np.arange(1 - last - max_lag_steps,
                                            max_lag_steps - first_bin + 1))])
    size = next_fast_len(span)
    buf = np.zeros((rows.shape[0], size), dtype=complex)
    coeffs = np.conj(rows, out=buf[:, :num_bins])
    # the weights are 1 or 2, so scaling by them in place is exact, and
    # x *= y keeps the operand order of x * y
    coeffs *= weights
    coeffs *= chirp[first_bin:last]
    conv = fft(buf, out=buf)
    conv *= fft(kernel, size)
    ifft(conv, out=conv)
    lags = np.abs(np.arange(-max_lag_steps, max_lag_steps + 1))
    values = (conv[:, num_bins - 1: span] * chirp[lags]).real
    return values / n_up


def correlation_fft_length(signal_length: int) -> int:
    """FFT length avoiding circular wraparound: next power of two >= 2N-1."""
    return next_pow2(2 * signal_length - 1)
