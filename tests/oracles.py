"""Independent reference computations used to freeze expected test values.

Everything here is deliberately naive (explicit loops, direct formulas) and
never calls into the estimator paths it is used to check.
"""

import math

import numpy as np


def brute_force_delay_samples(x1, x2, max_lag_samples):
    """Argmax of normalized time-domain cross-correlation, integer lags.

    Positive lag means channel 1 leads (x2 is the delayed copy), matching
    the package-wide sign convention.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    best_score = -np.inf
    best_lag = 0
    for lag in range(-max_lag_samples, max_lag_samples + 1):
        if lag >= 0:
            a, b = x1[: x1.size - lag], x2[lag:]
        else:
            a, b = x1[-lag:], x2[: x2.size + lag]
        denom = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
        if denom == 0.0:
            continue
        score = float(np.dot(a, b)) / denom
        if score > best_score:
            best_score = score
            best_lag = lag
    return best_lag


def hexagon_positions(center, orientation, side):
    """Hand-trig positions of six elements at 60-degree spacing."""
    cx, cy = center
    out = []
    for k in range(6):
        angle = orientation + k * math.pi / 3.0
        out.append((cx + side * math.cos(angle), cy + side * math.sin(angle)))
    return out


def plane_wave_pair_delay(p_i, p_j, azimuth, c):
    """u(azimuth) . (p_i - p_j) / c via explicit arithmetic."""
    ux, uy = math.cos(azimuth), math.sin(azimuth)
    return (ux * (p_i[0] - p_j[0]) + uy * (p_i[1] - p_j[1])) / c


def sine_rms(x, freq_hz, sample_rate):
    """Amplitude of the ``freq_hz`` component via least-squares sine fit,
    returned as an RMS value."""
    x = np.asarray(x, dtype=float)
    t = np.arange(x.size) / sample_rate
    basis = np.stack([np.sin(2 * np.pi * freq_hz * t),
                      np.cos(2 * np.pi * freq_hz * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return math.hypot(*coef) / math.sqrt(2.0)


def line_point_distance(anchor, azimuth, point):
    """Perpendicular distance from a point to a line through anchor."""
    nx, ny = math.cos(azimuth), math.sin(azimuth)
    dx, dy = point[0] - anchor[0], point[1] - anchor[1]
    return abs(nx * dy - ny * dx)


def upsampled_correlation(bins, origin_length, upsample_factor, max_lag_steps):
    """Correlation of a one-sided cross-power spectrum at integer lags
    -max_lag_steps..max_lag_steps of the upsampled axis, lag 0 in the middle.

    Written out as the inverse DFT: the spectrum is conjugated (positive
    lag means channel 1 leads), mirrored into the two-sided spectrum of the
    length-``origin_length`` signal, zero-padded in the middle to
    ``n_up = origin_length * upsample_factor`` bins (an even length's
    Nyquist bin is split in half between +f_nyq and -f_nyq once it is no
    longer the last bin), and summed as ``upsample_factor / n_up *
    sum_k Y[k] exp(2 pi i k l / n_up)`` one lag at a time, with ``k l``
    reduced modulo ``n_up`` in integers.
    """
    n = int(origin_length)
    n_up = n * int(upsample_factor)
    two_sided = np.zeros(n_up, dtype=complex)
    for k in range(n // 2 + 1):
        value = np.conj(complex(bins[k]))
        if k == 0 or (2 * k == n and upsample_factor == 1):
            two_sided[k] = value
        elif 2 * k == n:
            two_sided[k] = value / 2.0
            two_sided[n_up - k] = np.conj(value) / 2.0
        else:
            two_sided[k] = value
            two_sided[n_up - k] = np.conj(value)
    ks = np.flatnonzero(two_sided)  # the zero padding adds nothing to the sum
    values = []
    for lag in range(-max_lag_steps, max_lag_steps + 1):
        phase = 2.0 * np.pi * ((ks * lag) % n_up) / n_up
        total = np.sum(two_sided[ks] * np.exp(1j * phase))
        values.append(upsample_factor * total.real / n_up)
    return np.array(values)


def quadratic_peak_offset(values, peak, circular=False):
    """Subsample offset of a discrete peak from ``np.polyfit``, one window at
    a time: a least-squares parabola through the six samples at
    peak-2 .. peak+3 (taken modulo the length when ``circular``), or, near a
    boundary, through the 5 or 3 samples centred on the peak.

    Returns (offset_in_steps clamped to [-1, 1], value_at_vertex, concave);
    a non-concave fit, or a peak at the boundary, gives
    (0.0, values[peak], False).
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


def delay_ramp(shift, bin_hz, num_bins):
    """Phase ramp of fractional delays ``shift`` (s) at bins ``k * bin_hz``,
    ``exp(-2 pi i shift k bin_hz)``, one exponential per channel and bin."""
    freqs = np.arange(num_bins) * bin_hz
    return np.exp(-2j * np.pi * np.outer(shift, freqs))
