"""Independent reference computations used to freeze expected test values.

Everything here is deliberately naive (explicit loops, direct formulas) and
never calls into the estimator paths it is used to check.
"""

import math

import numpy as np

from hexloc import dsp, geometry, sim
from hexloc.errors import UnlocalizableError
from hexloc.localize import (CONDITION_LIMIT, IRLS_MAX_ITER,
                             IRLS_RESIDUAL_FLOOR_M, IRLS_TOL_M,
                             PARALLEL_SIN_TOL, RANSAC_PAIR_SIN_TOL,
                             RANSAC_TIE_M)


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


def kaiser_band_design(fs, low_hz, high_hz, n):
    """(ntaps, beta) of the band-pass FIR for ``n``-sample signals, from
    ``scipy.signal.kaiserord`` at 60 dB: the transition is the narrowest of
    a quarter of the band and 80% of each guard band, but no narrower than
    2 fs / n or 1 Hz, and the length is rounded up to odd."""
    from scipy.signal import kaiserord
    nyq = fs / 2.0
    widths = [0.25 * (high_hz - low_hz)]
    if low_hz > 0.0:
        widths.append(0.8 * low_hz)
    if high_hz < nyq:
        widths.append(0.8 * (nyq - high_hz))
    width = max(min(widths), 2.0 * fs / n, 1.0)
    ntaps, beta = kaiserord(60.0, width / nyq)
    return ntaps + (ntaps + 1) % 2, beta


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


def quadratic_peak_offset(values, peak):
    """Subsample offset of a discrete peak from ``np.polyfit``, one window at
    a time: a least-squares parabola through the six samples at
    peak-2 .. peak+3, or, near a boundary, through the 5 or 3 samples
    centred on the peak.

    Returns (offset_in_steps clamped to [-1, 1], value_at_vertex, concave);
    a non-concave fit, or a peak at the boundary, gives
    (0.0, values[peak], False).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
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


def synthesize_serial(scene):
    """The scene renderer as one loop over the arrays: each array's start
    offset is drawn, its recording rendered and its noise drawn with
    ``rng.normal`` before the next array's offset. The source signal and
    the phase ramps come from the simulator's own helpers; returns the
    recordings' sample matrices."""
    model = scene.model
    fs = model.sample_rate
    length = int(round(scene.duration * fs))
    base_s = max(2.0 * a.side_length for a in scene.arrays) \
        / model.speed_of_sound
    margin = int(math.ceil((sim.MAX_START_OFFSET_S + sim.MAX_ECHO_DELAY_S
                            + base_s) * fs)) + 64
    src_length = length - margin
    rng = np.random.default_rng(scene.seed)
    source = sim._source_signal(scene, rng, src_length)
    ramp = min(int(round(sim.TAPER_S * fs)), src_length // 4)
    if ramp > 0:
        taper = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        source = source.copy()
        source[:ramp] *= taper
        source[-ramp:] *= taper[::-1]
    nfft = dsp.next_pow2(length)
    spectrum = np.fft.rfft(source, nfft)
    bin_hz = fs / nfft
    out = []
    for array in scene.arrays:
        azimuth = geometry.azimuth_to(array, scene.source)
        offset = base_s + rng.uniform(0.0, sim.MAX_START_OFFSET_S)
        taus = geometry.element_delays(array, azimuth, model)
        response = sim._delay_ramp(taus + offset, bin_hz, spectrum.size)
        for echo in scene.echoes:
            echo_az = azimuth + math.radians(echo.azimuth_offset_deg)
            echo_taus = geometry.element_delays(array, echo_az, model)
            response += echo.gain * sim._delay_ramp(
                echo_taus + offset + echo.delay_s, bin_hz, spectrum.size)
        response *= spectrum
        channels = np.fft.irfft(response, nfft, axis=1)[:, :length]
        if np.isfinite(scene.snr_db):
            power = float(np.mean(channels ** 2))
            sigma = math.sqrt(power * 10.0 ** (-scene.snr_db / 10.0))
            channels = channels + rng.normal(0.0, sigma, channels.shape)
        out.append(channels)
    return out


def covariance_stack_loop(samples, selected, frame, hop):
    """Per-bin spatial covariances, one STFT frame and one bin at a time."""
    channels, num_samples = samples.shape
    num_frames = 1 + (num_samples - frame) // hop
    window = np.hanning(frame)
    snapshots = np.empty((channels, num_frames, selected.size), dtype=complex)
    for t in range(num_frames):
        seg = samples[:, t * hop: t * hop + frame] * window
        snapshots[:, t, :] = np.fft.rfft(seg, axis=1)[:, selected]
    mats = np.empty((selected.size, channels, channels), dtype=complex)
    for k in range(selected.size):
        x = snapshots[:, :, k]
        mats[k] = x @ x.conj().T / num_frames
    return mats


def music_scores_loop(matrices, frequencies, taus, loading):
    """Incoherent MUSIC pseudo-spectrum, one frequency bin at a time:
    ``mean_k 1 / |E_n(k)^H a(f_k)|^2`` over the loaded covariances."""
    n = matrices.shape[1]
    accum = np.zeros(taus.shape[1])
    for r, f in zip(matrices, frequencies):
        loaded = r + (loading * np.trace(r).real / n) * np.eye(n)
        _, vecs = np.linalg.eigh(loaded)
        noise = vecs[:, : n - 1]
        a = np.exp(-2j * np.pi * f * taus)
        proj = noise.conj().T @ a
        accum += 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=0),
                                  1e-18 * n)
    return accum / matrices.shape[0]


def grid_match_scores_loop(entries, array, model, angles_deg, weighted):
    """Delay-vector grid-match scores ``-sum_e w_e (d_e - p_e(theta))^2``,
    one ``PairDelay`` entry at a time in the order given, each against its
    own pair's predicted delays. The weights are the clipped peak scores
    over their numpy sum, or uniform."""
    grid = np.deg2rad(angles_deg)
    weights = [max(e.peak_score, 0.0) if weighted else 1.0 for e in entries]
    total = np.sum(weights)
    accum = np.zeros(grid.size)
    for entry, weight in zip(entries, weights):
        w = weight / total if total > 0 else 1.0 / len(entries)
        diff = geometry.predicted_pair_delay(array, entry.pair, grid,
                                             model) - entry.delay
        accum = accum + w * diff * diff
    return -accum


def delay_ramp(shift, bin_hz, num_bins):
    """Phase ramp of fractional delays ``shift`` (s) at bins ``k * bin_hz``,
    ``exp(-2 pi i shift k bin_hz)``, one exponential per channel and bin."""
    freqs = np.arange(num_bins) * bin_hz
    return np.exp(-2j * np.pi * np.outer(shift, freqs))


# --- bearing fusion, one line at a time --------------------------------------
# The loop form of hexloc.localize's solvers: the same arithmetic, written per
# line and per drawn pair. Each returns the fields the solvers report, or
# raises UnlocalizableError where they do.

def _loop_distances(lines, point):
    return np.array([abs(ln.direction[0] * (point[1] - ln.anchor[1])
                         - ln.direction[1] * (point[0] - ln.anchor[0]))
                     for ln in lines])


def _loop_all_parallel(lines, tol):
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            cross = abs(lines[i].direction[0] * lines[j].direction[1]
                        - lines[i].direction[1] * lines[j].direction[0])
            if cross > tol:
                return False
    return True


def _loop_normal_solve(lines, weights):
    m = np.zeros((2, 2))
    b = np.zeros(2)
    for ln, w in zip(lines, weights):
        proj = np.eye(2) - np.outer(ln.direction, ln.direction)
        m += w * proj
        b += w * (proj @ ln.anchor)
    try:
        cond = np.linalg.cond(m)
        position = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise UnlocalizableError("normal equations are singular") from exc
    if not np.all(np.isfinite(position)):
        raise UnlocalizableError("normal equations are singular")
    return position, bool(cond > CONDITION_LIMIT)


def _loop_result(lines, position, method, inliers=(), weights=(),
                 iterations=0, condition_flag=False, converged=True):
    behind = tuple(ln.array_id for ln in lines
                   if float(ln.direction @ (position - ln.anchor)) < 0.0)
    return {"position": position,
            "residuals": tuple(_loop_distances(lines, position)),
            "method": method, "inliers": inliers, "weights": weights,
            "iterations": iterations, "condition_flag": condition_flag,
            "behind_anchors": behind, "converged": converged}


def loop_solve_mle(lines):
    if _loop_all_parallel(lines, PARALLEL_SIN_TOL):
        raise UnlocalizableError("all bearing lines are parallel")
    position, flag = _loop_normal_solve(lines, np.ones(len(lines)))
    return _loop_result(lines, position, "mle", condition_flag=flag)


def loop_solve_ransac(lines, threshold):
    """Every unordered pair, intersected and measured anew. The most
    inliers win, then an inlier residual sum within ``RANSAC_TIE_M`` of the
    smallest, then the smallest summed distance to all lines."""
    if len(lines) == 2:
        base = loop_solve_mle(lines)
        return _loop_result(lines, base["position"], "ransac",
                            inliers=tuple(ln.array_id for ln in lines),
                            condition_flag=base["condition_flag"])
    scored = []  # (inliers, inlier residual sum, residual sum, mask, point)
    pairs = 0
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pairs += 1
            a, b = lines[i], lines[j]
            cross = a.direction[0] * b.direction[1] \
                - a.direction[1] * b.direction[0]
            if abs(cross) < RANSAC_PAIR_SIN_TOL:
                continue
            n1 = np.array([-a.direction[1], a.direction[0]])
            n2 = np.array([-b.direction[1], b.direction[0]])
            candidate = np.linalg.solve(
                np.stack([n1, n2]), np.array([n1 @ a.anchor, n2 @ b.anchor]))
            dists = _loop_distances(lines, candidate)
            mask = dists <= threshold
            scored.append((int(mask.sum()), float(dists[mask].sum()),
                           float(dists.sum()), mask, candidate))
    if not scored:
        raise UnlocalizableError("no bearing pair produced an intersection")
    most = max(s[0] for s in scored)
    scored = [s for s in scored if s[0] == most]
    least = min(s[1] for s in scored)
    scored = [s for s in scored if s[1] <= least + RANSAC_TIE_M]
    _, _, _, mask, candidate = min(scored, key=lambda s: s[2])
    inlier_lines = [ln for ln, m in zip(lines, mask) if m]
    if len(inlier_lines) >= 2 \
            and not _loop_all_parallel(inlier_lines, PARALLEL_SIN_TOL):
        position, flag = _loop_normal_solve(inlier_lines,
                                            np.ones(len(inlier_lines)))
    else:
        position, flag = candidate, False
    return _loop_result(
        lines, position, "ransac",
        inliers=tuple(ln.array_id for ln, m in zip(lines, mask) if m),
        iterations=pairs, condition_flag=flag)


def loop_solve_irls(lines):
    start = loop_solve_mle(lines)
    position = start["position"]
    weights = np.ones(len(lines))
    flag = start["condition_flag"]
    iterations = 0
    converged = False
    for _ in range(IRLS_MAX_ITER):
        residuals = _loop_distances(lines, position)
        weights = 1.0 / np.maximum(residuals, IRLS_RESIDUAL_FLOOR_M)
        new_position, flag = _loop_normal_solve(lines, weights)
        iterations += 1
        moved = float(np.linalg.norm(new_position - position))
        position = new_position
        if moved < IRLS_TOL_M:
            converged = True
            break
    return _loop_result(lines, position, "irls", weights=tuple(weights),
                        iterations=iterations, condition_flag=flag,
                        converged=converged)
