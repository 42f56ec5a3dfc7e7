import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hexloc import dsp, geometry, sim, tdoa
from hexloc.dsp import MultichannelRecording
from hexloc.errors import NoSignalError
from hexloc.geometry import PropagationModel, build_hex_array, mic_pairs
from hexloc.tdoa import (DelayVector, estimate_pair_delay,
                         expand_delay_features, quadratic_peak_offset)

import oracles
from fixtures import delayed_pair, fractional_pair

FS = 44100.0
MODEL = PropagationModel()


def white(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


def pair(x1, x2):
    """The 1-D signals ``x1`` and ``x2`` as one two-channel recording."""
    return MultichannelRecording(np.stack([x1, x2]), FS)


# --- peak refinement ------------------------------------------------------

def test_refine_exact_parabola_vertex():
    peak = 10
    idx = np.arange(21, dtype=float)
    values = 5.0 - (idx - (peak + 0.3)) ** 2
    offset, _, ok = quadratic_peak_offset(values, peak)
    assert ok
    assert offset == pytest.approx(0.3, abs=1e-9)


def test_refine_symmetric_peak_zero_offset():
    peak = 10
    idx = np.arange(21, dtype=float)
    values = 5.0 - (idx - peak) ** 2
    offset, _, ok = quadratic_peak_offset(values, peak)
    assert ok
    assert offset == pytest.approx(0.0, abs=1e-9)


def test_refine_sinc_quarter_sample():
    up = 8
    fine = np.arange(-32 * up, 32 * up + 1, dtype=float)
    values = np.sinc(fine / up - 0.25)
    # independent dense-grid oracle at 1024x oversampling
    dense = np.arange(-2 * 1024, 2 * 1024 + 1) / 1024.0
    truth = dense[np.argmax(np.sinc(dense - 0.25))]
    assert truth == pytest.approx(0.25, abs=1e-3)
    peak = int(np.argmax(values))
    offset, _, ok = quadratic_peak_offset(values, peak)
    assert ok
    lag_samples = (peak - values.size // 2 + offset) / up
    assert lag_samples == pytest.approx(truth, abs=0.05)


def test_refine_non_concave_falls_back():
    values = np.linspace(0.0, 1.0, 21)  # monotone ramp: no concave fit
    offset, vertex, ok = quadratic_peak_offset(values, 20)
    assert not ok
    assert offset == 0.0
    assert vertex == values[20]


def test_refine_never_leaves_one_grid_step():
    rng = np.random.default_rng(3)
    for _ in range(50):
        values = rng.standard_normal(31)
        offset, _, _ = quadratic_peak_offset(values, int(np.argmax(values)))
        assert abs(offset) <= 1.0 + 1e-12


def test_refine_boundary_shrinks_window():
    values = np.concatenate([[0.5, 1.0], np.linspace(0.9, 0.0, 19)])
    offset, _, _ = quadratic_peak_offset(values, 1)  # one sample on the left
    assert abs(offset) <= 1.0


@st.composite
def peak_rows(draw):
    """Rows of random scores at a drawn scale, one peak index per row: at
    either boundary or anywhere."""
    n = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-6, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = scale * np.random.default_rng(seed).standard_normal((rows, n))
    index = st.sampled_from([0, 1, 2, n - 3, n - 2, n - 1]) | st.integers(0, n - 1)
    peaks = [min(max(draw(index), 0), n - 1) for _ in range(rows)]
    return values, np.array(peaks)


@settings(max_examples=200, deadline=None)
@given(case=peak_rows())
# a boundary peak takes the 3- and 5-point fits or none
@example(case=(np.random.default_rng(2).standard_normal((6, 12)),
               np.array([0, 1, 2, 9, 10, 11])))
def test_peak_fit_matches_polyfit(case):
    values, peaks = case
    offsets, vertices, concave = tdoa.quadratic_peak_offset(values, peaks)
    assert offsets.shape == vertices.shape == concave.shape == peaks.shape
    for row, peak, offset, vertex, ok in zip(values, peaks, offsets, vertices,
                                             concave):
        want_offset, want_vertex, want_ok = oracles.quadratic_peak_offset(
            row, int(peak))
        assert ok == want_ok
        if not ok:
            assert (offset, vertex) == (0.0, row[peak])
            continue
        # offsets are in grid steps, clamped to [-1, 1]
        assert abs(offset - want_offset) <= 1e-12
        if abs(want_offset) < 1.0:
            # an interpolated vertex, relative to the window's scale
            assert abs(vertex - want_vertex) \
                <= 1e-12 * max(abs(want_vertex), np.abs(row).max())
        else:
            # a vertex past the clamp is extrapolated: any least-squares
            # solver rounds it in proportion to 1 / curvature
            assert vertex == pytest.approx(want_vertex, rel=1e-9)
        one = tdoa.quadratic_peak_offset(row, int(peak))
        assert all(isinstance(v, float) for v in one[:2])
        assert one == (offset, vertex, ok)


# --- estimate_pair_delay ---------------------------------------------------

def test_integer_delay_matches_bruteforce_oracle():
    x1, x2 = delayed_pair(8192, 10, seed=1)
    oracle = oracles.brute_force_delay_samples(x1, x2, 20)
    assert oracle == 10
    est = estimate_pair_delay(pair(x1, x2),
                              max_lag=20.5 / FS, upsample_factor=32)
    assert est.delay == pytest.approx(10.0 / FS, abs=1e-9)
    assert not est.low_confidence


def test_identical_signals_zero_delay():
    x = white(4096, seed=2)
    est = estimate_pair_delay(pair(x, x),
                              max_lag=10.0 / FS, upsample_factor=32)
    assert est.delay == pytest.approx(0.0, abs=1e-9)


def test_fractional_delay_under_noise():
    x1, x2 = fractional_pair(16384, 3.4, seed=3, snr_db=30.0)
    est = estimate_pair_delay(pair(x1, x2),
                              max_lag=10.0 / FS, upsample_factor=8)
    assert abs(est.delay * FS - 3.4) < 0.1


def test_zero_signal_raises():
    with pytest.raises(NoSignalError):
        estimate_pair_delay(pair(np.zeros(4096), white(4096)),
                            max_lag=10.0 / FS)


def test_max_lag_beyond_support_rejected():
    rec = pair(white(2048, seed=4), white(2048, seed=5))
    with pytest.raises(ValueError):
        estimate_pair_delay(rec, max_lag=10.0)  # 10 s >> support


def test_mismatched_inputs_rejected():
    # one recording shares one length and rate; it must hold two channels
    for channels in (1, 3):
        rec = MultichannelRecording(white(2048 * channels).reshape(channels, -1),
                                    FS)
        with pytest.raises(ValueError):
            estimate_pair_delay(rec, max_lag=1e-3)


@settings(max_examples=25, deadline=None)
@given(delay=st.floats(-8.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
@example(delay=2.7, seed=6)
def test_antisymmetry_under_channel_swap(delay, seed):
    x1, x2 = fractional_pair(8192, delay, seed=seed)
    fwd = estimate_pair_delay(pair(x1, x2),
                              max_lag=10.0 / FS, upsample_factor=8)
    rev = estimate_pair_delay(pair(x2, x1),
                              max_lag=10.0 / FS, upsample_factor=8)
    fine_step = 1.0 / (FS * 8)
    assert abs(fwd.delay + rev.delay) <= fine_step + 1e-12


def test_subsample_gain_over_integer_grid():
    errors_refined, errors_coarse = [], []
    rng = np.random.default_rng(7)
    for trial in range(20):
        d = rng.uniform(-4.0, 4.0)
        x1, x2 = fractional_pair(8192, d, seed=100 + trial, snr_db=20.0)
        rec = pair(x1, x2)
        fine = estimate_pair_delay(rec, max_lag=10.0 / FS,
                                   upsample_factor=8, refine=True)
        coarse = estimate_pair_delay(rec, max_lag=10.0 / FS,
                                     upsample_factor=1, refine=False)
        errors_refined.append(abs(fine.delay * FS - d))
        errors_coarse.append(abs(coarse.delay * FS - d))
    assert np.mean(errors_refined) <= np.mean(errors_coarse)


# --- expand_delay_features --------------------------------------------------

def plane_wave_recording(array, azimuth_deg, duration=1.06, seed=0,
                         snr_db=math.inf):
    az = math.radians(azimuth_deg)
    source = array.center + 3.0 * np.array([math.cos(az), math.sin(az)])
    scene = sim.Scene(arrays=(array,), source=source, signal_kind="speech",
                      duration=duration, snr_db=snr_db, seed=seed, model=MODEL)
    recs, truth = sim.synthesize(scene)
    return recs[0], truth


def test_single_window_yields_15_entries():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec, _ = plane_wave_recording(array, 25.0)
    dv = expand_delay_features(rec, array, num_windows=1, model=MODEL,
                               band_hz=dsp.DEFAULT_BAND_HZ)
    assert len(dv.entries) == 15
    assert {e.pair for e in dv.entries} == set(mic_pairs())


def test_noiseless_plane_wave_matches_geometry():
    array = build_hex_array((0.0, 0.0), 0.4, array_id="A")
    rec, truth = plane_wave_recording(array, 40.0, seed=11)
    dv = expand_delay_features(rec, array, num_windows=1, upsample_factor=8,
                               model=MODEL, band_hz=dsp.DEFAULT_BAND_HZ)
    for e in dv.entries:
        expected = truth.pair_delays["A"][e.pair]
        assert abs(e.delay - expected) * FS < 0.1


def test_three_windows_yield_45_consistent_entries():
    array = build_hex_array((0.0, 0.0), 1.0, array_id="A")
    rec, _ = plane_wave_recording(array, 70.0, duration=1.6, seed=12)
    dv3 = expand_delay_features(rec, array, num_windows=3, model=MODEL,
                                band_hz=dsp.DEFAULT_BAND_HZ)
    dv1 = expand_delay_features(rec, array, num_windows=1, model=MODEL,
                                band_hz=dsp.DEFAULT_BAND_HZ)
    assert len(dv3.entries) == 45
    assert dv3.num_windows == 3
    single = {e.pair: e.delay for e in dv1.entries}
    for pair in mic_pairs():
        per_window = [e.delay for e in dv3.entries if e.pair == pair]
        median = float(np.median(per_window))
        assert abs(median - single[pair]) * FS < 0.2


def test_triangle_consistency_noiseless():
    array = build_hex_array((0.0, 0.0), 0.2, array_id="A")
    rec, _ = plane_wave_recording(array, 132.0, seed=13)
    dv = expand_delay_features(rec, array, num_windows=1, model=MODEL,
                               band_hz=dsp.DEFAULT_BAND_HZ)
    delay = {e.pair: e.delay for e in dv.entries}
    for i in range(6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                closure = delay[(i, j)] + delay[(j, k)] - delay[(i, k)]
                assert abs(closure) * FS < 0.2


def test_wrong_channel_count_rejected():
    array = build_hex_array((0.0, 0.0), 0.0)
    rec = MultichannelRecording(white(5 * 4096).reshape(5, 4096), FS)
    with pytest.raises(ValueError):
        expand_delay_features(rec, array)


def test_recording_too_short_rejected():
    array = build_hex_array((0.0, 0.0), 0.0)
    rec = MultichannelRecording(white(6 * 1500, seed=1).reshape(6, 1500), FS)
    with pytest.raises(ValueError):
        expand_delay_features(rec, array, num_windows=2)


def test_duplicate_entries_rejected():
    with pytest.raises(ValueError):
        DelayVector(pairs=[(0, 1), (0, 1)], delays=np.zeros((1, 2)),
                    peak_scores=np.ones((1, 2)),
                    low_confidence=np.zeros((1, 2), bool), source_array="A")


def test_windows_equal_single_window_slices():
    array = build_hex_array((0.0, 0.0), 0.7, array_id="A")
    rec, _ = plane_wave_recording(array, 205.0, duration=1.6, seed=16,
                                  snr_db=20.0)
    for band in (dsp.DEFAULT_BAND_HZ, None):
        dv = expand_delay_features(rec, array, num_windows=3, model=MODEL,
                                   band_hz=band)
        n = rec.num_samples // 3
        for w in range(3):
            part = MultichannelRecording(rec.samples[:, w * n:(w + 1) * n], FS)
            one = expand_delay_features(part, array, num_windows=1,
                                        model=MODEL, band_hz=band)
            got = [e for e in dv.entries if e.window_index == w]
            assert [(e.pair, e.delay, e.peak_score, e.low_confidence)
                    for e in got] \
                == [(e.pair, e.delay, e.peak_score, e.low_confidence)
                    for e in one.entries]


def test_delay_within_baseline_bound_plus_slack():
    array = build_hex_array((0.0, 0.0), 0.9, array_id="A")
    rec, _ = plane_wave_recording(array, 290.0, seed=14, snr_db=20.0)
    dv = expand_delay_features(rec, array, model=MODEL,
                               band_hz=dsp.DEFAULT_BAND_HZ)
    for e in dv.entries:
        bound = geometry.pair_baseline(array, e.pair) / MODEL.speed_of_sound
        assert abs(e.delay) <= bound + 1.0 / FS


# --- dead input ---------------------------------------------------------------

@pytest.mark.parametrize("dead", ["zero-channel", "zero-channel-no-band",
                                  "sub-bin-band"])
def test_dead_input_raises_no_signal(dead):
    array = build_hex_array((0.0, 0.0), 0.3, array_id="A")
    rec, _ = plane_wave_recording(array, 60.0, seed=15, snr_db=20.0)
    band = dsp.DEFAULT_BAND_HZ
    if dead.startswith("zero-channel"):
        samples = rec.samples.copy()
        samples[2] = 0.0
        rec = MultichannelRecording(samples, rec.sample_rate)
        if dead == "zero-channel-no-band":
            band = None
    else:  # narrower than one bin of the 2^16-point transform
        band = (1000.0, 1000.1)
    with pytest.raises(NoSignalError, match="no cross-power energy inside the band"):
        expand_delay_features(rec, array, model=MODEL, band_hz=band)


def test_expand_delay_features_peak_memory():
    # a 1.06 s six-channel capture at 44.1 kHz: the full spectra of its 12
    # window rows (12 x 32769 bins, 6.3 MB) are freed once band-gated, and
    # the lag evaluation works in one buffer
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    scene = sim.Scene(arrays=(array,), source=(2.0, 1.0), snr_db=20.0,
                      seed=3, duration=1.06, model=MODEL)
    [rec], _ = sim.synthesize(scene)
    assert rec.samples.shape == (6, 46746) and rec.sample_rate == 44100.0
    band = dsp.DEFAULT_BAND_HZ
    rec = dsp.bandpass_recording(rec, *band)
    expand_delay_features(rec, array, model=MODEL, band_hz=band)  # warm-up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        expand_delay_features(rec, array, model=MODEL, band_hz=band)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, f"peak {peak / 1e6:.1f} MB"
