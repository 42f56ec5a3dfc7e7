import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hexloc import dsp, sim
from hexloc.aoa import (COVARIANCE_LOADING, MUSIC_FRAME, MUSIC_HOP,
                        AoaEstimate, AoaMethod, AoaSpectrum,
                        baseline_aoa_gcc_phat, circular_error_deg,
                        covariance_stack, estimate_aoa_gcc,
                        estimate_aoa_music)
from hexloc.dsp import MultichannelRecording
from hexloc.errors import AmbiguousEstimateError, NoSignalError
from hexloc.geometry import (PropagationModel, build_hex_array,
                             element_delays, mic_pairs, predicted_pair_delay)
from hexloc.tdoa import DelayVector, expand_delay_features

import oracles

MODEL = PropagationModel()
FS = MODEL.sample_rate
BAND = dsp.DEFAULT_BAND_HZ


def scene_recording(array, azimuth_deg, duration=1.06, seed=0,
                    snr_db=math.inf, signal_kind="speech", **kw):
    az = math.radians(azimuth_deg)
    source = array.center + 3.0 * np.array([math.cos(az), math.sin(az)])
    scene = sim.Scene(arrays=(array,), source=source, signal_kind=signal_kind,
                      duration=duration, snr_db=snr_db, seed=seed,
                      model=MODEL, **kw)
    recs, truth = sim.synthesize(scene)
    return recs[0], truth


def gcc_estimate(rec, array, num_windows=2, upsample=8, **kw):
    filtered = dsp.bandpass_recording(rec, *BAND)
    delays = expand_delay_features(filtered, array, num_windows=num_windows,
                                   upsample_factor=upsample, model=MODEL,
                                   band_hz=BAND)
    return estimate_aoa_gcc(delays, array, MODEL, **kw)


# --- types ------------------------------------------------------------------

def test_spectrum_requires_uniform_grid():
    with pytest.raises(ValueError):
        AoaSpectrum(angles_deg=np.array([0.0, 1.0, 3.0]),
                    scores=np.zeros(3), method=AoaMethod.GCC_PLUS)


def test_estimate_wraps_azimuth():
    est = AoaEstimate(azimuth=7.0, method=AoaMethod.GCC_PLUS, array_id="a")
    assert 0.0 <= est.azimuth < 2.0 * math.pi


def test_circular_error():
    assert circular_error_deg(359.0, 1.0) == pytest.approx(2.0)
    assert circular_error_deg(10.0, 190.0) == pytest.approx(180.0)


# --- GCC matcher -------------------------------------------------------------

def test_gcc_noiseless_plane_wave_within_half_step():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec, truth = scene_recording(array, 40.0, seed=1)
    spectrum, est = gcc_estimate(rec, array, grid_step_deg=1.0)
    assert not spectrum.ambiguous
    assert circular_error_deg(est.azimuth_deg, truth.azimuth_deg["A"]) <= 0.5


def test_gcc_zero_delays_on_symmetric_array_is_ambiguous():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    delays = DelayVector(pairs=mic_pairs(), delays=np.zeros((1, 15)),
                         peak_scores=np.ones((1, 15)),
                         low_confidence=np.zeros((1, 15), bool),
                         source_array="A")
    with pytest.raises(AmbiguousEstimateError, match="'A'") as exc:
        estimate_aoa_gcc(delays, array, MODEL)
    assert exc.value.spectrum.ambiguous


def test_gcc_all_low_confidence_raises_with_spectrum():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="north")
    delays = DelayVector(pairs=mic_pairs(), delays=np.full((1, 15), 1e-5),
                         peak_scores=np.full((1, 15), 0.5),
                         low_confidence=np.ones((1, 15), bool),
                         source_array="north")
    with pytest.raises(AmbiguousEstimateError) as exc:
        estimate_aoa_gcc(delays, array, MODEL)
    assert isinstance(exc.value.spectrum, AoaSpectrum)
    assert "'north'" in str(exc.value)


def test_gcc_empty_delay_vector_rejected():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    with pytest.raises(ValueError):
        estimate_aoa_gcc(DelayVector(pairs=(), delays=np.zeros((1, 0)),
                                     peak_scores=np.zeros((1, 0)),
                                     low_confidence=np.zeros((1, 0), bool),
                                     source_array="A"),
                         array, MODEL)


def test_gcc_grid_step_bounds():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    delays = DelayVector(pairs=[(0, 1)], delays=[[0.0]], peak_scores=[[1.0]],
                         low_confidence=[[False]], source_array="A")
    for bad in (0.0, 5.5, -1.0):
        with pytest.raises(ValueError):
            estimate_aoa_gcc(delays, array, MODEL, grid_step_deg=bad)


def test_gcc_global_frame_consistency():
    # rotating the array and the source by the same angle leaves the
    # estimate unchanged
    base = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec0, truth0 = scene_recording(base, 40.0, seed=2)
    _, est0 = gcc_estimate(rec0, base)
    shift = 55.0
    rotated = build_hex_array((0.0, 0.0), math.radians(shift), array_id="A")
    rec1, truth1 = scene_recording(rotated, 40.0 + shift, seed=2)
    _, est1 = gcc_estimate(rec1, rotated)
    err0 = circular_error_deg(est0.azimuth_deg, 40.0)
    err1 = circular_error_deg(est1.azimuth_deg, 40.0 + shift)
    assert abs(err0 - err1) <= 0.5


def test_gcc_scale_invariance():
    array = build_hex_array((0.0, 0.0), 0.3, array_id="A")
    rec, _ = scene_recording(array, 130.0, seed=3, snr_db=25.0)
    scaled = MultichannelRecording(rec.samples * 37.5, rec.sample_rate)
    _, est = gcc_estimate(rec, array)
    _, est_scaled = gcc_estimate(scaled, array)
    assert est.azimuth_deg == pytest.approx(est_scaled.azimuth_deg, abs=1e-6)


def test_gcc_refined_angle_near_discrete_argmax():
    array = build_hex_array((0.0, 0.0), 0.1, array_id="A")
    rec, _ = scene_recording(array, 77.3, seed=4, snr_db=20.0)
    spectrum, est = gcc_estimate(rec, array, grid_step_deg=1.0)
    discrete = spectrum.angles_deg[int(np.argmax(spectrum.scores))]
    assert circular_error_deg(est.azimuth_deg, discrete) <= 1.0


# Rotating the array and the source by whole grid steps shifts the score
# grid circularly, so the estimate moves by exactly those steps up to the
# rounding of the rotated element positions and predicted delays. Over 300
# draws the worst deviation seen was 1.4e-13 degrees; 1e-9 degrees leaves
# four orders of headroom and is still far below a real error.
ROTATION_TOLERANCE_DEG = 1e-9


@settings(max_examples=100, deadline=None)
@given(orientation=st.floats(-math.pi, math.pi),
       source_deg=st.floats(0.0, 360.0, exclude_max=True),
       grid_step_deg=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
       steps=st.integers(-720, 720),
       noise=st.lists(st.floats(-2e-5, 2e-5), min_size=15, max_size=15),
       scores=st.lists(st.floats(0.05, 1.0), min_size=15, max_size=15))
# a source halfway between two grid angles: the two scores tie up to
# rounding, and either may be the argmax. GCC+ refines both to the same
# azimuth; GCC-PHAT keeps the grid angle, so it is not drawn here
@example(orientation=0.0, source_deg=0.5, grid_step_deg=1.0, steps=1,
         noise=[0.0] * 15, scores=[1.0] * 15)
def test_gcc_equivariant_under_whole_step_rotation(orientation, source_deg,
                                                   grid_step_deg, steps,
                                                   noise, scores):
    def estimate(array_orientation, azimuth_deg):
        array = build_hex_array((0.0, 0.0), array_orientation, array_id="A")
        delays = [float(predicted_pair_delay(array, p, math.radians(
            azimuth_deg), MODEL)) + e for p, e in zip(mic_pairs(), noise)]
        vector = DelayVector(pairs=mic_pairs(), delays=[delays],
                             peak_scores=[scores],
                             low_confidence=[[False] * 15], source_array="A")
        return estimate_aoa_gcc(vector, array, MODEL,
                                grid_step_deg=grid_step_deg)

    turn_deg = steps * grid_step_deg
    spectrum, est = estimate(orientation, source_deg)
    turned_spectrum, turned = estimate(orientation + math.radians(turn_deg),
                                       source_deg + turn_deg)
    assert turned_spectrum.ambiguous == spectrum.ambiguous
    assert circular_error_deg(turned.azimuth_deg, est.azimuth_deg + turn_deg) \
        <= ROTATION_TOLERANCE_DEG


@settings(max_examples=100, deadline=None)
@given(orientation=st.floats(-math.pi, math.pi),
       windows=st.integers(1, 4), order=st.permutations(range(15)),
       method=st.sampled_from([AoaMethod.GCC_PLUS, AoaMethod.GCC_PHAT]),
       all_negative=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_gcc_scores_equal_per_entry_loop(orientation, windows, order,
                                         method, all_negative, seed):
    # one broadcast over (windows, pairs, angles) gives the per-entry loop's
    # scores bit for bit, whatever the pair order. GCC+ weighs by peak
    # score: negative ones weigh nothing, and all-negative ones fall back
    # to uniform weights. GCC-PHAT weighs uniformly
    array = build_hex_array((0.0, 0.0), orientation, array_id="A")
    rng = np.random.default_rng(seed)
    shape = (windows, 15)
    delays = DelayVector(pairs=[mic_pairs()[k] for k in order],
                         delays=rng.normal(0.0, 1e-4, shape),
                         peak_scores=rng.uniform(-1.0, 1.0, shape)
                         - float(all_negative),
                         low_confidence=np.zeros(shape, bool),
                         source_array="A")
    spectrum, _ = estimate_aoa_gcc(delays, array, MODEL, method=method)
    want = oracles.grid_match_scores_loop(
        delays.entries, array, MODEL, spectrum.angles_deg,
        weighted=method is AoaMethod.GCC_PLUS)
    assert spectrum.scores.tobytes() == want.tobytes()


def test_gcc_matcher_refuses_music():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    delays = DelayVector(pairs=mic_pairs(), delays=np.zeros((1, 15)),
                         peak_scores=np.ones((1, 15)),
                         low_confidence=np.zeros((1, 15), bool),
                         source_array="A")
    with pytest.raises(ValueError, match="gcc\\+ or gcc-phat"):
        estimate_aoa_gcc(delays, array, MODEL, method=AoaMethod.MUSIC)


# --- GCC-PHAT baseline --------------------------------------------------------

def test_baseline_agrees_with_enhanced_on_clean_fixture():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec, truth = scene_recording(array, 40.0, seed=5)
    filtered = dsp.bandpass_recording(rec, *BAND)
    _, base = baseline_aoa_gcc_phat(filtered, array, MODEL)
    _, enhanced = gcc_estimate(rec, array)
    # one coarse delay step across the aperture spans a few degrees
    assert circular_error_deg(base.azimuth_deg, enhanced.azimuth_deg) <= 5.0


def test_baseline_zero_signal_raises():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec = MultichannelRecording(np.zeros((6, 8192)), FS)
    with pytest.raises(NoSignalError):
        baseline_aoa_gcc_phat(rec, array, MODEL)


def test_baseline_error_not_better_on_fractional_fixtures():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rng = np.random.default_rng(6)
    base_errs, plus_errs = [], []
    for trial in range(8):
        azimuth = float(rng.uniform(0.0, 360.0))
        rec, truth = scene_recording(array, azimuth, seed=200 + trial,
                                     snr_db=20.0)
        filtered = dsp.bandpass_recording(rec, *BAND)
        _, base = baseline_aoa_gcc_phat(filtered, array, MODEL)
        _, plus = gcc_estimate(rec, array)
        base_errs.append(circular_error_deg(base.azimuth_deg,
                                            truth.azimuth_deg["A"]))
        plus_errs.append(circular_error_deg(plus.azimuth_deg,
                                            truth.azimuth_deg["A"]))
    assert np.mean(base_errs) >= np.mean(plus_errs)


# --- MUSIC --------------------------------------------------------------------

def test_music_tone_from_90_degrees():
    array = build_hex_array((0.0, 0.0), 0.3, array_id="A")
    rec, truth = scene_recording(array, 90.0, duration=0.8, seed=7,
                                 signal_kind="tone", tone_hz=1000.0)
    # 0.8 s at 44.1 kHz gives dozens of 1024-sample snapshots
    spectrum, est = estimate_aoa_music(rec, array, MODEL)
    assert not spectrum.ambiguous
    assert circular_error_deg(est.azimuth_deg, truth.azimuth_deg["A"]) <= 2.0


def test_music_white_noise_flat_and_ambiguous():
    rng = np.random.default_rng(8)
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec = MultichannelRecording(rng.standard_normal((6, 44100)), FS)
    with pytest.raises(AmbiguousEstimateError, match="'A'") as exc:
        estimate_aoa_music(rec, array, MODEL)
    spectrum = exc.value.spectrum
    spread_db = 10.0 * math.log10(spectrum.scores.max() / spectrum.scores.min())
    assert spread_db <= 3.0
    assert spectrum.ambiguous


def test_music_positive_finite_spectrum():
    array = build_hex_array((0.0, 0.0), 0.5, array_id="A")
    rec, _ = scene_recording(array, 220.0, seed=9, snr_db=15.0)
    spectrum, _ = estimate_aoa_music(rec, array, MODEL)
    assert np.all(np.isfinite(spectrum.scores))
    assert np.all(spectrum.scores > 0.0)


def test_music_scale_invariance():
    array = build_hex_array((0.0, 0.0), 0.5, array_id="A")
    rec, _ = scene_recording(array, 310.0, seed=10, snr_db=25.0)
    scaled = MultichannelRecording(rec.samples * 0.037, rec.sample_rate)
    _, est = estimate_aoa_music(rec, array, MODEL)
    _, est_scaled = estimate_aoa_music(scaled, array, MODEL)
    assert est.azimuth_deg == pytest.approx(est_scaled.azimuth_deg, abs=1e-6)


def test_music_multipath_degrades_more_than_gcc():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    echoes = (sim.Echo(0.004, 0.5, 85.0), sim.Echo(0.009, 0.5, -130.0))
    errs_music, errs_gcc = [], []
    for trial, azimuth in enumerate((33.0, 151.0, 264.0)):
        rec, truth = scene_recording(array, azimuth, seed=300 + trial,
                                     snr_db=20.0, echoes=echoes)
        filtered = dsp.bandpass_recording(rec, *BAND)
        _, m_est = estimate_aoa_music(filtered, array, MODEL)
        _, g_est = gcc_estimate(rec, array)
        errs_music.append(circular_error_deg(m_est.azimuth_deg,
                                             truth.azimuth_deg["A"]))
        errs_gcc.append(circular_error_deg(g_est.azimuth_deg,
                                           truth.azimuth_deg["A"]))
    assert np.median(errs_music) > np.median(errs_gcc)


def test_music_zero_recording_raises():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec = MultichannelRecording(np.zeros((6, 8192)), FS)
    with pytest.raises(NoSignalError):
        estimate_aoa_music(rec, array, MODEL)


def test_music_rank_deficiency_warns():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rng = np.random.default_rng(11)
    rec = MultichannelRecording(rng.standard_normal((6, 2048)), FS)
    # 3 snapshots < 6 channels; white noise leaves no azimuth standing out
    with pytest.warns(RuntimeWarning), \
            pytest.raises(AmbiguousEstimateError) as exc:
        estimate_aoa_music(rec, array, MODEL)
    assert exc.value.spectrum.ambiguous


def test_covariance_stack_hermitian_psd():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec, _ = scene_recording(array, 10.0, seed=12, snr_db=10.0)
    stack = covariance_stack(rec)
    assert stack.matrices.shape[1:] == (6, 6)
    for mat in stack.matrices:
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-9)
        eigenvalues = np.linalg.eigvalsh(mat)
        assert eigenvalues.min() >= -1e-9 * max(1.0, eigenvalues.max())


def test_covariance_stack_band_validation():
    array = build_hex_array((0.0, 0.0), 0.0, array_id="A")
    rec, _ = scene_recording(array, 10.0, seed=13, snr_db=10.0)
    # the band rule and its message are dsp.bandpass's
    with pytest.raises(ValueError, match="band edges must satisfy"):
        covariance_stack(rec, band_hz=(3500.0, 300.0))


@pytest.mark.parametrize("echoes", [(), (sim.Echo(0.004, 0.5, 85.0),
                                         sim.Echo(0.009, 0.5, -130.0))],
                         ids=["clean", "two-echo"])
def test_music_batched_equals_per_bin_loop(echoes):
    # one STFT over all frames, one covariance product, eigh and projection
    # over all bins: the same numbers as the frame-by-frame, bin-by-bin loop
    array = build_hex_array((0.0, 0.0), 0.4, array_id="A")
    for trial, azimuth in enumerate((33.0, 151.0, 264.0)):
        rec, _ = scene_recording(array, azimuth, seed=400 + trial,
                                 snr_db=20.0, echoes=echoes)
        filtered = dsp.bandpass_recording(rec, *BAND)
        stack = covariance_stack(filtered)
        selected = np.round(stack.frequencies * MUSIC_FRAME / FS).astype(int)
        want = oracles.covariance_stack_loop(filtered.samples, selected,
                                             MUSIC_FRAME, MUSIC_HOP)
        assert stack.matrices.tobytes() == want.tobytes()
        spectrum, _ = estimate_aoa_music(filtered, array, MODEL)
        taus = element_delays(array, np.deg2rad(spectrum.angles_deg), MODEL)
        scores = oracles.music_scores_loop(want, stack.frequencies, taus,
                                           COVARIANCE_LOADING)
        assert spectrum.scores.tobytes() == scores.tobytes()
