import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexloc import dsp, geometry, sim, tdoa
from hexloc.geometry import PropagationModel, build_hex_array
from hexloc.sim import Echo, Scene, sample_scenarios, synthesize

import oracles

MODEL = PropagationModel()
FS = MODEL.sample_rate


def one_array_scene(**kw):
    array = build_hex_array((0.0, 0.0), 0.3, array_id="T")
    defaults = dict(arrays=(array,), source=(2.0, 1.5), signal_kind="speech",
                    duration=1.06, snr_db=math.inf, seed=5, model=MODEL)
    defaults.update(kw)
    return Scene(**defaults)


def test_scene_validation():
    array = build_hex_array((1.0, 1.0), 0.0, array_id="T")
    with pytest.raises(ValueError):
        Scene(arrays=(array,), source=(1.0, 1.0))  # source on the array
    with pytest.raises(ValueError):
        Scene(arrays=(array,), source=(0.0, 0.0), duration=0.0)
    with pytest.raises(ValueError):
        Scene(arrays=(array,), source=(0.0, 0.0),
              echoes=((0.01, 1.5, 30.0),))  # gain >= 1
    with pytest.raises(ValueError):
        Scene(arrays=(array,), source=(0.0, 0.0), signal_kind="square")
    for source in ((math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="source must be a finite 2D point"):
            Scene(arrays=(array,), source=source)
    twin = build_hex_array((6.0, 0.0), 2.0, array_id="T")
    with pytest.raises(ValueError, match="array id 'T' is repeated"):
        Scene(arrays=(array, twin), source=(3.0, 2.0))


def test_noiseless_delays_match_geometry_to_1e4_samples():
    source_at_40_deg = (3.0 * math.cos(math.radians(40.0)),
                        3.0 * math.sin(math.radians(40.0)))
    scene = one_array_scene(seed=9, source=source_at_40_deg,
                            arrays=(build_hex_array((0.0, 0.0), 0.0,
                                                    array_id="T"),))
    recordings, truth = synthesize(scene)
    filtered = dsp.bandpass_recording(recordings[0], *dsp.DEFAULT_BAND_HZ)
    delays = tdoa.expand_delay_features(filtered, scene.arrays[0],
                                        num_windows=1, upsample_factor=32,
                                        model=MODEL,
                                        band_hz=dsp.DEFAULT_BAND_HZ)
    for entry in delays.entries:
        expected = truth.pair_delays["T"][entry.pair]
        assert abs(entry.delay - expected) * FS < 1e-4


def test_zero_gain_echoes_bit_identical():
    clean = synthesize(one_array_scene())[0][0]
    with_zero = synthesize(one_array_scene(
        echoes=(Echo(0.01, 0.0, 45.0), Echo(0.02, 0.0, -60.0))))[0][0]
    assert clean.samples.tobytes() == with_zero.samples.tobytes()


@settings(max_examples=60, deadline=None)
@given(shift=st.lists(st.floats(0.0, 0.2), min_size=1, max_size=6),
       num_bins=st.sampled_from([sim._RAMP_BLOCK - 1, sim._RAMP_BLOCK,
                                 sim._RAMP_BLOCK + 1, 32769]),
       sample_rate=st.sampled_from([16000.0, 44100.0, 48000.0]))
def test_factored_ramp_matches_direct(shift, num_bins, sample_rate):
    bin_hz = sample_rate / (2 * (num_bins - 1))  # an rfft with num_bins bins
    got = sim._delay_ramp(np.array(shift), bin_hz, num_bins)
    want = oracles.delay_ramp(np.array(shift), bin_hz, num_bins)
    assert got.shape == want.shape == (len(shift), num_bins)
    assert np.max(np.abs(got - want)) <= 1e-11


@pytest.mark.parametrize("echoes", [(), (Echo(0.004, 0.5, 40.0),
                                         Echo(0.011, 0.3, -70.0))],
                         ids=["clean", "two-echo"])
def test_render_matches_direct_ramp(monkeypatch, echoes):
    scene = Scene(arrays=sim.default_array_layout(), source=(2.2, 1.7),
                  snr_db=20.0, echoes=echoes, seed=12, model=MODEL)
    shipped = synthesize(scene)[0]
    monkeypatch.setattr(sim, "_delay_ramp", oracles.delay_ramp)
    direct = synthesize(scene)[0]
    for got, want in zip(shipped, direct):
        peak = np.max(np.abs(want.samples))
        assert np.max(np.abs(got.samples - want.samples)) <= 1e-12 * peak


def test_same_seed_bit_identical():
    a = synthesize(one_array_scene(snr_db=10.0))[0][0]
    b = synthesize(one_array_scene(snr_db=10.0))[0][0]
    assert a.samples.tobytes() == b.samples.tobytes()


def test_different_seeds_differ():
    a = synthesize(one_array_scene(seed=1))[0][0]
    b = synthesize(one_array_scene(seed=2))[0][0]
    assert a.samples.tobytes() != b.samples.tobytes()


def test_tone_nyquist_violation():
    with pytest.raises(ValueError):
        synthesize(one_array_scene(signal_kind="tone", tone_hz=30000.0))


def test_tone_hz_is_checked_for_tones_only():
    # a speech scene renders no tone, so its tone_hz is not refused
    assert one_array_scene(tone_hz=0.0).tone_hz == 0.0


def test_echo_delay_budget_enforced():
    with pytest.raises(ValueError):
        one_array_scene(echoes=(Echo(0.5, 0.4, 30.0),))


def test_duration_too_short_rejected():
    with pytest.raises(ValueError):
        synthesize(one_array_scene(duration=0.05))


def test_ground_truth_azimuths_recomputable():
    arrays = sim.default_array_layout()
    scene = Scene(arrays=arrays, source=(2.2, 1.7), seed=3, model=MODEL)
    _, truth = synthesize(scene)
    for array in arrays:
        expected = math.degrees(geometry.azimuth_to(array, scene.source))
        assert truth.azimuth_deg[array.id] == pytest.approx(expected,
                                                            abs=1e-12)
        for pair, delay in truth.pair_delays[array.id].items():
            predicted = geometry.predicted_pair_delay(
                array, pair, math.radians(truth.azimuth_deg[array.id]), MODEL)
            assert delay == pytest.approx(predicted, abs=1e-12)


def test_snr_zero_energy_balance():
    scene = one_array_scene(signal_kind="speech", duration=1.06, snr_db=0.0,
                            seed=21)
    noisy = synthesize(scene)[0][0]
    clean = synthesize(one_array_scene(signal_kind="speech", duration=1.06,
                                       seed=21))[0][0]
    noise = noisy.samples - clean.samples
    signal_power = float(np.mean(clean.samples ** 2))
    noise_power = float(np.mean(noise ** 2))
    assert noise_power == pytest.approx(signal_power, rel=0.05)


def test_far_field_consistency_bound():
    # measured delays stay within the near-field error bound for the
    # closest allowed range
    array = build_hex_array((0.0, 0.0), 0.0, array_id="T")
    scene = Scene(arrays=(array,), source=(0.47, 0.0), duration=1.06,
                  snr_db=math.inf, seed=8, model=MODEL)
    recordings, truth = synthesize(scene)
    filtered = dsp.bandpass_recording(recordings[0], *dsp.DEFAULT_BAND_HZ)
    delays = tdoa.expand_delay_features(filtered, array, num_windows=1,
                                        upsample_factor=32, model=MODEL,
                                        band_hz=dsp.DEFAULT_BAND_HZ)
    c = MODEL.speed_of_sound
    for entry in delays.entries:
        baseline = geometry.pair_baseline(array, entry.pair)
        bound = baseline ** 2 / (2.0 * 0.47 * c)
        assert abs(entry.delay - truth.pair_delays["T"][entry.pair]) < bound


def test_per_array_clock_offsets_differ():
    arrays = sim.default_array_layout()
    scene = Scene(arrays=arrays, source=(3.0, 2.0), seed=4, model=MODEL,
                  signal_kind="chirp")
    recordings, _ = synthesize(scene)
    # cross-array alignment reflects the random start offsets, far beyond
    # any geometric delay (aperture < 0.3 ms; offsets span tens of ms)
    a = recordings[0].samples[0]
    b = recordings[1].samples[0]
    lag = oracles.brute_force_delay_samples(a[::4], b[::4], 700) * 4
    assert abs(lag) > 0.001 * FS


def test_sample_scenarios_count_and_determinism():
    scenes_a = sample_scenarios(50, (0.5, 0.5, 5.5, 4.5), seed=7)
    scenes_b = sample_scenarios(50, (0.5, 0.5, 5.5, 4.5), seed=7)
    assert len(scenes_a) == 50
    positions = {tuple(s.source) for s in scenes_a}
    assert len(positions) == 50
    for a, b in zip(scenes_a, scenes_b):
        assert tuple(a.source) == tuple(b.source)
        assert a.seed == b.seed


def test_sample_scenarios_range_window():
    scenes = sample_scenarios(30, (0.0, 0.0, 8.0, 8.0), seed=11)
    for scene in scenes:
        dists = [float(np.linalg.norm(scene.source - a.center))
                 for a in scene.arrays]
        assert min(dists) >= sim.RANGE_LIMITS_M[0]
        assert min(dists) <= sim.RANGE_LIMITS_M[1]
        assert scene.duration == pytest.approx(1.06)


def test_sample_scenarios_point_bounds():
    point = (2.0, 1.0)
    scenes = sample_scenarios(1, (point[0], point[1], point[0], point[1]),
                              seed=1)
    assert tuple(scenes[0].source) == point


@pytest.mark.parametrize("bounds", [(math.nan,) * 4,
                                    (0.0, 0.0, math.inf, math.inf),
                                    (-1e308, 0.0, 1e308, 1.0)],
                         ids=["nan", "inf", "overflow"])
def test_sample_scenarios_refuses_infinite_rectangle(bounds):
    with pytest.raises(ValueError, match="bounds must span a finite rectangle"):
        sample_scenarios(1, bounds)


def test_sample_scenarios_infeasible_rejected():
    arrays = (build_hex_array((100.0, 100.0), 0.0, array_id="far"),)
    with pytest.raises(ValueError):
        sample_scenarios(1, (0.0, 0.0, 1.0, 1.0), seed=0, arrays=arrays)


def test_sample_scenarios_truth_recomputable():
    scenes = sample_scenarios(3, (0.5, 0.5, 5.5, 4.5), seed=13)
    for scene in scenes:
        _, truth = synthesize(scene)
        for array in scene.arrays:
            dx = scene.source[0] - array.center[0]
            dy = scene.source[1] - array.center[1]
            expected = math.degrees(math.atan2(dy, dx)) % 360.0
            assert truth.azimuth_deg[array.id] == pytest.approx(expected,
                                                                abs=1e-12)


# --- the pooled render against the serial loop --------------------------------
# Every random draw stays in the serial order (per array: start offset, then
# noise), and each array renders on its own task; the recordings must equal
# the one-loop renderer's bit for bit.

@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("snr_db,echoes", [
    (20.0, ()),
    (20.0, (Echo(0.004, 0.5, 85.0), Echo(0.009, 0.5, -130.0))),
    (math.inf, ()),
], ids=["clean", "two-echo", "noiseless"])
def test_synthesize_equals_serial_render(count, snr_db, echoes):
    scene = Scene(arrays=sim.default_array_layout()[:count],
                  source=(2.2, 1.7), snr_db=snr_db, echoes=echoes, seed=12,
                  model=MODEL)
    got, _ = synthesize(scene)
    want = oracles.synthesize_serial(scene)
    assert len(got) == len(want) == count
    for rec, samples in zip(got, want):
        assert rec.samples.tobytes() == samples.tobytes()


class LateNoiseGenerator:
    """A Generator whose in-place normal draws (the scene noise) start
    late, so that a render that did not wait for its noise would add an
    unfilled buffer."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, out=None, **kw):
        if out is not None:
            time.sleep(0.05)
        return self._rng.standard_normal(*args, out=out, **kw)


def test_renders_wait_for_their_noise(monkeypatch):
    scene = Scene(arrays=sim.default_array_layout(), source=(2.2, 1.7),
                  snr_db=20.0, seed=12, model=MODEL)
    want = oracles.synthesize_serial(scene)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: LateNoiseGenerator(default_rng(seed)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got, _ = synthesize(scene)
    finally:
        sys.setswitchinterval(interval)
    for rec, samples in zip(got, want):
        assert rec.samples.tobytes() == samples.tobytes()
