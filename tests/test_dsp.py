import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal

from hexloc import dsp
from hexloc.dsp import (MultichannelRecording, Spectrum, band_limit, bandpass,
                        correlate_many, cross_power, inverse_real_spectrum,
                        phat_weight, real_spectrum)

import oracles

FS = 44100.0


def white(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


def spectrum(x, nfft=None):
    """The one-sided spectrum of the 1-D signal ``x``, as one row."""
    return real_spectrum(MultichannelRecording(x[None], FS), nfft).rows(0)


def whitened_pair_spectrum(x1, x2, band=None):
    n = dsp.correlation_fft_length(x1.size)
    g = cross_power(spectrum(x1, n), spectrum(x2, n))
    if band is not None:
        g = band_limit(g, *band)
    return phat_weight(g)


# --- types ---------------------------------------------------------------

def test_real_signal_validation():
    with pytest.raises(ValueError):
        MultichannelRecording(np.array([1.0])[None], FS)
    with pytest.raises(ValueError):
        MultichannelRecording(np.array([1.0, np.nan])[None], FS)
    with pytest.raises(ValueError):
        MultichannelRecording(np.ones(8)[None], 0.0)


def test_recording_stores_channel_rows_contiguous():
    x = white(600, seed=4).reshape(100, 6)  # (samples, channels), as a WAV
    rec = MultichannelRecording(x.T, FS)
    assert rec.samples.flags.c_contiguous
    assert np.array_equal(rec.samples, x.T)


def test_spectrum_bin_count_enforced():
    # a length-16 signal has 9 one-sided bins
    with pytest.raises(ValueError):
        Spectrum(bins=np.ones(10, dtype=complex), bin_spacing=1.0,
                 origin_length=16)


def test_spectrum_layout_checked_from_first_bin():
    # 5 bins of a length-16 signal's 9 fit from bin 0 to bin 4, not later,
    # and never from a negative bin
    bins = np.ones(5, dtype=complex)
    for first_bin in (0, 4):
        assert Spectrum(bins, 1.0, 16, first_bin).first_bin == first_bin
    for first_bin in (5, -1):
        with pytest.raises(ValueError):
            Spectrum(bins, 1.0, 16, first_bin)
    with pytest.raises(ValueError):
        Spectrum(np.complex128(1.0), 1.0, 16)  # no bin axis


# --- forward/inverse round trip ------------------------------------------

@pytest.mark.parametrize("n", [256, 255])
def test_round_trip_even_and_odd(n):
    x = white(n, seed=n)
    spec = spectrum(x)
    back = inverse_real_spectrum(spec)
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9


# --- bandpass -------------------------------------------------------------

def test_bandpass_passband_tone_rms_preserved():
    t = np.arange(int(FS)) / FS
    x = np.sin(2 * np.pi * 1000.0 * t)
    y = bandpass(MultichannelRecording(x[None], FS), 300.0,
                 3500.0).samples[0]
    core = np.s_[4000:-4000]  # outside the filter's edge transients
    rms_in = oracles.sine_rms(x[core], 1000.0, FS)
    rms_out = oracles.sine_rms(y[core], 1000.0, FS)
    assert abs(20.0 * math.log10(rms_out / rms_in)) <= 1.0


def test_bandpass_stopband_tone_attenuated_40db():
    t = np.arange(int(FS)) / FS
    x = np.sin(2 * np.pi * 60.0 * t)
    y = bandpass(MultichannelRecording(x[None], FS), 300.0,
                 3500.0).samples[0]
    core = np.s_[4000:-4000]
    rms_in = oracles.sine_rms(x[core], 60.0, FS)
    rms_out = oracles.sine_rms(y[core], 60.0, FS)
    assert 20.0 * math.log10(rms_out / rms_in) <= -40.0


def test_bandpass_zero_input_zero_output():
    y = bandpass(MultichannelRecording(np.zeros((1, 2048)), FS), 300.0, 3500.0)
    assert not np.any(y.samples)


def test_bandpass_preserves_length():
    x = white(5000, seed=3)
    y = bandpass(MultichannelRecording(x[None], FS), 300.0, 3500.0)
    assert y.samples.size == x.size


@pytest.mark.parametrize("shape,band", [
    ((6, 46746), (300.0, 3500.0)),
    ((1, 15000), (300.0, 3500.0)),
    ((3, 4000), (0.0, 3500.0)),
    ((2, 4000), (300.0, FS / 2.0)),
    ((1, 200), (300.0, 3500.0)),
])
def test_bandpass_is_centred_fftconvolve_with_one_design(monkeypatch, shape,
                                                         band):
    # the taps are designed once per (rate, band, length), and filtering is
    # fftconvolve(mode="same") with them, bit for bit
    designs = []

    def recording_design(*args, **kwargs):
        designs.append(signal.firwin(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(dsp, "firwin", recording_design)
    dsp._band_filter.cache_clear()
    x = np.random.default_rng(7).standard_normal(shape)
    got = [bandpass(MultichannelRecording(x, FS), *band).samples
           for _ in range(2)]
    assert len(designs) == 1
    taps = designs[0].reshape((1,) * (x.ndim - 1) + designs[0].shape)
    want = signal.fftconvolve(x, taps, mode="same", axes=-1) \
        / np.max(np.abs(x), axis=-1, keepdims=True)
    for y in got:
        assert y.tobytes() == want.tobytes()
    response = dsp._band_filter(FS, *band, shape[-1])[0]
    assert not response.flags.writeable


@pytest.mark.parametrize("fs", [8000.0, 16000.0, 44100.0, 48000.0])
@pytest.mark.parametrize("numtaps", [3, 31, 255, 1001])
def test_firwin_matches_scipy(fs, numtaps):
    nyq = fs / 2.0
    branches = [(3500.0, True),                    # low-pass
                (300.0, False),                    # high-pass
                ([300.0, 3500.0], False),          # band-pass
                ([0.1 * nyq, 0.6 * nyq], False)]
    for cutoff, pass_zero in branches:
        for beta in (0.0, 5.65326, 8.6):
            args = (numtaps, cutoff)
            kwargs = dict(window=("kaiser", beta), pass_zero=pass_zero, fs=fs)
            want = signal.firwin(*args, **kwargs)
            got = dsp.firwin(*args, **kwargs)
            assert got.shape == want.shape
            # np.kaiser and scipy's window differ in the last bit
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("fs", [8000.0, 16000.0, 44100.0, 48000.0])
@pytest.mark.parametrize("band", [(300.0, 3500.0), (0.0, 3500.0),
                                  (300.0, None), (1000.0, 1100.0)])
@pytest.mark.parametrize("n", [200, 4096, 46746])
def test_band_filter_is_kaiserord_design(monkeypatch, fs, band, n):
    low, high = band[0], fs / 2.0 if band[1] is None else band[1]
    firwin = dsp.firwin
    calls = []

    def recording_design(*args, **kwargs):
        calls.append((args, kwargs))
        return firwin(*args, **kwargs)

    monkeypatch.setattr(dsp, "firwin", recording_design)
    dsp._band_filter.cache_clear()
    dsp._band_filter(fs, low, high, n)
    [(args, kwargs)] = calls
    assert (args[0], kwargs["window"][1]) \
        == oracles.kaiser_band_design(fs, low, high, n)


def test_next_fast_len_matches_scipy():
    from scipy import fft
    targets = list(range(1, 3001)) \
        + np.random.default_rng(5).integers(3001, 2 ** 17, 300).tolist()
    for real in (True, False):
        assert [dsp.next_fast_len(t, real) for t in targets] \
            == [fft.next_fast_len(t, real) for t in targets]


def test_bandpass_rejects_bad_edges():
    sig = MultichannelRecording(white(1024)[None], FS)
    with pytest.raises(ValueError):
        bandpass(sig, -1.0, 3500.0)
    with pytest.raises(ValueError):
        bandpass(sig, 3500.0, 300.0)
    with pytest.raises(ValueError):
        bandpass(sig, 300.0, FS)


# --- cross power ----------------------------------------------------------

def test_cross_power_self_is_real_magnitude_squared():
    spec = spectrum(white(512, seed=1))
    g = cross_power(spec, spec)
    np.testing.assert_allclose(g.bins.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(g.bins.real, np.abs(spec.bins) ** 2, rtol=1e-12)


def test_cross_power_delta_pair_phase():
    # delta at sample k against delta at 0: bin m carries phase -2 pi m k / N
    n, k = 64, 5
    a = np.zeros(n)
    a[k] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    g = cross_power(spectrum(a), spectrum(b))
    expected = np.exp(-2j * np.pi * np.arange(n // 2 + 1) * k / n)
    np.testing.assert_allclose(g.bins / np.abs(g.bins), expected, atol=1e-9)


def test_cross_power_zero_partner_zeroes_output():
    a = spectrum(white(256, seed=2))
    b = spectrum(np.zeros(256))
    assert not np.any(cross_power(a, b).bins)


def test_cross_power_shape_mismatch():
    a = spectrum(white(256))
    b = spectrum(white(128))
    with pytest.raises(ValueError):
        cross_power(a, b)


# --- PHAT weighting -------------------------------------------------------

def test_phat_unit_magnitude_bin():
    spec = Spectrum(bins=np.array([5.0, 5.0, 5.0], dtype=complex),
                    bin_spacing=1.0, origin_length=4)
    out = phat_weight(spec)
    np.testing.assert_allclose(out.bins, 1.0 + 0.0j, atol=1e-12)


def test_phat_zero_bin_stays_zero():
    bins = np.array([1.0, 0.0, 2.0], dtype=complex)
    out = phat_weight(Spectrum(bins=bins, bin_spacing=1.0, origin_length=4))
    assert out.bins[1] == 0.0


def test_phat_random_spectrum_unit_magnitudes():
    rng = np.random.default_rng(9)
    x1, x2 = rng.standard_normal(512), rng.standard_normal(512)
    g = cross_power(spectrum(x1), spectrum(x2))
    out = phat_weight(g)
    mags = np.abs(out.bins[np.abs(g.bins) > 0])
    np.testing.assert_allclose(mags, 1.0, atol=1e-9)


def test_phat_idempotent():
    g = cross_power(spectrum(white(300, seed=4)), spectrum(white(300, seed=5)))
    once = phat_weight(g)
    twice = phat_weight(once)
    np.testing.assert_allclose(twice.bins, once.bins, atol=1e-12)


# --- correlate_many -------------------------------------------------------

def test_correlate_identical_signals_peak_at_zero():
    x = white(2048, seed=6)
    phi = whitened_pair_spectrum(x, x)
    values = correlate_many(phi, 1)
    assert int(np.argmax(values)) == values.size // 2


def test_correlate_integer_delay_peak_matches_bruteforce():
    k = 7
    master = white(4096 + 2 * k, seed=7)
    x1 = master[k: 4096 + k]
    x2 = master[: 4096]  # x2[n] = x1[n - k]: channel 1 leads
    expected = oracles.brute_force_delay_samples(x1, x2, 20)
    assert expected == k  # oracle sanity
    phi = whitened_pair_spectrum(x1, x2)
    values = correlate_many(phi, 1)
    assert int(np.argmax(values)) - values.size // 2 == k


def test_correlate_upsampled_peak_within_eighth_sample():
    k = 7
    master = white(4096 + 2 * k, seed=8)
    x1 = master[k: 4096 + k]
    x2 = master[: 4096]
    phi = whitened_pair_spectrum(x1, x2)
    values = correlate_many(phi, 8)
    peak = int(np.argmax(values)) - values.size // 2
    assert abs(peak / 8.0 - k) <= 1.0 / 8.0


@pytest.mark.parametrize("n,up", [(64, 1), (64, 4), (63, 1), (63, 3)])
def test_correlate_length_and_center(n, up):
    phi = phat_weight(cross_power(
        spectrum(white(n, seed=n)),
        spectrum(white(n, seed=n + 1))))
    # origin length here is the fft length, not n
    m = phi.origin_length * up
    values = correlate_many(phi, up)
    expected_len = m - 1 if m % 2 == 0 else m
    assert values.shape == (expected_len,)


@pytest.mark.parametrize("up", [1, 2, 8])
def test_correlate_lag_zero_equals_full_spectrum_mean(up):
    # inverse-transform identity: r(0) is the mean over the Hermitian
    # two-sided spectrum
    phi = whitened_pair_spectrum(white(500, seed=10), white(500, seed=11))
    n = phi.origin_length
    full = np.concatenate([phi.bins, np.conj(phi.bins[-2:0:-1])])
    assert full.size == n
    expected = float(np.mean(full).real)
    values = correlate_many(phi, up)
    assert values[values.size // 2] == pytest.approx(expected, abs=1e-9)


def test_correlate_time_shift_theorem():
    base = white(2048, seed=12)
    for k in (3, 11, 17):
        x1 = np.concatenate([base, np.zeros(k)])
        x2 = np.concatenate([np.zeros(k), base])
        phi = whitened_pair_spectrum(x1, x2)
        values = correlate_many(phi, 1)
        assert int(np.argmax(values)) - values.size // 2 == k
        # and the mirrored delay moves the peak the other way
        phi_rev = whitened_pair_spectrum(x2, x1)
        values_rev = correlate_many(phi_rev, 1)
        assert int(np.argmax(values_rev)) - values_rev.size // 2 == -k


def test_correlate_rejects_bad_factor():
    phi = whitened_pair_spectrum(white(64), white(64, seed=1))
    with pytest.raises(ValueError):
        correlate_many(phi, 0)


@pytest.mark.parametrize("up", [1, 3, 8])
@pytest.mark.parametrize("band", [None, (300.0, 3500.0)])
def test_windowed_correlate_matches_full(up, band):
    x1, x2 = white(3000, seed=20), white(3000, seed=21)
    phi = whitened_pair_spectrum(x1, x2, band)
    full = correlate_many(phi, up)
    win = correlate_many(phi, up, max_lag_steps=40)
    center = full.size // 2
    sl = full[center - 40: center + 41]
    np.testing.assert_allclose(win, sl, atol=1e-12)


def test_correlate_many_matches_singles():
    phis = [whitened_pair_spectrum(white(3000, seed=s), white(3000, seed=s + 50),
                                   (300.0, 3500.0)) for s in range(4)]
    n = dsp.correlation_fft_length(3000)
    x1, x2 = (real_spectrum(MultichannelRecording(
        np.stack([white(3000, seed=s + k) for s in range(4)]), FS), n)
        for k in (0, 50))
    stacked = phat_weight(band_limit(cross_power(x1, x2), 300.0, 3500.0))
    batch = correlate_many(stacked, 8, max_lag_steps=30)
    assert batch.shape == (len(phis), 61)
    for phi, got in zip(phis, batch):
        single = correlate_many(phi, 8, max_lag_steps=30)
        np.testing.assert_allclose(got, single, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4096), seed=st.integers(0, 2 ** 32 - 1))
def test_correlation_fft_length_makes_circular_correlation_linear(n, seed):
    # a length below 2n - 1 would wrap the correlation's tails onto each
    # other; a power of two at or above it leaves every lag |l| <= n - 1
    # in the support, free of wraparound
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    nfft = dsp.correlation_fft_length(n)
    assert nfft >= 2 * n - 1 and nfft & (nfft - 1) == 0
    g = cross_power(spectrum(x1, nfft), spectrum(x2, nfft))
    values = correlate_many(g, 1)
    center = values.size // 2
    got = values[center - (n - 1): center + n]
    # positive lag: x2 lags x1, so lag l sums x1[t] * x2[t + l]
    want = np.correlate(x2, x1, mode="full")
    scale = np.linalg.norm(x1) * np.linalg.norm(x2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_windowed_correlate_rejects_excessive_window():
    phi = whitened_pair_spectrum(white(64), white(64, seed=1))
    with pytest.raises(ValueError):
        correlate_many(phi, 1, max_lag_steps=10 ** 9)


# --- band gate ------------------------------------------------------------

def test_band_limit_zeroes_outside():
    spec = spectrum(white(1024, seed=13))
    gated = band_limit(spec, 300.0, 3500.0)
    # the band's bins start at first_bin; every other bin is zero
    full = np.zeros_like(spec.bins)
    full[gated.first_bin:gated.first_bin + gated.bins.size] = gated.bins
    freqs = spec.frequencies
    outside = (freqs < 300.0) | (freqs > 3500.0)
    assert not np.any(full[outside])
    inside = ~outside
    np.testing.assert_allclose(full[inside], spec.bins[inside])
