"""The channel-matrix front end: stacked spectral kernels and the band-pass
agree with their one-row calls, every kernel keeps the spectrum layout, the
windowed and batched correlation agree with the full single one and with a
direct inverse DFT, the pair chain on the band's bins agrees with the
full-layout one, and a lone pair delay agrees with the all-pairs
expansion."""

import dataclasses

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import oracles
from hexloc import dsp, geometry, sim, tdoa
from hexloc.dsp import MultichannelRecording
from hexloc.geometry import PropagationModel, build_hex_array, mic_pairs

FS = 44100.0
BAND = dsp.DEFAULT_BAND_HZ
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def channel_matrix(draw):
    channels = draw(st.integers(2, 6))
    length = draw(st.integers(8, 700))  # both parities
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x = np.random.default_rng(seed).standard_normal((channels, length))
    if draw(st.booleans()):
        x[draw(st.integers(0, channels - 1))] = 0.0
    return x


def whitened(x, gated):
    """PHAT-whitened cross-power spectra of consecutive channel pairs,
    stacked, with origin length equal to the (even or odd) sample count."""
    spectra = dsp.real_spectrum(MultichannelRecording(x, FS))
    g = dsp.cross_power(spectra.rows(slice(None, -1)), spectra.rows(slice(1, None)))
    if gated:
        g = dsp.band_limit(g, *BAND)
    return dsp.phat_weight(g)


def assert_rows_equal(stacked, rows):
    assert stacked.bins.shape == (len(rows),) + rows[0].bins.shape
    for got, want in zip(stacked.bins, rows):
        assert want.bin_spacing == stacked.bin_spacing
        assert want.origin_length == stacked.origin_length
        np.testing.assert_array_equal(got, want.bins)


@PROPERTY
@given(x=channel_matrix(), pad=st.integers(0, 64),
       gated=st.booleans())
# rows small and stacks large enough for numpy to reuse temporaries in place
@example(x=np.random.default_rng(1).standard_normal((6, 20000)), pad=0,
         gated=True)
def test_stacked_kernels_equal_row_calls(x, pad, gated):
    nfft = x.shape[1] + pad
    stacked = dsp.real_spectrum(MultichannelRecording(x, FS), nfft)
    singles = [dsp.real_spectrum(MultichannelRecording(row[None], FS),
                                 nfft).rows(0) for row in x]
    assert_rows_equal(stacked, singles)

    pairs = mic_pairs(x.shape[0])
    first, second = np.array(pairs).T
    g = dsp.cross_power(stacked.rows(first), stacked.rows(second))
    g_rows = [dsp.cross_power(singles[i], singles[j]) for i, j in pairs]
    assert_rows_equal(g, g_rows)
    if gated:
        g = dsp.band_limit(g, *BAND)
        g_rows = [dsp.band_limit(r, *BAND) for r in g_rows]
        assert_rows_equal(g, g_rows)
    assert_rows_equal(dsp.phat_weight(g), [dsp.phat_weight(r) for r in g_rows])


@PROPERTY
@given(x=channel_matrix())
# a long recording: the filter's transform temporaries are large enough for
# numpy to reuse them in place
@example(x=np.random.default_rng(11).standard_normal((3, 46746)))
def test_stacked_bandpass_equals_row_calls(x):
    # the simulator shapes its speech source as a one-row recording
    stacked = dsp.bandpass(MultichannelRecording(x, FS), *BAND).samples
    for got, row in zip(stacked, x):
        want = dsp.bandpass(MultichannelRecording(row[None], FS), *BAND)
        assert got.tobytes() == want.samples[0].tobytes()


@PROPERTY
@given(x=channel_matrix(), up=st.integers(1, 8),
       gated=st.booleans(), data=st.data())
def test_windowed_correlate_is_centred_slice_of_full(x, up, gated, data):
    phi = whitened(x, gated).rows(0)
    support = dsp.correlation_support_steps(phi.origin_length, up)
    steps = data.draw(st.integers(0, support))
    event(f"full support: {steps == support}")

    full = dsp.correlate_many(phi, up)
    win = dsp.correlate_many(phi, up, max_lag_steps=steps)
    assert win.shape == (2 * steps + 1,)
    center = full.size // 2
    centred = full[center - steps: center + steps + 1]
    np.testing.assert_allclose(win, centred, rtol=0, atol=1e-12)


@PROPERTY
@given(x=channel_matrix(), up=st.integers(1, 8),
       gated=st.booleans(), data=st.data())
def test_correlate_many_rows_equal_row_calls(x, up, gated, data):
    # a row's correlation does not depend on the batch it is computed in
    phis = whitened(x, gated)
    support = dsp.correlation_support_steps(phis.origin_length, up)
    steps = data.draw(st.none() | st.integers(0, support))
    batch = dsp.correlate_many(phis, up, max_lag_steps=steps)
    assert batch.shape[0] == phis.bins.shape[0]
    for k, got in enumerate(batch):
        single = dsp.correlate_many(phis.rows(k), up, max_lag_steps=steps)
        assert single.shape == got.shape
        np.testing.assert_allclose(got, single, rtol=0, atol=1e-12)


@PROPERTY
@given(x=channel_matrix(), up=st.integers(1, 8), gated=st.booleans(),
       window=st.floats(0.0, 1.0))
# an even length's Nyquist bin counts once, also once upsampling splits it
@example(x=np.random.default_rng(2).standard_normal((2, 64)), up=1,
         gated=False, window=1.0)
@example(x=np.random.default_rng(3).standard_normal((3, 90)), up=3,
         gated=False, window=0.5)
def test_correlate_equals_direct_inverse_dft(x, up, gated, window):
    phis = whitened(x, gated)
    support = dsp.correlation_support_steps(phis.origin_length, up)
    steps = int(window * support)
    batch = dsp.correlate_many(phis, up, max_lag_steps=steps)
    for k, got in enumerate(batch):
        want = oracles.upsampled_correlation(zero_filled(phis)[k],
                                             phis.origin_length, up, steps)
        single = dsp.correlate_many(phis.rows(k), up, max_lag_steps=steps)
        np.testing.assert_allclose(single, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pair_delay_is_the_expansion_entry():
    # One delay path: a lone pair and the 15-pair batch run the same code.
    # They may differ only by rounding, because the batch shares one lag
    # window, the widest pair's, which sets the chirp-z transform length.
    model = PropagationModel()
    array = build_hex_array((0.0, 0.0), 0.3, array_id="A")
    scene = sim.Scene(arrays=(array,), source=(2.0, 1.0), snr_db=20.0, seed=5,
                      model=model)
    recordings, _ = sim.synthesize(scene)
    rec = dsp.bandpass_recording(recordings[0], *BAND)
    up = dsp.DEFAULT_UPSAMPLE
    expanded = tdoa.expand_delay_features(rec, array, num_windows=1,
                                          upsample_factor=up, model=model,
                                          band_hz=BAND)
    assert [e.pair for e in expanded.entries] == mic_pairs()
    fine_step = 1.0 / (FS * up)
    for entry in expanded.entries:
        i, j = entry.pair
        single = tdoa.estimate_pair_delay(
            MultichannelRecording(rec.samples[[i, j]], FS),
            geometry.pair_baseline(array, entry.pair) / model.speed_of_sound
            * tdoa.MAX_LAG_SLACK,
            upsample_factor=up, band_hz=BAND)
        assert single.window_index == entry.window_index == 0
        assert single.low_confidence == entry.low_confidence
        assert single.delay == pytest.approx(entry.delay, rel=0,
                                             abs=1e-9 * fine_step)
        assert single.peak_score == pytest.approx(entry.peak_score, rel=1e-9)


@st.composite
def band(draw):
    """A band in Hz: from DC or above, up to Nyquist or below."""
    nyq = FS / 2.0
    low = draw(st.just(0.0) | st.floats(0.0, 0.9 * nyq))
    high = draw(st.just(nyq) | st.floats(low + 1.0, nyq))
    return low, high


def zero_filled(spectrum):
    """A spectrum's bins in the full one-sided layout."""
    full = np.zeros(spectrum.bins.shape[:-1] + (spectrum.origin_length // 2 + 1,),
                    dtype=complex)
    full[..., spectrum.first_bin:spectrum.first_bin + spectrum.bins.shape[-1]] \
        = spectrum.bins
    return full


def trimmed_chain(x, nfft, band_hz):
    """Band gate the channel spectra, then cross-power and PHAT of every
    channel pair on the band's bins (the pair core's order)."""
    spectra = dsp.real_spectrum(MultichannelRecording(x, FS), nfft)
    trimmed = dsp.band_limit(spectra, *band_hz)
    assert trimmed.bins.flags.c_contiguous
    assert not np.shares_memory(trimmed.bins, spectra.bins)
    first, second = np.array(mic_pairs(x.shape[0])).T
    return dsp.phat_weight(dsp.cross_power(trimmed.rows(first),
                                           trimmed.rows(second)))


def full_chain(x, nfft, band_hz):
    """Cross-power of every channel pair on all bins, then band gate,
    zero-filled back to the full layout, then PHAT."""
    spectra = dsp.real_spectrum(MultichannelRecording(x, FS), nfft)
    first, second = np.array(mic_pairs(x.shape[0])).T
    g = dsp.cross_power(spectra.rows(first), spectra.rows(second))
    gated = dsp.Spectrum(zero_filled(dsp.band_limit(g, *band_hz)),
                         g.bin_spacing, g.origin_length)
    return dsp.phat_weight(gated)


@PROPERTY
@given(x=channel_matrix(), pad=st.integers(0, 64), band_hz=band())
# the band starts at DC, and reaches Nyquist at an even and an odd length
@example(x=np.random.default_rng(4).standard_normal((3, 64)), pad=0,
         band_hz=(0.0, 3500.0))
@example(x=np.random.default_rng(5).standard_normal((3, 64)), pad=0,
         band_hz=(3500.0, FS / 2.0))
@example(x=np.random.default_rng(6).standard_normal((3, 65)), pad=0,
         band_hz=(3500.0, FS / 2.0))
# one pair and one bin: numpy multiplies a length-1 complex array in its
# scalar loop, which rounds differently from the SIMD loop of longer arrays
@example(x=np.random.default_rng(15).standard_normal((2, 8)), pad=1,
         band_hz=(4901.0, 9800.0))
def test_trimmed_pair_chain_equals_full_layout(x, pad, band_hz):
    nfft = x.shape[1] + pad
    got = trimmed_chain(x, nfft, band_hz)
    want = full_chain(x, nfft, band_hz)
    assert (got.bin_spacing, got.origin_length) \
        == (want.bin_spacing, want.origin_length)
    # equal up to the complex product's rounding: a few ulp of the unit
    # magnitude PHAT leaves
    np.testing.assert_allclose(zero_filled(got), want.bins, rtol=0,
                               atol=4 * np.finfo(float).eps)
    np.testing.assert_array_equal(
        got.frequencies, want.frequencies[got.first_bin:][:got.bins.shape[-1]])


@PROPERTY
@given(x=channel_matrix(), up=st.integers(1, 8), band_hz=band(),
       window=st.floats(0.0, 1.0))
# the band covers DC and Nyquist, and one that starts above DC ends at an
# even length's Nyquist bin
@example(x=np.random.default_rng(7).standard_normal((2, 64)), up=2,
         band_hz=(0.0, FS / 2.0), window=1.0)
@example(x=np.random.default_rng(8).standard_normal((3, 90)), up=3,
         band_hz=(3500.0, FS / 2.0), window=0.5)
def test_correlate_many_on_trimmed_stack(x, up, band_hz, window):
    nfft = x.shape[1]
    trimmed = trimmed_chain(x, nfft, band_hz)
    full = full_chain(x, nfft, band_hz)
    support = dsp.correlation_support_steps(nfft, up)
    steps = int(window * support)
    got = dsp.correlate_many(trimmed, up, max_lag_steps=steps)
    want = dsp.correlate_many(full, up, max_lag_steps=steps)
    for k, (g, w) in enumerate(zip(got, want)):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
        oracle = oracles.upsampled_correlation(full.bins[k], nfft, up, steps)
        np.testing.assert_allclose(g, oracle, rtol=0, atol=1e-12)


def test_trimmed_spectrum_layout():
    x = np.random.default_rng(9).standard_normal((2, 400))
    spectra = dsp.real_spectrum(MultichannelRecording(x, FS))
    trimmed = dsp.band_limit(spectra, *BAND)
    assert trimmed.bins.flags.c_contiguous
    assert not np.shares_memory(trimmed.bins, spectra.bins)
    # rows, the inverse transform and the band gate keep the offset
    assert trimmed.first_bin > 0
    assert trimmed.rows(1).first_bin == trimmed.first_bin
    np.testing.assert_array_equal(dsp.inverse_real_spectrum(trimmed),
                                  np.fft.irfft(zero_filled(trimmed), n=400))
    again = dsp.band_limit(trimmed, *BAND)
    assert again.first_bin == trimmed.first_bin
    np.testing.assert_array_equal(again.bins, trimmed.bins)
    # a band narrower than one bin keeps no bins
    silent = dsp.band_limit(spectra, 1000.0, 1000.1)
    assert silent.bins.shape == (2, 0)
    assert not np.any(dsp.inverse_real_spectrum(silent))


def test_cross_power_rejects_mismatched_extents():
    x = np.random.default_rng(10).standard_normal((2, 400))
    spectra = dsp.real_spectrum(MultichannelRecording(x, FS))
    trimmed = dsp.band_limit(spectra, *BAND)
    with pytest.raises(ValueError):
        dsp.cross_power(trimmed, spectra)  # different widths
    shifted = dsp.band_limit(spectra, BAND[0] + 2 * spectra.bin_spacing,
                             BAND[1] + 2 * spectra.bin_spacing)
    assert shifted.bins.shape == trimmed.bins.shape
    assert shifted.first_bin != trimmed.first_bin
    with pytest.raises(ValueError):
        dsp.cross_power(trimmed, shifted)  # same width, different first bin


def assert_layout(spectrum, bin_spacing, origin_length, first_bin):
    assert (spectrum.bin_spacing, spectrum.origin_length, spectrum.first_bin) \
        == (bin_spacing, origin_length, first_bin)
    assert spectrum.bins.ndim >= 1 and spectrum.first_bin >= 0
    assert spectrum.first_bin + spectrum.bins.shape[-1] \
        <= spectrum.origin_length // 2 + 1
    dataclasses.replace(spectrum)  # the one constructor accepts it


@PROPERTY
@given(x=channel_matrix(), pad=st.integers(0, 64), band_hz=band())
@example(x=np.random.default_rng(12).standard_normal((2, 64)), pad=0,
         band_hz=(3500.0, FS / 2.0))
def test_kernels_keep_the_spectrum_layout(x, pad, band_hz):
    nfft = x.shape[1] + pad
    layout = (FS / nfft, nfft)
    spectra = dsp.real_spectrum(MultichannelRecording(x, FS), nfft)
    assert spectra.bins.shape == (x.shape[0], nfft // 2 + 1)
    assert_layout(spectra, *layout, 0)
    gated = dsp.band_limit(spectra, *band_hz)
    assert_layout(gated, *layout, gated.first_bin)
    # first_bin places the band's bins in the one-sided layout
    np.testing.assert_array_equal(zero_filled(gated)[..., gated.first_bin:],
                                  spectra.bins[..., gated.first_bin:]
                                  * (spectra.frequencies[gated.first_bin:]
                                     <= band_hz[1]))
    for spectrum in (spectra, gated):
        g = dsp.cross_power(spectrum.rows(slice(1, None)),
                            spectrum.rows(slice(None, -1)))
        for out in (spectrum.rows(0), spectrum.rows([0, -1]), g,
                    dsp.phat_weight(g)):
            assert_layout(out, *layout, spectrum.first_bin)
        # gating a gated spectrum again keeps its band
        assert_layout(dsp.band_limit(spectrum, *band_hz), *layout,
                      gated.first_bin)
