"""The RIFF WAV reader and writer against ``scipy.io.wavfile``."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from hexloc import io as hio
from hexloc.dsp import MultichannelRecording

from fixtures import riff_file, wav_chunk

# the sub-format GUID of a WAVE_FORMAT_EXTENSIBLE header after its format tag
SUBFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def scipy_read(path):
    """scipy's sample rate and samples, normalized as read_wav normalizes
    them: a row per channel, integer PCM divided to [-1, 1]."""
    rate, data = wavfile.read(str(path))
    if data.ndim == 1:
        data = data[:, None]
    samples = np.ascontiguousarray(data.T, dtype=np.float64)
    if data.dtype == np.uint8:
        samples -= 128.0
        samples /= 128.0
    elif data.dtype.kind == "i":
        samples /= 2.0 ** (8 * data.dtype.itemsize - 1)
    return rate, samples


def assert_reads_as_scipy(path):
    rate, want = scipy_read(path)
    rec = hio.read_wav(path)
    assert rec.sample_rate == rate
    assert rec.samples.flags.c_contiguous
    assert rec.samples.dtype == np.float64
    np.testing.assert_array_equal(rec.samples, want)


def fmt_body(tag, channels, rate, width, bits=None, extensible=False):
    bits = 8 * width if bits is None else bits
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels,
                       rate, rate * width * channels, width * channels, bits)
    if extensible:
        body += struct.pack("<HHI", 22, bits, (1 << channels) - 1)
        body += struct.pack("<H", tag) + SUBFORMAT_TAIL
    return body


def pcm24_bytes(values):
    """Little-endian 3-byte samples of int values in [-2**23, 2**23)."""
    raw = np.asarray(values, dtype="<i4").reshape(-1, 1).view(np.uint8)
    return raw[:, :3].tobytes()


@settings(max_examples=60, deadline=None)
@given(channels=st.integers(1, 6), length=st.integers(2, 65),
       rate=st.integers(1, 192000), seed=st.integers(0, 2 ** 32 - 1))
def test_write_wav_bytes_equal_scipy(channels, length, rate, seed):
    samples = np.random.default_rng(seed).uniform(-2.0, 2.0,
                                                  (channels, length))
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.wav", Path(tmp) / "scipy.wav"
        hio.write_wav(ours, MultichannelRecording(samples, float(rate)))
        wavfile.write(str(theirs), rate,
                      np.ascontiguousarray(samples.T, dtype=np.float32))
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("dtype", ["float32", "float64", "int16", "int32",
                                   "uint8"])
@pytest.mark.parametrize("channels", [1, 2, 6])
def test_read_wav_equals_scipy_on_scipy_files(tmp_path, dtype, channels):
    rng = np.random.default_rng(channels)
    if dtype.startswith("float"):
        data = rng.uniform(-1.5, 1.5, (777, channels)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, (777, channels), dtype=dtype,
                            endpoint=True)
    path = tmp_path / f"{dtype}.wav"
    wavfile.write(str(path), 48000, data[:, 0] if channels == 1 else data)
    assert_reads_as_scipy(path)


@pytest.mark.parametrize("channels", [1, 6])
def test_read_wav_24_bit_pcm(tmp_path, channels):
    rng = np.random.default_rng(24)
    values = rng.integers(-2 ** 23, 2 ** 23, 501 * channels)
    values[:2] = -2 ** 23, 2 ** 23 - 1
    path = tmp_path / "pcm24.wav"
    path.write_bytes(riff_file(
        wav_chunk(b"fmt ", fmt_body(1, channels, 44100, 3)),
        wav_chunk(b"data", pcm24_bytes(values))))
    assert_reads_as_scipy(path)
    rec = hio.read_wav(path)
    np.testing.assert_array_equal(
        rec.samples, values.reshape(-1, channels).T / 2.0 ** 23)


@pytest.mark.parametrize("tag, width", [(3, 4), (3, 8), (1, 2), (1, 3),
                                        (1, 4)])
def test_read_wav_extensible(tmp_path, tag, width):
    rng = np.random.default_rng(width)
    frames, channels = 300, 6
    if tag == 3:
        data = rng.uniform(-1.0, 1.0, frames * channels) \
            .astype(f"<f{width}").tobytes()
    elif width == 3:
        data = pcm24_bytes(rng.integers(-2 ** 23, 2 ** 23, frames * channels))
    else:
        data = rng.integers(-2 ** 15, 2 ** 15, frames * channels) \
            .astype(f"<i{width}").tobytes()
    path = tmp_path / "extensible.wav"
    fmt = fmt_body(tag, channels, 16000, width, extensible=True)
    path.write_bytes(riff_file(wav_chunk(b"fmt ", fmt),
                               wav_chunk(b"data", data)))
    assert_reads_as_scipy(path)
    assert hio.read_wav(path).samples.shape == (channels, frames)


def test_read_wav_skips_odd_length_chunk(tmp_path):
    # a 5-byte LIST chunk and its pad byte sit between fmt and data
    samples = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 400))
    data = np.ascontiguousarray(samples.T, dtype="<f4").tobytes()
    path = tmp_path / "list.wav"
    path.write_bytes(riff_file(wav_chunk(b"fmt ", fmt_body(3, 6, 44100, 4)),
                               wav_chunk(b"LIST", b"INFOx"),
                               wav_chunk(b"data", data)))
    assert path.stat().st_size % 2 == 0
    assert_reads_as_scipy(path)
    np.testing.assert_array_equal(hio.read_wav(path).samples,
                                  samples.astype(np.float32))
