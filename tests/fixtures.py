"""Shared signal and file fixtures for the test suite."""

import math
import struct

import numpy as np

from hexloc import dsp


def delayed_pair(n, k, seed=0):
    """x1 leads x2 by exactly k integer samples (zero-embedded, exact)."""
    s = np.random.default_rng(seed).standard_normal(n)
    x1 = np.concatenate([s, np.zeros(k)])
    x2 = np.concatenate([np.zeros(k), s])
    return x1, x2


def sliced_pair(n, k, seed=0):
    """Two views of one noise stream offset by k samples (k may be negative)."""
    rng = np.random.default_rng(seed)
    pad = abs(k)
    master = rng.standard_normal(n + 2 * pad)
    x1 = master[pad: pad + n]
    x2 = master[pad - k: pad - k + n]
    return x1, x2


def fractional_pair(n, delay_samples, seed=0, snr_db=None):
    """x2 is x1 delayed by a fractional number of samples, plus noise."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(n)
    pad = int(math.ceil(abs(delay_samples))) + 8
    nfft = dsp.next_pow2(n + 2 * pad)
    spec = np.fft.rfft(s, nfft)
    f = np.arange(nfft // 2 + 1) / nfft
    shifted = np.fft.irfft(
        spec * np.exp(-2j * np.pi * f * (pad + delay_samples)), nfft)
    base = np.fft.irfft(spec * np.exp(-2j * np.pi * f * pad), nfft)
    x1, x2 = base[: n + 2 * pad], shifted[: n + 2 * pad]
    if snr_db is not None:
        power = float(np.mean(x1 ** 2))
        sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0))
        x1 = x1 + rng.normal(0.0, sigma, x1.shape)
        x2 = x2 + rng.normal(0.0, sigma, x2.shape)
    return x1, x2


def wav_chunk(chunk_id, body, order="<"):
    """A RIFF chunk: id, size, body, and a pad byte after an odd size."""
    return (chunk_id + struct.pack(order + "I", len(body)) + body
            + b"\x00" * (len(body) % 2))


def riff_file(*chunks, container=b"RIFF", order="<", size=None):
    """A WAVE file holding the chunks; ``size`` overrides the header's
    size field."""
    body = b"WAVE" + b"".join(chunks)
    return (container + struct.pack(order + "I",
                                    len(body) if size is None else size)
            + body)
