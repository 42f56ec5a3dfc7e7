"""Ground-truthed far-field scene synthesis.

Propagation is plane-wave: each channel receives the source signal through
a frequency-domain fractional delay whose phase is exact to a few 1e-12 rad,
so the true pairwise delays are known to machine precision. Multipath is
modeled as discrete attenuated plane waves arriving from offset azimuths.
Channels within an array share a clock; arrays do not, which is encoded by a
random per-array start offset.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dsp, geometry
from ._tasks import map_tasks
from .dsp import MultichannelRecording
from .geometry import MicArray, PropagationModel

SIGNAL_KINDS = ("speech", "chirp", "tone", "file")
MAX_START_OFFSET_S = 0.05
MAX_ECHO_DELAY_S = 0.1
TAPER_S = 0.02
RANGE_LIMITS_M = (0.47, 5.2)
DEFAULT_DURATION_S = 1.06
# below this the noise-to-signal power ratio 10 ** (-snr_db / 10) is no float
MIN_SNR_DB = -10.0 * math.log10(np.finfo(float).max)
SYLLABIC_RATE_HZ = 4.0
# bins per block of the factored delay ramp: a power of two near the root of
# the rendered bin count (32769 at 1.06 s), so both tables stay small and
# the block step B * bin_hz is exact
_RAMP_BLOCK = 256


class Echo(NamedTuple):
    delay_s: float
    gain: float
    azimuth_offset_deg: float


@dataclass(frozen=True)
class Scene:
    """One source, one signal, any number of arrays."""

    arrays: tuple[MicArray, ...]
    source: np.ndarray
    signal_kind: str = "speech"
    duration: float = DEFAULT_DURATION_S
    snr_db: float = math.inf
    echoes: tuple[Echo, ...] = ()
    seed: int = 0
    model: PropagationModel = field(default_factory=PropagationModel)
    tone_hz: float = 1000.0
    source_samples: np.ndarray | None = None  # used when signal_kind == "file"

    def __post_init__(self):
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "source", np.asarray(self.source, dtype=float))
        object.__setattr__(self, "echoes",
                           tuple(Echo(*e) for e in self.echoes))
        if not self.arrays:
            raise ValueError("scene needs at least one array")
        geometry.check_distinct_ids(self.arrays)
        if self.source.shape != (2,) or not np.all(np.isfinite(self.source)):
            raise ValueError(f"source must be a finite 2D point, "
                             f"got {self.source}")
        fs = self.model.sample_rate
        if not 0 < self.duration * fs < math.inf:
            raise ValueError(f"duration must be positive and span a finite "
                             f"number of samples at {fs:g} Hz, got "
                             f"{self.duration}")
        if self.signal_kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal_kind {self.signal_kind!r}")
        if self.signal_kind == "file" and self.source_samples is None:
            raise ValueError("signal_kind 'file' requires source_samples")
        nyquist = self.model.sample_rate / 2.0
        if self.signal_kind == "tone" and not 0.0 < self.tone_hz < nyquist:
            raise ValueError(f"tone_hz must be above 0 and below Nyquist "
                             f"({nyquist} Hz), got {self.tone_hz}")
        if self.signal_kind in ("speech", "chirp") \
                and nyquist < dsp.DEFAULT_BAND_HZ[1]:
            raise ValueError(
                f"sample rate {self.model.sample_rate:g} Hz is too low for a "
                f"{self.signal_kind} scene: Nyquist ({nyquist:g} Hz) is below "
                f"the {dsp.DEFAULT_BAND_HZ[1]:g} Hz band edge")
        need = _render_margin(self)[1] + 1024  # the source keeps 1024 samples
        if not need <= np.rint(self.duration * fs):
            raise ValueError(f"duration {self.duration} s too short: need at "
                             f"least {need / fs:.2f} s at {fs} Hz")
        # +inf means noiseless; NaN, -inf and levels whose noise power
        # overflows are no noise level
        if not self.snr_db > MIN_SNR_DB:
            raise ValueError(f"snr_db must be +inf or a number above "
                             f"{MIN_SNR_DB:.1f}, got {self.snr_db}")
        for arr in self.arrays:
            if np.allclose(self.source, arr.center):
                raise ValueError(f"source coincides with array {arr.id!r}")
        for k, echo in enumerate(self.echoes):
            if not math.isfinite(echo.azimuth_offset_deg):
                raise ValueError(f"echoes[{k}].azimuth_offset_deg must be "
                                 f"finite, got {echo.azimuth_offset_deg}")
            if not 0.0 <= echo.gain < 1.0:
                raise ValueError(f"echo gain must be in [0, 1), got {echo.gain}")
            if not 0.0 <= echo.delay_s <= MAX_ECHO_DELAY_S:
                raise ValueError(
                    f"echo delay must be in [0, {MAX_ECHO_DELAY_S}] s, "
                    f"got {echo.delay_s}")


def _render_margin(scene: Scene) -> tuple[float, float]:
    """Base delay (s) keeping every element's shift nonnegative, and source
    samples short of the recording, as floats: inf, not an overflow."""
    base_s = max(2.0 * a.side_length for a in scene.arrays) \
        / scene.model.speed_of_sound
    return base_s, np.ceil((MAX_START_OFFSET_S + MAX_ECHO_DELAY_S + base_s)
                           * scene.model.sample_rate) + 64.0


@dataclass(frozen=True)
class GroundTruth:
    """Reference values recomputable from the scene geometry."""

    source: np.ndarray
    azimuth_deg: dict[str, float]                       # per array, global frame
    pair_delays: dict[str, dict[tuple[int, int], float]]  # per array, seconds


def _source_signal(scene: Scene, rng: np.random.Generator,
                   length: int) -> np.ndarray:
    fs = scene.model.sample_rate
    t = np.arange(length) / fs
    kind = scene.signal_kind
    if kind == "speech":
        # band-limited noise with a syllabic amplitude envelope
        noise = MultichannelRecording(rng.standard_normal((1, length)), fs)
        shaped = dsp.bandpass(noise, *dsp.DEFAULT_BAND_HZ).samples[0]
        phase = rng.uniform(0.0, 2.0 * math.pi)
        envelope = 0.6 + 0.4 * np.sin(2.0 * math.pi * SYLLABIC_RATE_HZ * t + phase)
        return shaped * envelope
    if kind == "chirp":
        f0, f1 = dsp.DEFAULT_BAND_HZ
        duration = length / fs
        return np.sin(2.0 * math.pi * (f0 * t + (f1 - f0) / (2 * duration) * t * t))
    if kind == "tone":
        return np.sin(2.0 * math.pi * scene.tone_hz * t)
    # kind == "file"
    src = np.asarray(scene.source_samples, dtype=float)
    if src.size >= length:
        return src[:length]
    return np.pad(src, (0, length - src.size))


def _delay_ramp(shift: np.ndarray, bin_hz: float,
                num_bins: int) -> np.ndarray:
    """``exp(-2j*pi*outer(shift, k*bin_hz))`` for bins ``k < num_bins``.

    With ``k = q*B + r`` the ramp is ``exp(-2j*pi*s*r*bin_hz) *
    exp(-2j*pi*s*q*B*bin_hz)``: a ``(rows, B)`` and a ``(rows, num_bins/B)``
    table of exponentials and one broadcast product, instead of one
    exponential per bin.
    """
    block = _RAMP_BLOCK
    shift = np.asarray(shift, dtype=float)[:, None]
    fine = np.exp(-2j * np.pi * shift * (np.arange(block) * bin_hz))
    coarse = np.exp(-2j * np.pi * shift
                    * (np.arange(math.ceil(num_bins / block)) * (block * bin_hz)))
    ramp = coarse[:, :, None] * fine[:, None, :]
    return ramp.reshape(len(shift), -1)[:, :num_bins]


def _render_array(scene: Scene, spectrum: np.ndarray, nfft: int, length: int,
                  array: MicArray, azimuth: float, offset: float,
                  noise: np.ndarray | None,
                  drawn: threading.Event) -> MultichannelRecording:
    """One array's recording: the source spectrum through each channel's
    direct-path and echo delays, plus ``noise`` (standard normal draws, or
    None for a noiseless scene; overwritten) scaled to the scene's SNR. The
    draws fill ``noise`` while the array renders; ``drawn`` is set once
    they are done."""
    model = scene.model
    bin_hz = model.sample_rate / nfft
    taus = geometry.element_delays(array, azimuth, model)  # (6,)
    # response per channel: direct path plus each echo as a plane wave
    # from an offset azimuth; tau is re-derived per echo direction
    shift = taus + offset
    response = _delay_ramp(shift, bin_hz, spectrum.size)
    for echo in scene.echoes:
        echo_az = azimuth + math.radians(echo.azimuth_offset_deg)
        echo_taus = geometry.element_delays(array, echo_az, model)
        echo_shift = echo_taus + offset + echo.delay_s
        response += echo.gain * _delay_ramp(echo_shift, bin_hz, spectrum.size)
    response *= spectrum
    channels = np.fft.irfft(response, nfft, axis=1)[:, :length]

    if noise is not None:
        drawn.wait()
        signal_power = float(np.mean(channels ** 2))
        noise_sigma = math.sqrt(signal_power * 10.0 ** (-scene.snr_db / 10.0))
        # rng.normal(0.0, noise_sigma) is 0.0 + noise_sigma * z; the
        # product and both sums commute exactly, so the draws' own buffer
        # takes them in place (adding 0.0 turns a -0.0 into 0.0)
        noise *= noise_sigma
        noise += 0.0
        noise += channels
        channels = noise
    return MultichannelRecording(channels, model.sample_rate)


def synthesize(scene: Scene) -> tuple[list[MultichannelRecording], GroundTruth]:
    """Render one multichannel recording per array plus the ground truth.

    The source waveform is shorter than the recording by a fixed margin
    covering the clock offset and echo budget, and carries raised-cosine
    onset/offset ramps. Every channel therefore contains the complete
    delayed waveform, so the inter-channel delay relation is exact rather
    than perturbed by window truncation. Deterministic for a fixed scene
    seed; echoes with zero gain leave the output bit-identical to an
    echo-free scene.
    """
    model = scene.model
    fs = model.sample_rate
    length = int(round(scene.duration * fs))
    base_s, margin = _render_margin(scene)
    src_length = length - int(margin)

    rng = np.random.default_rng(scene.seed)
    source = _source_signal(scene, rng, src_length)
    ramp = min(int(round(TAPER_S * fs)), src_length // 4)
    if ramp > 0:
        taper = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        source = source.copy()
        source[:ramp] *= taper
        source[-ramp:] *= taper[::-1]

    nfft = dsp.next_pow2(length)
    spectrum = np.fft.rfft(source, nfft)

    # All arrays' noise shares one buffer: with one allocation per array, the
    # allocator returned and re-faulted the memory between renders (a serial
    # three-array render took ≈17k page faults, ≈3k with the one buffer)
    noise = np.empty((sum(a.num_elements for a in scene.arrays), length)) \
        if np.isfinite(scene.snr_db) else None
    azimuths = [geometry.azimuth_to(a, scene.source) for a in scene.arrays]
    pairs = geometry.mic_pairs()
    truth = GroundTruth(
        source=scene.source.copy(),
        azimuth_deg={a.id: math.degrees(az)
                     for a, az in zip(scene.arrays, azimuths)},
        pair_delays={a.id: dict(zip(pairs, geometry.predicted_pair_delay(
                         a, pairs, az, model).tolist()))
                     for a, az in zip(scene.arrays, azimuths)})

    def jobs():
        # every random draw, in the serial order: per array its start
        # offset, then its noise. A render starts as soon as its offset is
        # drawn and waits for its noise only to add it, so the draws here
        # run beside the renders (the Generator releases the GIL)
        first_row = 0
        for array, azimuth in zip(scene.arrays, azimuths):
            offset = base_s + rng.uniform(0.0, MAX_START_OFFSET_S)
            rows = None if noise is None \
                else noise[first_row:first_row + array.num_elements]
            first_row += array.num_elements
            drawn = threading.Event()
            try:
                yield array, azimuth, offset, rows, drawn
                if rows is not None:
                    rng.standard_normal(out=rows)
            finally:  # also on an error, or a render would wait forever
                drawn.set()

    recordings = map_tasks(
        lambda job: _render_array(scene, spectrum, nfft, length, *job), jobs())
    return recordings, truth


def sample_scenarios(n: int, bounds: tuple[float, float, float, float],
                     seed: int = 0, arrays: tuple[MicArray, ...] | None = None,
                     duration: float = DEFAULT_DURATION_S,
                     snr_db: float = 20.0, echoes: tuple[Echo, ...] = ()) -> list[Scene]:
    """Draw ``n`` speech scenes with sources uniform in a rectangle, keeping
    only positions whose nearest array lies within the 0.47-5.2 m range window."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if arrays is None:
        arrays = default_array_layout()
    x0, y0, x1, y1 = bounds
    # NaN, an infinity or a span past the largest float leave no finite width
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise ValueError(f"bounds must span a finite rectangle, got {bounds}")
    if x1 < x0 or y1 < y0:
        raise ValueError(f"bounds rectangle is inverted: {bounds}")

    rng = np.random.default_rng(seed)
    centers = np.stack([a.center for a in arrays])
    lo, hi = RANGE_LIMITS_M
    scenes = []
    attempts = 0
    max_attempts = 10000 * n
    while len(scenes) < n:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError(
                "no feasible source positions in bounds for the given arrays")
        point = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        dists = np.linalg.norm(centers - point, axis=1)
        if dists.min() < lo or dists.min() > hi:
            continue
        scenes.append(Scene(arrays=arrays, source=point, duration=duration,
                            snr_db=snr_db, echoes=echoes,
                            seed=int(rng.integers(0, 2 ** 31))))
    return scenes


def default_array_layout() -> tuple[MicArray, ...]:
    """Three anchors roughly at the edges of a 6 x 5 m room."""
    return (
        geometry.build_hex_array((0.0, 0.0), orientation=0.0, array_id="A1"),
        geometry.build_hex_array((6.0, 0.0), orientation=2.0, array_id="A2"),
        geometry.build_hex_array((3.0, 5.0), orientation=-1.0, array_id="A3"),
    )
