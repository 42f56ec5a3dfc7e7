"""File I/O: multichannel WAV, scene/array JSON configs, manifests."""

from __future__ import annotations

import json
import math
import os
import reprlib
import struct
from pathlib import Path

import numpy as np

from . import geometry, sim
from .dsp import MultichannelRecording
from .errors import SceneConfigError
from .geometry import MicArray, PropagationModel
from .sim import Echo, GroundTruth, Scene

GROUND_TRUTH_NAME = "ground_truth.json"
MANIFEST_NAME = "manifest.json"

# WAVE format tags: the first field of the fmt chunk
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# a WAVE_FORMAT_EXTENSIBLE sub-format GUID after its 2-byte format tag
_SUBFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) -> the sample's dtype on disk; 24-bit PCM
# is read as 3 bytes and widened to the top of an int32, as scipy reads it
_SAMPLE_DTYPES = {(_PCM, 1): "u1", (_PCM, 2): "<i2", (_PCM, 3): "3u1",
                  (_PCM, 4): "<i4", (_IEEE_FLOAT, 4): "<f4",
                  (_IEEE_FLOAT, 8): "<f8"}


def wav_sample_rate(rate: float, channels: int) -> int:
    """The sample rate as a WAV header stores it, a whole number of Hz whose
    byte rate for ``channels`` 32-bit channels fits the header's 32-bit
    field; any other rate raises ValueError rather than being truncated."""
    if not float(rate).is_integer():
        raise ValueError(
            f"a WAV file stores a whole number of Hz, got {rate!r} Hz")
    if rate * 4 * channels > 0xFFFFFFFF:
        raise ValueError(
            f"{rate:.0f} Hz of {channels} 32-bit channels exceeds the byte "
            f"rate a WAV header stores")
    return int(rate)


def _check_wav_size(frames: float, channels: int) -> None:
    """Refuse a frame of ``channels`` 32-bit samples larger than a WAV
    header stores, or more ``frames`` (a float, infinite too) than the
    4 GiB of a RIFF WAV file hold."""
    if 4 * channels > 0xFFFF:
        raise ValueError(f"{channels} channels of 32 bits exceed the frame "
                         "size a WAV header stores")
    if frames * 4 * channels > 0xFFFFFFFF - 50:
        raise ValueError(f"{frames:.0f} frames of {channels} channels exceed "
                         "the 4 GiB of a RIFF WAV file")


def write_wav(path, rec: MultichannelRecording) -> None:
    """Write a recording as 32-bit float WAV, channels ordered by element.

    The bytes are those of ``scipy.io.wavfile.write`` for the float32
    matrix: an 18-byte fmt chunk, a fact chunk, then the data chunk. A
    recording whose rate or size a header field cannot hold raises
    ValueError before anything is written.
    """
    channels, frames = rec.samples.shape
    rate = wav_sample_rate(rec.sample_rate, channels)
    _check_wav_size(frames, channels)
    data = np.empty((frames, channels), "<f4")
    data[...] = rec.samples.T
    header = struct.pack("<4sI4s4sIHHIIHHH4sII4sI",
                         b"RIFF", 50 + data.nbytes, b"WAVE",
                         b"fmt ", 18, _IEEE_FLOAT, channels, rate,
                         rate * 4 * channels, 4 * channels, 32, 0,
                         b"fact", 4, frames, b"data", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def _read_exactly(fh, size: int, what: str) -> bytes:
    chunk = fh.read(size)
    if len(chunk) < size:
        raise ValueError(f"WAV file ends inside its {what}")
    return chunk


def read_wav(path) -> MultichannelRecording:
    """Read a RIFF WAV file; integer PCM is normalized to [-1, 1].

    Reads IEEE float 32/64-bit and PCM 8/16/24/32-bit samples, also from
    ``WAVE_FORMAT_EXTENSIBLE`` headers, and skips chunks other than fmt and
    data. A file that is not a RIFF WAV, or is truncated, raises ValueError,
    and so do non-finite samples; an unsupported sample format or a RIFX or
    RF64 container raises SceneConfigError. Either message names the file.
    """
    try:
        with open(path, "rb") as fh:
            return _decode_wav(fh)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _decode_wav(fh) -> MultichannelRecording:
    riff, _, wave = struct.unpack("<4sI4s",
                                  _read_exactly(fh, 12, "RIFF header"))
    if riff in (b"RIFX", b"RF64"):
        raise SceneConfigError(f"{riff.decode()} WAV files are not supported")
    if riff != b"RIFF" or wave != b"WAVE":
        raise ValueError("not a RIFF WAVE file")
    fmt = None
    while True:
        chunk_id, size = struct.unpack(
            "<4sI", _read_exactly(fh, 8, "chunk list before a data chunk"))
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = _read_exactly(fh, size, "fmt chunk")
            fh.seek(size & 1, 1)
        else:  # chunks are padded to an even size
            fh.seek(size + (size & 1), 1)
    if fmt is None or len(fmt) < 16:
        raise ValueError("WAV file has no fmt chunk before its data")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt)
    if tag == _EXTENSIBLE and fmt[26:40] == _SUBFORMAT_TAIL:
        tag, = struct.unpack_from("<H", fmt, 24)
    width = block_align // channels if channels else 0
    dtype = _SAMPLE_DTYPES.get((tag, width))
    if dtype is None or block_align != width * channels:
        raise SceneConfigError(
            f"unsupported WAV sample format: format tag {tag}, "
            f"{bits} bits, {channels} channels in {block_align} bytes")
    frames = size // block_align
    # checked before allocating: a corrupt size may claim up to 4 GiB
    if frames * block_align > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("WAV data chunk is truncated")
    raw = np.empty(frames * channels, dtype)
    fh.readinto(raw)
    if width == 3:
        wide = np.zeros((raw.shape[0], 4), np.uint8)
        wide[:, 1:] = raw
        raw = wide.view("<i4")
    # one transposing cast to a float64 row per channel
    samples = np.empty((channels, frames))
    samples[...] = raw.reshape(frames, channels).T
    if tag == _PCM:
        if width == 1:
            samples -= 128.0
        samples /= 2.0 ** (8 * raw.itemsize - 1)
    return MultichannelRecording(samples, float(rate))


# the JSON name of each type a config value is checked against
_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def _load_json(path):
    """The JSON document in a user file; text that is not JSON names it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # undecodable text, or not JSON
            raise SceneConfigError(f"not valid JSON: {path}: {exc}") from exc


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise SceneConfigError(
            f"{what} must be a JSON {_JSON_TYPES[kind]}, "
            f"got {reprlib.repr(value)}")
    return value


def _require(obj: dict, key: str, context: str, kind: type = object):
    if key not in obj:
        raise SceneConfigError(f"missing key '{key}' in {context}")
    return _typed(obj[key], kind, f"key '{key}' in {context}")


def _number(obj: dict, key: str, context: str, default=None) -> float:
    raw = _require(obj, key, context) if default is None else obj.get(key, default)
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise SceneConfigError(
            f"key '{key}' must be a number in {context}, "
            f"got {reprlib.repr(raw)}") from None


def _point(obj: dict, key: str, context: str) -> tuple[float, float]:
    """A finite 2D point, written as a list of two numbers."""
    raw = _require(obj, key, context)
    try:
        if isinstance(raw, list) and len(raw) == 2:
            point = (float(raw[0]), float(raw[1]))
            if all(map(math.isfinite, point)):
                return point
    except (TypeError, ValueError, OverflowError):
        pass
    raise SceneConfigError(
        f"key '{key}' must be two finite numbers in {context}, "
        f"got {reprlib.repr(raw)}")


def _finite(obj: dict, key: str, context: str, default=None,
            positive: bool = False) -> float:
    """A finite number, above zero when ``positive``; any other value
    names its key."""
    value = _number(obj, key, context, default)
    if not math.isfinite(value) or positive and value <= 0:
        kind = "finite positive" if positive else "finite"
        raise SceneConfigError(
            f"key '{key}' must be a {kind} number in {context}, got {value!r}")
    return value


def _propagation_model(config: dict, context: str) -> PropagationModel:
    """Speed of sound and sample rate from the optional keys of a scene or
    manifest."""
    return PropagationModel(
        _finite(config, "speed_of_sound_m_s", context,
                geometry.SPEED_OF_SOUND_M_S, positive=True),
        _finite(config, "sample_rate_hz", context, geometry.SAMPLE_RATE_HZ,
                positive=True))


def _key_rule(key: str, context: str, check, *args):
    """``args[0]``, unless the rule ``check(*args)`` refuses it; the error
    then names the file and the key."""
    try:
        check(*args)
    except ValueError as exc:
        raise SceneConfigError(f"key '{key}' in {context}: {exc}") from None
    return args[0]


def parse_array(entry: dict, context: str = "array entry") -> MicArray:
    _typed(entry, dict, context)
    array_id = _key_rule("id", context, geometry.check_id,
                         _require(entry, "id", context, str))
    return MicArray(array_id, _point(entry, "center_m", context),
                    _finite(entry, "orientation_rad", context),
                    _finite(entry, "side_length_m", context,
                            geometry.HEX_SIDE_M, positive=True))


def load_array_spec(path) -> MicArray:
    return parse_array(_load_json(path), context=str(path))


def load_arrays(path) -> tuple[MicArray, ...]:
    """The array specs of a file that holds a JSON list of them."""
    entries = _typed(_load_json(path), list, str(path))
    if not entries:
        raise SceneConfigError(f"{path} lists no array spec")
    return _key_rule("id", str(path), geometry.check_distinct_ids,
                     tuple(parse_array(a, f"{path}[{k}]")
                           for k, a in enumerate(entries)))


def _echo(entry, context: str) -> Echo:
    _typed(entry, dict, context)
    return Echo(*(_number(entry, key, context) for key in Echo._fields))


def parse_scene(config: dict, context: str = "scene config",
                base_dir=None) -> Scene:
    """A scene from its JSON config. Its sample rate and duration must fit
    the WAV files it is rendered to, which is checked before rendering."""
    _typed(config, dict, context)
    raw_arrays = _require(config, "arrays", context)
    if not isinstance(raw_arrays, list) or not raw_arrays:
        raise SceneConfigError(f"key 'arrays' must be a non-empty list in {context}")
    arrays = tuple(parse_array(a, f"{context}.arrays[{k}]")
                   for k, a in enumerate(raw_arrays))
    source = _point(config, "source_m", context)
    for array in arrays:
        if np.allclose(source, array.center):
            raise SceneConfigError(
                f"key 'source_m' in {context}: source coincides with array "
                f"{array.id!r}")
    model = _propagation_model(config, context)
    channels = max(a.num_elements for a in arrays)
    _key_rule("sample_rate_hz", context, wav_sample_rate, model.sample_rate,
              channels)
    signal = _typed(config.get("signal", {}), dict, f"key 'signal' in {context}")
    kind = signal.get("kind", "speech")
    if kind not in sim.SIGNAL_KINDS:
        raise SceneConfigError(
            f"key 'kind' must be one of {', '.join(sim.SIGNAL_KINDS)} in "
            f"{context}.signal, got {reprlib.repr(kind)}")
    source_samples = None
    if kind == "file":
        wav_path = Path(_require(signal, "path", f"{context}.signal", str))
        if base_dir is not None and not wav_path.is_absolute():
            wav_path = Path(base_dir) / wav_path
        try:
            rec = read_wav(wav_path)
        except ValueError as exc:
            raise SceneConfigError(
                f"key 'path' in {context}.signal: {exc}") from exc
        source_samples = rec.samples.mean(axis=0)  # mono mixdown
    raw_echoes = _typed(config.get("echoes", []), list,
                        f"key 'echoes' in {context}")
    echoes = tuple(_echo(e, f"{context}.echoes[{k}]")
                   for k, e in enumerate(raw_echoes))
    snr_db = math.inf if config.get("snr_db") is None \
        else _number(config, "snr_db", context)
    duration = _finite(config, "duration_s", context, sim.DEFAULT_DURATION_S,
                       positive=True)
    # the frames synthesize renders
    _key_rule("duration_s", context, _check_wav_size,
              np.rint(duration * model.sample_rate), channels)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SceneConfigError(
            f"key 'seed' must be a non-negative integer in {context}, got {seed!r}")
    try:
        return Scene(arrays=arrays, source=np.asarray(source, dtype=float),
                     signal_kind=kind,
                     duration=duration,
                     snr_db=snr_db, echoes=echoes, seed=seed, model=model,
                     tone_hz=_number(signal, "tone_hz", f"{context}.signal", 1000.0),
                     source_samples=source_samples)
    except ValueError as exc:
        raise SceneConfigError(f"invalid scene in {context}: {exc}") from exc


def load_scene(path) -> Scene:
    return parse_scene(_load_json(path), context=str(path),
                       base_dir=Path(path).parent)


def array_to_json(array: MicArray) -> dict:
    return {"id": array.id, "center_m": [float(v) for v in array.center],
            "orientation_rad": array.orientation,
            "side_length_m": array.side_length}


def write_scene_outputs(out_dir, scene: Scene,
                        recordings: list[MultichannelRecording],
                        truth: GroundTruth) -> Path:
    """Write per-array WAVs, the ground-truth sidecar, and the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for array, rec in zip(scene.arrays, recordings):
        wav_name = f"{array.id}.wav"
        write_wav(out / wav_name, rec)
        entry = array_to_json(array)
        entry["wav"] = wav_name
        entries.append(entry)

    truth_doc = {
        "source_m": [float(v) for v in truth.source],
        "per_array": [
            {"id": array_id, "azimuth_deg": truth.azimuth_deg[array_id],
             "pair_delays_s": {f"{i}-{j}": d
                               for (i, j), d in truth.pair_delays[array_id].items()}}
            for array_id in truth.azimuth_deg],
    }
    (out / GROUND_TRUTH_NAME).write_text(json.dumps(truth_doc, indent=2))

    manifest = {
        "arrays": entries,
        "ground_truth": GROUND_TRUTH_NAME,
        "sample_rate_hz": scene.model.sample_rate,
        "speed_of_sound_m_s": scene.model.speed_of_sound,
        "seed": scene.seed,
    }
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


def load_manifest(path) -> tuple[list[MicArray], list[Path],
                                 PropagationModel, float | None]:
    """Arrays, their WAV paths, the propagation model, and the sample rate
    the manifest declares (None when it declares none)."""
    path = Path(path)
    manifest = _typed(_load_json(path), dict, str(path))
    arrays, wavs = [], []
    for k, entry in enumerate(_require(manifest, "arrays", str(path), list)):
        context = f"{path}.arrays[{k}]"
        arrays.append(parse_array(entry, context))
        wavs.append(path.parent / _require(entry, "wav", context, str))
    model = _propagation_model(manifest, str(path))
    declared = model.sample_rate if "sample_rate_hz" in manifest else None
    return (_key_rule("id", str(path), geometry.check_distinct_ids, arrays),
            wavs, model, declared)
