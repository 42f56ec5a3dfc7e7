"""File I/O: multichannel WAV, scene/array JSON configs, manifests."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import geometry, sim
from .dsp import MultichannelRecording
from .errors import SceneConfigError
from .geometry import MicArray, PropagationModel
from .sim import Echo, GroundTruth, Scene

GROUND_TRUTH_NAME = "ground_truth.json"
MANIFEST_NAME = "manifest.json"

_PCM_SCALE = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}


def wav_sample_rate(rate: float) -> int:
    """The sample rate as a WAV header stores it, a whole number of Hz; a
    fractional rate raises ValueError rather than being truncated."""
    if not float(rate).is_integer():
        raise ValueError(
            f"a WAV file stores a whole number of Hz, got {rate!r} Hz")
    return int(rate)


def write_wav(path, rec: MultichannelRecording) -> None:
    """Write a recording as 32-bit float WAV, channels ordered by element."""
    # imported here: scipy.io takes ≈0.25 s to import, and `hexloc eval`
    # and in-memory library calls never touch a WAV file
    from scipy.io import wavfile
    wavfile.write(str(path), wav_sample_rate(rec.sample_rate),
                  np.ascontiguousarray(rec.samples.T, dtype=np.float32))


def read_wav(path) -> MultichannelRecording:
    """Read a WAV file; integer PCM is normalized to [-1, 1].

    A file that is not a WAV raises ValueError, and so do non-finite
    samples; an unsupported sample format raises SceneConfigError.
    """
    from scipy.io import wavfile  # imported here, as in write_wav
    rate, data = wavfile.read(str(path))
    if data.ndim == 1:
        data = data[:, None]
    if data.dtype not in _PCM_SCALE and data.dtype not in (
            np.uint8, np.float32, np.float64):
        raise SceneConfigError(f"unsupported WAV sample format {data.dtype}")
    # one copy, transposed to a row per channel
    samples = np.ascontiguousarray(data.T, dtype=np.float64)
    if data.dtype in _PCM_SCALE:
        samples /= _PCM_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        samples -= 128.0
        samples /= 128.0
    return MultichannelRecording(samples, float(rate))


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise SceneConfigError(f"missing key '{key}' in {context}")
    return obj[key]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SceneConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _number(obj: dict, key: str, context: str, default=None) -> float:
    raw = _require(obj, key, context) if default is None else obj.get(key, default)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise SceneConfigError(
            f"key '{key}' must be a number in {context}, got {raw!r}") from None


def _propagation_model(config: dict, context: str) -> PropagationModel:
    """Speed of sound and sample rate from the optional keys of a scene or
    manifest; a value that is not a finite positive number names its key."""
    values = []
    for key, default in (("speed_of_sound_m_s", geometry.SPEED_OF_SOUND_M_S),
                         ("sample_rate_hz", geometry.SAMPLE_RATE_HZ)):
        value = _number(config, key, context, default)
        if not (math.isfinite(value) and value > 0):
            raise SceneConfigError(
                f"key '{key}' must be a positive number in {context}, got {value!r}")
        values.append(value)
    return PropagationModel(*values)


def parse_array(entry: dict, context: str = "array entry") -> MicArray:
    _object(entry, context)
    array_id = str(_require(entry, "id", context))
    center = _require(entry, "center_m", context)
    orientation = _number(entry, "orientation_rad", context)
    side = _number(entry, "side_length_m", context, geometry.HEX_SIDE_M)
    try:
        return geometry.build_hex_array(center, orientation, side, array_id)
    except ValueError as exc:
        raise SceneConfigError(f"invalid array {array_id!r}: {exc}") from exc


def load_array_spec(path) -> MicArray:
    with open(path) as fh:
        entry = json.load(fh)
    return parse_array(entry, context=str(path))


def _echo(entry, context: str) -> Echo:
    _object(entry, context)
    return Echo(*(_number(entry, key, context) for key in Echo._fields))


def parse_scene(config: dict, context: str = "scene config",
                base_dir=None) -> Scene:
    raw_arrays = _require(config, "arrays", context)
    if not isinstance(raw_arrays, list) or not raw_arrays:
        raise SceneConfigError(f"key 'arrays' must be a non-empty list in {context}")
    arrays = tuple(parse_array(a, f"{context}.arrays[{k}]")
                   for k, a in enumerate(raw_arrays))
    source = _require(config, "source_m", context)
    model = _propagation_model(config, context)
    signal = _object(config.get("signal", {}), f"key 'signal' in {context}")
    kind = str(signal.get("kind", "speech"))
    source_samples = None
    if kind == "file":
        wav_path = Path(_require(signal, "path", f"{context}.signal"))
        if base_dir is not None and not wav_path.is_absolute():
            wav_path = Path(base_dir) / wav_path
        rec = read_wav(wav_path)
        source_samples = rec.samples.mean(axis=0)  # mono mixdown
    raw_echoes = config.get("echoes", [])
    if not isinstance(raw_echoes, list):
        raise SceneConfigError(f"key 'echoes' must be a list in {context}")
    echoes = tuple(_echo(e, f"{context}.echoes[{k}]")
                   for k, e in enumerate(raw_echoes))
    snr_db = math.inf if config.get("snr_db") is None \
        else _number(config, "snr_db", context)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SceneConfigError(
            f"key 'seed' must be a non-negative integer in {context}, got {seed!r}")
    try:
        return Scene(arrays=arrays, source=np.asarray(source, dtype=float),
                     signal_kind=kind,
                     duration=_number(config, "duration_s", context,
                                      sim.DEFAULT_DURATION_S),
                     snr_db=snr_db, echoes=echoes, seed=seed, model=model,
                     tone_hz=_number(signal, "tone_hz", f"{context}.signal", 1000.0),
                     source_samples=source_samples)
    except ValueError as exc:
        raise SceneConfigError(f"invalid scene: {exc}") from exc


def load_scene(path) -> Scene:
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneConfigError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise SceneConfigError(f"scene config must be a JSON object: {path}")
    return parse_scene(config, context=str(path), base_dir=Path(path).parent)


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


def load_manifest(path) -> tuple[list[MicArray], list[Path], PropagationModel, dict]:
    """Arrays, their WAV paths, the propagation model, and the raw manifest."""
    path = Path(path)
    with open(path) as fh:
        manifest = json.load(fh)
    raw = _require(manifest, "arrays", str(path))
    arrays = [parse_array(a, f"{path}.arrays[{k}]") for k, a in enumerate(raw)]
    wavs = [path.parent / _require(a, "wav", f"{path}.arrays[{k}]")
            for k, a in enumerate(raw)]
    return arrays, wavs, _propagation_model(manifest, str(path)), manifest

