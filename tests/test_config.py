"""Config parsing at the io boundary: any JSON value in place of any key of
a valid scene, array spec or manifest is either accepted or rejected with
SceneConfigError naming the file and key, never a stray TypeError."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hexloc import io as hio
from hexloc.dsp import MultichannelRecording
from hexloc.errors import SceneConfigError

ARRAY = {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0,
         "side_length_m": 0.05}
SCENE = {"arrays": [ARRAY, {"id": "A2", "center_m": [6.0, 0.0],
                            "orientation_rad": 2.0}],
         "source_m": [2.5, 2.0], "duration_s": 0.5, "snr_db": 20.0,
         "seed": 0, "speed_of_sound_m_s": 343.0, "sample_rate_hz": 16000,
         "signal": {"kind": "file", "path": "source.wav", "tone_hz": 500.0},
         "echoes": [{"delay_s": 0.004, "gain": 0.5,
                     "azimuth_offset_deg": 85.0}]}
MANIFEST = {"arrays": [dict(ARRAY, wav="A1.wav"),
                       {"id": "A2", "center_m": [6.0, 0.0],
                        "orientation_rad": 2.0, "wav": "A2.wav"}],
            "ground_truth": "ground_truth.json", "sample_rate_hz": 16000,
            "speed_of_sound_m_s": 343.0, "seed": 0}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


def key_paths(doc, prefix=()):
    """The path of every value in a JSON document, by key and index."""
    items = doc.items() if isinstance(doc, dict) \
        else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def substituted(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """A directory holding the source WAV that SCENE names, and nothing
    else a relative path could reach."""
    path = tmp_path_factory.mktemp("config")
    samples = np.random.default_rng(0).standard_normal((1, 4000)) * 0.1
    hio.write_wav(path / "source.wav", MultichannelRecording(samples, 16000.0))
    return path


def test_valid_documents_parse(scene_dir):
    scene = hio.parse_scene(SCENE, base_dir=scene_dir)
    assert scene.source_samples is not None and len(scene.arrays) == 2
    assert hio.parse_array(ARRAY).id == "A1"
    path = scene_dir / "manifest.json"
    path.write_text(json.dumps(MANIFEST))
    arrays, wavs, _, rate = hio.load_manifest(path)
    assert [a.id for a in arrays] == ["A1", "A2"] and rate == 16000
    assert wavs == [scene_dir / "A1.wav", scene_dir / "A2.wav"]


PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(path=st.sampled_from(list(key_paths(ARRAY))), value=JSON_VALUES)
@example(path=("center_m",), value={"x": 0.0})
def test_parse_array_accepts_or_names_the_key(path, value):
    try:
        hio.parse_array(substituted(ARRAY, path, value), "spec.json")
    except SceneConfigError as exc:
        assert "spec.json" in str(exc)


@PROPERTY
@given(path=st.sampled_from(list(key_paths(SCENE))), value=JSON_VALUES)
@example(path=("source_m",), value={"x": 1.0})
@example(path=("signal", "path"), value="missing.wav")
def test_parse_scene_accepts_or_names_the_key(scene_dir, path, value):
    try:
        hio.parse_scene(substituted(SCENE, path, value), "scene.json",
                        base_dir=scene_dir)
    except SceneConfigError as exc:
        assert "scene.json" in str(exc)
    except OSError:  # a signal path naming no readable file
        assert path[0] == "signal"


@PROPERTY
@given(path=st.sampled_from(list(key_paths(MANIFEST))), value=JSON_VALUES)
@example(path=("arrays",), value=5)
@example(path=("arrays", 0, "wav"), value=5)
def test_load_manifest_accepts_or_names_the_key(scene_dir, path, value):
    manifest = scene_dir / "manifest.json"
    manifest.write_text(json.dumps(substituted(MANIFEST, path, value)))
    try:
        hio.load_manifest(manifest)
    except SceneConfigError as exc:
        assert str(manifest) in str(exc)


@pytest.mark.parametrize("document", [5, [], "text", None])
def test_wrong_top_level_type_names_the_file(tmp_path, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    for load in (hio.load_scene, hio.load_array_spec, hio.load_manifest):
        with pytest.raises(SceneConfigError, match="must be a JSON object"):
            load(path)
    if not isinstance(document, list):
        with pytest.raises(SceneConfigError, match="must be a JSON list"):
            hio.load_arrays(path)


def test_empty_array_list_names_the_file(tmp_path):
    path = tmp_path / "arrays.json"
    path.write_text("[]")
    with pytest.raises(SceneConfigError, match="lists no array spec") as info:
        hio.load_arrays(path)
    assert str(path) in str(info.value)


def test_invalid_json_names_the_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{")
    for load in (hio.load_scene, hio.load_array_spec, hio.load_manifest,
                 hio.load_arrays):
        with pytest.raises(SceneConfigError, match="not valid JSON") as info:
            load(path)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("path, value, named", [
    (("duration_s",), -1.0, "key 'duration_s'"),
    (("signal", "kind"), None, "key 'kind'"),
    (("source_m",), [0.0, 0.0], "key 'source_m'"),
    (("signal",), {"kind": "tone", "tone_hz": 0.0}, "tone_hz"),
    (("signal",), {"kind": "tone", "tone_hz": float("nan")}, "tone_hz"),
    (("signal",), {"kind": "tone", "tone_hz": 8000.0}, "tone_hz"),
    (("snr_db",), float("nan"), "snr_db"),
    (("snr_db",), -math.inf, "snr_db"),
    (("echoes", 0, "azimuth_offset_deg"), float("nan"), "azimuth_offset_deg"),
    (("arrays", 0, "id"), "../escaped", "key 'id'"),
    (("arrays", 1, "id"), "A1", "array id 'A1' is repeated"),
    (("arrays", 0, "id"), "A\0", "key 'id'"),
    (("arrays", 0, "id"), None, "key 'id'"),
    (("arrays", 0, "id"), 5, "key 'id'"),
    (("arrays", 0, "id"), {"x": 1}, "key 'id'"),
    (("arrays", 0, "side_length_m"), 0, "key 'side_length_m'"),
    (("arrays", 0, "side_length_m"), -1, "key 'side_length_m'"),
    (("arrays", 0, "side_length_m"), 1e999, "key 'side_length_m'"),
    (("arrays", 0, "orientation_rad"), 1e999, "key 'orientation_rad'"),
    (("arrays", 0, "side_length_m"), 1e308, "too short"),
], ids=["duration-negative", "signal-kind-null", "source-on-array",
        "tone-zero", "tone-nan", "tone-at-nyquist", "snr-nan", "snr-minus-inf",
        "echo-azimuth-nan", "id-outside-out-dir", "id-repeated", "id-nul",
        "id-null", "id-number", "id-object", "side-zero", "side-negative",
        "side-inf", "orientation-inf", "side-huge"])
def test_scene_range_error_names_the_key(scene_dir, path, value, named):
    with pytest.raises(SceneConfigError) as info:
        hio.parse_scene(substituted(SCENE, path, value), "scene.json",
                        base_dir=scene_dir)
    assert "scene.json" in str(info.value) and named in str(info.value)
