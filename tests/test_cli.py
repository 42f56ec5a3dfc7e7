import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexloc import cli, io as hio, sim
from hexloc.geometry import build_hex_array
from hexloc.dsp import MultichannelRecording

from fixtures import riff_file, wav_chunk


def scene_config(tmp_path, source=(2.5, 2.0), arrays=None, snr_db=25.0,
                 seed=3, name="scene.json", **extra):
    if arrays is None:
        arrays = [
            {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0},
            {"id": "A2", "center_m": [6.0, 0.0], "orientation_rad": 2.0},
            {"id": "A3", "center_m": [3.0, 5.0], "orientation_rad": -1.0},
        ]
    config = {"arrays": arrays, "source_m": list(source),
              "duration_s": 1.06, "snr_db": snr_db, "seed": seed}
    config.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_writes_wavs_and_manifest(tmp_path):
    config = scene_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(config), "--out-dir", str(out)]) == 0
    for name in ("A1.wav", "A2.wav", "A3.wav", "manifest.json",
                 "ground_truth.json"):
        assert (out / name).exists()
    rec = hio.read_wav(out / "A1.wav")
    assert rec.num_channels == 6
    assert rec.sample_rate == 44100.0


def test_simulate_deterministic_digests(tmp_path):
    config = scene_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["simulate", str(config), "--out-dir", str(out1)]) == 0
    assert cli.main(["simulate", str(config), "--out-dir", str(out2)]) == 0
    for name in ("A1.wav", "A2.wav", "A3.wav"):
        assert digest(out1 / name) == digest(out2 / name)


def test_simulate_malformed_config_names_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"arrays": [{"id": "A1",
                                            "center_m": [0.0, 0.0]}],
                                "source_m": [1.0, 1.0]}))
    assert cli.main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "orientation_rad" in capsys.readouterr().err


def test_simulate_missing_config_is_io_error(tmp_path):
    assert cli.main(["simulate", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path)]) == 4


def simulated_fixture(tmp_path, **kw):
    config = scene_config(tmp_path, **kw)
    out = tmp_path / "fixture"
    assert cli.main(["simulate", str(config), "--out-dir", str(out)]) == 0
    return out


def test_aoa_command_prints_azimuth_and_writes_csv(tmp_path, capsys):
    out = simulated_fixture(tmp_path)
    spec_path = tmp_path / "a1.json"
    spec_path.write_text(json.dumps(
        {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0}))
    csv_path = tmp_path / "spectrum.csv"
    capsys.readouterr()  # what simulate printed
    code = cli.main(["aoa", str(out / "A1.wav"), str(spec_path),
                     "--method", "gcc+", "--spectrum-csv", str(csv_path)])
    assert code == 0
    printed = capsys.readouterr().out
    # a printed azimuth is a bearing: one line, and nothing else on it
    assert re.fullmatch(r"array=A1 method=gcc\+ azimuth_deg=\d+\.\d{3}\n",
                        printed)
    azimuth = float(printed.split("azimuth_deg=")[1].split()[0])
    truth = json.loads((out / "ground_truth.json").read_text())
    expected = next(e["azimuth_deg"] for e in truth["per_array"]
                    if e["id"] == "A1")
    diff = abs(azimuth - expected) % 360.0
    assert min(diff, 360.0 - diff) <= 1.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "angle_deg,score"
    assert len(lines) == 361


def test_aoa_music_csv_rows(tmp_path):
    out = simulated_fixture(tmp_path)
    spec_path = tmp_path / "a1.json"
    spec_path.write_text(json.dumps(
        {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0}))
    csv_path = tmp_path / "music.csv"
    assert cli.main(["aoa", str(out / "A1.wav"), str(spec_path),
                     "--method", "music",
                     "--spectrum-csv", str(csv_path)]) == 0
    assert len(csv_path.read_text().strip().splitlines()) == 361


def test_aoa_channel_mismatch_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    wav = tmp_path / "five.wav"
    hio.write_wav(wav, MultichannelRecording(rng.standard_normal((5, 8192)),
                                             44100.0))
    spec_path = tmp_path / "a1.json"
    spec_path.write_text(json.dumps(
        {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0}))
    for method in ("gcc+", "gcc-phat", "music"):
        assert cli.main(["aoa", str(wav), str(spec_path),
                         "--method", method]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'A1'" in err


@pytest.mark.parametrize("method", ["gcc+", "gcc-phat", "music"])
def test_aoa_ambiguous_spectrum_exit_2_writes_csv(tmp_path, capsys, method):
    wav = tmp_path / "constant.wav"
    hio.write_wav(wav, MultichannelRecording(np.full((6, 46746), 0.3),
                                             44100.0))
    spec_path = tmp_path / "a1.json"
    spec_path.write_text(json.dumps(
        {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0}))
    csv_path = tmp_path / "spectrum.csv"
    assert cli.main(["aoa", str(wav), str(spec_path), "--method", method,
                     "--spectrum-csv", str(csv_path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "'A1'" in captured.err
    assert len(csv_path.read_text().strip().splitlines()) == 361


def test_localize_three_array_fixture(tmp_path, capsys):
    out = simulated_fixture(tmp_path)
    csv_path = tmp_path / "result.csv"
    code = cli.main(["localize", str(out / "manifest.json"),
                     "--solver", "irls", "--result-csv", str(csv_path)])
    assert code == 0
    printed = capsys.readouterr().out
    x = float(printed.split("position_m=(")[1].split(",")[0])
    y = float(printed.split(", ")[1].split(")")[0])
    truth = json.loads((out / "ground_truth.json").read_text())["source_m"]
    assert math.hypot(x - truth[0], y - truth[1]) < 0.1
    text = csv_path.read_text()
    assert text.startswith("record,array_id")
    assert "position" in text


def test_localize_single_array_manifest_exit_2(tmp_path, capsys):
    out = simulated_fixture(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["arrays"] = manifest["arrays"][:1]
    path = out / "one.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["localize", str(path)]) == 2
    assert "at least two" in capsys.readouterr().err


def test_localize_channel_mismatch_names_the_array(tmp_path, capsys):
    out = simulated_fixture(tmp_path)
    rec = hio.read_wav(out / "A2.wav")
    hio.write_wav(out / "A2.wav", MultichannelRecording(rec.samples[:5],
                                                        rec.sample_rate))
    assert cli.main(["localize", str(out / "manifest.json")]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'A2'" in err


def test_localize_sample_rate_mismatch_exit_2(tmp_path, capsys):
    out = simulated_fixture(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["sample_rate_hz"] = 48000.0  # the WAVs are 44.1 kHz
    path = out / "rate.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["localize", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "44100" in err and "48000" in err


def write_bad_wav(path, kind):
    """A file named like a capture that read_wav rejects with ValueError;
    returns a pattern that the error message matches."""
    data = np.zeros((4096, 6), dtype="<f4")
    fmt = wav_chunk(b"fmt ", struct.pack("<HHIIHH", 3, 6, 44100,
                                         44100 * 24, 24, 32))
    samples = wav_chunk(b"data", data.tobytes())
    if kind == "corrupt":
        path.write_bytes(b"RIFF" + bytes(range(60)))
        return "not a RIFF WAVE file"
    if kind == "nan":  # a well-formed float WAV carrying a NaN sample
        data[100, 2] = np.nan
        wav, message = riff_file(fmt, wav_chunk(b"data", data.tobytes())), \
            "finite"
    elif kind == "truncated":  # the data chunk ends 100 frames early
        wav, message = riff_file(fmt, samples[:-2400]), "truncated"
    elif kind == "no-fmt":
        wav, message = riff_file(samples), "no fmt chunk"
    elif kind == "mu-law":  # format tag 7, one byte per sample
        wav = riff_file(wav_chunk(b"fmt ", struct.pack(
            "<HHIIHHH", 7, 6, 8000, 48000, 6, 8, 0)), samples)
        message = "format tag 7"
    elif kind == "rifx":  # big-endian
        wav = riff_file(
            wav_chunk(b"fmt ", struct.pack(">HHIIHH", 3, 6, 44100,
                                           44100 * 24, 24, 32), ">"),
            wav_chunk(b"data", data.astype(">f4").tobytes(), ">"),
            container=b"RIFX", order=">")
        message = "RIFX"
    else:  # RF64: 64-bit sizes in a ds64 chunk, 0xFFFFFFFF in the header
        ds64 = wav_chunk(b"ds64", struct.pack("<QQQI", 0, data.nbytes,
                                              len(data), 0))
        wav = riff_file(ds64, fmt, samples, container=b"RF64",
                        size=0xFFFFFFFF)
        message = "RF64"
    path.write_bytes(wav)
    return message


BAD_WAV_KINDS = ["corrupt", "nan", "truncated", "no-fmt", "mu-law", "rifx",
                 "rf64"]


@pytest.mark.parametrize("kind", BAD_WAV_KINDS)
def test_read_wav_rejects_bad_file(tmp_path, kind):
    path = tmp_path / "bad.wav"
    message = write_bad_wav(path, kind)
    with pytest.raises(ValueError, match=message):
        hio.read_wav(path)


@pytest.mark.parametrize("kind", BAD_WAV_KINDS)
def test_bad_wav_exit_2_naming_the_file(tmp_path, capsys, kind):
    out = simulated_fixture(tmp_path)
    write_bad_wav(out / "A2.wav", kind)
    assert cli.main(["localize", str(out / "manifest.json")]) \
        == cli.EXIT_USAGE
    assert str(out / "A2.wav") in capsys.readouterr().err
    spec_path = tmp_path / "a2.json"
    spec_path.write_text(json.dumps(
        {"id": "A2", "center_m": [6.0, 0.0], "orientation_rad": 2.0}))
    assert cli.main(["aoa", str(out / "A2.wav"), str(spec_path)]) \
        == cli.EXIT_USAGE
    assert str(out / "A2.wav") in capsys.readouterr().err


def test_import_loads_no_scipy(tmp_path):
    # WAV files are read and written without scipy: a fresh interpreter
    # that imports the package, writes a scene and localizes it loads none
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    config = scene_config(tmp_path)
    out = tmp_path / "out"
    code = (
        "import sys, hexloc, hexloc.cli, hexloc.io; "
        f"assert hexloc.cli.main(['simulate', {str(config)!r}, "
        f"'--out-dir', {str(out)!r}]) == 0; "
        f"assert hexloc.cli.main(['localize', {str(out / 'manifest.json')!r}]) "
        "== 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert "position_m=" in proc.stdout


@pytest.mark.parametrize("key, value", [("speed_of_sound_m_s", -343),
                                        ("sample_rate_hz", "fast")])
def test_localize_bad_propagation_key_exit_2(tmp_path, capsys, key, value):
    out = simulated_fixture(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest[key] = value
    path = out / "bad.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["localize", str(path)]) == cli.EXIT_USAGE
    assert key in capsys.readouterr().err


def test_simulate_zero_speed_of_sound_exit_2(tmp_path, capsys):
    config = scene_config(tmp_path, speed_of_sound_m_s=0)
    assert cli.main(["simulate", str(config), "--out-dir",
                     str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert "speed_of_sound_m_s" in capsys.readouterr().err


def test_simulate_fractional_sample_rate_exit_2(tmp_path, capsys):
    # a WAV header holds whole Hz: 16000.5 would be written as 16000 and the
    # manifest's 16000.5 would then fail `hexloc localize` on its own output
    config = scene_config(tmp_path, sample_rate_hz=16000.5)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(config), "--out-dir",
                     str(out)]) == cli.EXIT_USAGE
    assert "sample_rate_hz" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["speech", "chirp"])
def test_simulate_rate_below_band_exit_2(tmp_path, capsys, kind):
    # a 6 kHz scene cannot carry the 300-3500 Hz band; 7 kHz just can
    out = tmp_path / "out"
    low = scene_config(tmp_path, name="low.json", sample_rate_hz=6000,
                       signal={"kind": kind})
    assert cli.main(["simulate", str(low), "--out-dir",
                     str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(low) in err and "6000" in err
    assert not out.exists()
    ok = scene_config(tmp_path, name="ok.json", sample_rate_hz=7000,
                      signal={"kind": kind})
    assert cli.main(["simulate", str(ok), "--out-dir", str(out)]) == 0


def test_write_wav_rejects_fractional_rate(tmp_path):
    rec = MultichannelRecording(np.zeros((2, 8)), 16000.5)
    with pytest.raises(ValueError, match="16000.5"):
        hio.write_wav(tmp_path / "x.wav", rec)
    assert not (tmp_path / "x.wav").exists()


@settings(max_examples=50, deadline=None)
@given(channels=st.integers(1, 6), length=st.integers(2, 64),
       rate=st.integers(1, 192000), seed=st.integers(0, 2 ** 32 - 1))
def test_wav_round_trip(channels, length, rate, seed):
    samples = np.random.default_rng(seed).uniform(-2.0, 2.0,
                                                  (channels, length))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        hio.write_wav(path, MultichannelRecording(samples, float(rate)))
        back = hio.read_wav(path)
    assert back.samples.shape == (channels, length)
    assert back.sample_rate == rate
    np.testing.assert_array_equal(
        back.samples, samples.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("extra, key", [
    ({"signal": "speech"}, "signal"),
    ({"echoes": {"delay_s": 0.004}}, "echoes"),
    ({"echoes": [0.004]}, "echoes[0]"),
    ({"arrays": [5]}, "arrays[0]"),
], ids=["signal-string", "echoes-object", "echo-number", "array-number"])
def test_simulate_wrong_entry_type_exit_2(tmp_path, capsys, extra, key):
    config = scene_config(tmp_path, **extra)
    assert cli.main(["simulate", str(config), "--out-dir",
                     str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("extra, key", [
    ({"echoes": [{"delay_s": "x", "gain": 0.5, "azimuth_offset_deg": 40.0}]},
     "delay_s"),
    ({"echoes": [{"delay_s": None, "gain": 0.5, "azimuth_offset_deg": 40.0}]},
     "delay_s"),
    ({"arrays": [{"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": "x"}]},
     "orientation_rad"),
    ({"duration_s": None}, "duration_s"),
    ({"seed": None}, "seed"),
    ({"seed": 2.5}, "seed"),
    ({"snr_db": []}, "snr_db"),
], ids=["echo-delay-string", "echo-delay-null", "orientation-string",
        "duration-null", "seed-null", "seed-fraction", "snr-list"])
def test_simulate_non_numeric_value_exit_2(tmp_path, capsys, extra, key):
    config = scene_config(tmp_path, **extra)
    assert cli.main(["simulate", str(config), "--out-dir",
                     str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert key in capsys.readouterr().err


def test_scene_null_snr_means_noiseless(tmp_path):
    config = json.loads(scene_config(tmp_path, snr_db=None).read_text())
    assert hio.parse_scene(config).snr_db == math.inf


@pytest.mark.parametrize("command", ["aoa", "localize", "eval"])
def test_invalid_pipeline_flag_exit_2(tmp_path, capsys, command):
    if command == "eval":
        argv = ["eval", "--trials", "1", "--out-dir", str(tmp_path / "e")]
    else:
        out = simulated_fixture(tmp_path)
        spec_path = tmp_path / "a1.json"
        spec_path.write_text(json.dumps(
            {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0}))
        argv = (["aoa", str(out / "A1.wav"), str(spec_path)]
                if command == "aoa"
                else ["localize", str(out / "manifest.json")])
    for flag in ("--num-windows", "--upsample-factor"):
        assert cli.main(argv + [flag, "0"]) == cli.EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err
    if command != "aoa":  # aoa takes no fusion flags
        assert cli.main(argv + ["--ransac-threshold-m", "0"]) \
            == cli.EXIT_USAGE
        assert "invalid pipeline flags" in capsys.readouterr().err


FUSION_FLAGS = (("--solver", "ransac", "solver", "ransac"),
                ("--ransac-threshold-m", "0.25", "ransac_threshold_m", 0.25))
# eval's scene draws; RANSAC scores every pair, so it draws nothing
SEED_FLAG = ("--seed", "1", "seed", 1)
RETIRED_FLAG = ("--ransac-iterations", "7")


@pytest.mark.parametrize("flag,value", [f[:2] for f in FUSION_FLAGS]
                         + [SEED_FLAG[:2], RETIRED_FLAG])
def test_aoa_rejects_fusion_flags(capsys, flag, value):
    # one bearing is never fused, so aoa declares no fusion flag
    assert cli.main(["aoa", "missing.wav", "missing.json", flag, value]) \
        == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    (["localize", "manifest.json"], *SEED_FLAG[:2]),
    (["localize", "manifest.json"], *RETIRED_FLAG),
    (["eval"], *RETIRED_FLAG)],
    ids=["localize-seed", "localize-ransac-iterations",
         "eval-ransac-iterations"])
def test_retired_flags_rejected(capsys, command, flag, value):
    assert cli.main(command + [flag, value]) == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["localize", "manifest.json"], ["eval"]])
def test_fusion_flags_reach_the_config(command):
    flags = FUSION_FLAGS + ((SEED_FLAG,) if command == ["eval"] else ())
    argv = list(command)
    for flag, value, _, _ in flags:
        argv += [flag, value]
    config = cli._config_from_args(cli._parser().parse_args(argv))
    for _, _, name, want in flags:
        assert getattr(config, name) == want


def test_localize_parallel_bearings_exit_3(tmp_path):
    # same recording fed to two same-orientation arrays at different
    # positions yields bitwise-identical azimuths: exactly parallel lines
    array = build_hex_array((0.0, 0.0), 0.0, array_id="B1")
    scene = sim.Scene(arrays=(array,), source=(4.0, 0.0), duration=1.06,
                      snr_db=math.inf, seed=2)
    recordings, _ = sim.synthesize(scene)
    out = tmp_path / "parallel"
    out.mkdir()
    hio.write_wav(out / "B1.wav", recordings[0])
    entries = []
    for array_id, center in (("B1", [0.0, 0.0]), ("B2", [0.0, 3.0])):
        entries.append({"id": array_id, "center_m": center,
                        "orientation_rad": 0.0, "wav": "B1.wav"})
    (out / "manifest.json").write_text(json.dumps(
        {"arrays": entries, "sample_rate_hz": 44100.0}))
    code = cli.main(["localize", str(out / "manifest.json"),
                     "--solver", "mle"])
    assert code == 3


def test_eval_command_writes_csvs(tmp_path, capsys):
    out = tmp_path / "eval"
    code = cli.main(["eval", "--trials", "2", "--snr-db", "25",
                     "--out-dir", str(out), "--seed", "5"])
    assert code == 0
    for name in ("summary.csv", "trials_aoa.csv", "trials_loc.csv"):
        assert (out / name).exists()
    printed = capsys.readouterr().out
    assert "method" in printed and "gcc+" in printed


def test_eval_deterministic_digests(tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    args = ["eval", "--trials", "2", "--snr-db", "25", "--seed", "9"]
    assert cli.main(args + ["--out-dir", str(out1)]) == 0
    assert cli.main(args + ["--out-dir", str(out2)]) == 0
    for name in ("summary.csv", "trials_aoa.csv", "trials_loc.csv"):
        assert digest(out1 / name) == digest(out2 / name)


def test_eval_single_array_exit_2(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps([{"id": "A1", "center_m": [0.0, 0.0],
                                 "orientation_rad": 0.0}]))
    out = tmp_path / "unused"
    assert cli.main(["eval", "--trials", "1", "--arrays", str(path),
                     "--out-dir", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at least two arrays" in err
    assert not out.exists()


TWIN_ARRAYS = [
    {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0},
    {"id": "A1", "center_m": [6.0, 0.0], "orientation_rad": 2.0},
]


def assert_one_error_line(capsys, *named):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    for text in named:
        assert text in err


def test_eval_repeated_array_id_exit_2(tmp_path, capsys):
    # each array is scored against the ground truth under its id
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(TWIN_ARRAYS))
    out = tmp_path / "unused"
    assert cli.main(["eval", "--trials", "1", "--arrays", str(path),
                     "--out-dir", str(out)]) == cli.EXIT_USAGE
    assert_one_error_line(capsys, str(path), "'A1'")
    assert not out.exists()


def test_localize_repeated_array_id_exit_2(tmp_path, capsys):
    out = simulated_fixture(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["arrays"][1]["id"] = "A1"
    path = out / "twins.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["localize", str(path)]) == cli.EXIT_USAGE
    assert_one_error_line(capsys, str(path), "'A1'")


@pytest.mark.parametrize("ids, named", [
    (("A1", "A1"), "array id 'A1' is repeated"),
    (("../escaped", "A2"), "key 'id'"),
    (("sub/A1", "A2"), "key 'id'"),
    (("sub\\A1", "A2"), "key 'id'"),
    (("", "A2"), "key 'id'"),
    ((".", "A2"), "key 'id'"),
    (("..", "A2"), "key 'id'"),
    (("A\0", "A2"), "key 'id'"),
    ((None, "A2"), "key 'id'"),
    ((5, "A2"), "key 'id'"),
    (({"x": 1}, "A2"), "key 'id'"),
], ids=["repeated", "parent", "slash", "backslash", "empty", "dot", "dot-dot",
        "nul", "null", "number", "object"])
def test_simulate_bad_array_id_exit_2(tmp_path, capsys, ids, named):
    # each id names its array's WAV file inside --out-dir
    arrays = [dict(spec, id=i) for spec, i in zip(TWIN_ARRAYS, ids)]
    config = scene_config(tmp_path, arrays=arrays)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(config), "--out-dir", str(out)]) \
        == cli.EXIT_USAGE
    assert_one_error_line(capsys, str(config), named)
    assert not out.exists() and not (tmp_path / "escaped.wav").exists()


@pytest.mark.parametrize("bounds", [["nan"] * 4, ["0", "0", "inf", "inf"]],
                         ids=["nan", "inf"])
def test_eval_non_finite_bounds_exit_2(tmp_path, capsys, bounds):
    out = tmp_path / "unused"
    assert cli.main(["eval", "--trials", "1", "--bounds", *bounds,
                     "--out-dir", str(out)]) == cli.EXIT_USAGE
    assert_one_error_line(capsys, "bounds must span a finite rectangle")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["aoa", "missing.wav", "missing.json"],
                                  ["localize", "manifest.json"], ["eval"]],
                         ids=["aoa", "localize", "eval"])
def test_strict_paper_mode_is_no_flag(capsys, argv):
    # the estimate method alone decides how a bearing is computed; a single
    # window is --num-windows 1
    assert cli.main(argv + ["--strict-paper-mode"]) == cli.EXIT_USAGE
    assert "unrecognized arguments: --strict-paper-mode" \
        in capsys.readouterr().err


def test_localize_ambiguous_array_exit_2(tmp_path, capsys):
    out = simulated_fixture(tmp_path)
    flat = hio.read_wav(out / "A2.wav")
    hio.write_wav(out / "A2.wav", MultichannelRecording(
        np.full_like(flat.samples, 0.3), flat.sample_rate))
    assert cli.main(["localize", str(out / "manifest.json")]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'A2'" in err


def test_usage_error_exit_2():
    assert cli.main(["aoa"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_output_dir_env_var(tmp_path, monkeypatch):
    config = scene_config(tmp_path)
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    assert cli.main(["simulate", str(config)]) == 0
    assert (target / "manifest.json").exists()


def test_simulate_file_source(tmp_path):
    rng = np.random.default_rng(4)
    wav = tmp_path / "utterance.wav"
    hio.write_wav(wav, MultichannelRecording(
        rng.standard_normal((1, 30000)) * 0.2, 44100.0))
    config = scene_config(tmp_path, signal={"kind": "file",
                                            "path": "utterance.wav"})
    out = tmp_path / "filesrc"
    assert cli.main(["simulate", str(config), "--out-dir", str(out)]) == 0
    rec = hio.read_wav(out / "A1.wav")
    assert rec.num_channels == 6
    assert np.any(rec.samples)


def test_wav_int16_read_normalized(tmp_path):
    from scipy.io import wavfile
    rng = np.random.default_rng(1)
    data = (rng.uniform(-0.5, 0.5, (4096, 6)) * 32767).astype(np.int16)
    path = tmp_path / "int16.wav"
    wavfile.write(str(path), 44100, data)
    rec = hio.read_wav(path)
    assert rec.num_channels == 6
    assert rec.samples.flags.c_contiguous
    assert float(np.max(np.abs(rec.samples))) <= 1.0
    np.testing.assert_allclose(rec.samples.T * 32768.0, data, atol=1.0)


def test_localize_reports_irls_convergence(tmp_path, capsys):
    # the CI smoke scene: on its gcc-phat bearings IRLS needs 168 iterations
    # to settle and stops at its cap of 50; gcc+ on a noiseless capture
    # settles
    for name in ("smoke", "clean"):
        (tmp_path / name).mkdir()
    capped = simulated_fixture(tmp_path / "smoke", seed=0, snr_db=20.0)
    csv_path = tmp_path / "result.csv"
    assert cli.main(["localize", str(capped / "manifest.json"),
                     "--method", "gcc-phat",
                     "--result-csv", str(csv_path)]) == 0
    printed = capsys.readouterr().out
    assert "iterations=50 " in printed and "converged=False" in printed
    assert csv_path.read_text().splitlines()[0] \
        == "record,array_id,x_m,y_m,azimuth_deg,residual_m,inlier,behind_anchor"
    clean = simulated_fixture(tmp_path / "clean", snr_db=None)
    assert cli.main(["localize", str(clean / "manifest.json")]) == 0
    assert "converged=True" in capsys.readouterr().out


def test_parser_reused_across_calls(tmp_path):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    # a rejected command line leaves the shared parser usable
    assert cli.main(["eval", "--trials", "many"]) == cli.EXIT_USAGE
    assert cli.main(["simulate", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path)]) == cli.EXIT_IO
    config = scene_config(tmp_path)
    for out in ("o1", "o2"):
        assert cli.main(["simulate", str(config),
                         "--out-dir", str(tmp_path / out)]) == 0
        assert (tmp_path / out / "manifest.json").exists()


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """A rendered scene and an array spec of its A1, shared read-only."""
    out = simulated_fixture(tmp_path_factory.mktemp("rendered"))
    spec = out / "a1.json"
    spec.write_text(json.dumps(
        {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0}))
    return out


def localize_argv(rendered, tmp_path, bad):
    """``hexloc localize`` on a manifest whose A2 capture is ``bad``."""
    manifest = json.loads((rendered / "manifest.json").read_text())
    for entry in manifest["arrays"]:
        entry["wav"] = str(bad if entry["id"] == "A2"
                           else rendered / entry["wav"])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return ["localize", str(path)]


# each file argument: its argv around the path, and whether it is a WAV
FILE_ARGUMENTS = {
    "simulate": (lambda r, t, bad: ["simulate", str(bad), "--out-dir",
                                    str(t / "out")], False),
    "aoa-wav": (lambda r, t, bad: ["aoa", str(bad), str(r / "a1.json")],
                True),
    "aoa-spec": (lambda r, t, bad: ["aoa", str(r / "A1.wav"), str(bad)],
                 False),
    "localize-manifest": (lambda r, t, bad: ["localize", str(bad)], False),
    "localize-wav": (localize_argv, True),
    "eval-arrays": (lambda r, t, bad: ["eval", "--trials", "1", "--arrays",
                                       str(bad), "--out-dir", str(t / "e")],
                    False),
}


def write_bad_input(path, kind, is_wav, argument):
    """A path of the given kind of bad input; returns the exit code due."""
    if kind == "missing":
        return cli.EXIT_IO
    if kind == "directory":
        path.mkdir()
        return cli.EXIT_IO
    if kind == "garbled":
        if is_wav:
            write_bad_wav(path, "corrupt")
        else:
            path.write_text("{not JSON")
    elif argument == "eval-arrays":  # a list is due: give it one spec
        path.write_text(json.dumps(
            {"id": "A1", "center_m": [0.0, 0.0], "orientation_rad": 0.0}))
    else:  # an object is due; a WAV file holds no JSON at all
        path.write_text("5")
    return cli.EXIT_USAGE


@pytest.mark.parametrize("kind", ["missing", "directory", "garbled",
                                  "wrong-type"])
@pytest.mark.parametrize("argument", list(FILE_ARGUMENTS))
def test_bad_file_argument_exit_code_names_the_path(rendered, tmp_path,
                                                    capsys, argument, kind):
    argv_of, is_wav = FILE_ARGUMENTS[argument]
    bad = tmp_path / "input"
    want = write_bad_input(bad, kind, is_wav, argument)
    assert cli.main(argv_of(rendered, tmp_path, bad)) == want
    err = capsys.readouterr().err
    assert str(bad) in err
    if kind == "wrong-type" and not is_wav:
        due = "list" if argument == "eval-arrays" else "object"
        assert f"must be a JSON {due}" in err


@pytest.mark.parametrize("command, edit, key", [
    ("localize", lambda m: m.update(arrays=5), "arrays"),
    ("localize", lambda m: m["arrays"][0].update(wav=5), "wav"),
    ("localize", lambda m: m["arrays"][0].update(center_m={"x": 0.0}),
     "center_m"),
    ("simulate", lambda m: m.update(source_m={"x": 1.0}), "source_m"),
    ("simulate", lambda m: m["arrays"][0].update(center_m={"x": 0.0}),
     "center_m"),
    ("aoa", lambda m: m.update(center_m={"x": 0.0}), "center_m"),
], ids=["arrays-number", "wav-number", "manifest-center-object",
        "source-object", "scene-center-object", "spec-center-object"])
def test_wrong_value_type_exit_2_names_file_and_key(rendered, tmp_path,
                                                    capsys, command, edit,
                                                    key):
    source = {"localize": rendered / "manifest.json",
              "aoa": rendered / "a1.json",
              "simulate": scene_config(tmp_path, name="base.json")}[command]
    config = json.loads(source.read_text())
    edit(config)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(config))
    argv = {"localize": ["localize", str(path)],
            "aoa": ["aoa", str(rendered / "A1.wav"), str(path)],
            "simulate": ["simulate", str(path), "--out-dir",
                         str(tmp_path / "out")]}[command]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and key in err
