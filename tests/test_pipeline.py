import math
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from hexloc import dsp, pipeline, sim
from hexloc.aoa import AoaMethod, circular_error_deg
from hexloc.errors import (AmbiguousEstimateError, NoSignalError,
                           UnlocalizableError)
from hexloc.geometry import PropagationModel, build_hex_array
from hexloc.pipeline import (EvalSummary, PipelineConfig, csv_to_rows,
                             localize_recordings, rows_to_csv, run_eval,
                             summaries_to_csv, summarize)


def test_config_defaults_valid():
    cfg = PipelineConfig()
    assert cfg.band_hz == (300.0, 3500.0)
    assert cfg.upsample_factor == 8
    assert cfg.num_windows == 2
    assert cfg.grid_step_deg == 1.0
    assert cfg.solver == "irls"


def test_config_rejects_bad_solver():
    with pytest.raises(ValueError):
        PipelineConfig(solver="gradient-descent")


def test_config_has_seven_settable_fields():
    # the estimate method alone decides how a bearing is computed: the
    # config holds its tuning and the fusion's, and no mode switch; RANSAC
    # scores every pair, so it takes no draw budget
    assert [f.name for f in fields(PipelineConfig)] == [
        "band_hz", "upsample_factor", "num_windows", "grid_step_deg",
        "solver", "ransac_threshold_m", "seed"]
    assert not [name for name, value in vars(PipelineConfig).items()
                if isinstance(value, property)]
    for retired in ("strict_paper_mode", "window_count", "weighted_matcher",
                    "ransac_iterations"):
        with pytest.raises(TypeError):
            PipelineConfig(**{retired: 1})


def test_localize_recordings_three_arrays():
    arrays = sim.default_array_layout()
    scene = sim.Scene(arrays=arrays, source=(2.5, 2.0), snr_db=25.0, seed=7)
    recs, truth = sim.synthesize(scene)
    cfg = PipelineConfig()
    result, estimates = localize_recordings(recs, list(arrays),
                                            AoaMethod.GCC_PLUS, cfg,
                                            scene.model)
    assert len(estimates) == 3
    assert float(np.linalg.norm(result.position - truth.source)) < 0.1


def test_localize_requires_two_arrays():
    arrays = sim.default_array_layout()
    scene = sim.Scene(arrays=arrays[:1], source=(2.5, 2.0), seed=1)
    recs, _ = sim.synthesize(scene)
    with pytest.raises(ValueError):
        localize_recordings(recs, [arrays[0]], AoaMethod.GCC_PLUS,
                            PipelineConfig(), scene.model)


def test_localize_refuses_repeated_ids_before_estimating(monkeypatch):
    # each array's bearing and result row are told apart by its id
    a1, _, a3 = sim.default_array_layout()
    scene = sim.Scene(arrays=(a1, a3), source=(2.5, 2.0), seed=1,
                      duration=0.25)
    (r1, r3), _ = sim.synthesize(scene)

    def not_called(*args):
        raise AssertionError("an estimate ran")

    monkeypatch.setattr(pipeline, "estimate_recording_aoa", not_called)
    with pytest.raises(ValueError, match="array id 'A1' is repeated"):
        localize_recordings([r1, r3, r1], [a1, a3, a1])


def test_single_window_still_localizes():
    arrays = sim.default_array_layout()
    scene = sim.Scene(arrays=arrays, source=(3.5, 1.5), snr_db=25.0, seed=9)
    recs, truth = sim.synthesize(scene)
    cfg = PipelineConfig(num_windows=1)
    result, _ = localize_recordings(recs, list(arrays), AoaMethod.GCC_PLUS,
                                    cfg, scene.model)
    assert float(np.linalg.norm(result.position - truth.source)) < 0.2


def test_eval_rows_and_summaries_round_trip():
    cfg = PipelineConfig(seed=5)
    rows = run_eval(2, (0.5, 0.5, 5.5, 4.5), cfg, snr_db=25.0,
                    methods=(AoaMethod.GCC_PLUS,), solvers=("mle", "irls"))
    assert len(rows.aoa) == 2 * 3          # trials x arrays
    assert len(rows.loc) == 2 * 2          # trials x solvers
    summaries = summarize(rows)
    assert {s.solver for s in summaries} == {"mle", "irls"}

    # CSV round trip reproduces the summaries exactly
    aoa_csv = rows_to_csv(rows.aoa, pipeline.AOA_TRIAL_FIELDS)
    loc_csv = rows_to_csv(rows.loc, pipeline.LOC_TRIAL_FIELDS)
    rows2 = pipeline.EvalRows(aoa=csv_to_rows(aoa_csv),
                              loc=csv_to_rows(loc_csv))
    summaries2 = summarize(rows2)
    assert summaries_to_csv(summaries2) == summaries_to_csv(summaries)


def test_eval_deterministic_under_seed():
    cfg = PipelineConfig(seed=11)
    kw = dict(snr_db=20.0, methods=(AoaMethod.GCC_PLUS,), solvers=("mle",))
    rows_a = run_eval(2, (0.5, 0.5, 5.5, 4.5), cfg, **kw)
    rows_b = run_eval(2, (0.5, 0.5, 5.5, 4.5), cfg, **kw)
    csv_a = rows_to_csv(rows_a.aoa, pipeline.AOA_TRIAL_FIELDS)
    csv_b = rows_to_csv(rows_b.aoa, pipeline.AOA_TRIAL_FIELDS)
    assert csv_a == csv_b
    assert rows_to_csv(rows_a.loc, pipeline.LOC_TRIAL_FIELDS) == \
        rows_to_csv(rows_b.loc, pipeline.LOC_TRIAL_FIELDS)


def test_single_trial_summary_degenerate_percentiles():
    cfg = PipelineConfig(seed=3)
    rows = run_eval(1, (0.5, 0.5, 5.5, 4.5), cfg, snr_db=25.0,
                    methods=(AoaMethod.GCC_PLUS,), solvers=("mle",))
    (summary,) = summarize(rows)
    assert summary.trials == 1
    assert summary.loc_mean_m == pytest.approx(summary.loc_median_m)
    assert summary.loc_median_m == pytest.approx(summary.loc_p90_m)


def test_summary_percentile_ordering_enforced():
    with pytest.raises(ValueError):
        EvalSummary(method="gcc+", solver="mle", trials=1,
                    aoa_mean_deg=1.0, aoa_median_deg=2.0, aoa_p90_deg=1.0,
                    loc_mean_m=0.1, loc_median_m=0.1, loc_p90_m=0.1)


def test_spectrum_csv_shape():
    arrays = sim.default_array_layout()
    scene = sim.Scene(arrays=arrays[:1], source=(2.0, 1.0), snr_db=25.0,
                      seed=2)
    recs, _ = sim.synthesize(scene)
    spectrum, _ = pipeline.estimate_recording_aoa(
        recs[0], arrays[0], AoaMethod.MUSIC, PipelineConfig(), scene.model)
    text = pipeline.spectrum_to_csv(spectrum)
    lines = text.strip().splitlines()
    assert lines[0] == "angle_deg,score"
    assert len(lines) == 361  # header + 360 rows at the 1-degree grid


def test_eval_bandpasses_each_recording_once(monkeypatch):
    calls = []
    original = dsp.bandpass_recording

    def counting(rec, low_hz, high_hz):
        calls.append(rec)
        return original(rec, low_hz, high_hz)

    monkeypatch.setattr(dsp, "bandpass_recording", counting)
    cfg = PipelineConfig(seed=5)
    bounds = (0.5, 0.5, 5.5, 4.5)
    rows = run_eval(1, bounds, cfg, snr_db=20.0, solvers=("mle",))
    assert len(calls) == 3                 # one per array, shared by methods
    monkeypatch.undo()

    # every method sees the same errors as a standalone estimate
    (scene,) = sim.sample_scenarios(1, bounds, seed=cfg.seed,
                                    arrays=sim.default_array_layout(),
                                    snr_db=20.0)
    recs, truth = sim.synthesize(scene)
    expected = []
    for method in pipeline.ALL_METHODS:
        for rec, array in zip(recs, scene.arrays):
            _, est = pipeline.estimate_recording_aoa(rec, array, method, cfg,
                                                     scene.model)
            expected.append((method.value, array.id, circular_error_deg(
                est.azimuth_deg, truth.azimuth_deg[array.id])))
    assert [(r["method"], r["array_id"], r["error_deg"])
            for r in rows.aoa] == expected


def test_eval_config_error_raises():
    # a program or config error is not an estimator failure: it must not
    # become silent "error" rows
    with pytest.raises(ValueError, match="grid_step_deg"):
        run_eval(1, (0.5, 0.5, 5.5, 4.5), PipelineConfig(grid_step_deg=10.0),
                 methods=(AoaMethod.GCC_PLUS,), solvers=("mle",))


# --- concurrency: the serial per-array loops are the reference -------------

def serial_localize(recs, arrays, method, config, model):
    """localize_recordings as one array after another."""
    estimates = [pipeline.estimate_recording_aoa(rec, array, method, config,
                                                 model)[1]
                 for rec, array in zip(recs, arrays)]
    return pipeline.fuse_bearings(arrays, estimates, config), estimates


def serial_eval(n_trials, bounds, config, snr_db, echoes, solvers):
    """run_eval's rows from a serial loop: method by method, array by array."""
    scenes = sim.sample_scenarios(n_trials, bounds, seed=config.seed,
                                  arrays=sim.default_array_layout(),
                                  snr_db=snr_db, echoes=echoes)
    rows = pipeline.EvalRows()
    for t, scene in enumerate(scenes):
        recordings, truth = sim.synthesize(scene)
        for method in pipeline.ALL_METHODS:
            usable = []
            for rec, array in zip(recordings, scene.arrays):
                try:
                    _, est = pipeline.estimate_recording_aoa(
                        rec, array, method, config, scene.model)
                except (AmbiguousEstimateError, NoSignalError):
                    err, status = math.nan, "error"
                else:
                    err, status = circular_error_deg(
                        est.azimuth_deg, truth.azimuth_deg[array.id]), "ok"
                    usable.append((array, est))
                rows.aoa.append({"trial": t, "method": method.value,
                                 "array_id": array.id, "error_deg": err,
                                 "status": status})
            for solver in solvers:
                err = math.nan
                if len(usable) >= 2:
                    cfg = replace(config, solver=solver)
                    try:
                        result = pipeline.fuse_bearings(*zip(*usable), cfg)
                    except UnlocalizableError:
                        pass
                    else:
                        err = float(np.linalg.norm(result.position
                                                   - truth.source))
                rows.loc.append({"trial": t, "method": method.value,
                                 "solver": solver, "error_m": err,
                                 "status": "error" if math.isnan(err) else "ok"})
    return rows


def ring_scene(count):
    """``count`` arrays on a 4 m circle around a source, 0.25 s captures."""
    angles = 2.0 * np.pi * np.arange(count) / count
    arrays = tuple(build_hex_array((2.5 + 4.0 * np.cos(a), 2.0 + 4.0 * np.sin(a)),
                                   orientation=0.7 * k, array_id=f"R{k}")
                   for k, a in enumerate(angles))
    return sim.Scene(arrays=arrays, source=(2.6, 2.1), snr_db=20.0, seed=17,
                     duration=0.25)


def test_concurrent_localize_equals_serial_loop():
    scene = ring_scene((os.cpu_count() or 1) + 2)  # more arrays than cores
    recs, _ = sim.synthesize(scene)
    arrays = list(scene.arrays)
    cfg = PipelineConfig()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for method in pipeline.ALL_METHODS:
            want, want_estimates = serial_localize(recs, arrays, method, cfg,
                                                   scene.model)
            got, estimates = localize_recordings(recs, arrays, method, cfg,
                                                 scene.model)
            assert estimates == want_estimates
            np.testing.assert_array_equal(got.position, want.position)
            assert (got.residuals, got.weights, got.iterations) \
                == (want.residuals, want.weights, want.iterations)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_localize_recordings_of_different_lengths():
    arrays = list(sim.default_array_layout())[:2]
    recs = [sim.synthesize(sim.Scene(arrays=(array,), source=(2.5, 2.0),
                                     snr_db=20.0, seed=6 + k,
                                     duration=duration))[0][0]
            for k, (array, duration) in enumerate(zip(arrays, (1.06, 1.5)))]
    assert [rec.num_samples for rec in recs] == [46746, 66150]
    cfg = PipelineConfig()
    for method in pipeline.ALL_METHODS:
        _, estimates = localize_recordings(recs, arrays, method, cfg)
        assert estimates == [pipeline.estimate_recording_aoa(
            rec, array, method, cfg)[1] for rec, array in zip(recs, arrays)]


def test_concurrent_localize_raises_first_array_error(monkeypatch):
    arrays = list(sim.default_array_layout())
    scene = sim.Scene(arrays=arrays, source=(2.5, 2.0), snr_db=20.0, seed=4,
                      duration=0.25)
    recs, _ = sim.synthesize(scene)
    original = pipeline.estimate_recording_aoa

    def giving_up(rec, array, method, config, model):
        if array.id == "A2":
            time.sleep(0.2)  # array 1 gives up after array 2 has
            raise NoSignalError("A2 gave up")
        if array.id == "A3":
            raise AmbiguousEstimateError("A3 gave up")
        return original(rec, array, method, config, model)

    monkeypatch.setattr(pipeline, "estimate_recording_aoa", giving_up)
    for localize in (serial_localize, localize_recordings):
        with pytest.raises(NoSignalError, match="A2 gave up"):
            localize(recs, arrays, AoaMethod.GCC_PLUS, PipelineConfig(),
                     scene.model)


def test_concurrent_eval_rows_equal_serial_loop():
    cfg = PipelineConfig(seed=8)
    kw = dict(snr_db=20.0, echoes=(sim.Echo(0.004, 0.5, 85.0),
                                   sim.Echo(0.009, 0.5, -130.0)),
              solvers=pipeline.ALL_SOLVERS)
    bounds = (0.5, 0.5, 5.5, 4.5)
    got = run_eval(2, bounds, cfg, **kw)
    want = serial_eval(2, bounds, cfg, **kw)
    # repr of every float: equal bit for bit, NaN included
    assert rows_to_csv(got.aoa, pipeline.AOA_TRIAL_FIELDS) \
        == rows_to_csv(want.aoa, pipeline.AOA_TRIAL_FIELDS)
    assert rows_to_csv(got.loc, pipeline.LOC_TRIAL_FIELDS) \
        == rows_to_csv(want.loc, pipeline.LOC_TRIAL_FIELDS)


# --- faulty channels ----------------------------------------------------------
# One 20 dB scene seen by array A1. A stuck channel, a DC offset or clipping
# leaves gcc+ and MUSIC within 0.4 degrees of the truth (dead channels: gcc+
# at most 0.19, MUSIC at most 0.02 degrees); gcc-phat, with its uniform pair
# weights, is left out: one dead channel moves it by up to 29 degrees.

@pytest.fixture(scope="module")
def a1_scene():
    array = sim.default_array_layout()[0]
    scene = sim.Scene(arrays=(array,), source=(2.0, 1.0), snr_db=20.0, seed=5)
    recs, truth = sim.synthesize(scene)
    return recs[0], array, truth.azimuth_deg[array.id], scene.model


def stuck(x, channel):
    x[channel] = 0.3


def dc_offset(x, channel):
    x[channel] += 5.0


def clipped(x, channel):
    limit = 0.2 * np.max(np.abs(x))
    np.clip(x, -limit, limit, out=x)


def with_fault(rec, fault, channel):
    x = rec.samples.copy()
    fault(x, channel)
    return dsp.MultichannelRecording(x, rec.sample_rate)


@pytest.mark.parametrize("method", [AoaMethod.GCC_PLUS, AoaMethod.MUSIC],
                         ids=["gcc+", "music"])
@pytest.mark.parametrize("fault,channel",
                         [(stuck, c) for c in range(6)]
                         + [(dc_offset, 2), (clipped, None)],
                         ids=[f"stuck-{c}" for c in range(6)]
                         + ["dc-offset-2", "clipped"])
def test_one_faulty_channel_keeps_the_bearing(a1_scene, method, fault, channel):
    rec, array, truth_deg, model = a1_scene
    spectrum, est = pipeline.estimate_recording_aoa(
        with_fault(rec, fault, channel), array, method, PipelineConfig(),
        model)
    assert not spectrum.ambiguous
    assert circular_error_deg(est.azimuth_deg, truth_deg) <= 1.0


@pytest.mark.parametrize("method", list(AoaMethod), ids=lambda m: m.value)
def test_all_channels_constant_gives_no_trusted_bearing(method):
    # the flat test is relative to the scores' own scale: gcc+ scores are
    # tiny (s^2) and, from the fit's bias, span up to 3e-3 of their size
    array = sim.default_array_layout()[0]
    for rate in (7000.0, 8000.0, 11025.0, 16000.0, 22050.0, 44100.0):
        flat = dsp.MultichannelRecording(
            np.full((6, round(sim.DEFAULT_DURATION_S * rate)), 0.3), rate)
        with pytest.raises((NoSignalError, AmbiguousEstimateError)):
            pipeline.estimate_recording_aoa(
                flat, array, method, PipelineConfig(),
                PropagationModel(sample_rate=rate))


def test_eval_give_ups_land_on_their_array_and_method(monkeypatch):
    # array A2 records nothing: each method gives up on it alone, and its
    # rows, and the fusion of the other two bearings, stay in place
    original = sim.synthesize

    def silent_a2(scene):
        recordings, truth = original(scene)
        recordings[1] = dsp.MultichannelRecording(
            np.zeros_like(recordings[1].samples), recordings[1].sample_rate)
        return recordings, truth

    monkeypatch.setattr(sim, "synthesize", silent_a2)
    cfg = PipelineConfig(seed=8)
    kw = dict(snr_db=20.0, echoes=(), solvers=pipeline.ALL_SOLVERS)
    bounds = (0.5, 0.5, 5.5, 4.5)
    got = run_eval(1, bounds, cfg, **kw)
    want = serial_eval(1, bounds, cfg, **kw)
    assert rows_to_csv(got.aoa, pipeline.AOA_TRIAL_FIELDS) \
        == rows_to_csv(want.aoa, pipeline.AOA_TRIAL_FIELDS)
    assert rows_to_csv(got.loc, pipeline.LOC_TRIAL_FIELDS) \
        == rows_to_csv(want.loc, pipeline.LOC_TRIAL_FIELDS)
    assert [(r["method"], r["array_id"]) for r in got.aoa
            if r["status"] == "error"] \
        == [(m.value, "A2") for m in pipeline.ALL_METHODS]
    assert all(r["status"] == "ok" for r in got.loc)


def constant_a2(recordings):
    """The recordings with array A2's every channel stuck at 0.3: each
    method's spectrum is flat there, so its grid angle is no bearing."""
    recordings = list(recordings)
    recordings[1] = dsp.MultichannelRecording(
        np.full_like(recordings[1].samples, 0.3), recordings[1].sample_rate)
    return recordings


@pytest.mark.parametrize("method", list(AoaMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("num_windows", [PipelineConfig().num_windows, 1],
                         ids=["default", "single-window"])
def test_ambiguous_bearing_is_not_fused(method, num_windows):
    arrays = sim.default_array_layout()
    scene = sim.Scene(arrays=arrays, source=(2.5, 2.0), snr_db=20.0, seed=4)
    recs, _ = sim.synthesize(scene)
    cfg = PipelineConfig(num_windows=num_windows)
    with pytest.raises(AmbiguousEstimateError, match="'A2'") as info:
        localize_recordings(constant_a2(recs), list(arrays), method, cfg,
                            scene.model)
    assert info.value.spectrum.ambiguous


def test_eval_leaves_ambiguous_bearings_out(monkeypatch):
    original = sim.synthesize

    def synthesize(scene):
        recordings, truth = original(scene)
        return constant_a2(recordings), truth

    monkeypatch.setattr(sim, "synthesize", synthesize)
    rows = run_eval(1, (0.5, 0.5, 5.5, 4.5), PipelineConfig(seed=8),
                    snr_db=20.0)
    assert [(r["method"], r["array_id"]) for r in rows.aoa
            if r["status"] == "error"] \
        == [(m.value, "A2") for m in pipeline.ALL_METHODS]
    # the other two bearings still fuse
    assert all(r["status"] == "ok" for r in rows.loc)


def test_eval_requires_two_arrays():
    with pytest.raises(ValueError, match="at least two arrays"):
        run_eval(1, (0.5, 0.5, 5.5, 4.5),
                 arrays=sim.default_array_layout()[:1])


def test_eval_refuses_repeated_array_ids():
    # each array is scored against the ground truth under its id
    first, second, _ = sim.default_array_layout()
    twin = build_hex_array(second.center, second.orientation, array_id="A1")
    with pytest.raises(ValueError, match="array id 'A1' is repeated"):
        run_eval(1, (0.5, 0.5, 5.5, 4.5), arrays=(first, twin))
