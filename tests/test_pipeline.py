from dataclasses import fields, replace

import numpy as np
import pytest

from hexloc import dsp, pipeline, sim
from hexloc.aoa import AoaMethod, circular_error_deg
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


def test_strict_mode_toggles_only_documented_knobs():
    def resolved(cfg):
        names = [f.name for f in fields(cfg) if f.name != "strict_paper_mode"]
        names += [name for name, value in vars(PipelineConfig).items()
                  if isinstance(value, property)]
        return {name: getattr(cfg, name) for name in names}

    strict_cfg = PipelineConfig(strict_paper_mode=True)
    default = resolved(PipelineConfig())
    strict = resolved(strict_cfg)
    changed = {k for k in default if default[k] != strict[k]}
    assert changed == {"window_count", "weighted_matcher", "weighted_bearings"}
    assert default["window_count"] == 2
    assert default["weighted_matcher"] is True
    assert default["weighted_bearings"] is True
    assert strict["window_count"] == 1
    assert strict["weighted_matcher"] is False
    assert strict["weighted_bearings"] is False
    assert replace(strict_cfg, strict_paper_mode=False) == PipelineConfig()
    # the resolved values are derived, not settable
    assert len(fields(PipelineConfig)) == 9
    with pytest.raises(TypeError):
        PipelineConfig(window_count=1)


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


def test_strict_mode_still_localizes():
    arrays = sim.default_array_layout()
    scene = sim.Scene(arrays=arrays, source=(3.5, 1.5), snr_db=25.0, seed=9)
    recs, truth = sim.synthesize(scene)
    cfg = PipelineConfig(strict_paper_mode=True)
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
