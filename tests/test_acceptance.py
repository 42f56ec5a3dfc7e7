"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Criterion 8 is advisory and reports its timing
without gating the suite.
"""

import math
import time

import numpy as np
import pytest

from hexloc import dsp, geometry, pipeline, sim, tdoa
from hexloc.aoa import AoaMethod
from hexloc.dsp import MultichannelRecording
from hexloc.errors import UnlocalizableError
from hexloc.geometry import PropagationModel, build_hex_array
from hexloc.localize import (BearingLine, solve_irls, solve_mle, solve_ransac)
from hexloc.pipeline import PipelineConfig

import oracles
from fixtures import fractional_pair, sliced_pair

FS = 44100.0
BOUNDS = (0.5, 0.5, 5.5, 4.5)


def report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def bearing_to(anchor, target, rotate_deg=0.0, array_id=""):
    azimuth = math.atan2(target[1] - anchor[1], target[0] - anchor[0])
    return BearingLine.from_azimuth(anchor, azimuth + math.radians(rotate_deg),
                                    array_id=array_id)


def test_criterion_1_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1001)
    for trial in range(100):
        k = int(rng.integers(-20, 21))
        x1, x2 = sliced_pair(4096, k, seed=2000 + trial)
        oracle_lag = oracles.brute_force_delay_samples(x1, x2, 20)
        est = tdoa.estimate_pair_delay(
            MultichannelRecording(np.stack([x1, x2]), FS),
            max_lag=20.5 / FS, upsample_factor=1, refine=False)
        assert round(est.delay * FS) == oracle_lag == k
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"oracle equivalence, {elapsed:.1f}s")


def test_criterion_2_subsample_precision():
    start = time.time()
    rng = np.random.default_rng(1002)
    refined_errors, coarse_errors = [], []
    for trial in range(200):
        d = float(rng.uniform(-5.0, 5.0))
        x1, x2 = fractional_pair(8192, d, seed=3000 + trial, snr_db=20.0)
        rec = MultichannelRecording(np.stack([x1, x2]), FS)
        fine = tdoa.estimate_pair_delay(rec, max_lag=10.0 / FS,
                                        upsample_factor=8, refine=True)
        coarse = tdoa.estimate_pair_delay(rec, max_lag=10.0 / FS,
                                          upsample_factor=1, refine=False)
        refined_errors.append(abs(fine.delay * FS - d))
        coarse_errors.append(abs(coarse.delay * FS - d))
    mean_refined = float(np.mean(refined_errors))
    mean_coarse = float(np.mean(coarse_errors))
    elapsed = time.time() - start
    assert mean_refined < 0.1
    assert mean_refined < mean_coarse
    assert elapsed < 30.0
    report(2, f"subsample precision {mean_refined:.4f} vs {mean_coarse:.4f} "
              f"samples, {elapsed:.1f}s")


def test_criterion_3_simulated_aoa_accuracy():
    start = time.time()
    config = PipelineConfig(seed=42)

    clean = pipeline.run_eval(100, BOUNDS, config, snr_db=20.0,
                              methods=(AoaMethod.GCC_PLUS,), solvers=("mle",))
    clean_errors = [r["error_deg"] for r in clean.aoa if r["status"] == "ok"]
    assert len(clean_errors) >= 295  # tolerate isolated failures
    clean_median = float(np.median(clean_errors))
    assert clean_median <= 2.2

    echoes = (sim.Echo(0.004, 0.5, 85.0), sim.Echo(0.009, 0.5, -130.0))
    multi = pipeline.run_eval(100, BOUNDS, PipelineConfig(seed=43),
                              snr_db=20.0, echoes=echoes, solvers=("mle",))
    medians = {}
    for method in ("gcc+", "gcc-phat", "music"):
        errors = [r["error_deg"] for r in multi.aoa
                  if r["method"] == method and r["status"] == "ok"]
        medians[method] = float(np.median(errors))
    assert medians["gcc+"] <= medians["gcc-phat"]
    assert medians["gcc-phat"] < medians["music"]

    elapsed = time.time() - start
    assert elapsed < 300.0
    report(3, f"clean median {clean_median:.3f} deg; multipath medians "
              f"{medians['gcc+']:.2f} <= {medians['gcc-phat']:.2f} "
              f"< {medians['music']:.2f}, {elapsed:.0f}s")


def test_criterion_4_exact_triangulation():
    start = time.time()
    rng = np.random.default_rng(1004)
    solved = 0
    while solved < 1000:
        count = int(rng.integers(2, 4))
        target = rng.uniform(-5.0, 5.0, size=2)
        anchors = rng.uniform(-10.0, 10.0, size=(count, 2))
        lines = [bearing_to(tuple(a), tuple(target), array_id=str(i))
                 for i, a in enumerate(anchors)]
        crosses = [abs(li.direction[0] * lj.direction[1]
                       - li.direction[1] * lj.direction[0])
                   for i, li in enumerate(lines)
                   for lj in lines[i + 1:]]
        if max(crosses) < 0.05:
            continue  # near-parallel draw: covered by the degenerate check
        for solve in (solve_mle, solve_irls,
                      lambda ls: solve_ransac(ls, 0.5)):
            position = solve(lines).position
            assert float(np.linalg.norm(position - target)) < 1e-9
        solved += 1

    parallel = [BearingLine.from_azimuth((0.0, float(i)), 0.4,
                                         array_id=str(i)) for i in range(3)]
    for solve in (solve_mle, solve_irls,
                  lambda ls: solve_ransac(ls, 0.5)):
        with pytest.raises(UnlocalizableError):
            solve(parallel)

    elapsed = time.time() - start
    assert elapsed < 5.0
    report(4, f"exact triangulation x1000, {elapsed:.1f}s")


def test_criterion_5_robust_solvers_vs_outlier():
    start = time.time()
    rng = np.random.default_rng(1005)
    errors = {"mle": [], "ransac": [], "irls": []}
    for trial in range(100):
        target = rng.uniform(1.0, 5.0, size=2)
        anchors = [(0.0, 0.0), (6.0, 0.0), (3.0, 6.0), (6.0, 5.0)]
        lines = [bearing_to(a, tuple(target), array_id=f"L{i}")
                 for i, a in enumerate(anchors[:3])]
        lines.append(bearing_to(anchors[3], tuple(target), rotate_deg=90.0,
                                array_id="L3"))
        errors["mle"].append(np.linalg.norm(
            solve_mle(lines).position - target))
        errors["ransac"].append(np.linalg.norm(
            solve_ransac(lines, 0.5).position - target))
        errors["irls"].append(np.linalg.norm(
            solve_irls(lines).position - target))
    ransac_median = float(np.median(errors["ransac"]))
    irls_median = float(np.median(errors["irls"]))
    mle_median = float(np.median(errors["mle"]))
    assert ransac_median < 0.2
    assert irls_median < 0.2
    assert mle_median > ransac_median
    assert mle_median > irls_median

    # two bearings: every solver reduces to the least-squares intersection
    for trial in range(50):
        target = rng.uniform(1.0, 5.0, size=2)
        lines = [bearing_to((0.0, 0.0), tuple(target), array_id="a"),
                 bearing_to((6.0, 0.0), tuple(target), array_id="b")]
        p_mle = solve_mle(lines).position
        p_ransac = solve_ransac(lines, 0.5).position
        p_irls = solve_irls(lines).position
        assert float(np.linalg.norm(p_ransac - p_mle)) < 1e-9
        assert float(np.linalg.norm(p_irls - p_mle)) < 1e-9

    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, f"robust medians ransac {ransac_median:.3f} / irls "
              f"{irls_median:.3f} < mle {mle_median:.3f} m, {elapsed:.1f}s")


def test_criterion_6_spatial_resolution_constant():
    value = geometry.spatial_resolution(PropagationModel(343.0, 44100.0))
    assert value == pytest.approx(7.777e-3, abs=0.01e-3)
    report(6, f"spatial resolution {value * 1000:.4f} mm")


def test_criterion_7_invariant_bundle():
    # representative re-checks of each module's invariant suite; the full
    # versions live in the per-module test files
    start = time.time()
    model = PropagationModel()
    array = build_hex_array((0.4, -0.2), 0.7, array_id="A")

    # geometry: closure, antisymmetry, rotation invariance
    np.testing.assert_allclose((array.elements - array.center).sum(axis=0),
                               0.0, atol=1e-12)
    az = np.deg2rad(np.arange(0.0, 360.0))
    for pair in ((0, 3), (1, 4)):
        fwd = geometry.predicted_pair_delay(array, pair, az, model)
        rev = geometry.predicted_pair_delay(array, pair[::-1], az, model)
        np.testing.assert_allclose(fwd, -rev, atol=1e-15)

    # dsp: PHAT idempotence and round trip
    rng = np.random.default_rng(1007)
    x = rng.standard_normal(1024)
    spec = dsp.real_spectrum(MultichannelRecording(x[None], FS))
    np.testing.assert_allclose(dsp.inverse_real_spectrum(spec), x[None],
                               atol=1e-9)
    g = dsp.cross_power(spec, dsp.real_spectrum(
        MultichannelRecording(rng.standard_normal((1, 1024)), FS)))
    once = dsp.phat_weight(g)
    np.testing.assert_allclose(dsp.phat_weight(once).bins, once.bins,
                               atol=1e-12)

    # tdoa: triangle consistency on a noiseless plane wave
    source = array.center + 3.0 * np.array([math.cos(1.1), math.sin(1.1)])
    scene = sim.Scene(arrays=(array,), source=source, duration=1.06,
                      snr_db=math.inf, seed=17, model=model)
    recordings, truth = sim.synthesize(scene)
    delays = tdoa.expand_delay_features(
        dsp.bandpass_recording(recordings[0], *dsp.DEFAULT_BAND_HZ),
        array, num_windows=1, model=model, band_hz=dsp.DEFAULT_BAND_HZ)
    by_pair = {e.pair: e.delay for e in delays.entries}
    for i in range(6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                closure = by_pair[(i, j)] + by_pair[(j, k)] - by_pair[(i, k)]
                assert abs(closure) * FS < 0.2

    # sim + pipeline: full determinism under a fixed seed
    config = PipelineConfig(seed=33)
    kw = dict(snr_db=20.0, methods=(AoaMethod.GCC_PLUS,), solvers=("irls",))
    rows_a = pipeline.run_eval(1, BOUNDS, config, **kw)
    rows_b = pipeline.run_eval(1, BOUNDS, config, **kw)
    assert pipeline.rows_to_csv(rows_a.loc, pipeline.LOC_TRIAL_FIELDS) == \
        pipeline.rows_to_csv(rows_b.loc, pipeline.LOC_TRIAL_FIELDS)

    # localize: equivariance under translation
    target = (2.0, 3.0)
    lines = [bearing_to((0.0, 0.0), target, array_id="a"),
             bearing_to((6.0, 1.0), target, array_id="b"),
             bearing_to((2.0, 7.0), target, array_id="c")]
    shift = np.array([3.3, -1.7])
    moved = [BearingLine(anchor=ln.anchor + shift, direction=ln.direction,
                         array_id=ln.array_id)
             for ln in lines]
    np.testing.assert_allclose(solve_mle(moved).position,
                               solve_mle(lines).position + shift, atol=1e-9)

    elapsed = time.time() - start
    report(7, f"invariant bundle, {elapsed:.1f}s")


def test_criterion_8_latency_advisory():
    arrays = sim.default_array_layout()
    scene = sim.Scene(arrays=arrays, source=(2.8, 2.1), duration=1.06,
                      snr_db=20.0, seed=77)
    recordings, truth = sim.synthesize(scene)
    config = PipelineConfig()
    start = time.time()
    result, _ = pipeline.localize_recordings(recordings, list(arrays),
                                             AoaMethod.GCC_PLUS, config,
                                             scene.model)
    elapsed = time.time() - start
    assert np.all(np.isfinite(result.position))
    error = float(np.linalg.norm(result.position - truth.source))
    assert error < 0.5
    verdict = "PASS" if elapsed < 1.2 else "OVER BUDGET (advisory only)"
    print(f"\nACCEPTANCE 8 (end-to-end latency): {elapsed:.2f}s "
          f"for 1.06s of 3-array audio -> {verdict}")
