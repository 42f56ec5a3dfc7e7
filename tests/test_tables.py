"""The text of every table hexloc writes, pinned byte for byte."""

import math
from dataclasses import fields

import numpy as np

from hexloc import pipeline
from hexloc.aoa import AoaEstimate, AoaMethod, AoaSpectrum
from hexloc.geometry import build_hex_array
from hexloc.localize import LocalizationResult
from hexloc.pipeline import (EvalRows, EvalSummary, PipelineConfig,
                             result_to_csv, rows_to_csv, run_eval,
                             spectrum_to_csv, summaries_to_csv, summarize,
                             summary_table)

ARRAYS = [build_hex_array((0.0, 0.0), 0.0, array_id="A1"),
          build_hex_array((6.0, 0.0), 2.0, array_id="A2"),
          build_hex_array((3.0, 5.0), -1.0, array_id="A3")]
ESTIMATES = [AoaEstimate(math.radians(deg), AoaMethod.GCC_PLUS, a.id)
             for deg, a in zip((38.5, 151.25, 268.0), ARRAYS)]
# one residual a numpy scalar: its cell is the number, not its numpy repr
RESIDUALS = (0.0125, np.float64(0.5) / 3, 0.0)
RESULT_HEADER = "record,array_id,x_m,y_m,azimuth_deg,residual_m,inlier," \
                "behind_anchor\nposition,,2.5,2.0,,,,\n"


def test_result_csv_without_inliers_leaves_the_column_empty():
    result = LocalizationResult(position=np.array([2.5, 2.0]),
                                residuals=RESIDUALS, method="mle")
    assert result_to_csv(result, ARRAYS, ESTIMATES) == RESULT_HEADER + (
        "bearing,A1,0.0,0.0,38.5,0.0125,,False\n"
        "bearing,A2,6.0,0.0,151.25,0.16666666666666666,,False\n"
        "bearing,A3,3.0,5.0,268.0,0.0,,False\n")


def test_result_csv_marks_inliers_and_lines_behind_their_anchor():
    result = LocalizationResult(position=np.array([2.5, 2.0]),
                                residuals=RESIDUALS, method="ransac",
                                inliers=("A1", "A3"), behind_anchors=("A2",))
    assert result_to_csv(result, ARRAYS, ESTIMATES) == RESULT_HEADER + (
        "bearing,A1,0.0,0.0,38.5,0.0125,True,False\n"
        "bearing,A2,6.0,0.0,151.25,0.16666666666666666,False,True\n"
        "bearing,A3,3.0,5.0,268.0,0.0,True,False\n")


def test_spectrum_csv_of_float32_scores():
    spectrum = AoaSpectrum(np.arange(0, 360, 90, dtype=np.float32),
                           np.array([0.1, 0.5, 0.2, 0.3], dtype=np.float32),
                           AoaMethod.MUSIC)
    assert spectrum_to_csv(spectrum) == (
        "angle_deg,score\n"
        "0.0,0.10000000149011612\n"
        "90.0,0.5\n"
        "180.0,0.20000000298023224\n"
        "270.0,0.30000001192092896\n")


def _rows_with_a_failed_method() -> EvalRows:
    """gcc+ gives two bearings and a position; music gives up on both."""
    def aoa(method, array_id, error):
        return {"trial": 0, "method": method, "array_id": array_id,
                "error_deg": error,
                "status": "error" if math.isnan(error) else "ok"}
    return EvalRows(
        aoa=[aoa("gcc+", "A1", 0.25), aoa("gcc+", "A2", 0.75),
             aoa("music", "A1", math.nan), aoa("music", "A2", math.nan)],
        loc=[{"trial": 0, "method": "gcc+", "solver": "mle",
              "error_m": 0.125, "status": "ok"},
             {"trial": 0, "method": "music", "solver": "mle",
              "error_m": math.nan, "status": "error"}])


def test_summaries_of_a_method_that_always_failed_are_nan():
    summaries = summarize(_rows_with_a_failed_method())
    assert summaries_to_csv(summaries) == (
        "method,solver,trials,aoa_mean_deg,aoa_median_deg,aoa_p90_deg,"
        "loc_mean_m,loc_median_m,loc_p90_m\n"
        "gcc+,mle,1,0.5,0.5,0.7,0.125,0.125,0.125\n"
        "music,mle,1,nan,nan,nan,nan,nan,nan\n")
    assert summary_table(summaries) == (
        "method     solver      n  aoa mean  median     p90  loc mean  "
        "median     p90\n"
        "gcc+       mle         1      0.50    0.50    0.70     0.125   "
        "0.125   0.125\n"
        "music      mle         1       nan     nan     nan       nan     "
        "nan     nan")


def test_trial_csv_cells():
    rows = _rows_with_a_failed_method()
    assert rows_to_csv(rows.aoa, pipeline.AOA_TRIAL_FIELDS) == (
        "trial,method,array_id,error_deg,status\n"
        "0,gcc+,A1,0.25,ok\n"
        "0,gcc+,A2,0.75,ok\n"
        "0,music,A1,nan,error\n"
        "0,music,A2,nan,error\n")


def test_every_table_header_names_its_rows_keys():
    rows = run_eval(1, (0.5, 0.5, 5.5, 4.5), PipelineConfig(seed=3),
                    methods=(AoaMethod.GCC_PLUS,), solvers=("mle",))
    assert [tuple(r) for r in rows.aoa] \
        == [pipeline.AOA_TRIAL_FIELDS] * len(ARRAYS)
    assert [tuple(r) for r in rows.loc] == [pipeline.LOC_TRIAL_FIELDS]
    assert pipeline.SUMMARY_FIELDS \
        == tuple(f.name for f in fields(EvalSummary))
