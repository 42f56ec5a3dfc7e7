"""Pipeline orchestration: configuration, per-array estimation, bearing
fusion, and the evaluation harness with CSV emitters."""

from __future__ import annotations

import csv
import io as _io
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import aoa, dsp, geometry, localize, sim, tdoa
from ._tasks import map_tasks
from .aoa import AoaEstimate, AoaMethod, AoaSpectrum, circular_error_deg
from .dsp import MultichannelRecording
from .errors import AmbiguousEstimateError, NoSignalError, UnlocalizableError
from .geometry import MicArray, PropagationModel
from .localize import BearingLine, LocalizationResult
from .sim import Echo

ALL_METHODS = (AoaMethod.GCC_PLUS, AoaMethod.GCC_PHAT, AoaMethod.MUSIC)
ALL_SOLVERS = ("mle", "ransac", "irls")


@dataclass(frozen=True)
class PipelineConfig:
    """Parameter surface of the full pipeline. How a bearing is computed
    is the estimate method's alone; these are its tuning and the fusion's.
    ``seed`` draws the scenes of :func:`run_eval` and nothing else."""

    band_hz: tuple[float, float] = dsp.DEFAULT_BAND_HZ
    upsample_factor: int = dsp.DEFAULT_UPSAMPLE
    num_windows: int = tdoa.DEFAULT_NUM_WINDOWS
    grid_step_deg: float = aoa.DEFAULT_GRID_STEP_DEG
    solver: str = "irls"
    ransac_threshold_m: float = localize.RANSAC_THRESHOLD_M
    seed: int = 0

    def __post_init__(self):
        if self.solver not in ALL_SOLVERS:
            raise ValueError(f"solver must be one of {ALL_SOLVERS}, got {self.solver!r}")
        if self.upsample_factor < 1 or self.num_windows < 1:
            raise ValueError("upsample_factor and num_windows must be >= 1")
        if not self.ransac_threshold_m > 0:
            raise ValueError("ransac_threshold_m must be positive")


def estimate_recording_aoa(rec: MultichannelRecording, array: MicArray,
                           method: AoaMethod | str,
                           config: PipelineConfig | None = None,
                           model: PropagationModel | None = None
                           ) -> tuple[AoaSpectrum, AoaEstimate]:
    """Band-pass a recording and run the chosen azimuth estimator; an
    ambiguous spectrum raises AmbiguousEstimateError naming the array."""
    if config is None:
        config = PipelineConfig()
    if model is None:
        model = PropagationModel(sample_rate=rec.sample_rate)
    method = AoaMethod(method)
    filtered = dsp.bandpass_recording(rec, *config.band_hz)
    return _estimate_filtered(filtered, array, method, config, model)


def _estimate_filtered(filtered: MultichannelRecording, array: MicArray,
                       method: AoaMethod, config: PipelineConfig,
                       model: PropagationModel
                       ) -> tuple[AoaSpectrum, AoaEstimate]:
    """Run the chosen azimuth estimator on a band-passed recording."""
    if method is AoaMethod.GCC_PLUS:
        delays = tdoa.expand_delay_features(
            filtered, array, num_windows=config.num_windows,
            upsample_factor=config.upsample_factor, model=model, refine=True,
            band_hz=config.band_hz)
        return aoa.estimate_aoa_gcc(delays, array, model, config.grid_step_deg)
    if method is AoaMethod.GCC_PHAT:
        return aoa.baseline_aoa_gcc_phat(filtered, array, model,
                                         config.grid_step_deg, config.band_hz)
    return aoa.estimate_aoa_music(filtered, array, model, config.band_hz,
                                  grid_step_deg=config.grid_step_deg)


def fuse_bearings(arrays: list[MicArray], estimates: list[AoaEstimate],
                  config: PipelineConfig) -> LocalizationResult:
    """One bearing line per array, through its centre along its estimate,
    fused by the configured solver, every bearing alike."""
    lines = [BearingLine.from_azimuth(a.center, e.azimuth, array_id=a.id)
             for a, e in zip(arrays, estimates)]
    if config.solver == "ransac":
        return localize.solve_ransac(lines, config.ransac_threshold_m)
    if config.solver == "irls":
        return localize.solve_irls(lines)
    return localize.solve_mle(lines)


def localize_recordings(recs: list[MultichannelRecording],
                        arrays: list[MicArray],
                        method: AoaMethod | str = AoaMethod.GCC_PLUS,
                        config: PipelineConfig | None = None,
                        model: PropagationModel | None = None
                        ) -> tuple[LocalizationResult, list[AoaEstimate]]:
    """Per-array AoA estimation of arrays with distinct ids, concurrently,
    then bearing fusion. The first array, in order, whose estimator gives
    up raises its error, AmbiguousEstimateError naming the array included."""
    if config is None:
        config = PipelineConfig()
    if len(recs) != len(arrays) or len(arrays) < 2:
        raise ValueError("need matching recordings for at least two arrays")
    geometry.check_distinct_ids(arrays)
    estimates = map_tasks(
        lambda job: estimate_recording_aoa(*job, method, config, model)[1],
        zip(recs, arrays))
    return fuse_bearings(arrays, estimates, config), estimates


@dataclass(frozen=True)
class EvalSummary:
    """Error statistics for one method/solver combination."""

    method: str
    solver: str
    trials: int
    aoa_mean_deg: float
    aoa_median_deg: float
    aoa_p90_deg: float
    loc_mean_m: float
    loc_median_m: float
    loc_p90_m: float

    def __post_init__(self):
        if self.aoa_median_deg > self.aoa_p90_deg + 1e-12 \
                or self.loc_median_m > self.loc_p90_m + 1e-12:
            raise ValueError("median cannot exceed the 90th percentile")


SUMMARY_FIELDS = tuple(f.name for f in fields(EvalSummary))
AOA_TRIAL_FIELDS = ("trial", "method", "array_id", "error_deg", "status")
LOC_TRIAL_FIELDS = ("trial", "method", "solver", "error_m", "status")
RESULT_FIELDS = ("record", "array_id", "x_m", "y_m", "azimuth_deg",
                 "residual_m", "inlier", "behind_anchor")


@dataclass
class EvalRows:
    """Raw per-trial records backing the summary tables, keyed by
    ``AOA_TRIAL_FIELDS`` and ``LOC_TRIAL_FIELDS``."""

    aoa: list[dict] = field(default_factory=list)
    loc: list[dict] = field(default_factory=list)


def run_eval(n_trials: int, bounds: tuple[float, float, float, float],
             config: PipelineConfig | None = None,
             arrays: tuple[MicArray, ...] | None = None,
             snr_db: float = 20.0, echoes: tuple[Echo, ...] = (),
             methods: tuple[AoaMethod, ...] = ALL_METHODS,
             solvers: tuple[str, ...] = ALL_SOLVERS) -> EvalRows:
    """Sample scenarios, run every method and solver, record per-trial errors.

    Within a trial the arrays render concurrently, then each is band-passed
    once, as one task, and every (array, method) estimate is a task of its
    own on the shared band-passed recording. The solvers run serially.
    """
    if config is None:
        config = PipelineConfig()
    if arrays is None:
        arrays = sim.default_array_layout()
    if len(arrays) < 2:
        raise ValueError(f"need at least two arrays to localize, got "
                         f"{len(arrays)}")
    scenes = sim.sample_scenarios(n_trials, bounds, seed=config.seed,
                                  arrays=arrays, snr_db=snr_db, echoes=echoes)
    rows = EvalRows()
    for t, scene in enumerate(scenes):
        recordings, truth = sim.synthesize(scene)
        filtered = map_tasks(
            lambda rec: dsp.bandpass_recording(rec, *config.band_hz),
            recordings)
        # (array, method) order: method m's are estimates[m::len(methods)]
        estimates = map_tasks(
            lambda job: _estimate_or_none(*job, config, scene.model),
            [(rec, array, method)
             for rec, array in zip(filtered, scene.arrays)
             for method in methods])
        for m, method in enumerate(methods):
            usable = []
            for array, est in zip(scene.arrays, estimates[m::len(methods)]):
                if est is None:
                    err, status = math.nan, "error"
                else:
                    err, status = circular_error_deg(
                        est.azimuth_deg, truth.azimuth_deg[array.id]), "ok"
                    usable.append((array, est))
                rows.aoa.append(dict(zip(AOA_TRIAL_FIELDS, (
                    t, method.value, array.id, err, status))))
            for solver in solvers:
                err = _localization_error(usable, replace(config, solver=solver),
                                          truth.source)
                rows.loc.append(dict(zip(LOC_TRIAL_FIELDS, (
                    t, method.value, solver, err,
                    "error" if math.isnan(err) else "ok"))))
    return rows


def _estimate_or_none(filtered: MultichannelRecording, array: MicArray,
                      method: AoaMethod, config: PipelineConfig,
                      model: PropagationModel) -> AoaEstimate | None:
    """One method's estimate on a band-passed recording; None where the
    estimator gives up."""
    try:
        return _estimate_filtered(filtered, array, method, config, model)[1]
    except (AmbiguousEstimateError, NoSignalError):
        return None


def _localization_error(usable: list[tuple[MicArray, AoaEstimate]],
                        config: PipelineConfig, source: np.ndarray) -> float:
    """Position error of the fused bearings; NaN when they cannot be fused."""
    if len(usable) < 2:
        return math.nan
    try:
        result = fuse_bearings(*zip(*usable), config)
    except UnlocalizableError:
        return math.nan
    return float(np.linalg.norm(result.position - source))


def summarize(rows: EvalRows) -> list[EvalSummary]:
    """Aggregate per-trial rows into mean/median/90th-percentile summaries."""
    summaries = []
    methods = sorted({r["method"] for r in rows.loc})
    solvers = sorted({r["solver"] for r in rows.loc})
    for method in methods:
        aoa_errs = [r["error_deg"] for r in rows.aoa
                    if r["method"] == method and r["status"] == "ok"]
        for solver in solvers:
            loc_errs = [r["error_m"] for r in rows.loc
                        if r["method"] == method and r["solver"] == solver
                        and r["status"] == "ok"]
            trials = len({r["trial"] for r in rows.loc
                          if r["method"] == method and r["solver"] == solver})
            summaries.append(EvalSummary(method, solver, trials,
                                         *_stats(aoa_errs), *_stats(loc_errs)))
    return summaries


def _stats(values: list[float]) -> tuple[float, float, float]:
    """Mean, median and 90th percentile; NaN each for no values."""
    if not values:
        return math.nan, math.nan, math.nan
    v = np.array(values)
    return float(np.mean(v)), float(np.median(v)), float(np.percentile(v, 90))


def _csv(header, rows) -> str:
    """A table as CSV text: a float cell, a numpy scalar's too, is written
    as its Python float's repr, which reads back to the same float; any
    other cell as its str."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else str(v)
                      for v in row] for row in rows)
    return buf.getvalue()


def rows_to_csv(records: list[dict], fields: tuple[str, ...]) -> str:
    return _csv(fields, ([r[k] for k in fields] for r in records))


def csv_to_rows(text: str) -> list[dict]:
    reader = csv.DictReader(_io.StringIO(text))
    out = []
    for raw in reader:
        row = {}
        for key, value in raw.items():
            if key in ("error_deg", "error_m"):
                row[key] = float(value)
            elif key == "trial":
                row[key] = int(value)
            else:
                row[key] = value
        out.append(row)
    return out


def summaries_to_csv(summaries: list[EvalSummary]) -> str:
    return _csv(SUMMARY_FIELDS, map(astuple, summaries))


def summary_table(summaries: list[EvalSummary]) -> str:
    lines = [f"{'method':<10} {'solver':<8} {'n':>4} "
             f"{'aoa mean':>9} {'median':>7} {'p90':>7} "
             f"{'loc mean':>9} {'median':>7} {'p90':>7}"]
    for s in summaries:
        lines.append(
            f"{s.method:<10} {s.solver:<8} {s.trials:>4} "
            f"{s.aoa_mean_deg:>9.2f} {s.aoa_median_deg:>7.2f} {s.aoa_p90_deg:>7.2f} "
            f"{s.loc_mean_m:>9.3f} {s.loc_median_m:>7.3f} {s.loc_p90_m:>7.3f}")
    return "\n".join(lines)


def spectrum_to_csv(spectrum: AoaSpectrum) -> str:
    return _csv(("angle_deg", "score"),
                zip(spectrum.angles_deg, spectrum.scores))


def result_to_csv(result: LocalizationResult, arrays: list[MicArray],
                  estimates: list[AoaEstimate]) -> str:
    position = ("position", "", *result.position, "", "", "", "")
    bearings = (("bearing", a.id, *a.center, e.azimuth_deg, residual,
                 a.id in result.inliers if result.inliers else "",
                 a.id in result.behind_anchors)
                for a, e, residual in zip(arrays, estimates, result.residuals))
    return _csv(RESULT_FIELDS, [position, *bearings])
