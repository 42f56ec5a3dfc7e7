"""Command-line interface: simulate | aoa | localize | eval.

Exit codes: 0 success, 2 usage/config error, 3 unlocalizable geometry,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from functools import cache
from pathlib import Path

from . import io as hio
from . import pipeline, sim
from .aoa import AoaMethod
from .errors import AmbiguousEstimateError, UnlocalizableError
from .pipeline import ALL_SOLVERS, PipelineConfig
from .sim import Echo

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNLOCALIZABLE = 3
EXIT_IO = 4
OUTPUT_DIR_ENV = "HEXLOC_OUT_DIR"


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _default_out_dir(value: str | None) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _config_from_args(args) -> PipelineConfig:
    # a field the command declares no flag for keeps its default
    return PipelineConfig(band_hz=(args.band_low_hz, args.band_high_hz),
                          **{f.name: getattr(args, f.name)
                             for f in fields(PipelineConfig) if f.name in args})


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the per-array azimuth estimate."""
    default = PipelineConfig()
    parser.add_argument("--band-low-hz", type=float, default=default.band_hz[0])
    parser.add_argument("--band-high-hz", type=float,
                        default=default.band_hz[1])
    parser.add_argument("--upsample-factor", type=int,
                        default=default.upsample_factor)
    parser.add_argument("--num-windows", type=int, default=default.num_windows)
    parser.add_argument("--grid-step-deg", type=float,
                        default=default.grid_step_deg)


def _add_fusion_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the bearing fusion, for the commands that fuse bearings."""
    default = PipelineConfig()
    parser.add_argument("--solver", choices=ALL_SOLVERS, default=default.solver)
    parser.add_argument("--ransac-threshold-m", type=float,
                        default=default.ransac_threshold_m)


def cmd_simulate(args) -> int:
    scene = hio.load_scene(args.scene_config)
    recordings, truth = sim.synthesize(scene)
    manifest = hio.write_scene_outputs(_default_out_dir(args.out_dir), scene,
                                       recordings, truth)
    print(f"wrote {len(recordings)} recordings and {manifest}")
    return EXIT_OK


def cmd_aoa(args) -> int:
    rec = hio.read_wav(args.wav)
    array = hio.load_array_spec(args.array_spec)
    try:
        spectrum, estimate = pipeline.estimate_recording_aoa(
            rec, array, AoaMethod(args.method), args.config)
    except AmbiguousEstimateError as exc:
        if args.spectrum_csv:
            Path(args.spectrum_csv).write_text(
                pipeline.spectrum_to_csv(exc.spectrum))
        raise
    print(f"array={array.id} method={estimate.method.value} "
          f"azimuth_deg={estimate.azimuth_deg:.3f}")
    if args.spectrum_csv:
        Path(args.spectrum_csv).write_text(pipeline.spectrum_to_csv(spectrum))
    return EXIT_OK


def cmd_localize(args) -> int:
    arrays, wav_paths, model, declared_rate = hio.load_manifest(args.manifest)
    recs = [hio.read_wav(path) for path in wav_paths]
    if declared_rate is not None:
        for path, rec in zip(wav_paths, recs):
            if rec.sample_rate != declared_rate:
                raise ValueError(
                    f"{path} has sample rate {rec.sample_rate:g} Hz, "
                    f"manifest declares {declared_rate:g} Hz")

    result, estimates = pipeline.localize_recordings(
        recs, arrays, AoaMethod(args.method), args.config, model)
    print(f"position_m=({result.position[0]:.4f}, {result.position[1]:.4f}) "
          f"solver={result.method} iterations={result.iterations} "
          f"condition_flag={result.condition_flag} "
          f"converged={result.converged}")
    for array, est, residual in zip(arrays, estimates, result.residuals):
        print(f"  {array.id}: azimuth_deg={est.azimuth_deg:.3f} "
              f"residual_m={residual:.4f}")
    if args.result_csv:
        Path(args.result_csv).write_text(
            pipeline.result_to_csv(result, arrays, estimates))
    return EXIT_OK


def cmd_eval(args) -> int:
    echoes = tuple(Echo(float(d), float(g), float(o))
                   for d, g, o in (args.echo or []))
    arrays = hio.load_arrays(args.arrays) if args.arrays else None
    rows = pipeline.run_eval(args.trials, tuple(args.bounds), args.config,
                             arrays=arrays, snr_db=args.snr_db, echoes=echoes)
    summaries = pipeline.summarize(rows)
    print(pipeline.summary_table(summaries))

    out_dir = _default_out_dir(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.csv").write_text(pipeline.summaries_to_csv(summaries))
    (out_dir / "trials_aoa.csv").write_text(
        pipeline.rows_to_csv(rows.aoa, pipeline.AOA_TRIAL_FIELDS))
    (out_dir / "trials_loc.csv").write_text(
        pipeline.rows_to_csv(rows.loc, pipeline.LOC_TRIAL_FIELDS))
    print(f"wrote summary.csv, trials_aoa.csv, trials_loc.csv to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexloc",
        description="Azimuth estimation and 2D localization for hexagonal "
                    "microphone arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a scene to WAV files")
    p_sim.add_argument("scene_config", help="scene JSON path")
    p_sim.add_argument("--out-dir", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_aoa = sub.add_parser("aoa", help="estimate azimuth from one recording")
    p_aoa.add_argument("wav", help="six-channel WAV path")
    p_aoa.add_argument("array_spec", help="array JSON path")
    p_aoa.add_argument("--method", default="gcc+",
                       choices=[m.value for m in AoaMethod])
    p_aoa.add_argument("--spectrum-csv", default=None)
    _add_estimator_flags(p_aoa)
    p_aoa.set_defaults(func=cmd_aoa)

    p_loc = sub.add_parser("localize", help="fuse bearings from a manifest")
    p_loc.add_argument("manifest", help="manifest JSON path")
    p_loc.add_argument("--method", default="gcc+",
                       choices=[m.value for m in AoaMethod])
    p_loc.add_argument("--result-csv", default=None)
    _add_estimator_flags(p_loc)
    _add_fusion_flags(p_loc)
    p_loc.set_defaults(func=cmd_localize)

    p_eval = sub.add_parser("eval", help="simulated accuracy sweep")
    p_eval.add_argument("--trials", type=int, default=50)
    p_eval.add_argument("--bounds", type=float, nargs=4,
                        default=[0.5, 0.5, 5.5, 4.5],
                        metavar=("X0", "Y0", "X1", "Y1"))
    p_eval.add_argument("--snr-db", type=float, default=20.0)
    p_eval.add_argument("--echo", type=float, nargs=3, action="append",
                        metavar=("DELAY_S", "GAIN", "OFFSET_DEG"))
    p_eval.add_argument("--arrays", default=None,
                        help="JSON list of array specs")
    p_eval.add_argument("--seed", type=int, default=PipelineConfig().seed)
    p_eval.add_argument("--out-dir", default=None)
    _add_estimator_flags(p_eval)
    _add_fusion_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)
    return parser


# built once per process: parsing leaves the parser as it was
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command; a rejected input prints one error line and returns
    its exit code, while any other exception propagates with its traceback."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if "band_low_hz" in args:  # a command that takes the estimator flags
        try:
            args.config = _config_from_args(args)
        except ValueError as exc:
            return _fail(EXIT_USAGE, f"invalid pipeline flags: {exc}")
    try:
        return args.func(args)
    except UnlocalizableError as exc:
        return _fail(EXIT_UNLOCALIZABLE, f"unlocalizable geometry: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except AmbiguousEstimateError as exc:
        return _fail(EXIT_USAGE, f"ambiguous estimate: {exc}")
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
