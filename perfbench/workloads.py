"""The hexloc workloads: inputs rendered from a seed, one op, and the
correctness gate that every op's output must pass.

Every workload is a closed loop with one client and no think time: the
next op starts when the previous one has returned, as for a batch caller
that waits for each result.

A workload object is built inside the process that measures it, after
``hexloc`` has been imported from the checkout's ``src/``. Ops call the
program through module attributes (``hexloc.pipeline.localize_recordings``,
not the names re-exported by ``hexloc/__init__``), so the wrappers that
``spans.Tracer`` installs on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io as _io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOUNDS = (0.5, 0.5, 5.5, 4.5)
SNR_DB = 20.0
# the paper's capture length
DURATION_S = 1.06
# Accuracy gate of acceptance criterion 8: a localized source within 0.5 m.
MAX_POSITION_ERROR_M = 0.5
# Every workload renders one fixed catalogue of inputs from this constant;
# the run seed only sets the order in which the loop visits them. Accuracy
# medians over a seed-drawn set of 16-40 scenes spread 13-30% (quartile
# distance over median) from seed to seed, more than any bound on a
# regression may be; over a fixed catalogue they repeat exactly, so a change
# of the answers shows at any size.
CATALOGUE_SEED = 20250816


@dataclass
class Outcome:
    """What one op produced, reduced to what the benchmark checks."""

    ok: bool
    reason: str = ""
    # rounded outputs, hashed into the digest and compared between passes
    outputs: list = field(default_factory=list)
    aoa_errors_deg: list = field(default_factory=list)
    loc_errors_m: list = field(default_factory=list)
    # result rows and those with status "error"; a failed op fails them all
    rows: int = 1
    error_rows: int = 0


def _position_outcome(position, azimuths_deg, truth_source,
                      truth_azimuths_deg) -> Outcome:
    position = np.asarray(position, dtype=float)
    outputs = [round(float(v), 6) for v in position] \
        + [round(float(a), 4) for a in azimuths_deg]
    if position.shape != (2,) or not np.all(np.isfinite(position)):
        return Outcome(False, "position is not a finite 2D point", outputs)
    loc_err = float(np.linalg.norm(position - truth_source))
    aoa_errs = [_circular_error_deg(a, t)
                for a, t in zip(azimuths_deg, truth_azimuths_deg)]
    if not loc_err <= MAX_POSITION_ERROR_M:
        return Outcome(False, f"position error {loc_err:.3f} m exceeds "
                       f"{MAX_POSITION_ERROR_M} m", outputs, aoa_errs,
                       [loc_err])
    return Outcome(True, "", outputs, aoa_errs, [loc_err])


# computed here rather than with hexloc's helper, so that the gate does not
# depend on the code it checks
def _circular_error_deg(a_deg: float, b_deg: float) -> float:
    d = abs(a_deg - b_deg) % 360.0
    return min(d, 360.0 - d)


def _catalogue(hexloc, count: int):
    sim = hexloc.sim
    return sim.sample_scenarios(count, BOUNDS, seed=CATALOGUE_SEED,
                                arrays=sim.default_array_layout(),
                                duration=DURATION_S, snr_db=SNR_DB)


def visiting_order(seed: int, count: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(count)]


class LocalizeDefault:
    """In-process ``localize_recordings`` at the paper's operating point."""

    name = "localize-default"
    ROWS_PER_OP = 1

    def __init__(self, hexloc, seed: int, pool: int = 16):
        self.hexloc = hexloc
        self.order = visiting_order(seed, pool)
        self.scenes = _catalogue(hexloc, pool)
        self.items = [(scene, *hexloc.sim.synthesize(scene))
                      for scene in self.scenes]
        self.config = hexloc.pipeline.PipelineConfig()
        self.method = hexloc.aoa.AoaMethod.GCC_PLUS

    def properties(self) -> dict:
        return {"arrays": 3, "capture_s": [DURATION_S],
                "snr_db": SNR_DB, "echoes": [], "method": self.method.value,
                "solver": self.config.solver, "pool": len(self.items),
                "catalogue_seed": CATALOGUE_SEED}

    def audio_s(self, index: int) -> float:
        return len(self.scenes[index].arrays) * self.scenes[index].duration

    def op(self, index: int):
        scene, recordings, _ = self.items[index]
        return self.hexloc.pipeline.localize_recordings(
            recordings, list(scene.arrays), self.method, self.config,
            scene.model)

    def check(self, index: int, output) -> Outcome:
        scene, _, truth = self.items[index]
        result, estimates = output
        return _position_outcome(
            result.position, [e.azimuth_deg for e in estimates], truth.source,
            [truth.azimuth_deg[a.id] for a in scene.arrays])

    def close(self) -> None:
        pass


class EvalMultipath:
    """One ``run_eval`` trial per op: all methods and solvers, two echoes."""

    name = "eval-multipath"
    ROWS_PER_OP = 18  # 3 arrays x 3 methods bearings + 3 x 3 positions

    def __init__(self, hexloc, seed: int, pool: int = 16):
        self.hexloc = hexloc
        self.order = visiting_order(seed, pool)
        echo = hexloc.sim.Echo
        self.echoes = (echo(0.004, 0.5, 85.0), echo(0.009, 0.5, -130.0))
        rng = np.random.default_rng(CATALOGUE_SEED)
        # trial seeds: run_eval draws each trial's scene from its own seed
        self.items = [int(s) for s in rng.integers(0, 2 ** 31, pool)]

    def properties(self) -> dict:
        return {"arrays": 3, "capture_s": [DURATION_S],
                "snr_db": SNR_DB,
                "echoes": [list(e) for e in self.echoes],
                "method": "gcc+, gcc-phat, music",
                "solver": "mle, ransac, irls", "pool": len(self.items),
                "catalogue_seed": CATALOGUE_SEED}

    def audio_s(self, index: int) -> float:
        return 3 * DURATION_S

    def op(self, index: int):
        pipeline = self.hexloc.pipeline
        return pipeline.run_eval(1, BOUNDS,
                                 pipeline.PipelineConfig(seed=self.items[index]),
                                 snr_db=SNR_DB, echoes=self.echoes)

    def check(self, index: int, output) -> Outcome:
        """Rows are complete and every "ok" row carries a finite error.

        An "error" row is the estimator giving up under multipath, which the
        workload counts in its row statistics, not as a failed op.
        """
        rows = [("aoa", r["method"], r["array_id"], r["error_deg"], r["status"])
                for r in output.aoa] \
            + [("loc", r["method"], r["solver"], r["error_m"], r["status"])
               for r in output.loc]
        outputs = [[kind, a, b, round(float(err), 6)
                    if math.isfinite(err) else None, status]
                   for kind, a, b, err, status in rows]
        outcome = Outcome(True, "", outputs, rows=len(rows))
        if len(rows) != self.ROWS_PER_OP:
            return dataclasses.replace(
                outcome, ok=False,
                reason=f"{len(rows)} rows, expected {self.ROWS_PER_OP}")
        for kind, _, _, err, status in rows:
            if status == "error":
                outcome.error_rows += 1
            elif status != "ok" or not math.isfinite(err) or err < 0:
                return dataclasses.replace(
                    outcome, ok=False, reason=f"bad {kind} row {status} {err}")
            elif kind == "aoa":
                outcome.aoa_errors_deg.append(err)
            else:
                outcome.loc_errors_m.append(err)
        return outcome

    def close(self) -> None:
        pass


class CliDefault:
    """``hexloc localize`` through ``cli.main`` on WAV captures at the
    paper's operating point, as written by ``io.write_scene_outputs``."""

    name = "cli-default"
    ROWS_PER_OP = 1

    def __init__(self, hexloc, seed: int, pool: int = 16,
                 workdir: Path | None = None):
        self.hexloc = hexloc
        self.order = visiting_order(seed, pool)
        self.scenes = _catalogue(hexloc, pool)
        self.workdir = Path(workdir)
        self.items = []
        for k, scene in enumerate(self.scenes):
            recordings, truth = hexloc.sim.synthesize(scene)
            scene_dir = self.workdir / f"scene{k:03d}"
            manifest = hexloc.io.write_scene_outputs(scene_dir, scene,
                                                     recordings, truth)
            self.items.append((scene, truth, manifest, scene_dir / "result.csv"))

    def properties(self) -> dict:
        return {"arrays": 3, "capture_s": [DURATION_S],
                "snr_db": SNR_DB, "echoes": [], "method": "gcc+",
                "solver": "irls", "pool": len(self.items),
                "catalogue_seed": CATALOGUE_SEED, "wav": "float32"}

    def audio_s(self, index: int) -> float:
        return len(self.scenes[index].arrays) * self.scenes[index].duration

    def op(self, index: int):
        _, _, manifest, result_csv = self.items[index]
        with contextlib.redirect_stdout(_io.StringIO()):
            return self.hexloc.cli.main(["localize", str(manifest),
                                         "--result-csv", str(result_csv)])

    def check(self, index: int, output) -> Outcome:
        scene, truth, _, result_csv = self.items[index]
        if output != 0:
            return Outcome(False, f"exit code {output}")
        with open(result_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        position = [float(rows[0]["x_m"]), float(rows[0]["y_m"])]
        azimuths = {r["array_id"]: float(r["azimuth_deg"]) for r in rows[1:]}
        if set(azimuths) != {a.id for a in scene.arrays}:
            return Outcome(False, f"bearings for {sorted(azimuths)}")
        ids = [a.id for a in scene.arrays]
        return _position_outcome(position, [azimuths[i] for i in ids],
                                 truth.source,
                                 [truth.azimuth_deg[i] for i in ids])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LocalizeDefault, EvalMultipath, CliDefault)}
