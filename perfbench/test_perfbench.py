"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

They build each workload with one or two inputs and run a loop of zero
seconds, which still runs every input once.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "localize-default": {"pool": 1},
    "eval-multipath": {"pool": 1},
    "cli-default": {"pool": 1},
}


@pytest.fixture(scope="module")
def hexloc():
    return run.import_hexloc()


def tiny_run(hexloc, workload, trace=False, seed=3):
    tracer = spans.Tracer(hexloc) if trace else None
    bench = run.set_up(hexloc, workload, seed, tracer, **TINY[workload])
    record, result = run.measure(bench, 0.0, tracer, [1.0])
    return record, result, tracer


def test_declared_metrics_match_the_benchmark_file():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared.items() <= dict(run.END_TO_END).items()
    assert "setup_s" in declared
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == dict(spans.layer_metric_names())
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(TINY)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(hexloc, workload, trace):
    _, result, _ = tiny_run(hexloc, workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_every_declared_layer_is_called_on_a_declared_workload(hexloc):
    called = set()
    for workload in BENCHMARK["workloads"]:
        record, _, _ = tiny_run(hexloc, workload["name"], trace=True)
        called |= {name for name, value in record["metrics"].items()
                   if name.endswith(".calls") and value > 0}
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert {name for name in declared if name.endswith(".calls")} <= called


def test_self_times_sum_to_the_root_span(hexloc):
    _, _, tracer = tiny_run(hexloc, "localize-default", trace=True)
    self_times = tracer.self_times()
    roots = tracer.root_durations()
    ops = [op for op in roots if op >= 0]
    assert ops
    for op in ops:
        assert sum(self_times[op].values()) == pytest.approx(roots[op],
                                                             abs=1e-9)
        assert len(self_times[op]) > 5  # the op's calls were traced


def test_perturbed_position_fails_the_gate(hexloc, monkeypatch):
    original = hexloc.pipeline.localize_recordings

    def off_by_a_metre(*args, **kwargs):
        result, estimates = original(*args, **kwargs)
        moved = dataclasses.replace(result,
                                    position=result.position + [1.0, 0.0])
        return moved, estimates

    monkeypatch.setattr(hexloc.pipeline, "localize_recordings",
                        off_by_a_metre)
    record, result, _ = tiny_run(hexloc, "localize-default")
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert any("exceeds 0.5 m" in reason for reason in record["failures"])


def test_accuracy_and_digest_repeat_for_a_seed(hexloc):
    first, _, _ = tiny_run(hexloc, "localize-default", seed=5)
    second, _, _ = tiny_run(hexloc, "localize-default", seed=5)
    assert first["digest"] == second["digest"]
    for name in ("aoa_err_p50_deg", "loc_err_p50_m"):
        assert first["metrics"][name] == second["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "localize-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
