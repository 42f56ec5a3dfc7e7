"""Outside-in tracing: spans around calls into each hexloc module.

``Tracer.install`` replaces public functions with timing wrappers, set as
module attributes (``hexloc.dsp.correlate_many`` and so on). Calls between
modules go through those attributes, and calls inside a module resolve
through the module's globals, which are the same attributes, so every call
passes a wrapper. Each span records its name, start, end, parent span and op
id; spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the time its child spans
cover. hexloc runs no threads and keeps no queues, so there is no waiting
time to report: every span is busy time on the caller's thread.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from pathlib import Path

# Public functions timed per module. geometry is left out: its calls take
# microseconds and their time lands in the callers' self time.
WRAPPED = {
    "dsp": ("real_spectrum", "bandpass", "bandpass_recording", "cross_power",
            "band_limit", "phat_weight", "correlate_many"),
    "tdoa": ("expand_delay_features", "quadratic_peak_offset"),
    "aoa": ("estimate_aoa_gcc", "baseline_aoa_gcc_phat", "covariance_stack",
            "estimate_aoa_music"),
    "localize": ("solve_mle", "solve_ransac", "solve_irls"),
    "sim": ("sample_scenarios", "synthesize"),
    "io": ("load_manifest", "read_wav", "write_scene_outputs"),
    "pipeline": ("estimate_recording_aoa", "localize_recordings", "run_eval"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in WRAPPED.items() for f in fns)
# called only while a workload sets up: reported as set-up totals, not per op
SETUP_ONLY = ("io.write_scene_outputs",)
OP_SPAN_NAMES = tuple(n for n in SPAN_NAMES if n not in SETUP_ONLY)
ROOT = "op"
SETUP = -1  # op id of spans recorded while the workload sets up
WARMUP = -2  # op id of the untimed warm-up op's spans


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Tracer:
    def __init__(self, hexloc):
        self.hexloc = hexloc
        self.spans: list = []     # (name, start, end, parent index, op id)
        self.stack: list = []
        self.op = SETUP
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> key -> n
        self._originals: list = []

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.op][key] += amount

    def _observe(self, name: str, args, result, error) -> None:
        """Counters derived from what a wrapped call returned or raised."""
        if error is not None:
            if name in ("aoa.estimate_aoa_gcc", "aoa.estimate_aoa_music") \
                    and isinstance(error, self.hexloc.errors.AmbiguousEstimateError):
                self._count("aoa.estimates")
                self._count("aoa.ambiguous")
            return
        if name == "dsp.real_spectrum":
            self._count("dsp.real_spectrum.fft_points", result.origin_length)
        elif name == "tdoa.expand_delay_features":
            self._count("tdoa.pair_delays", len(result.entries))
            self._count("tdoa.low_conf",
                        sum(e.low_confidence for e in result.entries))
        elif name in ("aoa.estimate_aoa_gcc", "aoa.estimate_aoa_music"):
            self._count("aoa.estimates")
            self._count("aoa.ambiguous", bool(result[0].ambiguous))
        elif name == "localize.solve_irls":
            self._count("localize.solve_irls.iterations", result.iterations)
        elif name == "io.read_wav":
            self._count("io.read_wav.bytes", os.path.getsize(args[0]))
        elif name == "io.write_scene_outputs":
            self._count("io.write_scene_outputs.bytes",
                        _dir_bytes(Path(result).parent))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                self._observe(name, args, result, error)
        return traced

    def _count_calls(self, key: str, fn):
        def counted(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        for module_name, functions in WRAPPED.items():
            module = getattr(self.hexloc, module_name)
            for fn_name in functions:
                self._replace(module, fn_name,
                              self._wrap(f"{module_name}.{fn_name}",
                                         getattr(module, fn_name)))
        # filter designs: calls into scipy's firwin made from hexloc.dsp,
        # counted without a span so design time stays in bandpass self time
        dsp = self.hexloc.dsp
        self._replace(dsp, "firwin",
                      self._count_calls("dsp.filter_designs", dsp.firwin))

    def _replace(self, module, name: str, wrapper) -> None:
        self._originals.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn`` under a root span owned by op ``op_id``."""
        self.op = op_id
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self.op = SETUP

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict:
        """op id -> span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, op), covered in zip(self.spans, child_time):
            out[op][name] += (end - start) - covered
        return out

    def root_durations(self) -> dict:
        return {op: end - start for name, start, end, parent, op in self.spans
                if name == ROOT}

    def call_counts(self) -> dict:
        out = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, op in self.spans:
            out[op][name] += 1
        return out

    def to_json(self) -> list:
        return [list(s) for s in self.spans]


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for span in OP_SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [
        ("op.self_s", "s"),
        ("dsp.filter_designs", "count"),
        ("dsp.real_spectrum.fft_points", "count"),
        ("tdoa.low_conf_frac", "ratio"),
        ("aoa.ambiguous_frac", "ratio"),
        ("localize.solve_irls.iterations", "count"),
        ("io.read_wav.bytes", "bytes"),
        ("setup.io.write_scene_outputs.bytes", "bytes"),
        ("setup.io.write_scene_outputs.self_s", "s"),
        ("setup.sim.synthesize.self_s", "s"),
        ("trace.latency_p50_s", "s"),
        ("trace.untraced_p50_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


def layer_metrics(tracer: Tracer, count_ops: list[int],
                  timed_ops: list[int]) -> dict:
    """Per-op layer metrics.

    Counts are averaged over ``count_ops`` (one pass over the workload's
    inputs, so they repeat exactly for a seed); self times over every traced
    op in ``timed_ops``. Set-up metrics are totals over the set-up spans.
    """
    self_times = tracer.self_times()
    calls = tracer.call_counts()
    metrics = {}

    def per_op(table, ops, key):
        return sum(table[op].get(key, 0) for op in ops) / max(len(ops), 1)

    for span in OP_SPAN_NAMES:
        metrics[f"{span}.calls"] = per_op(calls, count_ops, span)
        metrics[f"{span}.self_s"] = per_op(self_times, timed_ops, span)
    metrics["op.self_s"] = per_op(self_times, timed_ops, ROOT)
    for key in ("dsp.filter_designs", "dsp.real_spectrum.fft_points",
                "localize.solve_irls.iterations", "io.read_wav.bytes"):
        metrics[key] = per_op(tracer.counts, count_ops, key)

    def ratio(num, den):
        d = per_op(tracer.counts, count_ops, den)
        return per_op(tracer.counts, count_ops, num) / d if d else 0.0

    metrics["tdoa.low_conf_frac"] = ratio("tdoa.low_conf", "tdoa.pair_delays")
    metrics["aoa.ambiguous_frac"] = ratio("aoa.ambiguous", "aoa.estimates")
    setup = tracer.counts[SETUP]
    metrics["setup.io.write_scene_outputs.bytes"] = \
        setup["io.write_scene_outputs.bytes"]
    metrics["setup.io.write_scene_outputs.self_s"] = \
        self_times[SETUP]["io.write_scene_outputs"]
    metrics["setup.sim.synthesize.self_s"] = self_times[SETUP]["sim.synthesize"]
    return metrics
