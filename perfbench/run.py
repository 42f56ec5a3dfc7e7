"""Closed-loop benchmark of hexloc, run from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload localize-default --seed 1 \
        --seconds 55 --trace 0

The benchmark imports ``hexloc`` from ``src/`` next to this directory and
nowhere else, renders the workload's catalogue of inputs with the package's
own simulator, runs one untimed warm-up op, then times ops back to back, in
an order drawn from ``--seed``, for ``--seconds`` seconds and at least one
full pass over the catalogue. The accuracy metrics and the output digest
cover that first pass. Every op is checked against ground truth; an op that
raises, exits non-zero or fails its check counts as failed, and so does an
op whose output differs from an earlier op on the same input.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Set-up runs from the top of this script to the first timed op: it covers
importing ``hexloc``, rendering the inputs and the warm-up op. ``setup_s``
is the median set-up time of this process and of two fresh processes that
run with ``--setup-only`` before the loop starts; a single set-up time
spreads about 30% from run to run on a 2-core host.

``--trace 1`` installs the wrappers of ``spans.py`` and reports per-layer
metrics. Each input runs once traced and once untraced, in alternating
order, so the tracing overhead (traced median latency minus untraced) is
measured on the same inputs in the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, input properties, all metrics, the output digest) is written
to ``--out``, by default ``perfbench/results/<workload>-seed<n>-trace<t>.json``;
a traced run also writes its spans beside it.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# The result line carries the metrics this file declares; the report and the
# record carry every metric.
BENCHMARK = HERE.parent / "BENCHMARK.json"
NPROC = os.cpu_count() or 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
# Hard caps that keep a run, set-up probes included, well inside three
# minutes even when the program under test gets several times slower.
MAX_LOOP_S = 90.0
PROBE_TIMEOUT_S = 25.0
TAIL_BEYOND = 10

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("audio_s_per_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("aoa_err_p50_deg", "deg"),
    ("loc_err_p50_m", "m"),
)


def cap_blas_threads() -> None:
    """Keep BLAS thread pools at or below the core count."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)


def import_hexloc():
    """Import hexloc from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "hexloc" / "__init__.py").is_file():
        raise SystemExit(f"error: hexloc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import hexloc
    import hexloc.cli  # not re-exported by the package
    import hexloc.io
    if not Path(hexloc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported hexloc from {hexloc.__file__}, "
                         f"not from {SRC}")
    return hexloc


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC, "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def tail(latencies: list) -> tuple:
    """(value, percentile, ops beyond): the highest percentile with at
    least ``TAIL_BEYOND`` ops beyond it; the maximum for shorter runs."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


def digest(outputs: list) -> str:
    text = json.dumps(outputs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Loop:
    """Runs ops back to back and checks each one."""

    def __init__(self, workload, outcome_cls):
        self.workload = workload
        self.outcome_cls = outcome_cls
        self.first: dict = {}       # input index -> outcome of its first op
        self.ops: list = []         # (index, latency_s, outcome, traced)

    def run(self, index: int, call, traced: bool = False):
        clock = time.perf_counter
        start = clock()
        try:
            output = call()
        except Exception as exc:  # a failed op is counted, not fatal
            latency = clock() - start
            outcome = self.outcome_cls(False, f"{type(exc).__name__}: {exc}")
        else:
            latency = clock() - start
            try:
                outcome = self.workload.check(index, output)
            except Exception as exc:
                outcome = self.outcome_cls(False, f"check raised "
                                           f"{type(exc).__name__}: {exc}")
        if index not in self.first:
            self.first[index] = outcome
        elif outcome.ok and outcome.outputs != self.first[index].outputs:
            outcome.ok = False
            outcome.reason = "output differs from an earlier op on this input"
        if not outcome.ok:
            outcome.error_rows = outcome.rows = self.workload.ROWS_PER_OP
        self.ops.append((index, latency, outcome, traced))

    @property
    def failed(self) -> int:
        return sum(not o.ok for _, _, o, _ in self.ops)

    def first_pass(self) -> list:
        return [self.first[i] for i in sorted(self.first)]


def run_until(seconds: float, steps: int, step) -> None:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` have passed and
    at least ``steps`` calls were made, or ``MAX_LOOP_S`` has passed."""
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if (k >= steps and elapsed >= seconds) or elapsed >= MAX_LOOP_S:
            return
        step(k)
        k += 1


def timed_loop(workload, loop: Loop, seconds: float) -> None:
    order = workload.order

    def step(k):
        index = order[k % len(order)]
        loop.run(index, lambda: workload.op(index))
    run_until(seconds, len(order), step)


def traced_loop(workload, loop: Loop, tracer, seconds: float) -> None:
    """Each input runs traced and untraced; which goes first alternates.

    A traced op's id is its loop step ``k``.
    """
    order = workload.order

    def step(k):
        index = order[k // 2 % len(order)]
        if (k % 2 == 0) == (k // 2 % 2 == 0):
            tracer.install()
            try:
                loop.run(index, lambda: tracer.run_op(k, workload.op, index),
                         traced=True)
            finally:
                tracer.uninstall()
        else:
            loop.run(index, lambda: workload.op(index))
    run_until(seconds, 2 * len(order), step)


def end_to_end(workload, loop: Loop, pool: int, setup_samples: list,
               peak_rss_mb: float) -> tuple:
    latencies = [lat for _, lat, _, _ in loop.ops]
    outcomes = [o for _, _, o, _ in loop.ops]
    first = loop.first_pass()
    tail_value, tail_pct, beyond = tail(latencies)
    rows = sum(o.rows for o in outcomes)
    error_rows = sum(o.error_rows for o in outcomes)
    aoa_errs = [e for o in first for e in o.aoa_errors_deg]
    loc_errs = [e for o in first for e in o.loc_errors_m]
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "audio_s_per_s": sum(workload.audio_s(i) for i, _, _, _ in loop.ops)
        / sum(latencies),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - error_rows / rows,
        "aoa_err_p50_deg": statistics.median(aoa_errs) if aoa_errs else None,
        "loc_err_p50_m": statistics.median(loc_errs) if loc_errs else None,
    }
    report = {
        "ops": len(latencies), "failed_frac": error_rows / rows,
        "failed_ops": loop.failed, "rows": rows, "error_rows": error_rows,
        "latency_tail_percentile": tail_pct, "latency_tail_ops_beyond": beyond,
        "setup_samples_s": setup_samples,
        "latencies_s": latencies,
        "first_pass_complete": len(first) == pool,
    }
    return metrics, report


def setup_probes(workload: str, seed: int, count: int) -> list:
    """Set-up times of ``count`` fresh processes, one after the other."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def set_up(hexloc, name: str, seed: int, tracer=None, **sizes):
    """Render the workload's inputs and run one untimed warm-up op."""
    from spans import WARMUP
    from workloads import WORKLOADS, CliDefault, Outcome
    if name == CliDefault.name:
        sizes.setdefault("workdir", RESULTS / f"work-{name}-{os.getpid()}")
    if tracer is not None:
        tracer.install()
    try:
        workload = WORKLOADS[name](hexloc, seed, **sizes)
        warm = Loop(workload, Outcome)
        first = workload.order[0]
        if tracer is not None:
            warm.run(first, lambda: tracer.run_op(WARMUP, workload.op, first))
        else:
            warm.run(first, lambda: workload.op(first))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload


def measure(workload, seconds: float, tracer, setup_samples: list) -> tuple:
    """Run the loop; return (record, result line)."""
    from spans import layer_metric_names, layer_metrics
    from workloads import Outcome

    loop = Loop(workload, Outcome)
    pool = len(workload.items)
    try:
        if tracer is None:
            timed_loop(workload, loop, seconds)
        else:
            traced_loop(workload, loop, tracer, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        properties = workload.properties()
    finally:
        workload.close()

    metrics, report = end_to_end(workload, loop, pool, setup_samples,
                                 peak_rss_mb)
    units = dict(END_TO_END)
    if tracer is not None:
        traced = [lat for _, lat, _, t in loop.ops if t]
        untraced = [lat for _, lat, _, t in loop.ops if not t]
        # traced op ids are loop steps; the first pass is the first 2 * pool
        op_ids = sorted(op for op in tracer.root_durations() if op >= 0)
        layer = layer_metrics(tracer, [op for op in op_ids if op < 2 * pool],
                              op_ids)
        layer["trace.latency_p50_s"] = statistics.median(traced)
        layer["trace.untraced_p50_s"] = statistics.median(untraced)
        layer["trace.overhead_s"] = layer["trace.latency_p50_s"] \
            - layer["trace.untraced_p50_s"]
        layer["trace.overhead_frac"] = layer["trace.overhead_s"] \
            / layer["trace.untraced_p50_s"]
        units = dict(layer_metric_names())
        metrics = {name: layer[name] for name in units}

    first = loop.first_pass()
    record = {
        "workload": workload.name, "seconds": seconds,
        "trace": int(tracer is not None), "inputs": properties,
        "metrics": metrics, "units": units, "report": report,
        "digest": digest([o.outputs for o in first]),
        "outputs": [o.outputs for o in first],
        "failures": sorted({o.reason for _, _, o, _ in loop.ops if not o.ok}),
    }
    declared = json.loads(BENCHMARK.read_text())[
        "per_layer" if tracer is not None else "end_to_end"]
    result = {
        "correct": loop.failed == 0 and report["first_pass_complete"]
        and all(v is not None for v in metrics.values()),
        "attempted": len(loop.ops), "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": units[m["name"]]} for m in declared},
    }
    return record, result


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="result record path")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit")
    return parser.parse_args(argv)


def print_report(record: dict) -> None:
    rep = record["report"]
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}"
          f": {rep['ops']} ops, {rep['failed_ops']} failed, "
          f"digest {record['digest']}")
    for name, value in record["metrics"].items():
        unit = record["units"][name]
        note = ""
        if name == "latency_tail_s":
            note = (f"  (p{rep['latency_tail_percentile']:.1f}, "
                    f"{rep['latency_tail_ops_beyond']} of {rep['ops']} "
                    f"ops beyond)")
        elif name == "ok_frac":
            note = f"  (failed_frac {rep['failed_frac']:.4g})"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(
                f"{s:.3f}" for s in rep["setup_samples_s"]) + ")"
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")
    if record["trace"]:
        print("  (hexloc runs no threads or queues: no wait time to report)")


def main(argv=None) -> int:
    cap_blas_threads()  # before numpy is first imported
    args = parse_args(argv)
    hexloc = import_hexloc()
    from spans import Tracer

    tracer = Tracer(hexloc) if args.trace else None
    workload = set_up(hexloc, args.workload, args.seed, tracer)
    setup_samples = [time.perf_counter() - _START]
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0
    if tracer is None:
        setup_samples += setup_probes(args.workload, args.seed,
                                      SETUP_SAMPLES - 1)

    record, result = measure(workload, args.seconds, tracer, setup_samples)
    record["seed"] = args.seed
    record["environment"] = environment(args.seed)
    out = args.out or RESULTS / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    if tracer is not None:
        out.with_name(out.stem + "-spans.json").write_text(
            json.dumps(tracer.to_json()))
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
