"""Print two benchmark result files side by side, workload by workload.

    python3 perfbench/compare.py BASE.json NEW.json

A result file is one run's record, as ``run.py`` writes it, or a suite file
from ``suite.py`` with one record per workload and trace mode. For each
workload the command prints every end-to-end metric (from ``--trace 0``
records) and every per-layer metric (from ``--trace 1`` records) of both
files with the change between them; per-layer rows also name the end-to-end
metrics they should move (``layer_map.json``). It compares the output
digests, and when they differ it prints the largest change of any rounded
output (positions in m, azimuths in degrees, eval errors).
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path) -> dict:
    doc = json.loads(Path(path).read_text())
    records = doc["runs"] if "runs" in doc else [doc]
    return {(r["workload"], r["trace"]): r for r in records}


def layer_moves() -> dict:
    doc = json.loads((HERE / "layer_map.json").read_text())
    return {name: row["moves"] for row in doc["per_layer_to_end_to_end"]
            for name in row["layer"]}


def largest_move(a, b) -> float:
    """Largest absolute difference between matching numbers of two outputs."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((largest_move(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b)
    return 0.0 if a == b else math.inf


def change(a, b) -> str:
    if a is None or b is None:
        return "n/a"
    if a == 0:
        return "same" if b == 0 else "new"
    return f"{100.0 * (b - a) / abs(a):+.1f}%"


def fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def compare_outputs(a: dict, b: dict) -> str:
    if a["digest"] == b["digest"]:
        return f"digest {a['digest']}: outputs identical"
    return (f"digest {a['digest']} -> {b['digest']}: outputs differ, largest "
            f"change {largest_move(a['outputs'], b['outputs']):.6g}")


def print_metrics(a: dict, b: dict, moves: dict) -> None:
    names = list(a["metrics"]) + [n for n in b["metrics"]
                                  if n not in a["metrics"]]
    print(f"  {'metric':<40} {'unit':<6} {'base':>12} {'new':>12} "
          f"{'change':>9}  should move")
    for name in names:
        unit = a["units"].get(name) or b["units"].get(name)
        va, vb = a["metrics"].get(name), b["metrics"].get(name)
        print(f"  {name:<40} {unit:<6} {fmt(va):>12} {fmt(vb):>12} "
              f"{change(va, vb):>9}  {', '.join(moves.get(name, []))}")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    moves = layer_moves()
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        print(f"== {workload}")
        for trace, title in ((0, "end to end"), (1, "per layer, traced")):
            a, b = base.get((workload, trace)), new.get((workload, trace))
            if a is None or b is None:
                if a or b:
                    print(f"  {title}: only in {'base' if a else 'new'}")
                continue
            print(f"  {title}: seed {a['seed']} vs {b['seed']}, "
                  f"{a['report']['ops']} vs {b['report']['ops']} ops, "
                  f"{a['report']['failed_ops']} vs {b['report']['failed_ops']}"
                  f" failed")
            print(f"  {compare_outputs(a, b)}")
            print_metrics(a, b, moves)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
