"""Run every workload end to end and traced, and merge the records.

    python3 perfbench/suite.py --seed 1 --seconds 55 --out perfbench/results/base.json

Each workload runs in its own process, once with ``--trace 0`` (every
end-to-end metric) and once with ``--trace 1`` (every per-layer metric and
the tracing overhead). Each run's report is printed as it finishes. Each
run's record (and the traced run's spans) is kept beside ``--out``, and the
merged file is what ``compare.py`` reads.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = []
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = args.out.with_name(
                f"{args.out.stem}.{workload}.trace{trace}.json")
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--out", str(record)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            print("\n".join(proc.stdout.strip().splitlines()[:-1]),
                  flush=True)
            runs.append(json.loads(record.read_text()))
    args.out.write_text(json.dumps({"runs": runs}, indent=1))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
