"""Run one workload over several seeds and report, per metric, the
median and the interquartile range as a share of the median -- the
statistic the benchmark's bounds are judged against.

    python3 perfbench/spread.py --workload atm_sweep --seeds 1 2 3 4 5 [--trace 1]

Each run uses ``run_seconds`` from ``BENCHMARK.json``; its result line
is appended to ``--log`` (JSON lines) when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["seed"] = seed
        runs.append(doc)
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']}", flush=True)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, **doc}) + "\n")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:g}{'  OVER 1/3' if spread > bound / 3 else ''}"
        print(f"{name:36s} median {med:14.6g}  iqr/median {spread:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
