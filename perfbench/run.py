"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload codec_compress --seed 1 --seconds 15 --trace 0

The workload names, metric names and units live in ``BENCHMARK.json``
at the checkout root; ``perfbench/layers.json`` maps every per-layer
metric to the end-to-end metric it should move.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``).  Exits 2 without a result when
the program's source (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: workload -> module in this directory
WORKLOADS = {
    "codec_compress": "codec",
    "codec_decompress": "codec",
    "atm_sweep": "sweep",
    "service_jobs": "service",
}
#: workloads that run the codec serially on one core
SERIAL_WORKLOADS = ("codec_compress", "codec_decompress")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    if args.workload in SERIAL_WORKLOADS:
        # One BLAS thread, set before numpy loads.  With OpenBLAS's
        # default of one thread per core, the small block matmuls of
        # the transform and hybrid codecs ran 2-2.5x slower whenever
        # the second vCPU was busy elsewhere, so these timings flipped
        # between two modes from run to run.  The pooled workloads keep
        # the program's default threading: it is part of what they
        # measure.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from harness import become_subreaper, reap_children, stop_resource_tracker

    # No process the run starts, directly or not, may outlive it.
    become_subreaper()
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        out = module.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    finally:
        stop_resource_tracker()
        reap_children()
    values, tally = out["values"], out["tally"]

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in values:
            value = float(values[m["name"]])
        elif args.trace:
            value = 0.0  # a layer this workload never reaches
        else:
            raise KeyError(f"workload {args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for message in tally.messages:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
