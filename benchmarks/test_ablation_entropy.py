"""Experiment X9 -- entropy-stage ablation: Huffman + GZIP vs GZIP-only.

The paper's SZ pipeline uses customized Huffman + GZIP (stage 3).  This
ablation feeds both stage-3 choices the *same* quantization codes from
real fields and compares size and speed:

* ``huffman``   -- canonical Huffman + DEFLATE (the paper's setup);
* ``gzip-only`` -- DEFLATE directly on raw int16 codes (what you would
  get by skipping the entropy stage, the paper's implicit baseline for
  why Huffman is there at all).

Expected shape: Huffman + GZIP writes fewer bits per value than
DEFLATE-only at every target.  An interleaved rANS arm was measured
here too and went with the rANS encoder; its recorded numbers are in
EXPERIMENTS.md (X9) and ``benchmarks/results/ablation_entropy.*``.
"""

import time

import numpy as np

from benchmarks.conftest import bench_scale, render_table
from repro.core.fixed_psnr import psnr_to_relative_bound
from repro.datasets.registry import get_dataset
from repro.encoding.lossless import lossless_compress
from repro.sz.compressor import SZCompressor
from repro.sz.predictors import lorenzo_difference
from repro.sz.quantizer import LatticeQuantizer


def _raw_codes(field: np.ndarray, eb: float) -> np.ndarray:
    quant = LatticeQuantizer(eb, float(field.flat[0]))
    return lorenzo_difference(quant.quantize(field))


def test_entropy_stage_ablation(benchmark, save_result):
    ds = get_dataset("ATM", scale=bench_scale())
    rows = []
    payload = {}
    for fname, target in (("TS", 80.0), ("TS", 40.0), ("U850", 80.0)):
        field = ds.field(fname).astype(np.float64)
        vr = float(field.max() - field.min())
        eb = psnr_to_relative_bound(target) * vr

        t0 = time.perf_counter()
        blob = SZCompressor(eb, mode="abs").compress(field)
        times = {"huffman": time.perf_counter() - t0}
        sizes = {"huffman": len(blob)}

        # DEFLATE-only baseline on the same codes (int16 fits: radius
        # keeps |q| <= 32768; escaped codes are rare on these fields).
        q = _raw_codes(field, eb)
        clipped = np.clip(q, -32768, 32767).astype(np.int16)
        t0 = time.perf_counter()
        gzip_only = lossless_compress(clipped.tobytes(), "zlib", 6)
        times["gzip-only"] = time.perf_counter() - t0
        sizes["gzip-only"] = len(gzip_only)

        key = f"{fname}@{target:.0f}"
        payload[key] = {
            "sizes": sizes,
            "times_s": times,
            "bit_rates": {k: 8.0 * v / field.size for k, v in sizes.items()},
        }
        for entropy in ("huffman", "gzip-only"):
            rows.append(
                (
                    key,
                    entropy,
                    f"{8.0 * sizes[entropy] / field.size:.3f}",
                    f"{1e3 * times[entropy]:.1f} ms",
                )
            )

    text = render_table(
        ["field@target", "stage 3", "bits/value", "encode time"],
        rows,
        title="X9 -- entropy-stage ablation on real quantization codes",
    )
    print("\n" + text)
    save_result("ablation_entropy", payload, text)

    for key, rec in payload.items():
        s = rec["sizes"]
        # Huffman+GZIP (the paper's stage 3) always beats DEFLATE-only
        assert s["huffman"] < s["gzip-only"], key

    field = ds.field("TS")
    comp = SZCompressor(1e-4, mode="rel")
    benchmark(comp.compress, field)
