"""Experiment X9 -- entropy-stage ablation: Huffman vs rANS vs GZIP-only.

The paper's SZ pipeline uses customized Huffman + GZIP (stage 3);
later SZ generations moved to ANS-family coders.  This ablation feeds
all three stage-3 choices the *same* quantization codes from real
fields and compares size and speed:

* ``huffman``  -- canonical Huffman + DEFLATE (the paper's setup);
* ``rans``     -- interleaved range-ANS (fractional-bit coding);
* ``none``     -- DEFLATE directly on raw int16 codes (what you would
  get by skipping the entropy stage, the paper's implicit baseline for
  why Huffman is there at all).

Expected shape: at high targets (wide code alphabets) both real
entropy coders beat DEFLATE-only and land close to each other.  At low
targets the code stream degenerates to long runs of code 0; there the
trailing DEFLATE behind Huffman exploits the *run structure* (a
higher-order correlation a 0-order rANS cannot see), so Huffman+GZIP
wins -- which is precisely why the paper's SZ keeps the GZIP stage.
Reconstructions are bit-identical across entropy stages (stage 3 is
lossless).
"""

import time

import numpy as np

from benchmarks.conftest import bench_scale, render_table
from repro.core.fixed_psnr import psnr_to_relative_bound
from repro.datasets.registry import get_dataset
from repro.encoding.lossless import lossless_compress
from repro.sz.compressor import SZCompressor, decompress
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

        sizes = {}
        recons = {}
        times = {}
        for entropy in ("huffman", "rans"):
            comp = SZCompressor(eb, mode="abs", entropy=entropy)
            t0 = time.perf_counter()
            blob = comp.compress(field)
            times[entropy] = time.perf_counter() - t0
            sizes[entropy] = len(blob)
            recons[entropy] = decompress(blob)

        # DEFLATE-only baseline on the same codes (int16 fits: radius
        # keeps |q| <= 32768; escaped codes are rare on these fields).
        q = _raw_codes(field, eb)
        clipped = np.clip(q, -32768, 32767).astype(np.int16)
        t0 = time.perf_counter()
        gzip_only = lossless_compress(clipped.tobytes(), "zlib", 6)
        times["gzip-only"] = time.perf_counter() - t0
        sizes["gzip-only"] = len(gzip_only)

        # stage 3 is lossless: identical reconstructions
        assert np.array_equal(recons["huffman"], recons["rans"])

        key = f"{fname}@{target:.0f}"
        payload[key] = {
            "sizes": sizes,
            "times_s": times,
            "bit_rates": {k: 8.0 * v / field.size for k, v in sizes.items()},
        }
        for entropy in ("huffman", "rans", "gzip-only"):
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
        # rANS stays within ~30% of Huffman everywhere ...
        assert s["rans"] / s["huffman"] < 1.3, key
        if key.endswith("@80"):
            # ... and at high targets (entropy-dominated codes) it is
            # competitive and beats DEFLATE-only too
            assert s["rans"] < s["gzip-only"], key
            assert 0.8 < s["rans"] / s["huffman"] < 1.25, key

    field = ds.field("TS")
    comp = SZCompressor(1e-4, mode="rel", entropy="rans")
    benchmark(comp.compress, field)
