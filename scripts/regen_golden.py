#!/usr/bin/env python
"""Regenerate the golden format-stability fixtures in ``tests/golden/``.

The fixtures pin the on-disk container format: one ``.fpz`` per
codec/mode, all produced from the same seeded field, all at container
VERSION 1.  Run this script **only** when the format version is bumped
deliberately -- regenerating to paper over a failing
``tests/test_format_stability.py`` defeats the tests' purpose.

Usage::

    PYTHONPATH=src python scripts/regen_golden.py

The field is a double cumulative sum of seeded Gaussian noise -- smooth
enough that every predictor family has something to predict, and offset
away from zero so the pointwise-relative codec never divides by tiny
values.  ``tests/test_format_stability.py`` re-encodes the field with
the settings in :data:`FIXTURES` and requires every fixture back byte
for byte, so a setting changed here fails that test until the fixture
is regenerated.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.metrics.distortion import psnr  # noqa: E402
from repro.parallel.chunking import compress_chunked  # noqa: E402
from repro.sz.compressor import SZCompressor, decompress  # noqa: E402
from repro.sz.hybrid import HybridCompressor  # noqa: E402
from repro.sz.interp import InterpolationCompressor  # noqa: E402
from repro.sz.legacy import Sz11Compressor  # noqa: E402
from repro.sz.regression import RegressionCompressor  # noqa: E402
from repro.transform.compressor import TransformCompressor  # noqa: E402
from repro.transform.embedded import EmbeddedTransformCompressor  # noqa: E402

GOLDEN = REPO / "tests" / "golden"

#: How each fixture is made from the golden field.
FIXTURES = {
    "sz_abs": lambda f: SZCompressor(1e-3, mode="abs").compress(f),
    "sz_rel_rans": lambda f: SZCompressor(
        1e-4, mode="rel", entropy="rans"
    ).compress(f),
    "sz_pw_rel": lambda f: SZCompressor(1e-2, mode="pw_rel").compress(f),
    "regression": lambda f: RegressionCompressor(1e-3, mode="abs").compress(f),
    "hybrid": lambda f: HybridCompressor(1e-3, mode="abs").compress(f),
    "interp": lambda f: InterpolationCompressor(1e-3, mode="abs").compress(f),
    "legacy": lambda f: Sz11Compressor(1e-3, mode="abs").compress(f),
    "chunked": lambda f: compress_chunked(f, 1e-3, mode="abs", n_chunks=3),
    "transform": lambda f: TransformCompressor(1e-4, mode="rel").compress(f),
    "embedded": lambda f: EmbeddedTransformCompressor(
        mode="fixed_psnr", rate=70.0
    ).compress(f),
}


def make_field() -> np.ndarray:
    """The golden field: seeded, smooth, strictly positive, float32."""
    rng = np.random.default_rng(20180925)  # CLUSTER 2018 camera-ready-ish
    noise = rng.normal(size=(24, 32))
    field = np.cumsum(np.cumsum(noise, axis=0), axis=1)
    # Normalize to [1, 2]: smooth, nonzero (pw_rel-safe), value range 1
    # so absolute and relative bounds coincide numerically.
    lo, hi = field.min(), field.max()
    field = 1.0 + (field - lo) / (hi - lo)
    return field.astype(np.float32)


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    field = make_field()
    np.save(GOLDEN / "field.npy", field)

    for name, make in FIXTURES.items():
        blob = make(field)
        (GOLDEN / f"{name}.fpz").write_bytes(blob)
        recon = decompress(blob)  # every fixture must round-trip
        print(
            f"{name:<12} {len(blob):>6} bytes  "
            f"PSNR {psnr(field, recon):7.2f} dB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
