"""Hybrid per-block predictor selection (the SZ 2 design).

SZ 2's central improvement over the paper's SZ 1.4 is *adaptive
prediction*: the field is tiled into blocks and each block picks the
predictor that will cost fewer bits -- Lorenzo where the field is
smooth at the stencil scale, a fitted hyperplane where it is dominated
by local trends.  This codec implements that scheme on top of the same
lattice quantization / Huffman / GZIP stages:

* a global lattice (anchor = first value, ``delta = 2*eb``) carries
  the Lorenzo blocks, whose codes are the block-local Lorenzo
  differences of the lattice coordinates (block corners fall back to
  raw coordinates and ride the escape channel);
* regression blocks quantize the residual against a float32 hyperplane
  fit (coefficients stored only for the blocks that chose regression);
* the per-block choice minimises an estimated code length
  ``sum(log2(2|q|+1))`` plus the 32*(d+1)-bit coefficient overhead for
  regression;
* one selector bitmap, one combined code stream.

Both paths quantize uniformly with the same ``delta``, so Theorem 3
holds and the fixed-PSNR derivation drives this codec unchanged.
Everything is vectorized across blocks -- there is no per-block Python
loop on the hot path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.encoding.codes import (
    DEFAULT_RADIUS,
    ErrorBoundedCodec,
    Header,
    check_count,
    decode_codes,
)
from repro.encoding.lossless import lossless_compress, lossless_decompress
from repro.errors import CompressionError, DecompressionError, ParameterError
from repro.io.container import CODEC_HYBRID, pack_exact_float, unpack_exact_float
from repro.sz.predictors import axis_difference
from repro.sz.quantizer import MAX_LATTICE_COORD
from repro.sz.regression import design_matrix, fit_block_planes
from repro.transform.blocking import merge_blocks, padded_shape, split_blocks

__all__ = ["HybridCompressor"]


def _block_lorenzo_diff(blocks: np.ndarray) -> np.ndarray:
    """Block-local Lorenzo difference along every non-block axis."""
    q = blocks
    for axis in range(1, blocks.ndim):
        q = axis_difference(q, axis)
    return q


def _block_lorenzo_rec(q: np.ndarray) -> np.ndarray:
    out = q.astype(np.int64, copy=True)
    for axis in range(1, out.ndim):
        np.cumsum(out, axis=axis, out=out)
    return out


#: ``log2(2m + 1)`` for every magnitude ``m`` below the table's size
#: (32 KiB), computed by the same float64 expression the selector
#: applies to larger magnitudes, so a lookup gives the same bits.
_LOG2_COST = np.log2(2.0 * np.arange(4096, dtype=np.float64) + 1.0)


def _estimated_bits(q: np.ndarray) -> np.ndarray:
    """Per-block estimated code length: sum(log2(2|q|+1)) over the
    block (the Elias-gamma-style proxy SZ 2 uses for selection).

    Each term is read from :data:`_LOG2_COST` by ``|q|``, or computed
    when ``|q|`` is past it; the terms and their per-block summation
    order are those of the formula on every element."""
    mag = np.abs(q)
    bits = _LOG2_COST.take(mag, mode="clip")
    if mag.max() >= _LOG2_COST.size:
        big = mag >= _LOG2_COST.size
        bits[big] = np.log2(2.0 * mag[big] + 1.0)
    return bits.reshape(q.shape[0], -1).sum(axis=1)


class HybridCompressor(ErrorBoundedCodec):
    """Error-bounded codec with per-block Lorenzo/regression selection.

    Parameters mirror :class:`repro.sz.SZCompressor`; ``block_size``
    sets the tile edge (SZ 2 uses 6 for 3-D, 8 is a good 2-D default).
    """

    CODEC = CODEC_HYBRID
    NAME = "hybrid"

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        block_size: int = 8,
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
    ) -> None:
        super().__init__(
            error_bound, mode, lossless, lossless_level, quantization_radius
        )
        if block_size < 2:
            raise ParameterError("block size must be >= 2")
        self.block_size = int(block_size)

    def _keys(self) -> dict:
        return {"block_size": self.block_size}

    def _encode(self, x, delta, meta, streams) -> np.ndarray:
        anchor = float(x.flat[0])
        meta["anchor"] = pack_exact_float(anchor)

        d = x.ndim
        m = self.block_size
        blocks_f = split_blocks(x, m)
        n_blocks = blocks_f.shape[0]

        # Lorenzo path: global lattice coordinates, block-local stencil.
        k = np.rint((blocks_f - anchor) / delta)
        if np.abs(k).max() > MAX_LATTICE_COORD:
            raise CompressionError("error bound too small for exact lattice")
        k = k.astype(np.int64)
        q_lor = _block_lorenzo_diff(k)

        # Regression path: float32 hyperplane residuals.
        coeffs = fit_block_planes(blocks_f, m)
        A, _ = design_matrix(m, d)
        pred = (coeffs.astype(np.float64) @ A.T).reshape(blocks_f.shape)
        resid = np.rint((blocks_f - pred) / delta)
        if np.abs(resid).max() > MAX_LATTICE_COORD:
            raise CompressionError("error bound too small for exact residuals")
        q_reg = resid.astype(np.int64)

        # Selection: estimated code bits + regression coefficient cost.
        coeff_bits = 32.0 * (d + 1)
        cost_lor = _estimated_bits(q_lor)
        cost_reg = _estimated_bits(q_reg) + coeff_bits
        use_reg = cost_reg < cost_lor
        meta["n_blocks"] = int(n_blocks)
        meta["n_regression"] = int(use_reg.sum())

        streams.append(
            (
                "selector",
                lossless_compress(
                    np.packbits(use_reg).tobytes(),
                    self.lossless,
                    self.lossless_level,
                ),
            )
        )
        if use_reg.any():
            streams.append(
                (
                    "coeffs",
                    lossless_compress(
                        coeffs[use_reg].tobytes(),
                        self.lossless,
                        self.lossless_level,
                    ),
                )
            )
        return np.where(use_reg.reshape((-1,) + (1,) * d), q_reg, q_lor).ravel()

    @staticmethod
    def _decode(head: Header, delta: float) -> np.ndarray:
        anchor, m, n_codes, n_blocks, n_regression = head.keys(
            anchor=unpack_exact_float,
            block_size=int,
            n_codes=int,
            n_blocks=int,
            n_regression=int,
        )
        shape, lossless, container = head.shape, head.lossless, head.container
        d = len(shape)
        check_count("n_blocks", n_blocks, math.prod(padded_shape(shape, m)) // m**d)
        check_count("n_codes", n_codes, n_blocks * m**d)

        sel_blob = lossless_decompress(
            container.stream("selector"), lossless, max_length=-(-n_blocks // 8)
        )
        bits = np.unpackbits(np.frombuffer(sel_blob, dtype=np.uint8))
        if bits.size < n_blocks:
            raise DecompressionError("selector bitmap too short")
        use_reg = bits[:n_blocks].astype(bool)
        if int(use_reg.sum()) != n_regression:
            raise DecompressionError("selector/regression count mismatch")

        q = decode_codes(container, lossless, n_codes)
        q = q.reshape((n_blocks,) + (m,) * d)
        recon = np.empty(q.shape, dtype=np.float64)

        # Lorenzo blocks: cumsum back to lattice coordinates.
        lor = ~use_reg
        if lor.any():
            k = _block_lorenzo_rec(q[lor])
            recon[lor] = anchor + delta * k.astype(np.float64)

        if use_reg.any():
            coeff_blob = lossless_decompress(
                container.stream("coeffs"),
                lossless,
                max_length=4 * (d + 1) * n_regression,
            )
            coeffs = np.frombuffer(coeff_blob, dtype=np.float32)
            if coeffs.size != n_regression * (d + 1):
                raise DecompressionError("coefficient stream length mismatch")
            coeffs = coeffs.reshape(n_regression, d + 1)
            A, _ = design_matrix(m, d)
            pred = (coeffs.astype(np.float64) @ A.T).reshape(
                (n_regression,) + (m,) * d
            )
            recon[use_reg] = pred + delta * q[use_reg].astype(np.float64)

        return merge_blocks(recon, m, shape).astype(head.dtype)
