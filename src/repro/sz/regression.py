"""Regression-based prediction (the SZ 2.x predictor family).

The paper builds on SZ 1.4, whose Lorenzo predictor chains through
reconstructed neighbours.  SZ 2 introduced an alternative that this
module implements: fit a linear model ``x ~ b0 + b1*i + b2*j (+ b3*k)``
over each ``m^d`` block, store the (float32) coefficients, and quantize
the residuals with the same error-controlled uniform quantizer.

Two properties make it attractive here:

* prediction depends only on the *stored coefficients and block
  coordinates* -- there is no sequential dependency whatsoever, so both
  directions are embarrassingly data-parallel;
* the second stage is still uniform midpoint quantization, so
  Theorem 3 applies verbatim and the fixed-PSNR derivation (Eq. 8)
  drives this codec unchanged.

The least-squares fit is closed-form: with ``A`` the fixed
``(m^d, d+1)`` design matrix of block coordinates, the coefficient
matrix for *all* blocks at once is one matmul with the precomputed
pseudo-inverse.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

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
from repro.io.container import CODEC_REGRESSION
from repro.transform.blocking import merge_blocks, padded_shape, split_blocks

__all__ = ["RegressionCompressor", "design_matrix", "fit_block_planes"]

#: Quantized residual codes must stay exact in float64 (cf. quantizer).
_MAX_CODE = 2**52


@lru_cache(maxsize=32)
def design_matrix(m: int, ndim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(A, pinv)`` for ``m**ndim`` points.

    ``A`` has a row per block cell and columns ``[1, i0, ..., i_{d-1}]``
    (coordinates centred at the block middle for numerical symmetry);
    ``pinv = (A^T A)^-1 A^T``.
    """
    if m < 2 or ndim < 1:
        raise ParameterError("regression blocks need m >= 2, ndim >= 1")
    coords = np.indices((m,) * ndim).reshape(ndim, -1).T.astype(np.float64)
    coords -= (m - 1) / 2.0
    A = np.concatenate([np.ones((coords.shape[0], 1)), coords], axis=1)
    pinv = np.linalg.pinv(A)
    return A, pinv


def fit_block_planes(blocks: np.ndarray, m: int) -> np.ndarray:
    """Least-squares hyperplane coefficients for every block at once.

    ``blocks`` is ``(n_blocks, m, ..., m)``; returns float32
    ``(n_blocks, d+1)`` coefficients (float32 because that is what the
    container stores -- predictions must be computed from the *stored*
    precision in both directions).
    """
    b = np.asarray(blocks, dtype=np.float64)
    d = b.ndim - 1
    _, pinv = design_matrix(m, d)
    flat = b.reshape(b.shape[0], -1)
    return (flat @ pinv.T).astype(np.float32)


def _predict(coeffs: np.ndarray, m: int, ndim: int) -> np.ndarray:
    """Predictions for every block from (stored) float32 coefficients."""
    A, _ = design_matrix(m, ndim)
    flat = coeffs.astype(np.float64) @ A.T
    return flat.reshape((coeffs.shape[0],) + (m,) * ndim)


class RegressionCompressor(ErrorBoundedCodec):
    """Error-bounded compressor with per-block hyperplane prediction.

    Parameters mirror :class:`repro.sz.SZCompressor`; ``block_size``
    sets the regression block edge (SZ 2 uses 6 for 3-D data; 8 is a
    good 2-D default).
    """

    CODEC = CODEC_REGRESSION
    NAME = "regression"

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
        m = self.block_size
        blocks = split_blocks(x, m)
        coeffs = fit_block_planes(blocks, m)
        pred = _predict(coeffs, m, x.ndim)
        residuals = blocks - pred
        codes_f = np.rint(residuals / delta)
        if np.abs(codes_f).max() > _MAX_CODE:
            raise CompressionError(
                "error bound too small: residual codes exceed exact range"
            )
        streams.append(
            (
                "coeffs",
                lossless_compress(
                    coeffs.tobytes(), self.lossless, self.lossless_level
                ),
            )
        )
        meta["n_blocks"] = int(blocks.shape[0])
        return codes_f.astype(np.int64).ravel()

    @staticmethod
    def _decode(head: Header, delta: float) -> np.ndarray:
        m, n_codes, n_blocks = head.keys(block_size=int, n_codes=int, n_blocks=int)
        shape, lossless = head.shape, head.lossless
        d = len(shape)
        check_count("n_blocks", n_blocks, math.prod(padded_shape(shape, m)) // m**d)
        check_count("n_codes", n_codes, n_blocks * m**d)

        coeff_blob = lossless_decompress(
            head.container.stream("coeffs"),
            lossless,
            max_length=4 * (d + 1) * n_blocks,
        )
        coeffs = np.frombuffer(coeff_blob, dtype=np.float32)
        if coeffs.size != n_blocks * (d + 1):
            raise DecompressionError("coefficient stream length mismatch")
        coeffs = coeffs.reshape(n_blocks, d + 1)

        q = decode_codes(head.container, lossless, n_codes)

        pred = _predict(coeffs, m, d)
        recon = pred + delta * q.astype(np.float64).reshape(pred.shape)
        return merge_blocks(recon, m, shape).astype(head.dtype)
