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

from functools import lru_cache
from typing import Tuple

import numpy as np

import repro.observe as observe

from repro.encoding.codes import (
    DEFAULT_RADIUS,
    decode_codes,
    encode_codes,
    read_header,
    validate_input,
)
from repro.encoding.lossless import (
    lossless_compress,
    lossless_decompress,
    method_id,
)
from repro.errors import (
    CompressionError,
    DecompressionError,
    FormatError,
    ParameterError,
)
from repro.io.container import (
    CODEC_REGRESSION,
    Container,
    pack_exact_float,
    unpack_exact_float,
)
from repro.transform.blocking import merge_blocks, split_blocks

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


class RegressionCompressor:
    """Error-bounded compressor with per-block hyperplane prediction.

    Parameters mirror :class:`repro.sz.SZCompressor`; ``block_size``
    sets the regression block edge (SZ 2 uses 6 for 3-D data; 8 is a
    good 2-D default).
    """

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        block_size: int = 8,
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
    ) -> None:
        if mode not in ("abs", "rel"):
            raise ParameterError(f"mode must be 'abs' or 'rel', got {mode!r}")
        if not np.isfinite(error_bound) or error_bound <= 0:
            raise ParameterError(f"error bound must be positive, got {error_bound}")
        if block_size < 2:
            raise ParameterError("block size must be >= 2")
        if quantization_radius < 1:
            raise ParameterError("quantization radius must be >= 1")
        self.error_bound = float(error_bound)
        self.mode = mode
        self.block_size = int(block_size)
        self.lossless = lossless
        self.lossless_id = method_id(lossless)
        self.lossless_level = int(lossless_level)
        self.radius = int(quantization_radius)
        self.target_psnr = None

    def compress(self, data) -> bytes:
        """Compress ``data``; returns a serialized container."""
        arr = validate_input(data)
        x = arr.astype(np.float64, copy=False)
        vr = float(x.max() - x.min())
        meta = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "mode": self.mode,
            "bound": self.error_bound,
            "block_size": self.block_size,
            "lossless": self.lossless_id,
            "radius": self.radius,
            "value_range": vr,
        }
        if self.target_psnr is not None:
            meta["target_psnr"] = float(self.target_psnr)
        if vr == 0.0:
            meta["constant"] = pack_exact_float(float(x.flat[0]))
            return observe.traced_pack(Container(CODEC_REGRESSION, meta, []))

        eb_abs = self.error_bound * vr if self.mode == "rel" else self.error_bound
        delta = 2.0 * eb_abs
        meta["eb_abs"] = pack_exact_float(eb_abs)

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
        q = codes_f.astype(np.int64).ravel()

        streams = [
            (
                "coeffs",
                lossless_compress(
                    coeffs.tobytes(), self.lossless, self.lossless_level
                ),
            )
        ]
        meta["n_blocks"] = int(blocks.shape[0])
        meta["n_codes"] = int(q.size)
        encode_codes(
            q, meta, streams, self.radius, self.lossless, self.lossless_level
        )
        return observe.traced_pack(Container(CODEC_REGRESSION, meta, streams))

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        container, dtype, shape, lossless, constant = read_header(
            blob, CODEC_REGRESSION, "regression"
        )
        if constant is not None:
            return np.full(shape, constant, dtype=dtype)

        meta = container.meta
        try:
            eb_abs = unpack_exact_float(meta["eb_abs"])
            m = int(meta["block_size"])
            n_codes = int(meta["n_codes"])
            n_blocks = int(meta["n_blocks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad container metadata: {exc}") from exc

        d = len(shape)
        delta = 2.0 * eb_abs

        coeff_blob = lossless_decompress(container.stream("coeffs"), lossless)
        coeffs = np.frombuffer(coeff_blob, dtype=np.float32)
        if coeffs.size != n_blocks * (d + 1):
            raise DecompressionError("coefficient stream length mismatch")
        coeffs = coeffs.reshape(n_blocks, d + 1)

        q = decode_codes(container, lossless, n_codes)

        pred = _predict(coeffs, m, d)
        recon = pred + delta * q.astype(np.float64).reshape(pred.shape)
        return merge_blocks(recon, m, shape).astype(dtype)
