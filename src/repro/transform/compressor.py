"""Transform-based lossy compressor (orthonormal block DCT).

Pipeline: centre the data, split into ``m^d`` blocks, orthonormal
DCT-II, uniform midpoint quantization of the coefficients (bin size
``delta = 2*eb``), escape of out-of-radius codes, Huffman + GZIP --
i.e. exactly the second/third stages of the SZ pipeline applied to
transform coefficients instead of prediction errors.

Error semantics differ from SZ, and deliberately so: an orthogonal
transform preserves the *l2 norm* of the quantization error (Theorem
2), so the **MSE** of the output is the coefficient-domain MSE; the
pointwise maximum error is only bounded by ``eb * m**(d/2)`` in the
worst case.  That is the correct setting for fixed-PSNR control, which
is an l2 (not l-infinity) target.
"""

from __future__ import annotations

import numpy as np

import repro.observe as observe
from repro.encoding.codes import (
    DEFAULT_RADIUS,
    ErrorBoundedCodec,
    Header,
    decode_codes,
    encode_codes,
    one_of,
    pack,
    pack_constant,
    validate_input,
)
from repro.errors import CompressionError, ParameterError
from repro.io.container import CODEC_TRANSFORM, pack_exact_float, unpack_exact_float
from repro.telemetry.registry import RATIO_BUCKETS, metrics as _metrics
from repro.transform.blocking import merge_blocks, split_blocks
from repro.transform.dct import block_inverse, block_transform, dct_matrix

__all__ = ["TransformCompressor"]

#: Keep quantized coefficients in exact-int range (cf. MAX_LATTICE_COORD).
_MAX_COEFF_CODE = 2**52


class TransformCompressor(ErrorBoundedCodec):
    """Block-DCT codec with uniform coefficient quantization.

    Parameters
    ----------
    error_bound:
        Half the coefficient quantization bin: ``delta = 2*error_bound``.
        With ``mode="rel"`` it is relative to the data's value range.
        By Eq. 6 the resulting PSNR is
        ``20*log10(vr/delta) + 10*log10(12)`` -- identical to SZ's, so
        Eq. 8 applies unchanged (Theorem 3).
    mode:
        ``"abs"`` or ``"rel"`` (value-range-based).
    block_size:
        Transform block edge length ``m`` (default 8 for 1-D/2-D, use 4
        for 3-D data to keep blocks small).
    transform:
        ``"dct"`` (orthonormal DCT-II, ZFP-flavoured; default) or
        ``"haar"`` (multi-level Haar DWT, SSEM-flavoured; needs a
        power-of-two block size).  Both are orthonormal, so Theorem 2
        applies identically.
    """

    CODEC = CODEC_TRANSFORM
    NAME = "transform"
    #: transform ids stored in the container
    TRANSFORMS = {"dct": 0, "haar": 1}

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        block_size: int = 8,
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
        transform: str = "dct",
    ) -> None:
        super().__init__(
            error_bound, mode, lossless, lossless_level, quantization_radius
        )
        if block_size < 2:
            raise ParameterError("block size must be >= 2")
        self.block_size = int(block_size)
        if transform not in self.TRANSFORMS:
            raise ParameterError(
                f"unknown transform {transform!r}; "
                f"choose from {sorted(self.TRANSFORMS)}"
            )
        if transform == "haar" and (block_size & (block_size - 1)) != 0:
            raise ParameterError("the Haar transform needs a power-of-two block")
        self.transform = transform

    def _keys(self) -> dict:
        return {"block_size": self.block_size}

    @staticmethod
    def _matrix(transform_id: int, m: int) -> np.ndarray:
        if transform_id == 1:
            from repro.transform.wavelet import haar_matrix

            return haar_matrix(m)
        return dct_matrix(m)

    def compress(self, data) -> bytes:
        """Compress ``data``; returns a serialized container."""
        trace = observe.current_trace()
        with trace.span("transform.compress") as root:
            arr = validate_input(data)
            if trace.enabled:
                root.count("n_points", int(arr.size))
                root.count("raw_bytes", int(arr.nbytes))
            x = arr.astype(np.float64, copy=False)
            lo, hi = float(x.min()), float(x.max())
            vr = hi - lo
            meta = self.header(arr, vr)
            if vr == 0.0:
                return pack_constant(CODEC_TRANSFORM, meta, lo)

            eb_abs = self.eb_abs(vr)
            delta = 2.0 * eb_abs
            center = 0.5 * (lo + hi)
            meta["eb_abs"] = pack_exact_float(eb_abs)
            meta["center"] = pack_exact_float(center)

            meta["transform"] = self.TRANSFORMS[self.transform]
            T = self._matrix(self.TRANSFORMS[self.transform], self.block_size)
            with trace.span("dct") as sp:
                blocks = split_blocks(x - center, self.block_size)
                coeffs = block_transform(blocks, T)
                if trace.enabled:
                    sp.count("n_blocks", int(blocks.shape[0]))
                    sp.set("block_size", self.block_size)
            with trace.span("quantize") as sp:
                codes_f = np.rint(coeffs / delta)
                if np.abs(codes_f).max() > _MAX_COEFF_CODE:
                    raise CompressionError(
                        "error bound too small: coefficient codes exceed exact range"
                    )
                q = codes_f.astype(np.int64).ravel()
                if trace.enabled:
                    sp.count("n_points", int(q.size))
                    sp.set("bin_size", delta)

            streams = []
            meta["n_codes"] = int(q.size)
            n_escapes, _ = encode_codes(
                q, meta, streams, self.radius, self.lossless, self.lossless_level
            )
            _metrics().histogram(
                "transform.quantization.hit_ratio", RATIO_BUCKETS
            ).observe(1.0 - n_escapes / q.size)
            return pack(CODEC_TRANSFORM, meta, streams)

    @staticmethod
    def _decode(head: Header, delta: float) -> np.ndarray:
        center, m, n_codes, transform_id = head.keys(
            center=unpack_exact_float,
            block_size=int,
            n_codes=int,
            transform=(one_of(TransformCompressor.TRANSFORMS.values()), 0),
        )
        q = decode_codes(head.container, head.lossless, n_codes)

        d = len(head.shape)
        T = TransformCompressor._matrix(transform_id, m)
        coeffs = (q.astype(np.float64) * delta).reshape((-1,) + (m,) * d)
        blocks = block_inverse(coeffs, T)
        return (merge_blocks(blocks, m, head.shape) + center).astype(head.dtype)
