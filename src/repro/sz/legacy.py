"""SZ 1.1-style curve-fitting compressor (the paper's reference [9]).

Before the Lorenzo-based SZ 1.4 the paper builds on, Di & Cappello's
original SZ (IPDPS 2016) predicted each value along the 1-D scan with
three "best-fit" models over *preceding reconstructed* values --
preceding neighbour (constant), linear extrapolation and quadratic
extrapolation -- storing a 2-bit flag for the winner:

    P1: x~[i-1]                      (constant fit)
    P2: 2*x~[i-1] - x~[i-2]          (linear fit)
    P3: 3*x~[i-1] - 3*x~[i-2] + x~[i-3]   (quadratic fit)

All three are integer-coefficient combinations summing to 1, so the
lattice equivalence of :mod:`repro.sz.quantizer` applies: the
reconstruction is the global lattice snap regardless of the flags, and
*compression* is fully vectorized (the winning predictor per point is
an argmin over three shifted views of the lattice coordinates).

Decompression has a flag-dependent recurrence that no cumsum inverts,
so it uses the interleaving trick of :mod:`repro.encoding.rans`: the
stream is cut into fixed-length segments and the Python loop runs over
the *within-segment* index (64 iterations) while every segment
advances in lock-step as a NumPy lane.

This codec exists as the historical baseline: ablation X7's
rate-distortion comparison shows how much the multidimensional Lorenzo
of SZ 1.4 (and the paper) gained over it on 2-D/3-D data, which it
treats as a flat 1-D stream.
"""

from __future__ import annotations

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
    CODEC_LEGACY,
    Container,
    pack_exact_float,
    unpack_exact_float,
)
from repro.sz.quantizer import MAX_LATTICE_COORD

__all__ = ["Sz11Compressor", "SEGMENT"]

#: Segment length: the decode loop runs SEGMENT iterations regardless
#: of data size, with one lane per segment.
SEGMENT = 64


def _predictions(k: np.ndarray) -> np.ndarray:
    """The three curve-fit predictions per in-segment position.

    ``k`` has shape (n_segments, SEGMENT); returns (3, n_seg, SEGMENT)
    with out-of-segment history treated as 0 (the global anchor) --
    every segment is self-contained so lanes stay independent.
    """
    prev1 = np.zeros_like(k)
    prev2 = np.zeros_like(k)
    prev3 = np.zeros_like(k)
    prev1[:, 1:] = k[:, :-1]
    prev2[:, 2:] = k[:, :-2]
    prev3[:, 3:] = k[:, :-3]
    return np.stack(
        [prev1, 2 * prev1 - prev2, 3 * prev1 - 3 * prev2 + prev3]
    )


class Sz11Compressor:
    """Error-bounded compressor with SZ 1.1 curve-fitting prediction.

    Parameters mirror :class:`repro.sz.SZCompressor` (``mode`` is
    ``"abs"`` or ``"rel"``).
    """

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
    ) -> None:
        if mode not in ("abs", "rel"):
            raise ParameterError(f"mode must be 'abs' or 'rel', got {mode!r}")
        if not np.isfinite(error_bound) or error_bound <= 0:
            raise ParameterError(f"error bound must be positive, got {error_bound}")
        if quantization_radius < 1:
            raise ParameterError("quantization radius must be >= 1")
        self.error_bound = float(error_bound)
        self.mode = mode
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
            "lossless": self.lossless_id,
            "radius": self.radius,
            "value_range": vr,
        }
        if self.target_psnr is not None:
            meta["target_psnr"] = float(self.target_psnr)
        if vr == 0.0:
            meta["constant"] = pack_exact_float(float(x.flat[0]))
            return observe.traced_pack(Container(CODEC_LEGACY, meta, []))

        eb_abs = self.error_bound * vr if self.mode == "rel" else self.error_bound
        delta = 2.0 * eb_abs
        anchor = float(x.flat[0])
        meta["eb_abs"] = pack_exact_float(eb_abs)
        meta["anchor"] = pack_exact_float(anchor)

        flat = x.ravel()
        n = flat.size
        kf = np.rint((flat - anchor) / delta)
        if np.abs(kf).max() > MAX_LATTICE_COORD:
            raise CompressionError("error bound too small for exact lattice")
        n_seg = -(-n // SEGMENT)
        k = np.zeros((n_seg, SEGMENT), dtype=np.int64)
        k.ravel()[:n] = kf.astype(np.int64)

        preds = _predictions(k)
        residuals = k[None, :, :] - preds
        # choose the fit with the smallest |residual| per point (2-bit
        # flag, as in SZ 1.1)
        flags = np.abs(residuals).argmin(axis=0).astype(np.uint8)
        q = np.take_along_axis(residuals, flags[None], axis=0)[0]

        meta["n_segments"] = int(n_seg)
        streams = [
            (
                "flags",
                lossless_compress(
                    np.packbits(
                        np.stack([(flags >> 1) & 1, flags & 1], axis=-1)
                        .ravel()
                        .astype(np.uint8)
                    ).tobytes(),
                    self.lossless,
                    self.lossless_level,
                ),
            )
        ]

        q = q.ravel()
        meta["n_codes"] = int(q.size)
        encode_codes(
            q, meta, streams, self.radius, self.lossless, self.lossless_level
        )
        return observe.traced_pack(Container(CODEC_LEGACY, meta, streams))

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        container, dtype, shape, lossless, constant = read_header(
            blob, CODEC_LEGACY, "SZ 1.1"
        )
        if constant is not None:
            return np.full(shape, constant, dtype=dtype)

        meta = container.meta
        try:
            eb_abs = unpack_exact_float(meta["eb_abs"])
            anchor = unpack_exact_float(meta["anchor"])
            n_codes = int(meta["n_codes"])
            n_seg = int(meta["n_segments"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad container metadata: {exc}") from exc

        n = int(np.prod(shape))
        delta = 2.0 * eb_abs
        if n_codes != n_seg * SEGMENT:
            raise DecompressionError("segment geometry mismatch")

        flag_blob = lossless_decompress(container.stream("flags"), lossless)
        bits = np.unpackbits(np.frombuffer(flag_blob, dtype=np.uint8))
        if bits.size < 2 * n_codes:
            raise DecompressionError("flag stream too short")
        bits = bits[: 2 * n_codes].reshape(-1, 2)
        flags = ((bits[:, 0] << 1) | bits[:, 1]).reshape(n_seg, SEGMENT)
        if (flags > 2).any():
            raise DecompressionError("invalid predictor flag")

        q = decode_codes(container, lossless, n_codes).reshape(n_seg, SEGMENT)

        # Lane-parallel recurrence: SEGMENT Python iterations, all
        # segments advancing together.
        k = np.zeros((n_seg, SEGMENT), dtype=np.int64)
        zeros = np.zeros(n_seg, dtype=np.int64)
        for j in range(SEGMENT):
            p1 = k[:, j - 1] if j >= 1 else zeros
            p2 = k[:, j - 2] if j >= 2 else zeros
            p3 = k[:, j - 3] if j >= 3 else zeros
            preds = np.stack([p1, 2 * p1 - p2, 3 * p1 - 3 * p2 + p3])
            f = flags[:, j]
            pred = preds[f, np.arange(n_seg)]
            k[:, j] = pred + q[:, j]

        values = anchor + delta * k.ravel()[:n].astype(np.float64)
        return values.reshape(shape).astype(dtype)
