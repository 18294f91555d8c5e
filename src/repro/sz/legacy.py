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

from repro.encoding.codes import (
    ErrorBoundedCodec,
    Header,
    check_count,
    decode_codes,
)
from repro.encoding.lossless import lossless_compress, lossless_decompress
from repro.errors import CompressionError, DecompressionError
from repro.io.container import CODEC_LEGACY, pack_exact_float, unpack_exact_float
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


class Sz11Compressor(ErrorBoundedCodec):
    """Error-bounded compressor with SZ 1.1 curve-fitting prediction.

    Parameters mirror :class:`repro.sz.SZCompressor` (``mode`` is
    ``"abs"`` or ``"rel"``).
    """

    CODEC = CODEC_LEGACY
    NAME = "SZ 1.1"

    def _encode(self, x, delta, meta, streams) -> np.ndarray:
        anchor = float(x.flat[0])
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
        streams.append(
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
        )
        return q.ravel()

    @staticmethod
    def _decode(head: Header, delta: float) -> np.ndarray:
        anchor, n_codes, n_seg = head.keys(
            anchor=unpack_exact_float, n_codes=int, n_segments=int
        )
        n = int(np.prod(head.shape))
        check_count("n_segments", n_seg, -(-n // SEGMENT))
        check_count("n_codes", n_codes, n_seg * SEGMENT)

        flag_blob = lossless_decompress(
            head.container.stream("flags"),
            head.lossless,
            max_length=-(-2 * n_codes // 8),
        )
        bits = np.unpackbits(np.frombuffer(flag_blob, dtype=np.uint8))
        if bits.size < 2 * n_codes:
            raise DecompressionError("flag stream too short")
        bits = bits[: 2 * n_codes].reshape(-1, 2)
        flags = ((bits[:, 0] << 1) | bits[:, 1]).reshape(n_seg, SEGMENT)
        if (flags > 2).any():
            raise DecompressionError("invalid predictor flag")

        q = decode_codes(head.container, head.lossless, n_codes)
        q = q.reshape(n_seg, SEGMENT)

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
        return values.reshape(head.shape).astype(head.dtype)
