"""Embedded (bitplane) coding -- the paper's alternative second stage.

Section III of the paper treats the second pipeline stage as either
*quantization* or *embedded coding (EC)*, and Theorems 1/2 cover both.
This module implements EC for the orthogonal-transform codec: DCT
coefficients are encoded sign + magnitude, magnitudes as fixed-point
bitplanes from the most significant down.  Truncating the plane stream
is the rate-distortion knob:

* **fixed-rate mode** (ZFP's headline mode, paper Section II-B): emit
  planes until a bit budget is exhausted;
* **fixed-PSNR mode**: truncating after ``p`` planes leaves a uniform
  quantizer with step ``delta_p = scale * 2**(1-p)`` and midpoint
  reconstruction, so Eq. 6 gives the PSNR and inverting it gives the
  plane count -- the EC face of Theorem 3.

Planes are individually DEFLATE-compressed (early planes are almost all
zero and nearly vanish), making the effective rate much better than
``p`` bits/value.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

import repro.observe as observe

from repro.encoding.codes import read_header, validate_input
from repro.encoding.lossless import (
    lossless_compress,
    lossless_decompress,
    method_id,
)
from repro.errors import (
    DecompressionError,
    FormatError,
    ParameterError,
)
from repro.io.container import (
    CODEC_EMBEDDED,
    Container,
    pack_exact_float,
    unpack_exact_float,
)
from repro.transform.blocking import merge_blocks, split_blocks
from repro.transform.dct import block_dct, block_idct

__all__ = ["EmbeddedTransformCompressor", "encode_planes", "decode_planes"]

#: Hard cap on plane count: magnitudes are held in int64 fixed point.
MAX_PLANES = 60


def encode_planes(values: np.ndarray, n_planes: int) -> Tuple[List[bytes], float]:
    """Encode ``values`` as sign bits + ``n_planes`` magnitude bitplanes.

    Returns ``(planes, scale)`` where ``planes[0]`` is the packed sign
    plane and ``planes[1:]`` the magnitude planes MSB first.  ``scale``
    normalises magnitudes to [0, 1).
    """
    if not 1 <= n_planes <= MAX_PLANES:
        raise ParameterError(f"n_planes must be in [1, {MAX_PLANES}]")
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ParameterError("nothing to encode")
    scale = float(np.abs(v).max())
    if scale == 0.0:
        scale = 1.0
    # Strictly below 1.0 so the fixed-point value fits n_planes bits.
    mag = np.minimum(np.abs(v) / scale, 1.0 - 1e-15)
    fixed = np.floor(mag * (1 << n_planes)).astype(np.int64)
    planes = [np.packbits((v < 0).astype(np.uint8)).tobytes()]
    for p in range(n_planes - 1, -1, -1):
        bits = ((fixed >> p) & 1).astype(np.uint8)
        planes.append(np.packbits(bits).tobytes())
    return planes, scale


def decode_planes(
    planes: List[bytes], n_values: int, n_planes_total: int, scale: float
) -> np.ndarray:
    """Inverse of :func:`encode_planes`, accepting a *truncated* plane
    list: missing low planes are reconstructed at their midpoint."""
    if not planes:
        raise DecompressionError("no planes to decode")
    n_received = len(planes) - 1  # first entry is the sign plane
    if n_received < 0 or n_received > n_planes_total:
        raise DecompressionError("inconsistent plane count")

    def unpack(blob: bytes) -> np.ndarray:
        arr = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
        if arr.size < n_values:
            raise DecompressionError("bitplane shorter than value count")
        return arr[:n_values]

    signs = np.where(unpack(planes[0]) == 1, -1.0, 1.0)
    fixed = np.zeros(n_values, dtype=np.int64)
    for i, blob in enumerate(planes[1:]):
        p = n_planes_total - 1 - i
        fixed |= unpack(blob).astype(np.int64) << p
    # Midpoint reconstruction (uniform quantizer semantics): with r
    # unreceived planes the effective step is 2**r fixed-point units,
    # so add half of it -- 0.5 when every plane arrived.
    remaining = n_planes_total - n_received
    midpoint = (1 << remaining) / 2.0
    mag = (fixed.astype(np.float64) + midpoint) / (1 << n_planes_total)
    return signs * mag * scale


class EmbeddedTransformCompressor:
    """Block-DCT codec with an embedded (bitplane) second stage.

    Parameters
    ----------
    mode:
        ``"fixed_rate"`` -- ``rate`` is a bit budget per value; planes
        are emitted until the *compressed* stream reaches it.
        ``"fixed_psnr"`` -- ``rate`` is a target PSNR in dB; the plane
        count is derived from Eq. 6.
    rate:
        Bits/value or dB, per ``mode``.
    block_size:
        Transform block edge.
    """

    def __init__(
        self,
        mode: str = "fixed_rate",
        rate: float = 4.0,
        block_size: int = 8,
        lossless: str = "zlib",
        lossless_level: int = 6,
    ) -> None:
        if mode not in ("fixed_rate", "fixed_psnr"):
            raise ParameterError(
                f"mode must be 'fixed_rate' or 'fixed_psnr', got {mode!r}"
            )
        if not np.isfinite(rate) or rate <= 0:
            raise ParameterError(f"rate must be positive, got {rate}")
        if block_size < 2:
            raise ParameterError("block size must be >= 2")
        self.mode = mode
        self.rate = float(rate)
        self.block_size = int(block_size)
        self.lossless = lossless
        self.lossless_id = method_id(lossless)
        self.lossless_level = int(lossless_level)

    def _plane_budget(self, coeffs: np.ndarray, vr: float) -> int:
        """How many magnitude planes to aim for."""
        if self.mode == "fixed_rate":
            return MAX_PLANES  # emission stops at the byte budget
        # fixed_psnr: after p planes the magnitude step is scale*2**-p;
        # midpoint reconstruction gives MSE = step**2/12, and Theorem 2
        # carries it to the data domain, so Eq. 6 inverts to a plane
        # count.
        scale = float(np.abs(coeffs).max())
        if scale == 0.0:
            return 1
        target_step = vr * 10.0 ** (-self.rate / 20.0) * np.sqrt(12.0)
        p = int(np.ceil(np.log2(scale / target_step)))
        return int(np.clip(p, 1, MAX_PLANES))

    def compress(self, data) -> bytes:
        """Compress ``data``; returns a serialized container."""
        arr = validate_input(data)
        x = arr.astype(np.float64, copy=False)
        lo, hi = float(x.min()), float(x.max())
        vr = hi - lo
        meta = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "mode": self.mode,
            "rate": self.rate,
            "block_size": self.block_size,
            "lossless": self.lossless_id,
            "value_range": vr,
        }
        if vr == 0.0:
            meta["constant"] = pack_exact_float(lo)
            return observe.traced_pack(Container(CODEC_EMBEDDED, meta, []))

        center = 0.5 * (lo + hi)
        meta["center"] = pack_exact_float(center)
        blocks = split_blocks(x - center, self.block_size)
        coeffs = block_dct(blocks, self.block_size)

        n_planes = self._plane_budget(coeffs, vr)
        planes, scale = encode_planes(coeffs.ravel(), n_planes)
        meta["scale"] = pack_exact_float(scale)
        meta["n_planes_total"] = n_planes
        meta["n_coeffs"] = int(coeffs.size)

        budget = (
            int(self.rate * arr.size / 8.0) if self.mode == "fixed_rate" else None
        )
        streams = []
        spent = 0
        emitted = 0
        for i, plane in enumerate(planes):
            blob = lossless_compress(plane, self.lossless, self.lossless_level)
            # Always emit the sign plane and the first magnitude plane.
            if budget is not None and i > 1 and spent + len(blob) > budget:
                break
            streams.append((f"plane{i}", blob))
            spent += len(blob)
            emitted += 1
        meta["n_streams"] = emitted
        return observe.traced_pack(Container(CODEC_EMBEDDED, meta, streams))

    @staticmethod
    def decompress(blob: bytes, max_planes: Optional[int] = None) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`.

        ``max_planes`` enables **progressive decompression**: use only
        the first ``max_planes`` magnitude planes of the stream (plus
        the sign plane), reconstructing a coarser preview without
        touching the remaining bytes -- the defining capability of
        embedded coding.  ``None`` uses everything present.
        """
        container, dtype, shape, lossless, constant = read_header(
            blob, CODEC_EMBEDDED, "embedded"
        )
        if constant is not None:
            return np.full(shape, constant, dtype=dtype)

        meta = container.meta
        try:
            center = unpack_exact_float(meta["center"])
            scale = unpack_exact_float(meta["scale"])
            m = int(meta["block_size"])
            n_planes_total = int(meta["n_planes_total"])
            n_coeffs = int(meta["n_coeffs"])
            n_streams = int(meta["n_streams"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad container metadata: {exc}") from exc

        if max_planes is not None:
            if max_planes < 1:
                raise ParameterError("max_planes must be >= 1")
            # stream 0 is the sign plane; keep at most max_planes more
            n_streams = min(n_streams, 1 + max_planes)
        planes = [
            lossless_decompress(container.stream(f"plane{i}"), lossless)
            for i in range(n_streams)
        ]
        values = decode_planes(planes, n_coeffs, n_planes_total, scale)
        d = len(shape)
        coeffs = values.reshape((-1,) + (m,) * d)
        blocks = block_idct(coeffs, m)
        return (merge_blocks(blocks, m, shape) + center).astype(dtype)
