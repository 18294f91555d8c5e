"""Interpolation-based prediction (the SZ 3 generation).

After the regression-augmented SZ 2, the third SZ generation replaced
neighbour prediction with **hierarchical interpolation**: reconstruct a
coarse grid first, then repeatedly halve the stride, predicting each
new point by linear (or cubic) interpolation of already-reconstructed
points along one axis at a time.  Quantization is the same uniform
midpoint scheme, so the error bound holds pointwise and Theorem 3's
fixed-PSNR property carries over unchanged.

The structure is inherently vectorizable without any lattice trick:
every point of a (level, axis) class is predicted from *previous-level*
reconstructions, so each class is one whole-array NumPy step and the
Python loop runs ``O(d * log(max_extent))`` times.

The compressor and decompressor share `_walk`, the deterministic
traversal of (level, axis) classes; the encoder consumes original
values and emits codes, the decoder consumes codes -- both apply
identical predictions to identical reconstructed state, which is the
Theorem 1 discipline that keeps the bound exact.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

import repro.observe as observe

from repro.encoding.codes import (
    DEFAULT_RADIUS,
    decode_codes,
    encode_codes,
    read_header,
    validate_input,
)
from repro.encoding.lossless import method_id
from repro.errors import (
    CompressionError,
    DecompressionError,
    FormatError,
    ParameterError,
)
from repro.io.container import (
    CODEC_INTERP,
    Container,
    pack_exact_float,
    unpack_exact_float,
)

__all__ = ["InterpolationCompressor"]

_MAX_CODE = 2**52


def _axis_take(recon: np.ndarray, axis: int, coords: np.ndarray, grids) -> np.ndarray:
    """Gather a class of points: ``coords`` along ``axis``, fixed grids
    elsewhere."""
    index = list(grids)
    index[axis] = coords
    return recon[np.ix_(*index)]


def _predict(
    recon: np.ndarray,
    axis: int,
    targets: np.ndarray,
    s: int,
    grids,
    cubic: bool,
) -> np.ndarray:
    """Interpolate the target class from reconstructed neighbours at
    stride ``s`` along ``axis`` (linear, or 4-point cubic where the
    full stencil exists)."""
    extent = recon.shape[axis]
    last = extent - 1
    left = targets - s
    right = np.minimum(targets + s, last - (last % (2 * s)))
    has_right = targets + s < extent
    v_left = _axis_take(recon, axis, left, grids)
    v_right = _axis_take(recon, axis, np.where(has_right, targets + s, left), grids)
    shape = [1] * recon.ndim
    shape[axis] = targets.size
    mask = has_right.reshape(shape)
    pred = np.where(mask, 0.5 * (v_left + v_right), v_left)

    if cubic:
        far_ok = (targets - 3 * s >= 0) & (targets + 3 * s < extent)
        if far_ok.any():
            fl = np.where(far_ok, targets - 3 * s, left)
            fr = np.where(far_ok, targets + 3 * s, left)
            v_fl = _axis_take(recon, axis, fl, grids)
            v_fr = _axis_take(recon, axis, fr, grids)
            cubic_pred = (9.0 * (v_left + v_right) - (v_fl + v_fr)) / 16.0
            pred = np.where(far_ok.reshape(shape), cubic_pred, pred)
    return pred


def _walk(shape: Tuple[int, ...], visit: Callable) -> None:
    """Drive the deterministic coarse-to-fine traversal.

    ``visit(axis, targets, s, grids)`` is called once per (level, axis)
    class; ``grids`` are the fixed index vectors for the other axes.
    """
    max_extent = max(shape)
    top = 1
    while top * 2 < max_extent:
        top *= 2
    s = top
    while s >= 1:
        for axis in range(len(shape)):
            if shape[axis] <= s:
                continue
            targets = np.arange(s, shape[axis], 2 * s)
            if targets.size == 0:
                continue
            grids = []
            for b, extent in enumerate(shape):
                if b == axis:
                    grids.append(None)  # replaced by targets/neighbours
                elif b < axis:
                    grids.append(np.arange(0, extent, s))
                else:
                    grids.append(np.arange(0, extent, 2 * s))
            visit(axis, targets, s, grids)
        s //= 2


def _coarse_grids(shape: Tuple[int, ...]) -> List[np.ndarray]:
    max_extent = max(shape)
    top = 1
    while top * 2 < max_extent:
        top *= 2
    return [np.arange(0, extent, 2 * top) for extent in shape]


class InterpolationCompressor:
    """Error-bounded compressor with hierarchical interpolation
    prediction (SZ3-style).

    Parameters
    ----------
    error_bound / mode:
        As :class:`repro.sz.SZCompressor` (``"abs"`` or ``"rel"``).
    interpolator:
        ``"cubic"`` (default, SZ3's choice -- 4-point splines where the
        stencil fits, linear at borders) or ``"linear"``.
    """

    INTERPOLATORS = {"linear": 0, "cubic": 1}

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        interpolator: str = "cubic",
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
    ) -> None:
        if mode not in ("abs", "rel"):
            raise ParameterError(f"mode must be 'abs' or 'rel', got {mode!r}")
        if not np.isfinite(error_bound) or error_bound <= 0:
            raise ParameterError(f"error bound must be positive, got {error_bound}")
        if interpolator not in self.INTERPOLATORS:
            raise ParameterError(
                f"unknown interpolator {interpolator!r}; "
                f"choose from {sorted(self.INTERPOLATORS)}"
            )
        if quantization_radius < 1:
            raise ParameterError("quantization radius must be >= 1")
        self.error_bound = float(error_bound)
        self.mode = mode
        self.interpolator = interpolator
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
            "interpolator": self.INTERPOLATORS[self.interpolator],
            "lossless": self.lossless_id,
            "radius": self.radius,
            "value_range": vr,
        }
        if self.target_psnr is not None:
            meta["target_psnr"] = float(self.target_psnr)
        if vr == 0.0:
            meta["constant"] = pack_exact_float(float(x.flat[0]))
            return observe.traced_pack(Container(CODEC_INTERP, meta, []))

        eb_abs = self.error_bound * vr if self.mode == "rel" else self.error_bound
        delta = 2.0 * eb_abs
        anchor = float(x.flat[0])
        meta["eb_abs"] = pack_exact_float(eb_abs)
        meta["anchor"] = pack_exact_float(anchor)
        cubic = self.interpolator == "cubic"

        recon = np.zeros_like(x)
        chunks: List[np.ndarray] = []

        # Coarse seed: quantize against the anchor.
        cg = _coarse_grids(x.shape)
        seed = np.rint((x[np.ix_(*cg)] - anchor) / delta)
        if np.abs(seed).max() > _MAX_CODE:
            raise CompressionError("error bound too small for exact codes")
        chunks.append(seed.astype(np.int64).ravel())
        recon[np.ix_(*cg)] = anchor + delta * seed

        def visit(axis, targets, s, grids):
            full = [g if g is not None else targets for g in grids]
            pred = _predict(recon, axis, targets, s, grids, cubic)
            q = np.rint((x[np.ix_(*full)] - pred) / delta)
            if np.abs(q).max(initial=0) > _MAX_CODE:
                raise CompressionError("error bound too small for exact codes")
            chunks.append(q.astype(np.int64).ravel())
            recon[np.ix_(*full)] = pred + delta * q

        _walk(x.shape, visit)
        q = np.concatenate(chunks)
        if q.size != x.size:
            raise CompressionError("traversal did not cover the array")

        streams = []
        meta["n_codes"] = int(q.size)
        encode_codes(
            q, meta, streams, self.radius, self.lossless, self.lossless_level
        )
        return observe.traced_pack(Container(CODEC_INTERP, meta, streams))

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        container, dtype, shape, lossless, constant = read_header(
            blob, CODEC_INTERP, "interpolation"
        )
        if constant is not None:
            return np.full(shape, constant, dtype=dtype)

        meta = container.meta
        try:
            eb_abs = unpack_exact_float(meta["eb_abs"])
            anchor = unpack_exact_float(meta["anchor"])
            cubic = int(meta["interpolator"]) == 1
            n_codes = int(meta["n_codes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad container metadata: {exc}") from exc

        n = int(np.prod(shape))
        if n_codes != n:
            raise DecompressionError("code count does not match the array")
        delta = 2.0 * eb_abs

        q = decode_codes(container, lossless, n_codes)

        recon = np.zeros(shape, dtype=np.float64)
        pos = 0

        cg = _coarse_grids(shape)
        n_seed = int(np.prod([g.size for g in cg]))
        seed = q[:n_seed].reshape([g.size for g in cg])
        recon[np.ix_(*cg)] = anchor + delta * seed
        pos = n_seed

        def visit(axis, targets, s, grids):
            nonlocal pos
            full = [g if g is not None else targets for g in grids]
            pred = _predict(recon, axis, targets, s, grids, cubic)
            count = int(np.prod([len(g) for g in full]))
            block = q[pos : pos + count].reshape([len(g) for g in full])
            pos += count
            recon[np.ix_(*full)] = pred + delta * block

        _walk(shape, visit)
        if pos != n:
            raise DecompressionError("traversal did not consume every code")
        return recon.astype(dtype)
