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

from repro.encoding.codes import (
    DEFAULT_RADIUS,
    ErrorBoundedCodec,
    Header,
    decode_codes,
    one_of,
)
from repro.errors import CompressionError, DecompressionError, ParameterError
from repro.io.container import CODEC_INTERP, pack_exact_float, unpack_exact_float

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


class InterpolationCompressor(ErrorBoundedCodec):
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

    CODEC = CODEC_INTERP
    NAME = "interpolation"
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
        super().__init__(
            error_bound, mode, lossless, lossless_level, quantization_radius
        )
        if interpolator not in self.INTERPOLATORS:
            raise ParameterError(
                f"unknown interpolator {interpolator!r}; "
                f"choose from {sorted(self.INTERPOLATORS)}"
            )
        self.interpolator = interpolator

    def _keys(self) -> dict:
        return {"interpolator": self.INTERPOLATORS[self.interpolator]}

    def _encode(self, x, delta, meta, streams) -> np.ndarray:
        anchor = float(x.flat[0])
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
        return q

    @staticmethod
    def _decode(head: Header, delta: float) -> np.ndarray:
        table = InterpolationCompressor.INTERPOLATORS
        anchor, interpolator, n_codes = head.keys(
            anchor=unpack_exact_float,
            interpolator=one_of(table.values()),
            n_codes=int,
        )
        cubic = interpolator == table["cubic"]
        shape = head.shape
        n = int(np.prod(shape))
        if n_codes != n:
            raise DecompressionError("code count does not match the array")

        q = decode_codes(head.container, head.lossless, n_codes)

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
        return recon.astype(head.dtype)
