"""Distortion metrics between original and reconstructed arrays.

These are the quantities the paper's evaluation reports: MSE, NRMSE and
PSNR (Section IV, Eqs. 2-5), plus the pointwise metrics that the
traditional error-control modes of SZ/ZFP/ISABELA bound (Section II-B).

Conventions
-----------
* ``value_range`` (``vr`` in the paper) is ``max(X) - min(X)`` of the
  *original* data.  All range-normalised metrics (NRMSE, PSNR,
  value-range-relative error) use it.
* PSNR follows the paper: ``PSNR = -20 * log10(NRMSE)`` with
  ``NRMSE = sqrt(MSE) / vr``.
* A constant field has ``vr == 0``; NRMSE/PSNR are then degenerate.  We
  return ``inf`` PSNR for a perfect reconstruction of a constant field
  and raise :class:`~repro.errors.ParameterError` otherwise, because a
  finite PSNR is undefined without a range.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "value_range",
    "mse",
    "rmse",
    "nrmse",
    "psnr",
    "max_abs_error",
    "max_rel_error",
    "ssim",
    "DistortionReport",
    "distortion_report",
    "fill_mask",
    "masked_distortion_report",
]


def _as_float_arrays(original, reconstructed):
    """Validate and convert a pair of arrays to float64 views."""
    x = np.asarray(original, dtype=np.float64)
    y = np.asarray(reconstructed, dtype=np.float64)
    if x.shape != y.shape:
        raise ParameterError(
            f"shape mismatch: original {x.shape} vs reconstructed {y.shape}"
        )
    if x.size == 0:
        raise ParameterError("empty arrays have no distortion metrics")
    return x, y


def value_range(original) -> float:
    """Return ``vr = max(X) - min(X)`` of the original data.

    This is the paper's ``vr`` (Eq. 4) and the denominator of SZ's
    value-range-based relative error bound.
    """
    x = np.asarray(original, dtype=np.float64)
    if x.size == 0:
        raise ParameterError("empty array has no value range")
    if not np.all(np.isfinite(x)):
        raise ParameterError("value range undefined for non-finite data")
    return float(x.max() - x.min())


def mse(original, reconstructed) -> float:
    """Mean squared error between the original and reconstructed data."""
    x, y = _as_float_arrays(original, reconstructed)
    d = x - y
    return float(np.mean(d * d))


def rmse(original, reconstructed) -> float:
    """Root mean squared error."""
    return float(np.sqrt(mse(original, reconstructed)))


def nrmse(original, reconstructed) -> float:
    """Normalised RMSE, ``sqrt(MSE)/vr`` (paper Eq. 4).

    Raises :class:`ParameterError` for a constant original field with a
    non-zero error (the metric is undefined there).
    """
    e = rmse(original, reconstructed)
    vr = value_range(original)
    if vr == 0.0:
        if e == 0.0:
            return 0.0
        raise ParameterError("NRMSE undefined: constant field with non-zero error")
    return e / vr


def psnr(original, reconstructed) -> float:
    """Peak signal-to-noise ratio in dB, ``-20*log10(NRMSE)`` (Eq. 5).

    Returns ``inf`` for a lossless reconstruction.
    """
    n = nrmse(original, reconstructed)
    if n == 0.0:
        return float("inf")
    return float(-20.0 * np.log10(n))


def max_abs_error(original, reconstructed) -> float:
    """Maximum pointwise absolute error (the bound SZ's ABS mode enforces)."""
    x, y = _as_float_arrays(original, reconstructed)
    return float(np.max(np.abs(x - y)))


def max_rel_error(original, reconstructed) -> float:
    """Maximum *value-range-based* relative error, ``max|err| / vr``.

    This is SZ's "value-range-based relative error" (Section II-B), not
    the pointwise-relative error of ISABELA.
    """
    vr = value_range(original)
    e = max_abs_error(original, reconstructed)
    if vr == 0.0:
        if e == 0.0:
            return 0.0
        raise ParameterError("relative error undefined: constant field")
    return e / vr


def ssim(original, reconstructed, window: int = 8) -> float:
    """Mean structural similarity over non-overlapping blocks.

    A dependency-free SSIM for n-dimensional scientific fields: the
    arrays are tiled into ``window``-sized blocks along every axis
    (axes shorter than ``window`` use their full extent; trailing
    remainders are dropped), the standard SSIM formula with
    ``C1=(0.01*L)**2`` / ``C2=(0.03*L)**2`` is evaluated per block with
    the original's value range as the dynamic range ``L``, and the
    block values are averaged.  Block tiling replaces the classic
    sliding Gaussian window, which keeps the metric exact, fast and
    deterministic without scipy.

    Returns 1.0 for a perfect reconstruction.  Raises
    :class:`ParameterError` for a constant original field with a
    non-zero error (no dynamic range to normalise by).
    """
    x, y = _as_float_arrays(original, reconstructed)
    if window < 1:
        raise ParameterError("SSIM window must be >= 1")
    vr = value_range(x)
    if vr == 0.0:
        if np.array_equal(x, y):
            return 1.0
        raise ParameterError("SSIM undefined: constant field with error")
    # Trim to block multiples and reshape to (blocks..., window...).
    shape = []
    block_axes = []
    slices = []
    for axis, n in enumerate(x.shape):
        w = min(window, n)
        slices.append(slice(0, (n // w) * w))
        shape.extend([n // w, w])
        block_axes.append(2 * axis + 1)
    xb = x[tuple(slices)].reshape(shape)
    yb = y[tuple(slices)].reshape(shape)
    axes = tuple(block_axes)
    mx = xb.mean(axis=axes)
    my = yb.mean(axis=axes)
    vx = (xb * xb).mean(axis=axes) - mx * mx
    vy = (yb * yb).mean(axis=axes) - my * my
    cov = (xb * yb).mean(axis=axes) - mx * my
    c1 = (0.01 * vr) ** 2
    c2 = (0.03 * vr) ** 2
    s = ((2.0 * mx * my + c1) * (2.0 * cov + c2)) / (
        (mx * mx + my * my + c1) * (vx + vy + c2)
    )
    return float(np.mean(s))


@dataclass(frozen=True)
class DistortionReport:
    """All distortion metrics for one (original, reconstructed) pair."""

    mse: float
    rmse: float
    nrmse: float
    psnr: float
    max_abs_error: float
    max_rel_error: float
    value_range: float

    def as_dict(self) -> Dict[str, float]:
        """Return the report as a plain dict (JSON-friendly)."""
        return asdict(self)


def fill_mask(data, fill_value: float) -> np.ndarray:
    """Boolean mask of the points of ``data`` that equal ``fill_value``
    (NaN matches NaN).

    Floating-point data is compared in its own dtype: a float32 field
    stores CESM's ``1e20`` fill as ``float32(1e20)``, which the float64
    ``1e20`` does not equal.  A sentinel the dtype cannot represent
    matches no point.
    """
    arr = np.asarray(data)
    if np.isnan(fill_value):
        return np.isnan(arr)
    if arr.dtype.kind == "f":
        with np.errstate(over="ignore"):
            sentinel = arr.dtype.type(fill_value)
        if np.isinf(sentinel):
            return np.zeros(arr.shape, dtype=bool)
        return arr == sentinel
    return arr == fill_value


def masked_distortion_report(
    original, reconstructed, fill_value: float
) -> DistortionReport:
    """Distortion over *valid* points only.

    Points equal to ``fill_value`` (or NaN when ``fill_value`` is NaN)
    in the original are excluded -- the right metric for fields
    compressed with :class:`repro.sz.SZCompressor`'s ``fill_value``
    support, where sentinels are restored exactly and must not inflate
    the value range.
    """
    x, y = _as_float_arrays(original, reconstructed)
    valid = ~fill_mask(original, fill_value)
    if not valid.any():
        raise ParameterError("no valid points: everything is fill")
    return distortion_report(x[valid], y[valid])


def distortion_report(original, reconstructed) -> DistortionReport:
    """Compute every distortion metric in one pass-friendly call."""
    x, y = _as_float_arrays(original, reconstructed)
    d = x - y
    m = float(np.mean(d * d))
    r = float(np.sqrt(m))
    vr = value_range(x)
    mx = float(np.max(np.abs(d)))
    if vr == 0.0:
        n = 0.0 if r == 0.0 else float("nan")
        mrel = 0.0 if mx == 0.0 else float("nan")
    else:
        n = r / vr
        mrel = mx / vr
    p = float("inf") if n == 0.0 else float(-20.0 * np.log10(n))
    return DistortionReport(
        mse=m,
        rmse=r,
        nrmse=n,
        psnr=p,
        max_abs_error=mx,
        max_rel_error=mrel,
        value_range=vr,
    )
