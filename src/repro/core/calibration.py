"""Refined error-bound derivation for low-PSNR targets (future work).

Why the closed form drifts at low targets
-----------------------------------------
Eq. 6 models the quantization error as uniform on ``[-eb, +eb]``.  For
a prediction-based codec with midpoint reconstruction the reconstructed
values live on the lattice ``anchor + 2*eb*Z`` (see
:mod:`repro.sz.quantizer`), so the *actual* pointwise error is the
"phase" of each value on that lattice.  With narrow bins the phase is
equidistributed and the uniform model is excellent -- the paper's
Table II at 60-120 dB.  With bins that are a sizeable fraction of the
value range (20-40 dB targets: a handful of bins across the whole
range) the phase distribution follows the data distribution, and the
measured PSNR deviates by several dB, usually upward -- exactly the
low-quality degradation the paper reports and defers to future work.

The refinement implemented here replaces the uniform assumption with
the **measured lattice-phase MSE of the field itself**: pick the bin
size whose empirical snap error hits the target MSE.  For this
package's SZ codec the reconstruction *is* the lattice snap, so the
estimator is exact up to subsampling noise, at every target.

A second, analysis-grade estimator based on the prediction-error
histogram (Eq. 3 with an empirical ``P``) lives in
:class:`repro.core.psnr_model.QuantizationModel`; it is what Figure 1
visualises.
"""

from __future__ import annotations

import numpy as np

from repro.core.fixed_psnr import psnr_to_relative_bound
from repro.core.psnr_model import psnr_to_mse
from repro.errors import ParameterError
from repro.metrics.distortion import fill_mask

__all__ = [
    "empirical_quantization_mse",
    "lattice_phase_mse",
    "refined_absolute_bound",
    "refined_relative_bound",
]

#: Sample size used during calibration; keeps the bisection cheap on
#: huge fields without hurting the estimate.
DEFAULT_SAMPLE = 1 << 18


def empirical_quantization_mse(samples: np.ndarray, delta: float) -> float:
    """Measured MSE of a zero-centred uniform midpoint quantizer.

    ``q(x) = delta * rint(x/delta)``; returns ``mean((x - q(x))**2)``.
    This is the exact second-stage distortion of Theorem 1 for a given
    quantizer-input sample (prediction errors or transform
    coefficients).
    """
    if delta <= 0 or not np.isfinite(delta):
        raise ParameterError("delta must be positive and finite")
    s = np.asarray(samples, dtype=np.float64).ravel()
    if s.size == 0:
        raise ParameterError("need at least one sample")
    err = s - delta * np.rint(s / delta)
    return float(np.mean(err * err))


def lattice_phase_mse(values: np.ndarray, anchor: float, delta: float) -> float:
    """Measured MSE of snapping ``values`` to the lattice
    ``anchor + delta*Z`` -- the exact reconstruction error of the SZ
    codec in this package."""
    if delta <= 0 or not np.isfinite(delta):
        raise ParameterError("delta must be positive and finite")
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ParameterError("need at least one value")
    err = (v - anchor) - delta * np.rint((v - anchor) / delta)
    return float(np.mean(err * err))


def _subsample(x: np.ndarray, limit: int, seed: int = 0) -> np.ndarray:
    flat = np.asarray(x, dtype=np.float64).ravel()
    if flat.size <= limit:
        return flat
    rng = np.random.default_rng(seed)
    return flat[rng.choice(flat.size, size=limit, replace=False)]


def _drop_fill(data, fill_value) -> np.ndarray:
    """``data`` as float64, without its sentinel/fill points (matched
    in the input's own dtype, see :func:`repro.metrics.fill_mask`)."""
    x = np.asarray(data, dtype=np.float64)
    if fill_value is None:
        return x
    return x[~fill_mask(data, fill_value)]


def refined_absolute_bound(
    data,
    target_psnr: float,
    sample_limit: int = DEFAULT_SAMPLE,
    max_iterations: int = 80,
    fill_value=None,
) -> float:
    """Absolute error bound whose *measured* lattice-phase MSE on this
    field equals the target PSNR's MSE.

    Strategy: start from the closed-form bound (Eq. 8), bracket the
    target MSE on a geometric grid (the phase MSE saturates at
    ``mean((x-anchor)**2)`` once a single bin swallows the data; it is
    noisy-monotone below saturation), then bisect geometrically.  Falls
    back to the closed form when the target is beyond saturation.
    """
    x = _drop_fill(data, fill_value)
    if x.size == 0:
        raise ParameterError("data must be non-empty (after fill removal)")
    vr = float(x.max() - x.min())
    if vr == 0.0:
        raise ParameterError("refined bound undefined for a constant field")
    anchor = float(x.flat[0])
    target_mse = psnr_to_mse(target_psnr, vr)
    sample = _subsample(x, sample_limit)

    closed_form = psnr_to_relative_bound(target_psnr) * vr

    def f(eb: float) -> float:
        return lattice_phase_mse(sample, anchor, 2.0 * eb)

    saturation = float(np.mean((sample - anchor) ** 2))
    if target_mse >= saturation:
        return closed_form

    lo = closed_form / 16.0
    if f(lo) >= target_mse:
        # Even tiny bins overshoot on this sample (degenerate data,
        # e.g. values already on a coarse grid): the closed form is as
        # good as anything.
        return closed_form
    hi = closed_form
    grow = 0
    while f(hi) < target_mse:
        hi *= 2.0
        grow += 1
        if grow > 60:
            return closed_form
    for _ in range(max_iterations):
        mid = float(np.sqrt(lo * hi))
        if f(mid) < target_mse:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return float(np.sqrt(lo * hi))


def refined_relative_bound(
    data,
    target_psnr: float,
    sample_limit: int = DEFAULT_SAMPLE,
    fill_value=None,
) -> float:
    """Value-range-relative version of :func:`refined_absolute_bound`."""
    x = _drop_fill(data, fill_value)
    if x.size == 0:
        raise ParameterError("data must be non-empty (after fill removal)")
    vr = float(x.max() - x.min())
    if vr == 0.0:
        raise ParameterError("refined bound undefined for a constant field")
    return (
        refined_absolute_bound(
            data, target_psnr, sample_limit, fill_value=fill_value
        )
        / vr
    )
