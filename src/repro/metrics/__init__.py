"""Rate/distortion metrics used throughout the paper's evaluation."""

from repro.metrics.distortion import (
    mse,
    rmse,
    nrmse,
    psnr,
    max_abs_error,
    max_rel_error,
    value_range,
    DistortionReport,
    distortion_report,
    fill_mask,
    masked_distortion_report,
)
from repro.metrics.ratio import compression_ratio, bit_rate, RateReport, rate_report
from repro.metrics.analysis import (
    error_field,
    error_autocorrelation,
    error_uniformity,
    ErrorProfile,
    error_profile,
    rate_distortion_curve,
)
from repro.metrics.spectral import (
    power_spectrum,
    spectral_fidelity,
    fidelity_cutoff,
)
from repro.metrics.derived import gradient, divergence, vorticity_z, derived_psnr

__all__ = [
    "error_field",
    "error_autocorrelation",
    "error_uniformity",
    "ErrorProfile",
    "error_profile",
    "rate_distortion_curve",
    "power_spectrum",
    "spectral_fidelity",
    "fidelity_cutoff",
    "gradient",
    "divergence",
    "vorticity_z",
    "derived_psnr",
    "mse",
    "rmse",
    "nrmse",
    "psnr",
    "max_abs_error",
    "max_rel_error",
    "value_range",
    "DistortionReport",
    "distortion_report",
    "fill_mask",
    "masked_distortion_report",
    "compression_ratio",
    "bit_rate",
    "RateReport",
    "rate_report",
]
