"""Statistical analysis of compression errors.

Beyond scalar distortion numbers, lossy-compression papers (including
the SZ line) examine the *structure* of the error field: its
distribution (the paper's model assumes uniform in ``[-eb, +eb]``),
its spatial autocorrelation (artifact detection -- uncorrelated error
is what post-analysis wants), and full rate-distortion curves.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "error_field",
    "error_autocorrelation",
    "error_uniformity",
    "ErrorProfile",
    "error_profile",
    "rate_distortion_curve",
]


def error_field(original, reconstructed) -> np.ndarray:
    """Pointwise error ``X - X~`` as float64."""
    x = np.asarray(original, dtype=np.float64)
    y = np.asarray(reconstructed, dtype=np.float64)
    if x.shape != y.shape:
        raise ParameterError("shape mismatch")
    if x.size == 0:
        raise ParameterError("empty arrays")
    return x - y


def error_autocorrelation(
    original, reconstructed, max_lag: int = 8, axis: int = -1
) -> np.ndarray:
    """Autocorrelation of the error field along ``axis`` for lags
    ``1..max_lag``.

    Values near zero mean the compressor did not imprint spatial
    structure on the error (the ideal); values near one mean smeared,
    blocky artifacts.
    """
    if max_lag < 1:
        raise ParameterError("max_lag must be >= 1")
    e = error_field(original, reconstructed)
    e = np.moveaxis(e, axis, -1)
    n = e.shape[-1]
    if n <= max_lag:
        raise ParameterError(f"axis too short ({n}) for max_lag={max_lag}")
    e = e - e.mean()
    denom = float(np.sum(e * e))
    if denom == 0.0:
        return np.zeros(max_lag)
    acf = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        acf[lag - 1] = float(np.sum(e[..., lag:] * e[..., :-lag])) / denom
    return acf


def error_uniformity(original, reconstructed, eb: float) -> float:
    """Kolmogorov-Smirnov p-value for ``error ~ Uniform(-eb, +eb)``.

    The paper's Eq. 6 rests on this uniformity; a tiny p-value flags a
    field whose measured PSNR will deviate from the closed form (mass
    concentrations, saturated plateaus, ...).  Note that on large
    fields even small model deviations give small p-values -- compare
    magnitudes, not significance thresholds.
    """
    from scipy import stats  # ~1.4 s to import; keep it off `import repro`

    if eb <= 0:
        raise ParameterError("eb must be positive")
    e = error_field(original, reconstructed).ravel()
    return float(stats.kstest(e, stats.uniform(loc=-eb, scale=2 * eb).cdf).pvalue)


@dataclass(frozen=True)
class ErrorProfile:
    """Summary statistics of one error field."""

    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    fraction_exact: float
    autocorrelation_lag1: float

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly representation."""
        return asdict(self)


def error_profile(original, reconstructed) -> ErrorProfile:
    """Compute an :class:`ErrorProfile` for a reconstruction.

    For a healthy uniform-quantization codec: mean ~ 0, excess
    kurtosis ~ -1.2 (uniform), low |lag-1 autocorrelation|.
    """
    from scipy import stats  # see error_uniformity

    e = error_field(original, reconstructed).ravel()
    std = float(e.std())
    if std == 0.0:
        return ErrorProfile(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    lag1 = float(error_autocorrelation(original, reconstructed, max_lag=1)[0])
    return ErrorProfile(
        mean=float(e.mean()),
        std=std,
        skewness=float(stats.skew(e)),
        excess_kurtosis=float(stats.kurtosis(e)),
        fraction_exact=float(np.mean(e == 0.0)),
        autocorrelation_lag1=lag1,
    )


def rate_distortion_curve(
    data: np.ndarray,
    compress_fn: Callable[[np.ndarray, float], bytes],
    decompress_fn: Callable[[bytes], np.ndarray],
    bounds: Sequence[float],
) -> List[Dict[str, float]]:
    """Sweep ``bounds`` through a codec and collect (bit-rate, PSNR,
    compression-ratio) points.

    ``compress_fn(data, bound)`` must return the compressed bytes.
    """
    from repro.metrics.distortion import psnr as _psnr

    data = np.asarray(data)
    if data.size == 0:
        raise ParameterError("empty data")
    if not bounds:
        raise ParameterError("need at least one bound")
    points = []
    for bound in bounds:
        blob = compress_fn(data, float(bound))
        recon = decompress_fn(blob)
        points.append(
            {
                "bound": float(bound),
                "bit_rate": 8.0 * len(blob) / data.size,
                "compression_ratio": data.nbytes / len(blob),
                "psnr": float(_psnr(data, recon)),
            }
        )
    return points
