"""Spectral synthesis of Gaussian random fields (GRFs).

The workhorse of all three synthetic data sets: draw white noise in
Fourier space, shape its amplitude by a power-law spectrum
``|k|^(-slope/2)``, and transform back.  Larger ``slope`` means more
energy at large scales, i.e. smoother fields; climate-like scalar
fields sit around slope 3-4, turbulent velocity components nearer 2,
and nearly-white measurement-noise fields at 0-1.

Everything is plain ``numpy.fft`` on float64 and fully vectorized.  A
256x512 field still takes about 25 ms to synthesise (a 180x360 ATM
field 10-40 ms), longer than sz takes to compress it, which is why
sweep and service workers load named fields through the per-process
cache in :mod:`repro.datasets.source`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = ["gaussian_random_field", "radial_coordinates"]


def radial_coordinates(shape: Sequence[int]) -> np.ndarray:
    """Distance of every grid point from the domain centre, normalised
    so the nearest domain edge is at radius 1."""
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ParameterError("all extents must be >= 1")
    axes = [
        (np.arange(s, dtype=np.float64) - (s - 1) / 2.0) / max((s - 1) / 2.0, 1.0)
        for s in shape
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(g * g for g in grids))


def gaussian_random_field(
    shape: Sequence[int],
    slope: float = 3.0,
    seed: int = 0,
    anisotropy: Optional[Tuple[float, ...]] = None,
) -> np.ndarray:
    """Synthesize a zero-mean, unit-variance GRF with spectrum
    ``P(k) ~ |k|^(-slope)``.

    Parameters
    ----------
    shape:
        Grid extents (any dimensionality >= 1).
    slope:
        Spectral slope; 0 is white noise, 3-4 gives smooth
        geophysical-looking fields.
    seed:
        Deterministic RNG seed.
    anisotropy:
        Optional per-axis wavenumber stretch factors; values > 1
        compress structure along that axis (e.g. atmospheric layering:
        stretch the vertical axis).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise ParameterError("shape must be non-empty with positive extents")
    if anisotropy is not None and len(anisotropy) != len(shape):
        raise ParameterError("anisotropy needs one factor per axis")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(shape)
    spectrum = np.fft.fftn(noise)

    freqs = []
    for axis, s in enumerate(shape):
        f = np.fft.fftfreq(s)
        if anisotropy is not None:
            f = f * float(anisotropy[axis])
        freqs.append(f)
    grids = np.meshgrid(*freqs, indexing="ij")
    k2 = sum(g * g for g in grids)
    # Avoid the k=0 singularity; the DC mode is zeroed below anyway.
    k2[(0,) * len(shape)] = 1.0
    amplitude = k2 ** (-slope / 4.0)  # sqrt of the power spectrum
    amplitude[(0,) * len(shape)] = 0.0

    field = np.real(np.fft.ifftn(spectrum * amplitude))
    std = field.std()
    if std == 0.0:
        return np.zeros(shape)
    return (field - field.mean()) / std
