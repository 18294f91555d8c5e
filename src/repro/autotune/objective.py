"""Trial objectives: what a trial compression measures, and how.

An *objective* turns one ``(data, eb_rel)`` pair into a measured
:class:`Trial` by actually running a codec from the error-bounded
family (:mod:`repro.core.codecs`), taking the reconstruction
(:func:`repro.sz.compressor.reconstruction`: the lattice snap for sz,
a decode for the other codecs), and reading off the quantity being
tuned.  The searcher (:mod:`repro.autotune.search`)
only ever sees the scalar ``Trial.value``; everything else rides along
for reporting and warm starts.

Built-in objectives (the FRaZ / dynamic-quality-metric set):

========== ============================== ====================
name       value                          monotone in eb_rel
========== ============================== ====================
ratio      compression ratio              increasing
bitrate    bits per value                 decreasing
psnr       achieved PSNR (dB)             decreasing
nrmse      achieved NRMSE                 increasing
mse        achieved MSE                   increasing
ssim       block SSIM                     decreasing
max_error  max pointwise absolute error   increasing
========== ============================== ====================

Arbitrary quality metrics (arXiv:2310.14133's generalization) plug in
via :class:`MetricObjective` with any ``metric(original, recon) ->
float`` callable; declare its monotone direction if known, else the
search falls back to the derivative-free global path.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, Optional

import numpy as np

import repro.observe as observe
from repro.core.codecs import make_compressor
from repro.errors import ParameterError
from repro.metrics.distortion import distortion_report, ssim as _ssim
from repro.sz.compressor import reconstruction

__all__ = [
    "Trial",
    "Objective",
    "MetricObjective",
    "BUILTIN_OBJECTIVES",
    "get_objective",
]


@dataclass(frozen=True)
class Trial:
    """One trial compression's measurements.

    ``value`` is the objective's own reading; the standard rate and
    distortion numbers are always populated so a converged search can
    report them without recompressing.  ``blob`` (the compressed
    container) is retained only when the evaluator was asked to keep
    it; it is excluded from equality so trials compare by outcome.
    """

    eb_rel: float
    value: float
    ratio: float
    bit_rate: float
    psnr: float
    nrmse: float
    max_abs_error: float
    raw_bytes: int
    compressed_bytes: int
    cached: bool = False
    blob: Optional[bytes] = dc_field(default=None, compare=False, repr=False)

    def as_dict(self) -> Dict:
        """JSON-friendly representation (without the payload)."""
        return {
            "eb_rel": self.eb_rel,
            "value": self.value,
            "ratio": self.ratio,
            "bit_rate": self.bit_rate,
            "psnr": self.psnr,
            "nrmse": self.nrmse,
            "max_abs_error": self.max_abs_error,
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
            "cached": self.cached,
        }

    def replace(self, **changes) -> "Trial":
        """Dataclass-style copy with field overrides."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


class Objective:
    """Base objective: run a codec trial and measure one quantity.

    Subclasses (or instances constructed via :func:`get_objective`) set

    ``name``
        Stable identifier (ledger records and cache keys use it).
    ``increasing``
        Monotone direction of ``value`` in ``eb_rel``: ``True``,
        ``False``, or ``None`` when unknown (global search path).
    ``target``
        The value the search should reach.

    The evaluation protocol is duck-typed -- anything with ``name``,
    ``increasing``, ``target`` and ``evaluate(data, eb_rel)`` works,
    so tests substitute synthetic objectives freely.
    """

    name = "objective"
    increasing: Optional[bool] = None

    def __init__(self, target: float, codec: str = "sz", **codec_options):
        t = float(target)
        if not np.isfinite(t) or t <= 0:
            raise ParameterError(
                f"{self.name} target must be positive and finite, got {target}"
            )
        self.target = t
        self.codec = codec
        self.codec_options = dict(codec_options)
        # Fail fast on an unknown codec, not at the first trial.
        make_compressor(codec, 1e-3, mode="rel", **codec_options)

    # -- measurement ----------------------------------------------------

    def measure(self, data, recon, blob: bytes, report) -> float:
        """The objective's scalar reading for one finished trial.
        ``report`` is the precomputed :class:`DistortionReport`."""
        raise NotImplementedError

    def evaluate(self, data, eb_rel: float, keep_blob: bool = False) -> Trial:
        """Run one trial compression at ``eb_rel`` and measure it.

        Each trial is a traced ``autotune.trial`` span carrying the
        bound and the measured value, so ``--trace`` shows the whole
        search trajectory stage by stage.
        """
        if eb_rel <= 0 or not np.isfinite(eb_rel):
            raise ParameterError(f"trial bound must be positive, got {eb_rel}")
        trace = observe.current_trace()
        with trace.span("autotune.trial") as sp:
            comp = make_compressor(
                self.codec, eb_rel, mode="rel", **self.codec_options
            )
            blob = comp.compress(data)
            recon = reconstruction(data, blob)
            rep = distortion_report(data, recon)
            value = float(self.measure(data, recon, blob, rep))
            if trace.enabled:
                sp.set("eb_rel", float(eb_rel))
                sp.set("value", value)
                sp.add_bytes("compressed", len(blob))
        return Trial(
            eb_rel=float(eb_rel),
            value=value,
            ratio=data.nbytes / len(blob),
            bit_rate=8.0 * len(blob) / data.size,
            psnr=rep.psnr,
            nrmse=rep.nrmse,
            max_abs_error=rep.max_abs_error,
            raw_bytes=int(data.nbytes),
            compressed_bytes=len(blob),
            blob=blob if keep_blob else None,
        )

    # -- warm starts ----------------------------------------------------

    def default_guess(self, data) -> float:
        """Model-based initial bound when no prior runs exist.

        The generic fallback is a mid-range bound; rate-targeted
        subclasses override this with the Eq. 8 route (target rate ->
        bits/value -> PSNR -> bound).
        """
        return 1e-4

    def spec(self) -> Dict:
        """Picklable description (parallel probes rebuild from this)."""
        return {
            "name": self.name,
            "target": self.target,
            "codec": self.codec,
            "codec_options": dict(self.codec_options),
        }


def _rate_guess_eb(data, bits_per_value: float) -> float:
    """Eq. 8 warm start for rate targets: assume ~6.02 dB of PSNR per
    coded bit (the uniform-quantizer high-rate slope, Eq. 6), convert
    the implied PSNR to a bound with Eq. 8, and clamp to the search
    interval."""
    from repro.core.fixed_psnr import (
        MAX_TARGET_PSNR,
        MIN_TARGET_PSNR,
        psnr_to_relative_bound,
    )

    psnr_guess = 6.02 * max(0.25, bits_per_value)
    psnr_guess = min(MAX_TARGET_PSNR - 1.0, max(MIN_TARGET_PSNR + 1.0, psnr_guess))
    return psnr_to_relative_bound(psnr_guess)


class RatioObjective(Objective):
    """Fixed compression ratio (FRaZ's storage-budget mode)."""

    name = "ratio"
    increasing = True

    def measure(self, data, recon, blob, report) -> float:
        return data.nbytes / len(blob)

    def default_guess(self, data) -> float:
        return _rate_guess_eb(data, 8.0 * data.itemsize / self.target)


class BitrateObjective(Objective):
    """Fixed bits per value."""

    name = "bitrate"
    increasing = False

    def measure(self, data, recon, blob, report) -> float:
        return 8.0 * len(blob) / data.size

    def default_guess(self, data) -> float:
        return _rate_guess_eb(data, self.target)


class PSNRObjective(Objective):
    """Measured (not modelled) PSNR -- the search-based counterpart of
    the paper's closed-form Eq. 8; mostly a validation objective."""

    name = "psnr"
    increasing = False

    def measure(self, data, recon, blob, report) -> float:
        return report.psnr

    def default_guess(self, data) -> float:
        from repro.core.fixed_psnr import psnr_to_relative_bound

        return psnr_to_relative_bound(self.target)


class NRMSEObjective(Objective):
    """Measured NRMSE."""

    name = "nrmse"
    increasing = True

    def measure(self, data, recon, blob, report) -> float:
        return report.nrmse

    def default_guess(self, data) -> float:
        from repro.core.fixed_psnr import psnr_to_relative_bound
        from repro.core.psnr_model import nrmse_to_psnr

        return psnr_to_relative_bound(nrmse_to_psnr(self.target))


class MSEObjective(Objective):
    """Measured MSE."""

    name = "mse"
    increasing = True

    def measure(self, data, recon, blob, report) -> float:
        return report.mse


class SSIMObjective(Objective):
    """Block SSIM (see :func:`repro.metrics.distortion.ssim`)."""

    name = "ssim"
    increasing = False

    def __init__(self, target: float, codec: str = "sz", **codec_options):
        super().__init__(target, codec=codec, **codec_options)
        if not (0.0 < self.target <= 1.0):
            raise ParameterError("SSIM target must be in (0, 1]")

    def measure(self, data, recon, blob, report) -> float:
        return _ssim(data, recon)


class MaxErrorObjective(Objective):
    """Maximum pointwise absolute error (the classic ABS bound, but
    *measured* rather than enforced -- typically much tighter)."""

    name = "max_error"
    increasing = True

    def measure(self, data, recon, blob, report) -> float:
        return report.max_abs_error


class MetricObjective(Objective):
    """A user-supplied quality metric ``metric(original, recon) ->
    float`` (the arXiv:2310.14133 generalization).  Declare
    ``increasing`` when the metric is known to be monotone in the
    bound; leave ``None`` to use the global search path."""

    def __init__(
        self,
        target: float,
        metric: Callable,
        name: str = "custom",
        increasing: Optional[bool] = None,
        codec: str = "sz",
        **codec_options,
    ):
        if not callable(metric):
            raise ParameterError("metric must be callable(original, recon)")
        self.name = str(name)
        self.increasing = increasing
        super().__init__(target, codec=codec, **codec_options)
        self._metric = metric

    def measure(self, data, recon, blob, report) -> float:
        return float(self._metric(data, recon))


#: Built-in objective classes by stable name.
BUILTIN_OBJECTIVES = {
    "ratio": RatioObjective,
    "bitrate": BitrateObjective,
    "psnr": PSNRObjective,
    "nrmse": NRMSEObjective,
    "mse": MSEObjective,
    "ssim": SSIMObjective,
    "max_error": MaxErrorObjective,
}


def get_objective(name: str, target: float, codec: str = "sz", **options):
    """Instantiate a built-in objective by name."""
    try:
        cls = BUILTIN_OBJECTIVES[name]
    except KeyError:
        raise ParameterError(
            f"unknown objective {name!r}; "
            f"use one of {', '.join(sorted(BUILTIN_OBJECTIVES))}"
        ) from None
    return cls(target, codec=codec, **options)
