"""Codec factory: one place that maps a codec name to a compressor.

The same dispatch used to live in three places (the fixed-PSNR
pipeline, the CLI and now the autotune objective layer); this module
is the single registry they all share.  Every codec listed here is an
error-bounded compressor taking ``error_bound``/``mode`` and exposing
``compress(data) -> bytes``; decompression is format-dispatched by
:func:`repro.sz.compressor.decompress` for all of them.
"""

from __future__ import annotations

import importlib
from typing import Tuple

from repro.errors import ParameterError

__all__ = ["ERROR_BOUNDED_CODECS", "make_compressor"]

#: Codec name -> (module, class) of the error-bounded compressors (the
#: embedded codec is rate-driven and lives outside this family).
_COMPRESSORS = {
    "sz": ("repro.sz.compressor", "SZCompressor"),
    "transform": ("repro.transform.compressor", "TransformCompressor"),
    "regression": ("repro.sz.regression", "RegressionCompressor"),
    "hybrid": ("repro.sz.hybrid", "HybridCompressor"),
    "interp": ("repro.sz.interp", "InterpolationCompressor"),
}

#: Codec names accepted by :func:`make_compressor`.
ERROR_BOUNDED_CODECS: Tuple[str, ...] = tuple(_COMPRESSORS)


def make_compressor(
    codec: str, error_bound: float, mode: str = "rel", **options
):
    """Instantiate the named error-bounded compressor.

    Parameters
    ----------
    codec:
        One of :data:`ERROR_BOUNDED_CODECS`.
    error_bound, mode:
        Forwarded to the compressor (``mode`` is ``"abs"``/``"rel"``,
        plus ``"pw_rel"`` for the sz codec).
    **options:
        Codec-specific keyword options (predictor, block size, fill
        value, ...).

    Imports are local so instantiating one codec never pays for the
    others (the CLI and worker processes rely on that).
    """
    if codec not in _COMPRESSORS:
        raise ParameterError(
            f"unknown codec {codec!r}; use one of {', '.join(ERROR_BOUNDED_CODECS)}"
        )
    module, name = _COMPRESSORS[codec]
    cls = getattr(importlib.import_module(module), name)
    return cls(error_bound=error_bound, mode=mode, **options)
