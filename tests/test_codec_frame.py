"""The error-bounded codec frame: one set of constructor checks.

sz, transform, regression, hybrid, interp and legacy share their
argument checks through :class:`repro.encoding.codes.ErrorBoundedCodec`;
each keeps only its own.  These tests cross the six codecs on the
shared checks, keep each codec's own checks, and pin every
constructor's signature.
"""

import inspect

import pytest

from repro.errors import ParameterError
from repro.sz.compressor import SZCompressor
from repro.sz.hybrid import HybridCompressor
from repro.sz.interp import InterpolationCompressor
from repro.sz.legacy import Sz11Compressor
from repro.sz.regression import RegressionCompressor
from repro.transform.compressor import TransformCompressor

CODECS = [
    SZCompressor,
    TransformCompressor,
    RegressionCompressor,
    HybridCompressor,
    InterpolationCompressor,
    Sz11Compressor,
]

#: Each constructor's signature, as recorded before the frame existed
#: (sz's without the ``entropy`` option, gone with the rANS encoder).
SIGNATURES = {
    SZCompressor: (
        "(error_bound: 'float' = 0.0001, mode: 'str' = 'abs', "
        "predictor: 'str' = 'lorenzo', lossless: 'str' = 'zlib', "
        "lossless_level: 'int' = 6, quantization_radius: 'int' = 32767, "
        "fill_value: 'Optional[float]' = None) -> 'None'"
    ),
    TransformCompressor: (
        "(error_bound: 'float' = 0.0001, mode: 'str' = 'abs', "
        "block_size: 'int' = 8, lossless: 'str' = 'zlib', "
        "lossless_level: 'int' = 6, quantization_radius: 'int' = 32767, "
        "transform: 'str' = 'dct') -> 'None'"
    ),
    RegressionCompressor: (
        "(error_bound: 'float' = 0.0001, mode: 'str' = 'abs', "
        "block_size: 'int' = 8, lossless: 'str' = 'zlib', "
        "lossless_level: 'int' = 6, quantization_radius: 'int' = 32767) "
        "-> 'None'"
    ),
    HybridCompressor: (
        "(error_bound: 'float' = 0.0001, mode: 'str' = 'abs', "
        "block_size: 'int' = 8, lossless: 'str' = 'zlib', "
        "lossless_level: 'int' = 6, quantization_radius: 'int' = 32767) "
        "-> 'None'"
    ),
    InterpolationCompressor: (
        "(error_bound: 'float' = 0.0001, mode: 'str' = 'abs', "
        "interpolator: 'str' = 'cubic', lossless: 'str' = 'zlib', "
        "lossless_level: 'int' = 6, quantization_radius: 'int' = 32767) "
        "-> 'None'"
    ),
    Sz11Compressor: (
        "(error_bound: 'float' = 0.0001, mode: 'str' = 'abs', "
        "lossless: 'str' = 'zlib', lossless_level: 'int' = 6, "
        "quantization_radius: 'int' = 32767) -> 'None'"
    ),
}


def _ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CODECS, ids=_ids)
@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "bogus"},
        {"error_bound": float("nan")},
        {"error_bound": 0.0},
        {"error_bound": -1e-3},
        {"quantization_radius": 0},
        {"lossless": "bogus"},
    ],
    ids=["mode", "nan-bound", "zero-bound", "negative-bound", "radius",
         "lossless"],
)
def test_shared_checks(cls, kwargs):
    with pytest.raises(ParameterError):
        cls(**kwargs)


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (TransformCompressor, {"block_size": 1}),
        (RegressionCompressor, {"block_size": 1}),
        (HybridCompressor, {"block_size": 1}),
        (SZCompressor, {"mode": "pw_rel", "error_bound": 1.0}),
        (SZCompressor, {"predictor": "bogus"}),
        (SZCompressor, {"fill_value": float("inf")}),
        (InterpolationCompressor, {"interpolator": "bogus"}),
        (TransformCompressor, {"transform": "bogus"}),
        (TransformCompressor, {"transform": "haar", "block_size": 6}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_codec_specific_checks(cls, kwargs):
    with pytest.raises(ParameterError):
        cls(**kwargs)


def test_only_sz_takes_pointwise_bounds():
    SZCompressor(1e-2, mode="pw_rel")
    for cls in CODECS[1:]:
        with pytest.raises(ParameterError):
            cls(1e-2, mode="pw_rel")


@pytest.mark.parametrize("cls", CODECS, ids=_ids)
def test_signature_is_unchanged(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
