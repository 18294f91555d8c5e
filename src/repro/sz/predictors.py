"""Predictors in the integer-lattice formulation.

A predictor here is a pair of inverse integer transforms on the lattice
coordinate array ``k``:

* ``difference(k) -> q``: quantization codes (small ints near zero for
  smooth data);
* ``reconstruct(q) -> k``: the exact inverse.

The n-dimensional **Lorenzo** predictor (SZ 1.4's default, paper
Section II-A) is the composition of first-difference operators along
every axis -- so its inverse is the composition of prefix sums along
every axis (``np.cumsum``, or one slab add per index along a leading
axis with large slabs).  Both directions are whole-array NumPy
operations: compression and decompression contain no per-element Python
loop at all.

Float-domain helpers (:func:`lorenzo_predict`,
:func:`prediction_errors`) reproduce the quantities of the paper's
Figure 1 (distribution of prediction errors).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "PREDICTORS",
    "axis_difference",
    "lorenzo_difference",
    "lorenzo_reconstruct",
    "lorenzo_predict",
    "prediction_errors",
    "predictor_by_name",
    "predictor_by_id",
]


def _check_int_array(k: np.ndarray) -> np.ndarray:
    k = np.asarray(k)
    if not np.issubdtype(k.dtype, np.integer):
        raise ParameterError("lattice coordinates must be an integer array")
    if k.ndim == 0:
        raise ParameterError("0-d arrays are not supported")
    return k.astype(np.int64, copy=False)


def axis_difference(q: np.ndarray, axis: int) -> np.ndarray:
    """``np.diff(q, axis=axis, prepend=0)`` as one subtraction into a
    fresh array (``q`` is not written)."""
    out = np.empty_like(q)
    lead = (slice(None),) * axis
    np.subtract(
        q[lead + (slice(1, None),)],
        q[lead + (slice(None, -1),)],
        out=out[lead + (slice(1, None),)],
    )
    out[lead + (0,)] = q[lead + (0,)]
    return out


def lorenzo_difference(k: np.ndarray) -> np.ndarray:
    """n-D Lorenzo difference: ``q = k - pred(k)`` with zero padding.

    Equals ``diff`` with a prepended zero applied along every axis in
    turn; border points thereby degenerate to lower-dimensional Lorenzo
    and the first element carries ``k[0,...,0]`` itself.
    """
    q = _check_int_array(k)
    for axis in range(q.ndim):
        q = axis_difference(q, axis)
    return q


#: Smallest slab (elements per index of an axis) for which a prefix sum
#: along a leading axis runs as one add per index.  ``np.cumsum`` along
#: a leading axis strides by the slab for every element, so a 128**3
#: int64 inverse takes 59 ms with cumsum alone and 22 ms with adds on
#: both leading axes.  On small slabs the call per add costs more than
#: the stride saves: a 180x360 field's inverse takes 0.49 ms either with
#: cumsum alone or under this rule, and 0.70 ms with adds along axis 0.
ROW_ADD_SLAB = 1024


def _prefix_sum(v: np.ndarray, axis: int) -> None:
    """Prefix sum of the int64 array ``v`` along ``axis``, in place: one
    add per index along a leading axis with a large slab, else
    ``np.cumsum``.  Integer adds are exact, so both give the same
    values."""
    n = v.shape[axis]
    if axis == v.ndim - 1 or v.size < ROW_ADD_SLAB * n:
        np.cumsum(v, axis=axis, out=v)
        return
    rows = np.moveaxis(v, axis, 0)
    for i in range(1, n):
        np.add(rows[i], rows[i - 1], out=rows[i])


def lorenzo_reconstruct(q: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`lorenzo_difference`: a prefix sum along
    each axis."""
    k = _check_int_array(q)
    out = k.astype(np.int64, copy=True)
    for axis in range(out.ndim):
        _prefix_sum(out, axis)
    return out


def _flat_difference(k: np.ndarray) -> np.ndarray:
    """1-D Lorenzo over row-major order regardless of array rank."""
    k = _check_int_array(k)
    return axis_difference(k.ravel(), 0).reshape(k.shape)


def _flat_reconstruct(q: np.ndarray) -> np.ndarray:
    q = _check_int_array(q)
    return np.cumsum(q.ravel()).reshape(q.shape)


def _identity_difference(k: np.ndarray) -> np.ndarray:
    """No prediction: codes are the raw lattice coordinates."""
    return _check_int_array(k).copy()


def _identity_reconstruct(q: np.ndarray) -> np.ndarray:
    return _check_int_array(q).copy()


def _lorenzo2_difference(k: np.ndarray) -> np.ndarray:
    """Second-order Lorenzo: the squared difference operator per axis.

    In 1-D the prediction is the linear extrapolation
    ``2*x[i-1] - x[i-2]`` (coefficients sum to 1, so the lattice
    argument of :mod:`repro.sz.quantizer` applies unchanged); SZ 1.4
    offers this as its higher-order Lorenzo variant.  Exact on fields
    with linear trends per axis; noisier on rough data (it amplifies
    noise 3x per axis), which is why it is an option, not the default.
    """
    q = _check_int_array(k)
    for axis in range(q.ndim):
        q = axis_difference(axis_difference(q, axis), axis)
    return q


def _lorenzo2_reconstruct(q: np.ndarray) -> np.ndarray:
    k = _check_int_array(q).astype(np.int64, copy=True)
    for axis in range(k.ndim):
        _prefix_sum(k, axis)
        _prefix_sum(k, axis)
    return k


#: name -> (numeric id, difference fn, reconstruct fn).  The numeric id
#: is what the container header stores.
PREDICTORS: Dict[str, Tuple[int, Callable, Callable]] = {
    "lorenzo": (0, lorenzo_difference, lorenzo_reconstruct),
    "lorenzo1d": (1, _flat_difference, _flat_reconstruct),
    "none": (2, _identity_difference, _identity_reconstruct),
    "lorenzo2": (3, _lorenzo2_difference, _lorenzo2_reconstruct),
}

_BY_ID = {pid: (name, diff, rec) for name, (pid, diff, rec) in PREDICTORS.items()}


def predictor_by_name(name: str) -> Tuple[int, Callable, Callable]:
    """Look up ``(id, difference, reconstruct)`` by predictor name."""
    if name not in PREDICTORS:
        raise ParameterError(
            f"unknown predictor {name!r}; choose from {sorted(PREDICTORS)}"
        )
    return PREDICTORS[name]


def predictor_by_id(pid: int) -> Tuple[str, Callable, Callable]:
    """Look up ``(name, difference, reconstruct)`` by numeric id."""
    if pid not in _BY_ID:
        raise ParameterError(f"unknown predictor id {pid}")
    return _BY_ID[pid]


# -- float-domain helpers (analysis / Figure 1) ------------------------


def lorenzo_predict(data: np.ndarray) -> np.ndarray:
    """Lorenzo prediction of every element from its *original* preceding
    neighbours (zero outside the array).

    This is the analysis-side quantity: the real compressor predicts
    from reconstructed values, but for estimating the prediction-error
    distribution (Figure 1) the original-data prediction is the standard
    eb-independent proxy.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim == 0:
        raise ParameterError("0-d arrays are not supported")
    d = x.copy()
    for axis in range(x.ndim):
        d = np.diff(d, axis=axis, prepend=0.0)
    return x - d


def prediction_errors(data: np.ndarray) -> np.ndarray:
    """Prediction errors ``X - pred(X)`` of the Lorenzo predictor.

    The histogram of this array is the blue area of the paper's
    Figure 1.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim == 0:
        raise ParameterError("0-d arrays are not supported")
    d = x.copy()
    for axis in range(x.ndim):
        d = np.diff(d, axis=axis, prepend=0.0)
    return d
