"""Error-controlled uniform quantization via the lattice equivalence.

The exact vectorization of SZ
-----------------------------
SZ's compression loop looks inherently sequential: each point is
predicted from already-*reconstructed* neighbours, the prediction error
is quantized to a bin index, and the reconstruction feeds the next
prediction.  The following equivalence removes the dependency exactly.

With uniform bins of size ``delta = 2*eb`` and midpoint reconstruction,
``x~ = pred + delta * rint((x - pred)/delta)``.  Define the lattice
``L = {anchor + delta*k : k integer}`` anchored at the first data value
(which SZ stores exactly, so ``anchor`` is on ``L`` with ``k = 0``).
The Lorenzo predictor is an integer-coefficient combination of
neighbours whose coefficients sum to 1 (2-D: ``+1 +1 -1``; 3-D:
``+1+1+1 -1-1-1 +1``), so if every reconstructed neighbour is on ``L``
then so is the prediction, and therefore

``x~ = pred + delta * rint((x - pred)/delta)``  =  nearest point of
``L`` to ``x``  =  ``anchor + delta * rint((x - anchor)/delta)``,

independent of the predictor path.  By induction every reconstruction
is the straight lattice snap, computable for the whole array in one
vectorized expression, and the quantization codes are the (integer)
Lorenzo differences of the lattice coordinates ``k``.  Border points
degenerate to lower-dimensional Lorenzo by zero-padding ``k``, exactly
as SZ treats borders.  The sequential reference implementation in
:mod:`repro.sz.reference` verifies the equivalence bit-for-bit.

(The argument needs a consistent tie-breaking rule in ``rint``; we use
NumPy's round-half-to-even everywhere, including the reference.)
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import CompressionError, ParameterError

__all__ = ["LatticeQuantizer", "snap_to_lattice", "lattice_values"]

#: Largest |lattice coordinate| we allow; keeps int64 arithmetic exact
#: with a wide margin (Lorenzo differences multiply by at most 2**ndim).
MAX_LATTICE_COORD = 2**52


def snap_to_lattice(data: np.ndarray, anchor: float, delta: float) -> np.ndarray:
    """Return integer lattice coordinates ``k = rint((data - anchor)/delta)``."""
    if not np.isfinite(delta) or delta <= 0.0:
        raise ParameterError(f"bin size delta must be positive, got {delta}")
    # The subtraction casts to float64 as it goes; the division and the
    # rounding then work in place.
    k = np.subtract(data, anchor, dtype=np.float64)
    np.divide(k, delta, out=k)
    np.rint(k, out=k)
    if (
        k.min(initial=0.0) < -MAX_LATTICE_COORD
        or k.max(initial=0.0) > MAX_LATTICE_COORD
    ):
        raise CompressionError(
            "error bound too small relative to the value range: lattice "
            "coordinates exceed exact-integer range"
        )
    return k.astype(np.int64)


def lattice_values(k: np.ndarray, anchor: float, delta: float) -> np.ndarray:
    """Map lattice coordinates back to values, ``anchor + delta*k``: the
    same multiply, then add, on one float64 copy."""
    out = np.array(k, dtype=np.float64)
    out *= delta
    out += anchor
    return out


class LatticeQuantizer:
    """Uniform quantizer with bin size ``delta = 2*eb`` on a value lattice.

    Parameters
    ----------
    error_bound:
        Absolute error bound ``eb``; every reconstructed value is within
        ``eb`` of the original (up to one float64 ulp).
    anchor:
        The lattice origin; by convention the first value of the array.
    """

    def __init__(self, error_bound: float, anchor: float) -> None:
        if not np.isfinite(error_bound) or error_bound <= 0.0:
            raise ParameterError(f"error bound must be positive, got {error_bound}")
        if not np.isfinite(anchor):
            raise ParameterError("anchor must be finite")
        self.error_bound = float(error_bound)
        self.delta = 2.0 * float(error_bound)
        self.anchor = float(anchor)

    def quantize(self, data: np.ndarray) -> np.ndarray:
        """Snap ``data`` to the lattice; returns int64 coordinates."""
        return snap_to_lattice(data, self.anchor, self.delta)

    def dequantize(self, k: np.ndarray) -> np.ndarray:
        """Reconstruct float64 values from lattice coordinates."""
        return lattice_values(k, self.anchor, self.delta)

    def roundtrip(self, data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Quantize and reconstruct in one call: ``(k, x~)``."""
        k = self.quantize(data)
        return k, self.dequantize(k)
