"""Unit and property tests for repro.sz.quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CompressionError, ParameterError
from repro.sz.quantizer import (
    MAX_LATTICE_COORD,
    LatticeQuantizer,
    lattice_values,
    snap_to_lattice,
)


class TestSnap:
    def test_known_values(self):
        k = snap_to_lattice(np.array([0.0, 0.9, 1.1, -1.1]), anchor=0.0, delta=1.0)
        assert k.tolist() == [0, 1, 1, -1]

    def test_anchor_maps_to_zero(self):
        k = snap_to_lattice(np.array([5.5]), anchor=5.5, delta=0.1)
        assert k.tolist() == [0]

    def test_nonpositive_delta_raises(self):
        with pytest.raises(ParameterError):
            snap_to_lattice(np.array([1.0]), 0.0, 0.0)
        with pytest.raises(ParameterError):
            snap_to_lattice(np.array([1.0]), 0.0, -1.0)

    def test_overflow_guard(self):
        with pytest.raises(CompressionError):
            snap_to_lattice(np.array([1e30]), 0.0, 1e-10)


class TestLatticeQuantizer:
    def test_error_bound_invariant(self, smooth2d):
        eb = 0.01
        quant = LatticeQuantizer(eb, anchor=float(smooth2d[0, 0]))
        _, recon = quant.roundtrip(smooth2d)
        assert np.max(np.abs(recon - smooth2d)) <= eb * (1 + 1e-12)

    def test_idempotent(self, smooth2d):
        """Quantizing an already-quantized array is the identity."""
        quant = LatticeQuantizer(0.05, anchor=float(smooth2d[0, 0]))
        k1, recon = quant.roundtrip(smooth2d)
        k2, recon2 = quant.roundtrip(recon)
        assert np.array_equal(k1, k2)
        assert np.array_equal(recon, recon2)

    def test_bad_bound_raises(self):
        with pytest.raises(ParameterError):
            LatticeQuantizer(0.0, 0.0)
        with pytest.raises(ParameterError):
            LatticeQuantizer(float("nan"), 0.0)

    def test_bad_anchor_raises(self):
        with pytest.raises(ParameterError):
            LatticeQuantizer(1.0, float("inf"))

    def test_dequantize_inverse(self):
        quant = LatticeQuantizer(0.5, anchor=2.0)
        k = np.array([-3, 0, 7], dtype=np.int64)
        vals = quant.dequantize(k)
        assert vals.tolist() == [2.0 - 3.0, 2.0, 2.0 + 7.0]

    def test_lattice_values_helper(self):
        assert lattice_values(np.array([2]), 1.0, 0.25).tolist() == [1.5]


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=10),
        elements=st.floats(-1e5, 1e5),
    ),
    st.floats(1e-6, 1e3),
)
def test_snap_error_bound_property(data, eb):
    """Every reconstructed value is within eb of the original."""
    anchor = float(data.flat[0])
    quant = LatticeQuantizer(eb, anchor)
    _, recon = quant.roundtrip(data)
    assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9) + 1e-12


def _reference_snap(data, anchor, delta):
    """The expression snap_to_lattice replaced, its range check
    included."""
    k = np.rint((np.asarray(data, dtype=np.float64) - anchor) / delta)
    if np.abs(k).max(initial=0.0) > MAX_LATTICE_COORD:
        raise CompressionError("out of range")
    return k.astype(np.int64)


def _snap_outcome(fn, *args):
    try:
        return fn(*args)
    except CompressionError:
        return CompressionError


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.float32, np.float64]),
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
        elements=st.floats(-1e6, 1e6, width=32),
    ),
    st.floats(-1e3, 1e3),
    st.floats(1e-12, 1e3),
)
def test_snap_matches_reference_expression(data, anchor, delta):
    """Same coordinates, or the same range error, as the old expression
    on float32 and float64 input (tiny deltas push past the range)."""
    want = _snap_outcome(_reference_snap, data, anchor, delta)
    got = _snap_outcome(snap_to_lattice, data, anchor, delta)
    if want is CompressionError:
        assert got is CompressionError
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("over", [0, 2])
def test_snap_range_edge(sign, over):
    """Exactly MAX_LATTICE_COORD from the anchor is allowed; one lattice
    step past it (either side) is the range error, as before."""
    data = np.array([0.0, sign * (MAX_LATTICE_COORD + over)])
    want = _snap_outcome(_reference_snap, data, 0.0, 1.0)
    got = _snap_outcome(snap_to_lattice, data, 0.0, 1.0)
    if over:
        assert want is CompressionError and got is CompressionError
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(1000,), (180, 360), (64, 64, 64)])
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_lattice_values_match_the_expression(shape, dtype):
    """The in-place multiply-then-add equals ``anchor + delta * k`` bit
    for bit, in float64 and cast to float32."""
    rng = np.random.default_rng(len(shape))
    k = rng.integers(-(2**40), 2**40, size=shape).astype(dtype)
    anchor, delta = float(rng.normal() * 1e3), float(rng.uniform(1e-7, 1e-2))
    want = anchor + delta * k.astype(np.float64)
    got = lattice_values(k, anchor, delta)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got.astype(np.float32).tobytes() == want.astype(np.float32).tobytes()
