"""Unit and property tests for repro.sz.predictors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ParameterError
from repro.sz.predictors import (
    PREDICTORS,
    lorenzo_difference,
    lorenzo_predict,
    lorenzo_reconstruct,
    prediction_errors,
    predictor_by_id,
    predictor_by_name,
)


class TestLorenzoDifference:
    def test_1d_is_diff(self):
        k = np.array([3, 5, 4, 4], dtype=np.int64)
        assert lorenzo_difference(k).tolist() == [3, 2, -1, 0]

    def test_2d_stencil(self):
        k = np.arange(12, dtype=np.int64).reshape(3, 4)
        q = lorenzo_difference(k)
        # interior: k[i,j] - k[i-1,j] - k[i,j-1] + k[i-1,j-1]
        for i in range(1, 3):
            for j in range(1, 4):
                assert q[i, j] == k[i, j] - k[i - 1, j] - k[i, j - 1] + k[i - 1, j - 1]
        # first element carries itself
        assert q[0, 0] == k[0, 0]
        # first row degenerates to 1-D
        assert q[0, 1] == k[0, 1] - k[0, 0]
        # first column degenerates to 1-D
        assert q[1, 0] == k[1, 0] - k[0, 0]

    def test_constant_array_codes_zero(self):
        k = np.full((5, 6), 9, dtype=np.int64)
        q = lorenzo_difference(k)
        assert q[0, 0] == 9
        assert np.count_nonzero(q) == 1

    def test_float_input_raises(self):
        with pytest.raises(ParameterError):
            lorenzo_difference(np.zeros((2, 2)))

    def test_0d_raises(self):
        with pytest.raises(ParameterError):
            lorenzo_difference(np.int64(3))


class TestInverses:
    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    @pytest.mark.parametrize("shape", [(17,), (7, 9), (4, 5, 6), (3, 3, 3, 3)])
    def test_reconstruct_inverts_difference(self, name, shape, rng):
        _, diff, rec = predictor_by_name(name)
        k = rng.integers(-1000, 1000, size=shape)
        assert np.array_equal(rec(diff(k)), k)

    def test_lookup_by_id_roundtrip(self):
        for name, (pid, _, _) in PREDICTORS.items():
            back_name, _, _ = predictor_by_id(pid)
            assert back_name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ParameterError):
            predictor_by_name("quadratic")

    def test_unknown_id_raises(self):
        with pytest.raises(ParameterError):
            predictor_by_id(77)


class TestFloatHelpers:
    def test_prediction_plus_error_is_identity(self, smooth2d):
        pred = lorenzo_predict(smooth2d)
        pe = prediction_errors(smooth2d)
        assert np.allclose(pred + pe, smooth2d, atol=1e-12)

    def test_smooth_data_has_small_errors(self, smooth2d):
        pe = prediction_errors(smooth2d)
        interior = pe[1:, 1:]
        # Lorenzo on a double cumsum of unit noise: errors ~ the noise.
        assert np.abs(interior).max() < np.abs(smooth2d).max()
        assert interior.std() < smooth2d.std()

    def test_linear_field_predicted_exactly(self):
        """Lorenzo is exact on (multi)linear fields (interior points)."""
        i, j = np.mgrid[0:20, 0:30]
        x = 3.0 * i + 2.0 * j + 1.0
        pe = prediction_errors(x)
        assert np.allclose(pe[1:, 1:], 0.0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=6),
        elements=st.integers(-(2**40), 2**40),
    )
)
def test_lorenzo_inverse_property(k):
    """difference/reconstruct are exact inverses on any int lattice, and
    the difference is the ``np.diff(prepend=0)`` composition, leaving
    its input unmodified."""
    before = k.copy()
    q = lorenzo_difference(k)
    assert np.array_equal(k, before)
    assert np.array_equal(q, _reference_difference("lorenzo", k))
    assert np.array_equal(lorenzo_reconstruct(q), k)


def _reference_difference(name, k):
    """Each predictor's difference as the ``np.diff(prepend=0)``
    composition it replaced."""
    if name == "none":
        return k.copy()
    if name == "lorenzo1d":
        return np.diff(k.ravel(), prepend=0).reshape(k.shape)
    q = k
    for axis in range(k.ndim):
        for _ in range(2 if name == "lorenzo2" else 1):
            q = np.diff(q, axis=axis, prepend=0)
    return q


@pytest.mark.parametrize("name", sorted(PREDICTORS))
@pytest.mark.parametrize(
    "shape", [(17,), (1,), (7, 9), (1, 5), (4, 5, 6), (4, 1, 6), (3, 3, 3, 3)]
)
@pytest.mark.parametrize("order", ["C", "F"])
def test_difference_matches_diff_composition(name, shape, order, rng):
    """Every difference equals the literal ``np.diff(prepend=0)``
    composition, 1-D to 4-D, extent-1 axes and Fortran order included,
    and leaves its input unmodified."""
    _, diff, _ = predictor_by_name(name)
    k = np.asarray(rng.integers(-(2**40), 2**40, size=shape), order=order)
    before = k.copy()
    assert np.array_equal(diff(k), _reference_difference(name, k))
    assert np.array_equal(k, before)


def _cumsum_inverse(q, passes):
    """The inverse as it was written before slab adds, kept literally
    as the reference: ``passes`` in-place cumsums along each axis."""
    k = np.asarray(q).astype(np.int64, copy=True)
    for axis in range(k.ndim):
        for _ in range(passes):
            np.cumsum(k, axis=axis, out=k)
    return k


@pytest.mark.parametrize(
    "shape",
    [
        (1000,),
        (180, 360),
        (25, 125, 125),
        (64, 64, 64),
        (128, 128, 128),
        (1, 64, 64),
        (64, 1, 64),
        (2048, 1),
        (3, 1, 4096),
    ],
)
@pytest.mark.parametrize("order", ["C", "F"])
def test_inverses_match_the_cumsum_composition(shape, order):
    """Both Lorenzo inverses equal the cumsum composition on shapes on
    both sides of the slab rule (leading axes with large slabs add
    slab by slab), extent-1 axes and Fortran-ordered input, and leave
    their input unwritten."""
    rng = np.random.default_rng(sum(shape))
    q = np.asarray(rng.integers(-40, 40, size=shape), order=order)
    before = q.copy()
    for name, passes in (("lorenzo", 1), ("lorenzo2", 2)):
        got = PREDICTORS[name][2](q)
        assert got.dtype == np.int64
        assert np.array_equal(got, _cumsum_inverse(q, passes)), name
        assert np.array_equal(q, before)
    narrow = q.astype(np.int32)
    assert np.array_equal(lorenzo_reconstruct(narrow), _cumsum_inverse(narrow, 1))
