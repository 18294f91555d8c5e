"""The load-bearing validation: the vectorized lattice formulation must
reproduce the literal sequential SZ recurrence (DESIGN.md section 2.1).

Exact agreement holds whenever no value lands precisely on a bin
boundary (round-half-to-even ties); continuous random data hits ties
with probability ~0, and the property test tolerates isolated tie flips
while still requiring both outputs to honour the error bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.predictors import lorenzo_difference
from repro.sz.quantizer import LatticeQuantizer
from repro.sz.reference import lorenzo_offsets, sequential_lorenzo_quantize


def _vectorized(data, eb):
    quant = LatticeQuantizer(eb, anchor=float(np.asarray(data).flat[0]))
    k = quant.quantize(data)
    return lorenzo_difference(k), quant.dequantize(k)


class TestLorenzoOffsets:
    def test_2d_stencil(self):
        stencil = dict(lorenzo_offsets(2))
        assert stencil == {(-1, 0): 1, (0, -1): 1, (-1, -1): -1}

    def test_coefficients_sum_to_one(self):
        for d in (1, 2, 3, 4):
            assert sum(c for _, c in lorenzo_offsets(d)) == 1

    def test_count(self):
        for d in (1, 2, 3):
            assert len(lorenzo_offsets(d)) == 2**d - 1


class TestEquivalence:
    @pytest.mark.parametrize("shape", [(37,), (11, 13), (5, 6, 7)])
    @pytest.mark.parametrize("eb", [0.5, 0.02, 1e-4])
    def test_exact_match_on_smooth_data(self, shape, eb):
        rng = np.random.default_rng(hash((shape, eb)) % 2**32)
        x = rng.normal(size=shape)
        for axis in range(len(shape)):
            x = np.cumsum(x, axis=axis)
        q_ref, rec_ref = sequential_lorenzo_quantize(x, eb)
        q_vec, rec_vec = _vectorized(x, eb)
        assert np.array_equal(q_ref, q_vec)
        assert np.allclose(rec_ref, rec_vec, atol=1e-9 * max(1.0, np.abs(x).max()))

    def test_exact_match_on_rough_data(self, rough2d):
        q_ref, rec_ref = sequential_lorenzo_quantize(rough2d, 0.01)
        q_vec, rec_vec = _vectorized(rough2d, 0.01)
        assert np.array_equal(q_ref, q_vec)

    def test_first_point_reconstructed_exactly(self, smooth2d):
        _, rec = sequential_lorenzo_quantize(smooth2d, 0.1)
        assert rec[0, 0] == smooth2d[0, 0]
        _, rec_vec = _vectorized(smooth2d, 0.1)
        assert rec_vec[0, 0] == smooth2d[0, 0]

    def test_both_respect_error_bound(self, intermittent2d):
        eb = 0.05
        _, rec_ref = sequential_lorenzo_quantize(intermittent2d, eb)
        _, rec_vec = _vectorized(intermittent2d, eb)
        assert np.max(np.abs(rec_ref - intermittent2d)) <= eb * (1 + 1e-9)
        assert np.max(np.abs(rec_vec - intermittent2d)) <= eb * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(20,), (6, 8), (3, 4, 5)]),
    st.floats(1e-4, 2.0),
)
def test_equivalence_property(seed, shape, eb):
    """On continuous random fields the two implementations agree except
    possibly at rounding ties, and both honour the error bound."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    for axis in range(len(shape)):
        x = np.cumsum(x, axis=axis)
    q_ref, rec_ref = sequential_lorenzo_quantize(x, eb)
    q_vec, rec_vec = _vectorized(x, eb)
    assert np.max(np.abs(rec_ref - x)) <= eb * (1 + 1e-9)
    assert np.max(np.abs(rec_vec - x)) <= eb * (1 + 1e-9)
    mismatches = q_ref != q_vec
    if mismatches.any():
        # Only isolated tie flips are acceptable: codes differ by 1 and
        # both reconstructions stay within the bound.
        assert np.abs(q_ref - q_vec)[mismatches].max() <= 1
        assert mismatches.mean() < 0.02


class TestTransportEquivalence:
    """The reference-equivalence contract extended to the data plane:
    chunk-parallel compression whose workers inherit the array or
    receive it by pickle must serialize to the *same container bytes*
    (and therefore the same stream CRCs) as the serial path, on every
    field character the suite models.  A per-call pool inherits; a
    caller's process executor receives its slabs by pickle."""

    @pytest.mark.parametrize("field_name", ["smooth2d", "rough2d", "intermittent2d"])
    def test_chunked_bytes_match_across_transports(self, field_name, request):
        from repro.io.container import Container
        from repro.parallel.chunking import compress_chunked
        from repro.parallel.executor import Executor

        data = request.getfixturevalue(field_name)
        serial = compress_chunked(data, 1e-3, mode="rel", n_chunks=3)
        shared = compress_chunked(
            data, 1e-3, mode="rel", n_chunks=3, n_workers=2
        )
        with Executor(n_workers=2) as ex:
            pickled = compress_chunked(
                data, 1e-3, mode="rel", n_chunks=3, executor=ex
            )
        assert serial == pickled == shared
        assert (
            Container.from_bytes(serial).stream_crcs()
            == Container.from_bytes(shared).stream_crcs()
        )

    def test_float32_view_matches(self, smooth2d):
        from repro.parallel.chunking import compress_chunked, decompress_chunked

        data = smooth2d.astype(np.float32)
        serial = compress_chunked(data, 5e-3, mode="rel", n_chunks=4)
        shared = compress_chunked(
            data, 5e-3, mode="rel", n_chunks=4, n_workers=2
        )
        assert serial == shared
        out = decompress_chunked(shared, n_workers=2)
        assert out.dtype == np.float32
        assert np.array_equal(out, decompress_chunked(serial))
