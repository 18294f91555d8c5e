"""Unit and property tests for the hybrid (SZ2-style) codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_psnr import compress_fixed_psnr
from repro.errors import CompressionError, FormatError, ParameterError
from repro.io.container import Container
from repro.metrics.distortion import max_abs_error, psnr
from repro.sz.compressor import SZCompressor, decompress
from repro.sz.hybrid import HybridCompressor


@pytest.fixture(scope="module")
def trend_noise_field():
    """Strong local trends + noise at the bound scale: the regime in
    which per-block regression pays off (SZ2's motivation)."""
    rng = np.random.default_rng(1)
    i, j = np.mgrid[0:160, 0:160].astype(float)
    return (
        0.2 * np.sin(i / 40) * i
        + 0.12 * j
        + rng.normal(size=(160, 160)) * 0.3
    )


class TestRoundtrip:
    @pytest.mark.parametrize("eb", [0.5, 1e-2, 1e-4])
    def test_error_bound_2d(self, smooth2d, eb):
        recon = decompress(HybridCompressor(eb, mode="abs").compress(smooth2d))
        assert max_abs_error(smooth2d, recon) <= eb * (1 + 1e-9)

    def test_error_bound_3d(self, smooth3d):
        eb = 1e-3
        comp = HybridCompressor(eb, mode="abs", block_size=4)
        recon = decompress(comp.compress(smooth3d))
        assert max_abs_error(smooth3d, recon) <= eb * (1 + 1e-9)

    def test_rel_mode(self, smooth2d):
        eb_rel = 1e-4
        vr = float(smooth2d.max() - smooth2d.min())
        recon = decompress(
            HybridCompressor(eb_rel, mode="rel").compress(smooth2d)
        )
        assert max_abs_error(smooth2d, recon) <= eb_rel * vr * (1 + 1e-9)

    def test_non_multiple_shape(self, rng):
        x = np.cumsum(rng.normal(size=(13, 19)), axis=0)
        recon = decompress(HybridCompressor(1e-3).compress(x))
        assert recon.shape == x.shape

    def test_float32(self, smooth2d):
        recon = decompress(
            HybridCompressor(1e-2).compress(smooth2d.astype(np.float32))
        )
        assert recon.dtype == np.float32

    def test_constant_field(self):
        x = np.full((9, 9), -1.25)
        assert np.array_equal(decompress(HybridCompressor(1e-3).compress(x)), x)

    def test_deterministic(self, smooth2d):
        comp = HybridCompressor(1e-3)
        assert comp.compress(smooth2d) == comp.compress(smooth2d)


class TestSelection:
    def test_smooth_data_prefers_lorenzo(self, smooth2d):
        blob = HybridCompressor(1e-4, mode="rel").compress(smooth2d)
        meta = Container.from_bytes(blob).meta
        assert meta["n_regression"] < meta["n_blocks"] // 4

    def test_trend_noise_prefers_regression(self, trend_noise_field):
        blob = HybridCompressor(0.2, mode="abs", block_size=16).compress(
            trend_noise_field
        )
        meta = Container.from_bytes(blob).meta
        assert meta["n_regression"] > meta["n_blocks"] // 2

    def test_hybrid_beats_plain_sz_in_regression_regime(
        self, trend_noise_field
    ):
        """The SZ2 claim: adaptive selection wins where regression's
        noise-free prediction beats noisy Lorenzo neighbours."""
        eb = 0.2
        hybrid = len(
            HybridCompressor(eb, mode="abs", block_size=16).compress(
                trend_noise_field
            )
        )
        plain = len(SZCompressor(eb, mode="abs").compress(trend_noise_field))
        assert hybrid < plain

    def test_hybrid_never_much_worse_than_sz(self, smooth2d, rough2d):
        """On Lorenzo-friendly data the selector keeps hybrid within
        block-corner overhead of plain SZ."""
        for x in (smooth2d, rough2d):
            eb = 1e-3
            hybrid = len(HybridCompressor(eb, mode="abs").compress(x))
            plain = len(SZCompressor(eb, mode="abs").compress(x))
            assert hybrid < plain * 1.35


class TestFixedPSNR:
    @pytest.mark.parametrize("target", [50.0, 80.0])
    def test_fixed_psnr_via_hybrid(self, trend_noise_field, target):
        blob = compress_fixed_psnr(trend_noise_field, target, codec="hybrid")
        assert psnr(trend_noise_field, decompress(blob)) == pytest.approx(
            target, abs=2.0
        )


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ParameterError):
            HybridCompressor(0.0)
        with pytest.raises(ParameterError):
            HybridCompressor(1e-3, mode="pw_rel")
        with pytest.raises(ParameterError):
            HybridCompressor(1e-3, block_size=1)

    def test_nan_rejected(self):
        with pytest.raises(CompressionError):
            HybridCompressor(1e-3).compress(np.array([1.0, np.nan]))

    def test_wrong_codec_rejected(self, smooth2d):
        from repro.sz.compressor import compress

        with pytest.raises(FormatError):
            HybridCompressor.decompress(compress(smooth2d, 1e-3))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([(15,), (11, 13), (6, 7, 8)]),
    st.floats(1e-3, 1.0),
)
def test_hybrid_bound_property(seed, shape, eb):
    """The absolute bound holds for random fields of any geometry."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    for axis in range(len(shape)):
        x = np.cumsum(x, axis=axis)
    comp = HybridCompressor(eb, mode="abs", block_size=4)
    recon = decompress(comp.compress(x))
    assert max_abs_error(x, recon) <= eb * (1 + 1e-9) + 1e-12


def _formula_bits(q):
    """The selector's cost as the formula, on float64 copies."""
    mag = np.abs(q.astype(np.float64))
    return np.log2(2.0 * mag + 1.0).reshape(q.shape[0], -1).sum(axis=1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([(1, 4), (7, 4, 4), (9, 3, 3, 3)]),
    st.sampled_from([1, 40, 4095, 4096, 5000, 2**40, 2**52]),
)
def test_estimated_bits_is_the_formula(seed, shape, largest):
    """The table lookup gives the formula's per-block sums bit for bit,
    with magnitudes below, at and far past the end of the table."""
    from repro.sz.hybrid import _LOG2_COST, _estimated_bits

    q = np.random.default_rng(seed).integers(-largest, largest + 1, size=shape)
    q.flat[0] = largest if seed % 2 else -largest
    got = _estimated_bits(q)
    assert got.tobytes() == _formula_bits(q).tobytes()
    assert _LOG2_COST.size == 4096
