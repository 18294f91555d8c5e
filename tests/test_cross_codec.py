"""Cross-codec invariants: every error-bounded codec in the package
obeys the same contract on the same data.

One parametrized surface instead of per-codec copies: the absolute
bound, shape/dtype preservation, determinism, and the fixed-PSNR
behaviour must hold identically for SZ 1.1, SZ 1.4 (all predictors),
regression, and hybrid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.distortion import max_abs_error, psnr
from repro.sz.compressor import SZCompressor, decompress
from repro.sz.hybrid import HybridCompressor
from repro.sz.interp import InterpolationCompressor
from repro.sz.legacy import Sz11Compressor
from repro.sz.regression import RegressionCompressor

CODEC_MAKERS = {
    "sz-lorenzo": lambda eb, mode: SZCompressor(eb, mode=mode),
    "sz-lorenzo2": lambda eb, mode: SZCompressor(eb, mode=mode, predictor="lorenzo2"),
    "sz-rans": lambda eb, mode: SZCompressor(eb, mode=mode, entropy="rans"),
    "regression": lambda eb, mode: RegressionCompressor(eb, mode=mode, block_size=4),
    "hybrid": lambda eb, mode: HybridCompressor(eb, mode=mode, block_size=4),
    "sz1.1": lambda eb, mode: Sz11Compressor(eb, mode=mode),
    "interp-linear": lambda eb, mode: InterpolationCompressor(
        eb, mode=mode, interpolator="linear"
    ),
    "interp-cubic": lambda eb, mode: InterpolationCompressor(
        eb, mode=mode, interpolator="cubic"
    ),
}


@pytest.mark.parametrize("name", sorted(CODEC_MAKERS))
class TestSharedContract:
    def test_abs_bound(self, name, smooth2d):
        eb = 1e-3
        blob = CODEC_MAKERS[name](eb, "abs").compress(smooth2d)
        recon = decompress(blob)
        assert max_abs_error(smooth2d, recon) <= eb * (1 + 1e-9)

    def test_rel_bound(self, name, smooth3d):
        eb_rel = 1e-4
        vr = float(smooth3d.max() - smooth3d.min())
        blob = CODEC_MAKERS[name](eb_rel, "rel").compress(smooth3d)
        recon = decompress(blob)
        assert max_abs_error(smooth3d, recon) <= eb_rel * vr * (1 + 1e-9)

    def test_shape_dtype(self, name, smooth2d):
        x32 = smooth2d.astype(np.float32)
        recon = decompress(CODEC_MAKERS[name](1e-2, "abs").compress(x32))
        assert recon.shape == x32.shape
        assert recon.dtype == np.float32

    def test_deterministic(self, name, smooth2d):
        a = CODEC_MAKERS[name](1e-3, "abs").compress(smooth2d)
        b = CODEC_MAKERS[name](1e-3, "abs").compress(smooth2d)
        assert a == b

    def test_rough_data(self, name, rough2d):
        eb = 1e-2
        recon = decompress(CODEC_MAKERS[name](eb, "abs").compress(rough2d))
        assert max_abs_error(rough2d, recon) <= eb * (1 + 1e-9)

    def test_intermittent_data(self, name, intermittent2d):
        eb = 1e-3
        recon = decompress(
            CODEC_MAKERS[name](eb, "abs").compress(intermittent2d)
        )
        assert max_abs_error(intermittent2d, recon) <= eb * (1 + 1e-9)


class TestUniformQuantizationPSNR:
    """Theorem 3 across the whole codec family: at the same
    range-relative bound, every uniform-quantization codec lands at the
    same PSNR (predicted by Eq. 7) on the same data."""

    def test_same_psnr_all_codecs(self, smooth2d):
        from repro.core.psnr_model import sz_psnr_estimate

        eb_rel = 1e-4
        vr = float(smooth2d.max() - smooth2d.min())
        expected = sz_psnr_estimate(vr, eb_rel=eb_rel)
        for name, maker in CODEC_MAKERS.items():
            recon = decompress(maker(eb_rel, "rel").compress(smooth2d))
            assert psnr(smooth2d, recon) == pytest.approx(expected, abs=1.0), name


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(sorted(CODEC_MAKERS)),
    st.integers(0, 2**31 - 1),
    st.floats(1e-3, 1.0),
)
def test_family_bound_property(name, seed, eb):
    """The shared bound contract under random data, for every codec."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(np.cumsum(rng.normal(size=(14, 18)), 0), 1)
    recon = decompress(CODEC_MAKERS[name](eb, "abs").compress(x))
    assert max_abs_error(x, recon) <= eb * (1 + 1e-9) + 1e-12
