"""Unit and property tests for fill-value (missing data) support.

Production fields carry sentinels (Hurricane ISABEL stores 1e35 over
land; CESM uses 1e20 fill); those points must come back exactly and
must not poison the value range that relative bounds resolve against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError, ParameterError
from repro.io.container import Container
from repro.sz.compressor import SZCompressor, decompress


@pytest.fixture()
def masked_field(rng):
    x = np.cumsum(np.cumsum(rng.normal(size=(40, 50)), 0), 1)
    mask = rng.random(x.shape) < 0.3
    xf = x.copy()
    xf[mask] = 1e35
    return x, xf, mask


class TestSentinelFill:
    def test_fill_restored_exactly(self, masked_field):
        x, xf, mask = masked_field
        recon = decompress(SZCompressor(1e-3, fill_value=1e35).compress(xf))
        assert np.all(recon[mask] == 1e35)

    def test_valid_points_bounded(self, masked_field):
        x, xf, mask = masked_field
        eb = 1e-3
        recon = decompress(SZCompressor(eb, fill_value=1e35).compress(xf))
        assert np.abs(recon[~mask] - x[~mask]).max() <= eb * (1 + 1e-9)

    def test_value_range_excludes_fill(self, masked_field):
        """A relative bound must be relative to the VALID range, not
        the 1e35 sentinel."""
        x, xf, mask = masked_field
        comp = SZCompressor(1e-4, mode="rel", fill_value=1e35)
        blob = comp.compress(xf)
        meta = Container.from_bytes(blob).meta
        valid_vr = float(x[~mask].max() - x[~mask].min())
        assert meta["value_range"] == pytest.approx(valid_vr)
        recon = decompress(blob)
        assert np.abs(recon[~mask] - x[~mask]).max() <= 1e-4 * valid_vr * (
            1 + 1e-9
        )

    def test_without_fill_sentinel_wrecks_range(self, masked_field):
        """Sanity check of the failure mode this feature prevents."""
        _, xf, _ = masked_field
        blob = SZCompressor(1e-4, mode="rel").compress(xf)  # no fill_value
        meta = Container.from_bytes(blob).meta
        assert meta["value_range"] > 1e34


class TestNaNFill:
    def test_nan_roundtrip(self, masked_field):
        x, _, mask = masked_field
        xn = x.copy()
        xn[mask] = np.nan
        recon = decompress(
            SZCompressor(1e-3, fill_value=np.nan).compress(xn)
        )
        assert np.all(np.isnan(recon[mask]))
        assert np.abs(recon[~mask] - x[~mask]).max() <= 1e-3 * (1 + 1e-9)

    def test_nan_without_fill_value_raises(self, masked_field):
        x, _, mask = masked_field
        xn = x.copy()
        xn[mask] = np.nan
        with pytest.raises(CompressionError):
            SZCompressor(1e-3).compress(xn)


class TestEdgeCases:
    def test_all_fill(self):
        xf = np.full((8, 12), 1e20)
        recon = decompress(SZCompressor(1e-3, fill_value=1e20).compress(xf))
        assert np.array_equal(recon, xf)

    def test_no_fill_points_present(self, smooth2d):
        eb = 1e-3
        recon = decompress(
            SZCompressor(eb, fill_value=1e35).compress(smooth2d)
        )
        assert np.abs(recon - smooth2d).max() <= eb * (1 + 1e-9)

    def test_pw_rel_with_fill(self, masked_field):
        x, xf, mask = masked_field
        comp = SZCompressor(0.01, mode="pw_rel", fill_value=1e35)
        recon = decompress(comp.compress(xf))
        assert np.all(recon[mask] == 1e35)
        valid = ~mask & (x != 0)
        rel = np.abs(recon[valid] - x[valid]) / np.abs(x[valid])
        assert rel.max() <= 0.01 * (1 + 1e-9)

    def test_float32(self, masked_field):
        x, xf, mask = masked_field
        xf32 = xf.astype(np.float32)
        recon = decompress(
            SZCompressor(1e-2, fill_value=float(np.float32(1e35))).compress(
                xf32
            )
        )
        assert recon.dtype == np.float32
        assert np.all(recon[mask] == np.float32(1e35))

    def test_constant_valid_region(self):
        xf = np.full((10, 10), 2.5)
        xf[0, :] = 1e35
        recon = decompress(SZCompressor(1e-3, fill_value=1e35).compress(xf))
        assert np.all(recon[0, :] == 1e35)
        assert np.all(recon[1:, :] == 2.5)

    def test_infinite_fill_rejected(self):
        with pytest.raises(ParameterError):
            SZCompressor(1e-3, fill_value=np.inf)

    def test_nonfill_nan_still_rejected(self, masked_field):
        x, xf, mask = masked_field
        xf[0, 0] = np.nan  # NaN that is NOT the declared sentinel
        with pytest.raises(CompressionError):
            SZCompressor(1e-3, fill_value=1e35).compress(xf)


class TestFloat32Sentinels:
    """A float32 field stores its sentinel as the float32 nearest the
    declared fill value (CESM's ``1e20`` is ``float32(1e20)``, which the
    float64 ``1e20`` does not equal); fills are matched in the input's
    own dtype."""

    @pytest.mark.parametrize("fill", [1e20, 1e35])
    def test_sentinel_roundtrip_and_valid_bound(self, masked_field, fill):
        x, _, mask = masked_field
        x32 = x.astype(np.float32)
        xf32 = x32.copy()
        xf32[mask] = fill
        blob = SZCompressor(1e-4, mode="rel", fill_value=fill).compress(xf32)
        valid = x32[~mask].astype(np.float64)
        valid_vr = float(valid.max() - valid.min())
        meta = Container.from_bytes(blob).meta
        assert "fill_value" in meta
        assert meta["value_range"] == pytest.approx(valid_vr)
        recon = decompress(blob)
        assert recon.dtype == np.float32
        assert np.all(recon[mask] == np.float32(fill))
        err = np.abs(recon[~mask].astype(np.float64) - valid).max()
        # eb plus the float32 cast of the reconstruction
        ulp = np.spacing(np.float32(np.abs(valid).max()))
        assert err <= 1e-4 * valid_vr + ulp

    def test_masked_report_and_calibration_match_fill(self, masked_field):
        from repro.core.calibration import refined_relative_bound
        from repro.metrics.distortion import masked_distortion_report

        x, _, mask = masked_field
        xf32 = x.astype(np.float32)
        xn32 = xf32.copy()
        xf32[mask] = 1e20
        xn32[mask] = np.nan
        rep = masked_distortion_report(xf32, xf32, fill_value=1e20)
        assert rep.value_range == masked_distortion_report(
            xn32, xn32, fill_value=np.nan
        ).value_range
        assert refined_relative_bound(
            xf32, 40.0, fill_value=1e20
        ) == refined_relative_bound(xn32, 40.0, fill_value=np.nan)

    def test_unrepresentable_sentinel_matches_nothing(self, masked_field):
        from repro.metrics.distortion import fill_mask

        x, _, _ = masked_field
        x32 = x.astype(np.float32)
        assert not fill_mask(x32, 1e39).any()  # beyond float32's range
        blob = SZCompressor(1e-3, fill_value=1e39).compress(x32)
        assert "fill_value" not in Container.from_bytes(blob).meta


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.9))
def test_fill_property(seed, frac):
    """Fill restoration + valid-point bound for arbitrary masks."""
    r = np.random.default_rng(seed)
    x = np.cumsum(r.normal(size=(12, 14)), axis=0)
    mask = r.random(x.shape) < frac
    xf = x.copy()
    xf[mask] = 1e20
    eb = 1e-2
    recon = decompress(SZCompressor(eb, fill_value=1e20).compress(xf))
    assert np.all(recon[mask] == 1e20)
    if (~mask).any():
        assert np.abs(recon[~mask] - x[~mask]).max() <= eb * (1 + 1e-9)
