"""The decode-free reconstruction: ``reconstruction(data, blob)`` is
``decompress(blob)``.

:func:`repro.sz.compressor.reconstruction` is how achieved PSNR is
measured right after compressing: sweep tasks, served jobs, autotune
trials and ``fpzc compress``'s report.  For sz containers it re-snaps
the input onto the header's lattice and never decodes (the paper's
Theorem 1: all of the decompressed data's error is the quantization
stage's).  These tests hold it to the decoder byte for byte, show that
no measurement site decodes an sz blob any more, and check that an
input that does not match the blob is refused.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.sz.compressor as szc
from repro.core.codecs import make_compressor
from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.errors import FormatError, ParameterError
from repro.io.container import Container
from repro.sz.compressor import SZCompressor, decompress, reconstruction

SHAPES = {1: (700,), 2: (28, 33), 3: (7, 9, 11)}
BOUNDS = {"abs": 0.05, "rel": 1e-3, "pw_rel": 0.01}
#: Quantization radii: 4 forces escapes.
RADII = (4, 32767)
GOLDEN = Path(__file__).parent / "golden"


def assert_same(data, blob):
    """``reconstruction`` equals ``decompress`` in values, dtype, shape
    and memory order."""
    expected = decompress(blob)
    got = reconstruction(data, blob)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


def walk(shape, seed):
    r = np.random.default_rng(seed)
    return np.cumsum(r.normal(size=int(np.prod(shape)))).reshape(shape)


class TestEqualsDecode:
    @pytest.mark.parametrize("fill", [None, "nan", 1e20])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["abs", "rel", "pw_rel"])
    def test_sz_modes(self, mode, dtype, ndim, fill):
        shape = SHAPES[ndim]
        x = walk(shape, seed=ndim)
        if mode == "pw_rel":
            x.flat[::5] = 0.0  # zeros take the sign stream's exact path
        fill_value = None
        if fill is not None:
            fill_value = np.nan if fill == "nan" else fill
            mask = np.random.default_rng(9).random(shape) < 0.25
            mask.flat[0] = False
            x[mask] = fill_value
        x = x.astype(dtype)
        for radius in RADII:
            comp = SZCompressor(
                BOUNDS[mode],
                mode=mode,
                fill_value=fill_value,
                quantization_radius=radius,
            )
            assert_same(x, comp.compress(x))

    @pytest.mark.parametrize(
        "name", ["sz_rel_rans", "sz-f32-rans-r3", "sz-f64-rans-r3"]
    )
    def test_rans_containers(self, name):
        """The containers earlier builds wrote with rANS, with the
        inputs they were written from: the golden field, and the digest
        table's seeded field (the r3 ones hold escapes)."""
        from tests.test_codec_digests import _smooth

        if name == "sz_rel_rans":
            x = np.load(GOLDEN / "field.npy")
        else:
            x = _smooth(np.float32 if "f32" in name else np.float64)
        blob = (GOLDEN / "rans" / f"{name}.fpz").read_bytes()
        assert Container.from_bytes(blob).meta["entropy"] == 1
        assert_same(x, blob)

    def test_escapes_are_exercised(self):
        x = walk((28, 33), seed=2)
        comp = SZCompressor(1e-4, mode="rel", quantization_radius=4)
        blob = comp.compress(x)
        assert Container.from_bytes(blob).meta["n_escapes"] > 0
        assert_same(x, blob)

    @pytest.mark.parametrize("predictor", ["lorenzo1d", "none"])
    def test_other_predictors(self, predictor):
        x = walk((28, 33), seed=3)
        comp = SZCompressor(1e-3, mode="rel", predictor=predictor)
        assert_same(x, comp.compress(x))

    def test_fill_at_first_point(self):
        """The anchor is the fill-replaced first value (the valid mean)."""
        x = walk((28, 33), seed=4)
        x[0, :5] = -9999.0
        comp = SZCompressor(1e-3, mode="rel", fill_value=-9999.0)
        assert_same(x, comp.compress(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["abs", "rel", "pw_rel"])
    def test_constant_fields(self, mode, dtype):
        x = np.full((12, 10), 2.5, dtype=dtype)
        blob = SZCompressor(BOUNDS[mode], mode=mode).compress(x)
        assert "constant" in Container.from_bytes(blob).meta
        assert_same(x, blob)

    def test_pw_rel_constant_magnitude_with_signs(self):
        """Constant in the log domain, not in value (zeros are parked
        at ln 1): signs and zeros come back through the inverse log
        transform."""
        x = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        blob = SZCompressor(0.01, mode="pw_rel").compress(x)
        assert "constant" in Container.from_bytes(blob).meta
        assert_same(x, blob)

    @pytest.mark.parametrize("fill", [np.nan, 1e35])
    def test_constant_valid_region_and_all_fill(self, fill):
        x = np.full((10, 10), 2.5)
        x[3, :] = fill
        assert_same(x, SZCompressor(1e-3, fill_value=fill).compress(x))
        everything = np.full((6, 7), fill)
        comp = SZCompressor(1e-3, fill_value=fill)
        assert_same(everything, comp.compress(everything))

    def test_fortran_ordered_input(self):
        """The output is C-ordered like the decoder's, so a PSNR over
        it sums in the same order."""
        x = np.asfortranarray(walk((28, 33), seed=5))
        assert_same(x, SZCompressor(1e-3, mode="rel").compress(x))

    @pytest.mark.parametrize("target", [40.0, 60.0, 80.0])
    @pytest.mark.parametrize("field", ["CLDHGH", "FLDS", "PRECL"])
    def test_atm_fields(self, field, target):
        from repro.datasets.source import load_field

        data = load_field("ATM", field, 0.2)
        assert_same(data, FixedPSNRCompressor(target).compress(data))

    @pytest.mark.parametrize(
        "codec", ["transform", "regression", "hybrid", "interp"]
    )
    def test_other_error_bounded_codecs_decode(self, codec):
        x = walk((28, 33), seed=6)
        assert_same(x, make_compressor(codec, 1e-3, mode="rel").compress(x))

    def test_legacy_embedded_and_chunked_decode(self):
        from repro.parallel.chunking import compress_chunked
        from repro.sz.legacy import Sz11Compressor
        from repro.transform.embedded import EmbeddedTransformCompressor

        x = walk((32, 33), seed=7)
        assert_same(x, Sz11Compressor(1e-3, mode="rel").compress(x))
        assert_same(x, EmbeddedTransformCompressor(rate=4.0).compress(x))
        assert_same(x, compress_chunked(x, 1e-3, mode="rel", n_chunks=2))

    def test_temporal_frame_fails_like_decode(self):
        """A temporal-stream frame is an sz container the one-shot
        decoder refuses; the reconstruction refuses it the same way."""
        from repro.sz.temporal import TemporalCompressor

        x = walk((28, 33), seed=8)
        blob = TemporalCompressor(error_bound=0.05).push(x)
        with pytest.raises(FormatError):
            decompress(blob)
        with pytest.raises(FormatError):
            reconstruction(x, blob)


@pytest.fixture()
def forbid_decode(monkeypatch):
    """Make every sz decode raise: the entropy-stage decode and
    ``SZCompressor.decompress`` itself."""

    def refuse(*args, **kwargs):
        raise AssertionError("an sz blob was decoded")

    def arm():
        monkeypatch.setattr(szc, "decode_codes", refuse)
        monkeypatch.setattr("repro.encoding.codes.decode_codes", refuse)
        monkeypatch.setattr(SZCompressor, "decompress", staticmethod(refuse))

    return arm


class TestNoDecode:
    def test_forbid_decode_bites(self, forbid_decode):
        blob = SZCompressor(1e-3).compress(walk((20, 20), seed=1))
        forbid_decode()
        with pytest.raises(AssertionError):
            decompress(blob)

    def test_sweep_task(self, forbid_decode):
        from repro.parallel.executor import run_field_task

        expected = run_field_task("ATM", "CLDHGH", 60.0, scale=0.2)
        forbid_decode()
        assert run_field_task("ATM", "CLDHGH", 60.0, scale=0.2) == expected

    @pytest.mark.parametrize("mode,target", [("psnr", 60.0), ("ratio", 8.0)])
    def test_served_job(self, forbid_decode, mode, target):
        from repro.service.tasks import run_compress_job

        spec = {
            "dataset": "ATM",
            "field": "CLDHGH",
            "scale": 0.2,
            "mode": mode,
            "target": target,
        }
        expected = run_compress_job(dict(spec))
        forbid_decode()
        got = run_compress_job(dict(spec))
        assert got["status"] == "ok"
        for key in ("blob", "eb_rel", "achieved", "achieved_psnr", "ratio"):
            assert got[key] == expected[key], key

    @pytest.mark.parametrize("objective", ["ratio", "psnr", "ssim"])
    def test_autotune_search(self, forbid_decode, objective):
        from repro.autotune import autotune

        x = walk((40, 40), seed=10)
        target = {"ratio": 8.0, "psnr": 60.0, "ssim": 0.99}[objective]
        expected = autotune(x, objective, target, codec="sz", keep_blob=True)
        forbid_decode()
        got = autotune(x, objective, target, codec="sz", keep_blob=True)
        assert got.blob == expected.blob
        assert got.achieved == expected.achieved

    def test_cli_compress_report(self, forbid_decode, tmp_path, capsys):
        from repro.cli.main import main

        src = tmp_path / "f.npy"
        np.save(src, walk((40, 40), seed=11).astype(np.float32))
        forbid_decode()
        assert main(["compress", str(src), "-o", str(tmp_path / "f.fpz"),
                     "--psnr", "60"]) == 0
        assert "achieved: PSNR" in capsys.readouterr().out


class TestBadInput:
    @pytest.fixture()
    def case(self):
        x = walk((28, 33), seed=12)
        return x, SZCompressor(1e-3, mode="rel").compress(x)

    def test_shape_mismatch(self, case):
        x, blob = case
        with pytest.raises(ParameterError):
            reconstruction(x.reshape(33, 28), blob)

    def test_dtype_mismatch(self, case):
        x, blob = case
        with pytest.raises(ParameterError):
            reconstruction(x.astype(np.float32), blob)

    def test_anchor_mismatch(self, case):
        x, blob = case
        with pytest.raises(ParameterError):
            reconstruction(x + 1.0, blob)

    def test_anchor_mismatch_after_log(self):
        x = walk((28, 33), seed=13)
        blob = SZCompressor(0.01, mode="pw_rel").compress(x)
        with pytest.raises(ParameterError):
            reconstruction(2.0 * x, blob)

    def test_constant_mismatch(self):
        x = np.full((8, 8), 2.5)
        blob = SZCompressor(1e-3).compress(x)
        with pytest.raises(ParameterError):
            reconstruction(np.full((8, 8), 3.5), blob)

    def test_fill_points_mismatch(self):
        x = walk((28, 33), seed=14)
        xf = x.copy()
        xf[5:9, 7] = -9999.0
        blob = SZCompressor(1e-3, fill_value=-9999.0).compress(xf)
        with pytest.raises(ParameterError):
            reconstruction(x, blob)


class TestBoundFromHeader:
    """A sweep task and a served job report the bound the blob's header
    records; ``FixedPSNRCompressor.compress`` is the only derivation."""

    @pytest.fixture()
    def count_derivations(self, monkeypatch):
        calls = []
        derive = FixedPSNRCompressor.derive_bound

        def counted(self, data):
            calls.append(1)
            return derive(self, data)

        monkeypatch.setattr(FixedPSNRCompressor, "derive_bound", counted)
        return calls

    def test_sweep_task(self, count_derivations):
        from repro.datasets.source import load_field
        from repro.parallel.executor import run_field_task

        row = run_field_task(
            "ATM", "CLDHGH", 40.0, scale=0.2, refine="histogram"
        )
        assert len(count_derivations) == 1
        data = load_field("ATM", "CLDHGH", 0.2)
        comp = FixedPSNRCompressor(40.0, refine="histogram")
        assert row.eb_rel == comp.derive_bound(data)
        assert row.compression_ratio == data.nbytes / len(comp.compress(data))

    def test_served_job(self, count_derivations):
        from repro.datasets.source import load_field
        from repro.service.tasks import run_compress_job

        out = run_compress_job({
            "dataset": "ATM",
            "field": "CLDHGH",
            "scale": 0.2,
            "mode": "psnr",
            "target": 40.0,
            "refine": "histogram",
        })
        assert len(count_derivations) == 1
        data = load_field("ATM", "CLDHGH", 0.2)
        comp = FixedPSNRCompressor(40.0, refine="histogram")
        assert out["eb_rel"] == comp.derive_bound(data)
        assert out["blob"] == comp.compress(data)

    @pytest.mark.parametrize(
        "codec", ["transform", "regression", "hybrid", "interp"]
    )
    def test_header_bound_is_the_derived_bound(self, codec):
        x = walk((28, 33), seed=15).astype(np.float32)
        comp = FixedPSNRCompressor(60.0, codec=codec)
        meta = Container.from_bytes(comp.compress(x)).meta
        assert meta["bound"] == comp.derive_bound(x)
