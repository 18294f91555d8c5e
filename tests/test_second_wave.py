"""Second-wave coverage: interactions and sizes the per-module suites
leave out."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.io.container import CODEC_SZ, Container
from repro.metrics.distortion import max_abs_error, psnr
from repro.sz.compressor import SZCompressor, decompress


class TestContainerScale:
    def test_many_streams(self):
        streams = [(f"s{i}", bytes([i % 256]) * (i + 1)) for i in range(100)]
        c = Container(CODEC_SZ, {"n": 100}, streams)
        back = Container.from_bytes(c.to_bytes())
        assert len(back.streams) == 100
        assert back.stream("s42") == bytes([42]) * 43

    def test_unicode_stream_names(self):
        c = Container(CODEC_SZ, {}, [("θ-поле", b"x")])
        assert Container.from_bytes(c.to_bytes()).stream("θ-поле") == b"x"

    def test_megabyte_stream(self, rng):
        payload = rng.integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        c = Container(CODEC_SZ, {}, [("big", payload)])
        assert Container.from_bytes(c.to_bytes()).stream("big") == payload

    def test_unicode_metadata(self):
        meta = {"поле": "βαρύτητα", "n": 3}
        back = Container.from_bytes(Container(CODEC_SZ, meta, []).to_bytes())
        assert back.meta == meta


class TestWideAlphabets:
    def test_huffman_full_radius_alphabet(self, rng):
        """An alphabet as wide as the quantization radius allows."""
        from repro.encoding.huffman import huffman_encode

        data = rng.integers(-32768, 32768, size=200000)
        payload, bits, code = huffman_encode(data)
        assert np.array_equal(code.decode(payload, data.size, bits), data)

    def test_rans_alphabet_limit_enforced(self):
        """A rANS model table can hold at most TOTAL symbols: one of
        TOTAL + 1, each at frequency 1, is refused."""
        from repro.encoding.rans import TOTAL, RansCoder

        n = TOTAL + 1
        table = (
            np.int64(n).tobytes()
            + np.arange(n, dtype=np.int64).tobytes()
            + np.ones(n, dtype="<u2").tobytes()
        )
        with pytest.raises(ParameterError):
            RansCoder.from_table_bytes(table)


class TestOptionPassthrough:
    def test_chunked_with_predictor_option(self, smooth3d):
        from repro.parallel.chunking import compress_chunked, decompress_chunked

        blob = compress_chunked(
            smooth3d, 1e-3, mode="abs", n_chunks=3, predictor="lorenzo2"
        )
        recon = decompress_chunked(blob)
        assert max_abs_error(smooth3d, recon) <= 1e-3 * (1 + 1e-9)

    def test_fixed_psnr_option_passthrough(self, smooth2d):
        from repro.core.fixed_psnr import compress_fixed_psnr

        blob = compress_fixed_psnr(smooth2d, 70.0, predictor="lorenzo1d")
        assert Container.from_bytes(blob).meta["predictor"] == 1
        assert psnr(smooth2d, decompress(blob)) == pytest.approx(70.0, abs=1.5)

    def test_fixed_psnr_hybrid_block_size(self, smooth2d):
        from repro.core.fixed_psnr import compress_fixed_psnr

        blob = compress_fixed_psnr(
            smooth2d, 60.0, codec="hybrid", block_size=16
        )
        assert psnr(smooth2d, decompress(blob)) == pytest.approx(60.0, abs=1.5)

    def test_sweep_codec_passthrough(self):
        from repro.parallel.executor import run_field_task

        r = run_field_task("NYX", "velocity_x", 60.0, codec="regression")
        assert abs(r.deviation) < 3.0

    def test_budget_with_entropy_option(self):
        from repro.core.allocation import psnr_for_budget

        rng = np.random.default_rng(9)
        x = np.cumsum(np.cumsum(rng.normal(size=(40, 40)), 0), 1)
        result = psnr_for_budget(
            [("f", x)], x.nbytes // 8, predictor="lorenzo1d"
        )
        assert result.total_bytes <= x.nbytes // 8
        blob = result.blobs["f"]
        assert Container.from_bytes(blob).meta["predictor"] == 1


class TestReportEdges:
    def test_markdown_without_title(self):
        from repro.report import render_markdown, summarize_by_target
        from tests.test_report import _result

        md = render_markdown(summarize_by_target([_result()]))
        assert md.startswith("| dataset |")

    def test_single_result(self):
        from repro.report import summarize_by_target
        from tests.test_report import _result

        rows = summarize_by_target([_result()])
        assert rows[0].n_fields == 1
        assert rows[0].stdev_psnr == 0.0


class TestCLIInteractions:
    def test_hybrid_roundtrip_via_cli(self, tmp_path, smooth2d):
        from repro.cli.main import main

        src = tmp_path / "f.npy"
        np.save(src, smooth2d.astype(np.float32))
        out = tmp_path / "f.fpz"
        rec = tmp_path / "r.npy"
        assert (
            main(
                [
                    "compress", str(src), "-o", str(out),
                    "--rel", "1e-4", "--codec", "hybrid",
                ]
            )
            == 0
        )
        assert main(["decompress", str(out), "-o", str(rec)]) == 0
        assert psnr(np.load(src), np.load(rec)) > 70.0

    def test_sweep_refined(self, capsys):
        from repro.cli.main import main

        assert (
            main(
                [
                    "sweep", "ATM", "--targets", "25",
                    "--fields", "PRECL", "--refine",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PRECL" in out

    def test_archive_custom_psnr(self, tmp_path, capsys):
        from repro.cli.main import main
        from repro.datasets.registry import get_dataset

        arc = tmp_path / "a.fpza"
        rec = tmp_path / "t.npy"
        main(
            [
                "archive", "NYX", "-o", str(arc),
                "--psnr", "55", "--fields", "temperature",
            ]
        )
        main(["extract", str(arc), "temperature", "-o", str(rec)])
        original = get_dataset("NYX").field("temperature")
        assert psnr(original, np.load(rec)) == pytest.approx(55.0, abs=3.0)


class TestEncodeLatticeInvariants:
    def test_escape_and_fill_together(self, rng):
        """Fill values + tiny radius (forced escapes) compose."""
        x = np.cumsum(rng.normal(size=(40, 40)), axis=0)
        mask = rng.random(x.shape) < 0.2
        xf = x.copy()
        xf[mask] = 1e20
        comp = SZCompressor(1e-4, fill_value=1e20, quantization_radius=4)
        recon = decompress(comp.compress(xf))
        assert np.all(recon[mask] == 1e20)
        assert np.abs(recon[~mask] - x[~mask]).max() <= 1e-4 * (1 + 1e-9)

    def test_lossless_none_with_fill(self, rng):
        x = np.cumsum(rng.normal(size=200))
        x[::7] = 1e20
        comp = SZCompressor(1e-3, fill_value=1e20, lossless="none")
        recon = decompress(comp.compress(x))
        assert np.all(recon[::7] == 1e20)
