"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli.main import build_parser, main
from repro.metrics.distortion import psnr


@pytest.fixture()
def demo_npy(tmp_path, smooth2d):
    path = tmp_path / "field.npy"
    np.save(path, smooth2d.astype(np.float32))
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compress_requires_one_bound(self, demo_npy):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", str(demo_npy), "-o", "x"])

    def test_bounds_mutually_exclusive(self, demo_npy):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compress", str(demo_npy), "-o", "x", "--psnr", "60", "--abs", "1"]
            )


class TestCompressDecompress:
    def test_fixed_psnr_roundtrip(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "field.fpz"
        recon_path = tmp_path / "recon.npy"
        assert main(["compress", str(demo_npy), "-o", str(out), "--psnr", "70"]) == 0
        assert main(["decompress", str(out), "-o", str(recon_path)]) == 0
        original = np.load(demo_npy)
        recon = np.load(recon_path)
        assert recon.dtype == original.dtype
        assert abs(psnr(original, recon) - 70.0) < 3.0
        assert "CR" in capsys.readouterr().out

    def test_abs_bound(self, demo_npy, tmp_path):
        out = tmp_path / "f.fpz"
        rec = tmp_path / "r.npy"
        assert main(["compress", str(demo_npy), "-o", str(out), "--abs", "0.01"]) == 0
        assert main(["decompress", str(out), "-o", str(rec)]) == 0
        err = np.abs(
            np.load(demo_npy).astype(np.float64) - np.load(rec).astype(np.float64)
        ).max()
        assert err <= 0.011

    def test_transform_codec(self, demo_npy, tmp_path):
        out = tmp_path / "f.fpz"
        rec = tmp_path / "r.npy"
        assert (
            main(
                [
                    "compress",
                    str(demo_npy),
                    "-o",
                    str(out),
                    "--psnr",
                    "60",
                    "--codec",
                    "transform",
                ]
            )
            == 0
        )
        assert main(["decompress", str(out), "-o", str(rec)]) == 0
        assert abs(psnr(np.load(demo_npy), np.load(rec)) - 60.0) < 3.0

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["compress", str(tmp_path / "nope.npy"), "-o", "x", "--psnr", "60"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestInfo:
    def test_info_json(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        main(["compress", str(demo_npy), "-o", str(out), "--psnr", "80"])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["codec"] == 1
        assert info["meta"]["target_psnr"] == 80.0
        assert any(s["name"] == "payload" for s in info["streams"])


class TestTable1:
    def test_prints_inventory(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for name in ("NYX", "ATM", "Hurricane"):
            assert name in out
        assert "2048x2048x2048" in out
        assert "79" in out


class TestNewCodecs:
    def test_regression_codec(self, demo_npy, tmp_path):
        out = tmp_path / "f.fpz"
        rec = tmp_path / "r.npy"
        assert (
            main(
                [
                    "compress", str(demo_npy), "-o", str(out),
                    "--rel", "1e-4", "--codec", "regression",
                ]
            )
            == 0
        )
        assert main(["decompress", str(out), "-o", str(rec)]) == 0
        assert psnr(np.load(demo_npy), np.load(rec)) > 70.0

    def test_embedded_fixed_rate(self, demo_npy, tmp_path):
        out = tmp_path / "f.fpz"
        assert (
            main(
                [
                    "compress", str(demo_npy), "-o", str(out),
                    "--bit-rate", "4", "--codec", "embedded",
                ]
            )
            == 0
        )
        data = np.load(demo_npy)
        assert 8.0 * out.stat().st_size / data.size <= 5.0

    def test_pw_rel_mode(self, demo_npy, tmp_path):
        out = tmp_path / "f.fpz"
        rec = tmp_path / "r.npy"
        assert (
            main(["compress", str(demo_npy), "-o", str(out), "--pw-rel", "0.01"])
            == 0
        )
        assert main(["decompress", str(out), "-o", str(rec)]) == 0
        x = np.load(demo_npy).astype(np.float64)
        y = np.load(rec).astype(np.float64)
        nz = x != 0
        assert np.max(np.abs(y[nz] - x[nz]) / np.abs(x[nz])) <= 0.0101

    def test_bit_rate_requires_embedded(self, demo_npy, tmp_path, capsys):
        code = main(
            ["compress", str(demo_npy), "-o", str(tmp_path / "x"), "--bit-rate", "4"]
        )
        assert code == 2
        assert "embedded" in capsys.readouterr().err


class TestEntropyFlag:
    """``--entropy`` is gone with the rANS encoder: every compress mode,
    the two that once reached rANS included, refuses it before writing
    a blob or opening the cache."""

    @pytest.mark.parametrize(
        "mode",
        [
            ["--psnr", "60"],
            ["--nrmse", "1e-3"],
            ["--mse", "1e-3"],
            ["--ratio", "8"],
            ["--abs", "1e-3", "--codec", "transform"],
            ["--rel", "1e-3", "--codec", "hybrid"],
            ["--bit-rate", "4", "--codec", "embedded"],
            ["--psnr", "60", "--codec", "embedded"],
            ["--rel", "1e-3"],
            ["--chunks", "2", "--psnr", "60"],
        ],
    )
    def test_rejected(self, demo_npy, tmp_path, capsys, mode):
        out = tmp_path / "f.fpz"
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main([
                "compress", str(demo_npy), "-o", str(out), *mode,
                "--entropy", "rans", "--cache", "--cache-dir", str(cache),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --entropy rans" in err
        assert not out.exists() and not cache.exists()


class TestArchive:
    def test_archive_extract_roundtrip(self, tmp_path, capsys):
        arc = tmp_path / "snap.fpza"
        code = main(
            [
                "archive", "NYX", "-o", str(arc),
                "--psnr", "70", "--fields", "temperature", "velocity_z",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["extract", str(arc)]) == 0
        assert capsys.readouterr().out.split() == ["temperature", "velocity_z"]
        out = tmp_path / "t.npy"
        assert main(["extract", str(arc), "temperature", "-o", str(out)]) == 0
        from repro.datasets.registry import get_dataset

        original = get_dataset("NYX").field("temperature")
        assert psnr(original, np.load(out)) > 65.0

    def test_extract_without_output_fails(self, tmp_path, capsys):
        arc = tmp_path / "snap.fpza"
        main(["archive", "NYX", "-o", str(arc), "--fields", "temperature"])
        capsys.readouterr()
        assert main(["extract", str(arc), "temperature"]) == 2

    def test_unknown_field_fails(self, tmp_path, capsys):
        code = main(
            ["archive", "NYX", "-o", str(tmp_path / "x"), "--fields", "bogus"]
        )
        assert code == 2

    def test_archive_generates_each_field_once(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.datasets.registry import Dataset, get_dataset

        calls = []
        generate = Dataset.field

        def counting(self, name):
            calls.append(name)
            return generate(self, name)

        monkeypatch.setattr(Dataset, "field", counting)
        fields = ["temperature", "velocity_z"]
        arc = tmp_path / "snap.fpza"
        assert main(["archive", "NYX", "-o", str(arc), "--fields", *fields]) == 0
        assert calls == fields
        raw = 2 * get_dataset("NYX").field("temperature").nbytes
        assert f"{raw} -> " in capsys.readouterr().out


class TestGenVerify:
    def test_gen_field(self, tmp_path, capsys):
        out = tmp_path / "f.npy"
        assert main(["gen", "ATM", "CLDHGH", "-o", str(out)]) == 0
        data = np.load(out)
        assert data.ndim == 2 and data.dtype == np.float32

    def test_gen_unknown_field_fails(self, tmp_path):
        assert main(["gen", "ATM", "NOPE", "-o", str(tmp_path / "x.npy")]) == 2

    def test_verify_ok(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        main(["compress", str(demo_npy), "-o", str(out), "--psnr", "70"])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_with_original(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        main(["compress", str(demo_npy), "-o", str(out), "--psnr", "70"])
        capsys.readouterr()
        assert main(["verify", str(out), "--original", str(demo_npy)]) == 0
        assert "PSNR" in capsys.readouterr().out

    def test_verify_corrupted_fails(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        main(["compress", str(demo_npy), "-o", str(out), "--psnr", "70"])
        blob = bytearray(out.read_bytes())
        blob[30] ^= 0xFF
        out.write_bytes(bytes(blob))
        assert main(["verify", str(out)]) == 2


class TestSweep:
    def test_sweep_text(self, capsys):
        code = main(
            ["sweep", "NYX", "--targets", "60", "--fields", "temperature"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "temperature" in out
        assert "AVG" in out

    def test_sweep_json(self, capsys):
        code = main(
            [
                "sweep",
                "NYX",
                "--targets",
                "80",
                "--fields",
                "velocity_x",
                "--json",
            ]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["field"] == "velocity_x"
        assert abs(records[0]["deviation"]) < 3.0


class TestDistortionTargets:
    """--nrmse / --mse / --ratio on `fpzc compress` (library modes
    surfaced on the CLI) and the achieved-value summary line."""

    def test_nrmse_flag_reports_achieved(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        assert main(
            ["compress", str(demo_npy), "-o", str(out), "--nrmse", "1e-4"]
        ) == 0
        text = capsys.readouterr().out
        assert "NRMSE" in text and "target 0.0001" in text
        rec = tmp_path / "r.npy"
        assert main(["decompress", str(out), "-o", str(rec)]) == 0
        from repro.metrics.distortion import nrmse

        achieved = nrmse(np.load(demo_npy), np.load(rec))
        assert achieved == pytest.approx(1e-4, rel=0.5)

    def test_mse_flag_reports_achieved(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        assert main(
            ["compress", str(demo_npy), "-o", str(out), "--mse", "1e-4"]
        ) == 0
        text = capsys.readouterr().out
        assert "MSE" in text and "PSNR" in text

    def test_psnr_summary_prints_achieved(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        assert main(
            ["compress", str(demo_npy), "-o", str(out), "--psnr", "70"]
        ) == 0
        assert "achieved: PSNR" in capsys.readouterr().out

    def test_ratio_flag_autotunes(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        assert main(
            [
                "compress", str(demo_npy), "-o", str(out),
                "--ratio", "10", "--tol", "0.05",
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "CR" in text and "target 10" in text
        raw = np.load(demo_npy).nbytes
        assert abs(raw / out.stat().st_size - 10.0) <= 0.5

    def test_distortion_flags_mutually_exclusive(self, demo_npy):
        for extra in (["--mse", "1"], ["--ratio", "10"], ["--psnr", "60"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["compress", str(demo_npy), "-o", "x", "--nrmse", "1e-4"]
                    + extra
                )

    def test_traced_ledger_records_mode(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        ledger = tmp_path / "ledger.jsonl"
        assert main(
            [
                "compress", str(demo_npy), "-o", str(out),
                "--nrmse", "1e-4", "--trace", "--ledger", str(ledger),
            ]
        ) == 0
        from repro.telemetry.ledger import read_entries

        (entry,), skipped = read_entries(str(ledger))
        assert skipped == 0
        assert entry.mode == "nrmse"
        assert entry.target == pytest.approx(1e-4)
        assert entry.achieved == pytest.approx(1e-4, rel=0.5)
        assert entry.achieved_psnr is not None


class TestAutotuneCommand:
    def test_ratio_search_writes_output(self, demo_npy, tmp_path, capsys):
        out = tmp_path / "f.fpz"
        code = main(
            [
                "autotune", str(demo_npy), "--ratio", "10",
                "--tol", "0.05", "-o", str(out), "--no-ledger",
            ]
        )
        assert code == 0  # converged
        text = capsys.readouterr().out
        assert "autotune[ratio -> 10" in text
        assert "converged" in text
        raw = np.load(demo_npy).nbytes
        assert abs(raw / out.stat().st_size - 10.0) <= 0.5

    def test_json_report(self, demo_npy, capsys):
        code = main(
            [
                "autotune", str(demo_npy), "--ratio", "10",
                "--json", "--no-ledger",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == "ratio"
        assert doc["converged"] is True
        assert doc["n_trials"] <= 12
        assert doc["search"]["trajectory"]

    def test_requires_exactly_one_target(self, demo_npy):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["autotune", str(demo_npy)])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "autotune", str(demo_npy),
                    "--ratio", "10", "--bitrate", "4",
                ]
            )

    def test_ledger_record_appended(self, demo_npy, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(
            [
                "autotune", str(demo_npy), "--ratio", "10",
                "--ledger", str(ledger),
            ]
        ) == 0
        from repro.telemetry.ledger import read_entries

        (entry,), skipped = read_entries(str(ledger))
        assert skipped == 0
        assert entry.kind == "autotune"
        assert entry.mode == "ratio"
        assert entry.extra["converged"] is True
        assert entry.extra["objective"] == "ratio"
        assert entry.extra["eb_rel"] > 0
        assert entry.extra["trajectory"]

    def test_no_ledger_skips_append(self, demo_npy, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(
            [
                "autotune", str(demo_npy), "--ratio", "10",
                "--ledger", str(ledger), "--no-ledger",
            ]
        ) == 0
        assert not ledger.exists()

    def test_budget_exhaustion_exits_nonzero(self, demo_npy, capsys):
        code = main(
            [
                "autotune", str(demo_npy), "--ratio", "10",
                "--tol", "1e-9", "--max-trials", "2", "--no-ledger",
            ]
        )
        assert code == 1
        assert "NOT converged" in capsys.readouterr().out

    def test_constant_field_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "const.npy"
        np.save(path, np.zeros((32, 32), dtype=np.float32))
        code = main(
            ["autotune", str(path), "--ratio", "10", "--no-ledger"]
        )
        assert code == 2
        assert "constant field" in capsys.readouterr().err

    def test_max_error_objective(self, demo_npy, capsys):
        code = main(
            [
                "autotune", str(demo_npy), "--max-error", "0.05",
                "--no-ledger",
            ]
        )
        assert code == 0
        assert "max_error" in capsys.readouterr().out


class TestTransportFlags:
    def test_chunked_compress_identical_across_transports(
        self, demo_npy, tmp_path
    ):
        def run(label, workers):
            out = tmp_path / f"{label}.fpzc"
            code = main(
                [
                    "compress", str(demo_npy), "-o", str(out),
                    "--abs", "0.01", "--chunks", "3",
                    "--chunk-workers", workers,
                ]
            )
            assert code == 0
            return out.read_bytes()

        # The per-call pool's workers inherit the array.
        assert run("serial", "0") == run("pool", "2")

    def test_chunked_decompress_with_workers(self, demo_npy, tmp_path):
        out = tmp_path / "c.fpzc"
        rec = tmp_path / "r.npy"
        main(
            [
                "compress", str(demo_npy), "-o", str(out),
                "--psnr", "70", "--chunks", "2",
            ]
        )
        code = main(
            [
                "decompress", str(out), "-o", str(rec),
                "--chunk-workers", "2",
            ]
        )
        assert code == 0
        recon = np.load(rec)
        assert psnr(np.load(demo_npy), recon) >= 69.0

    def test_chunks_reject_unsupported_mode(self, demo_npy, tmp_path, capsys):
        code = main(
            [
                "compress", str(demo_npy), "-o", str(tmp_path / "x.fpzc"),
                "--nrmse", "0.01", "--chunks", "2",
            ]
        )
        assert code == 2
        assert "chunks" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--shm", "--no-shm"])
    def test_sweep_rejects_removed_shm_flags(self, flag, capsys):
        # Every parallel call picks its data plane itself; no
        # subcommand has a transport left to choose.
        for argv in (
            ["sweep", "NYX", "--targets", "60", "--workers", "2"],
            ["compress", "f.npy", "-o", "f.fpz", "--abs", "0.01",
             "--chunks", "2", "--chunk-workers", "2"],
            ["decompress", "f.fpz", "-o", "r.npy", "--chunk-workers", "2"],
            ["autotune", "f.npy", "--ratio", "10", "--workers", "2"],
            ["serve", "--workers", "2"],
        ):
            build_parser().parse_args(argv)
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, flag])
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestLedgerJson:
    """``fpzc ledger --json``: stable machine-readable JSONL output."""

    def _seed(self, tmp_path, n=3):
        from repro.telemetry.ledger import LedgerEntry, append_entry

        path = tmp_path / "ledger.jsonl"
        for i in range(n):
            append_entry(
                LedgerEntry(kind="compress", dataset=f"D{i}", ratio=float(i)),
                path=str(path),
            )
        return path

    def test_json_lines_sorted_and_parseable(self, tmp_path, capsys):
        path = self._seed(tmp_path)
        assert main(["ledger", "--json", "--ledger", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        docs = [json.loads(ln) for ln in lines]
        assert [d["dataset"] for d in docs] == ["D0", "D1", "D2"]
        for ln, doc in zip(lines, docs):
            assert ln == json.dumps(doc, sort_keys=True)  # stable key order

    def test_json_respects_limit(self, tmp_path, capsys):
        path = self._seed(tmp_path, n=5)
        assert main(
            ["ledger", "--json", "--limit", "2", "--ledger", str(path)]
        ) == 0
        docs = [json.loads(ln) for ln in
                capsys.readouterr().out.strip().splitlines()]
        assert [d["dataset"] for d in docs] == ["D3", "D4"]

    def test_limit_zero_means_everything(self, tmp_path, capsys):
        # entries[-0:] is the whole list -- document that as behavior.
        path = self._seed(tmp_path, n=4)
        assert main(
            ["ledger", "--json", "--limit", "0", "--ledger", str(path)]
        ) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_json_empty_ledger(self, tmp_path, capsys):
        path = tmp_path / "none.jsonl"
        assert main(["ledger", "--json", "--ledger", str(path)]) == 0
        assert capsys.readouterr().out.strip() == ""
