"""PSNR conformance recording, drift control charts, and ``fpzc drift``."""

import json

import numpy as np
import pytest

from repro.cli.main import main
from repro.errors import ParameterError
from repro.telemetry.drift import (
    EXIT_DRIFTING,
    EXIT_IN_CONTROL,
    EXIT_INSUFFICIENT,
    conformance_points,
    drift_report,
    record_conformance,
    record_eq8_conformance,
)
from repro.telemetry.ledger import LedgerEntry, append_entry, read_entries
from repro.telemetry.registry import MetricsRegistry


def _entry(conformance, created="2026-08-08T00:00:00+00:00"):
    return LedgerEntry(
        kind="compress", created=created,
        extra={"conformance": conformance},
    )


def _payload(dev, dataset="ATM", codec="sz", target=80.0):
    return {
        "dataset": dataset, "codec": codec, "target_psnr": target,
        "predicted_psnr": target, "achieved_psnr": target + dev,
        "deviation_db": dev, "n_fields": 1,
    }


class TestRecordConformance:
    def test_payload_and_metrics(self):
        reg = MetricsRegistry()
        payload = record_conformance(
            "ATM", "sz", 80.0, 79.9, 80.3, n_fields=2, registry=reg
        )
        assert payload["deviation_db"] == pytest.approx(0.4)
        assert payload["n_fields"] == 2
        snap = reg.snapshot()["metrics"]
        assert snap["psnr.predicted_db"]["value"] == 79.9
        assert snap["psnr.achieved_db"]["value"] == 80.3
        assert snap["psnr.conformance_records_total"]["value"] == 1
        hist = snap["psnr.deviation_db"]
        assert hist["kind"] == "histogram" and hist["count"] == 1

    def test_rejects_bad_n_fields(self):
        with pytest.raises(ParameterError):
            record_conformance("A", "sz", 80, 80, 80, n_fields=0,
                               registry=MetricsRegistry())


    def test_eq8_conformance_one_record_per_target(self):
        from repro.core.fixed_psnr import estimate_psnr_from_bound

        runs = [(60.0, 1e-3, 61.0), (40.0, 1e-2, 41.0), (60, 2e-3, 62.0)]
        out = record_eq8_conformance("ATM", "sz", runs)
        assert [c["target_psnr"] for c in out] == [40.0, 60.0]
        assert [c["n_fields"] for c in out] == [1, 2]
        predicted = (
            estimate_psnr_from_bound(eb_rel=1e-3)
            + estimate_psnr_from_bound(eb_rel=2e-3)
        ) / 2
        assert out[1]["predicted_psnr"] == predicted
        assert out[1]["achieved_psnr"] == 61.5
        assert record_eq8_conformance("ATM", "sz", []) == []


class TestConformancePoints:
    def test_flattens_dict_and_list_payloads(self):
        entries = [
            _entry(_payload(0.1)),                       # compress: dict
            _entry([_payload(0.2), _payload(0.3, target=40.0)]),  # sweep
            LedgerEntry(kind="compress"),                # schema <= 2
        ]
        points = conformance_points(entries)
        assert [p.deviation_db for p in points] == [0.1, 0.2, 0.3]
        assert points[2].key == ("ATM", "sz", 40.0)

    def test_malformed_payloads_skipped(self):
        entries = [
            _entry({"dataset": "A"}),          # missing required keys
            _entry("not a dict"),
            _entry([{"dataset": "A", "codec": "sz", "target_psnr": "NaNope",
                     "predicted_psnr": 1, "achieved_psnr": 2}]),
            _entry(_payload(0.5)),
        ]
        points = conformance_points(entries)
        assert len(points) == 1 and points[0].deviation_db == 0.5

    def test_deviation_derived_when_absent(self):
        doc = _payload(0.0)
        del doc["deviation_db"]
        doc["achieved_psnr"] = 81.0
        (p,) = conformance_points([_entry(doc)])
        assert p.deviation_db == pytest.approx(1.0)


class TestSchemaSkew:
    def test_schema2_reader_keeps_payload_opaque(self, tmp_path):
        # A schema-3 line read by any from_dict vintage: conformance
        # stays inside extra, no top-level key changed.
        path = tmp_path / "l.jsonl"
        append_entry(_entry(_payload(0.1)), path=str(path))
        (entry,), skipped = read_entries(str(path))
        assert skipped == 0
        assert entry.extra["conformance"]["deviation_db"] == 0.1

    def test_schema3_reader_tolerates_old_and_future_lines(self, tmp_path):
        path = tmp_path / "l.jsonl"
        old = {"schema": 2, "kind": "compress", "counters": {}}
        future = {"schema": 99, "kind": "compress",
                  "from_the_future": True, "extra": {}}
        path.write_text(
            json.dumps(old) + "\n" + json.dumps(future) + "\n"
        )
        entries, skipped = read_entries(str(path))
        assert skipped == 0 and len(entries) == 2
        assert conformance_points(entries) == []
        assert entries[1].extra["from_the_future"] is True


class TestDriftReport:
    def test_empty_history_is_insufficient(self):
        report = drift_report([])
        assert report.status == "insufficient"
        assert report.exit_code == EXIT_INSUFFICIENT
        assert "no conformance history" in report.render()

    def test_single_point_is_insufficient(self):
        report = drift_report([_entry(_payload(0.1))])
        assert report.status == "insufficient"
        assert report.series[0].reason.startswith("need >=")

    def test_stable_series_in_control(self):
        entries = [_entry(_payload(0.1)) for _ in range(6)]
        report = drift_report(entries)
        assert report.status == "ok"
        assert report.exit_code == EXIT_IN_CONTROL
        (s,) = report.series
        assert s.n == 6 and s.status == "ok"

    def test_step_change_alarms(self):
        devs = [0.1] * 8 + [3.0] * 4
        report = drift_report([_entry(_payload(d)) for d in devs])
        assert report.status == "drifting"
        assert report.exit_code == EXIT_DRIFTING
        (s,) = report.series
        assert "EWMA" in s.reason or "CUSUM" in s.reason
        # The baseline came from the pre-regression half.
        assert s.baseline_mean == pytest.approx(0.1)

    def test_mixed_series_overall_status(self):
        entries = (
            [_entry(_payload(0.1, dataset="A")) for _ in range(4)]
            + [_entry(_payload(d, dataset="B")) for d in [0.1] * 8 + [4.0] * 4]
        )
        report = drift_report(entries)
        assert {s.status for s in report.series} == {"ok", "drifting"}
        assert report.status == "drifting"

    def test_zero_variance_uses_sigma_floor(self):
        report = drift_report([_entry(_payload(0.25)) for _ in range(4)])
        (s,) = report.series
        assert s.baseline_sigma == 0.05  # the floor, never zero
        assert s.status == "ok"

    @pytest.mark.parametrize("kwargs", [
        {"ewma_lambda": 0.0}, {"ewma_lambda": 1.5}, {"sigma_limit": 0},
        {"cusum_h": 0}, {"cusum_k": -1}, {"min_history": 1},
        {"sigma_floor": 0},
    ])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ParameterError):
            drift_report([], **kwargs)

    def test_render_and_as_dict(self):
        entries = [_entry(_payload(0.1)) for _ in range(3)]
        report = drift_report(entries)
        text = report.render()
        assert "ATM" in text and "ok" in text
        doc = report.as_dict()
        assert doc["status"] == "ok"
        assert doc["params"]["min_history"] == 2
        json.dumps(doc)  # JSON-serializable throughout


class TestCliDrift:
    def test_check_exit_codes_all_three(self, tmp_path, capsys):
        ledger = str(tmp_path / "l.jsonl")
        # 2: no history at all.
        assert main(["drift", "--check", "--ledger", ledger]) == 2
        # Without --check the exit code stays 0.
        assert main(["drift", "--ledger", ledger]) == 0
        # 0: two in-control observations.
        for _ in range(2):
            append_entry(_entry(_payload(0.1)), path=ledger)
        assert main(["drift", "--check", "--ledger", ledger]) == 0
        # 1: a step change on top of the stable history.
        for _ in range(6):
            append_entry(_entry(_payload(0.1)), path=ledger)
        for _ in range(4):
            append_entry(_entry(_payload(3.0)), path=ledger)
        assert main(["drift", "--check", "--ledger", ledger]) == 1
        assert "drifting" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        ledger = str(tmp_path / "l.jsonl")
        for _ in range(3):
            append_entry(_entry(_payload(0.2)), path=ledger)
        assert main(["drift", "--json", "--ledger", ledger]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok" and len(doc["series"]) == 1

    def test_bad_params_fail_cleanly(self, tmp_path, capsys):
        code = main(["drift", "--ledger", str(tmp_path / "l.jsonl"),
                     "--ewma-lambda", "2.0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCompressRecordsConformance:
    def test_traced_psnr_run_appends_payload(self, tmp_path, smooth2d):
        npy = tmp_path / "f.npy"
        np.save(npy, smooth2d.astype(np.float32))
        ledger = str(tmp_path / "l.jsonl")
        assert main([
            "compress", str(npy), "-o", str(tmp_path / "f.fpz"),
            "--psnr", "70", "--trace", "--ledger", ledger,
        ]) == 0
        (entry,), _ = read_entries(ledger)
        conf = entry.extra["conformance"]
        assert conf["codec"] == "sz" and conf["target_psnr"] == 70.0
        # Eq. 8 inverts exactly at the derived (unrefined) bound.
        assert conf["predicted_psnr"] == pytest.approx(70.0, abs=1e-6)
        assert conf["achieved_psnr"] == pytest.approx(
            entry.achieved_psnr
        )

    def test_traced_sweep_appends_per_target_list(self, tmp_path):
        ledger = str(tmp_path / "l.jsonl")
        assert main([
            "sweep", "ATM", "--fields", "CLDHGH", "FLDS",
            "--targets", "40", "60", "--trace", "--ledger", ledger,
        ]) == 0
        (entry,), _ = read_entries(ledger)
        conf = entry.extra["conformance"]
        assert [c["target_psnr"] for c in conf] == [40.0, 60.0]
        assert all(c["n_fields"] == 2 for c in conf)
        assert all(c["dataset"] == "ATM" for c in conf)
        # The list payload reads back as one point per target.
        assert len(conformance_points([entry])) == 2

    def test_cli_and_served_sweeps_record_equal_payloads(self, tmp_path):
        from repro.service.testing import ServiceThread

        fields, targets = ["CLDHGH", "FLDS"], [40.0, 60.0]
        cli_ledger = str(tmp_path / "cli.jsonl")
        assert main([
            "sweep", "ATM", "--fields", *fields,
            "--targets", *map(str, targets), "--trace", "--ledger", cli_ledger,
        ]) == 0
        served_ledger = str(tmp_path / "served.jsonl")
        with ServiceThread(ledger=served_ledger) as st:
            client = st.client()
            job = client.submit(
                "sweep",
                {"dataset": "ATM", "fields": fields, "targets": targets},
            )
            assert client.wait(job, timeout=180)["state"] == "done"
        (cli,), _ = read_entries(cli_ledger)
        (served,), _ = read_entries(served_ledger)
        assert len(cli.extra["conformance"]) == 2
        assert served.extra["conformance"] == cli.extra["conformance"]

    def test_untargeted_run_has_no_conformance(self, tmp_path, smooth2d):
        npy = tmp_path / "f.npy"
        np.save(npy, smooth2d.astype(np.float32))
        ledger = str(tmp_path / "l.jsonl")
        assert main([
            "compress", str(npy), "-o", str(tmp_path / "f.fpz"),
            "--abs", "0.01", "--trace", "--ledger", ledger,
        ]) == 0
        (entry,), _ = read_entries(ledger)
        assert "conformance" not in entry.extra
