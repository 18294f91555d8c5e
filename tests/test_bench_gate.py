"""Tests for the perf-regression gate (:mod:`repro.telemetry.bench`).

The gate's contract: deterministic drift is a hard failure, wall-time
drift is a warning, and a clean re-run of the same tree passes.  The
integration tests run the real corpus (laptop-scale, a couple of
seconds) so the gate is exercised end to end, including through the
CLI exit codes.
"""

import copy
import json
import time

import pytest

from repro.telemetry.bench import (
    BASELINE_FILES,
    BENCH_SCHEMA_VERSION,
    check_baselines,
    compare_bench,
    run_compress_bench,
    run_sweep_bench,
    write_baselines,
)


def _mini_doc():
    """A hand-built compress baseline (no corpus run needed)."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "compress",
        "git_rev": "test",
        "cases": [
            {
                "id": "ATM/CLDHGH/sz/80dB",
                "deterministic": {
                    "compressed_bytes": 1000,
                    "ratio": 4.0,
                    "achieved_psnr": 80.5,
                    "trace": {"counters": {"pack.bytes.framing": 42}},
                },
                "timing": {"wall_s": 0.1},
            }
        ],
    }


class TestCompareBench:
    def test_identical_docs_are_clean(self):
        doc = _mini_doc()
        failures, warnings = compare_bench(doc, copy.deepcopy(doc))
        assert failures == [] and warnings == []

    def test_deterministic_drift_hard_fails(self):
        base, fresh = _mini_doc(), _mini_doc()
        fresh["cases"][0]["deterministic"]["compressed_bytes"] *= 2
        failures, warnings = compare_bench(base, fresh)
        assert len(failures) == 1
        assert "compressed_bytes" in failures[0]
        assert "1000" in failures[0] and "2000" in failures[0]
        assert warnings == []

    def test_nested_counter_drift_hard_fails(self):
        base, fresh = _mini_doc(), _mini_doc()
        fresh["cases"][0]["deterministic"]["trace"]["counters"][
            "pack.bytes.framing"
        ] = 43
        failures, _ = compare_bench(base, fresh)
        assert any("pack.bytes.framing" in f for f in failures)

    def test_new_and_missing_fields_hard_fail(self):
        base, fresh = _mini_doc(), _mini_doc()
        fresh["cases"][0]["deterministic"]["brand_new"] = 1
        del fresh["cases"][0]["deterministic"]["ratio"]
        failures, _ = compare_bench(base, fresh)
        assert any("brand_new" in f for f in failures)
        assert any("ratio" in f for f in failures)

    def test_time_drift_warns_but_passes(self):
        base, fresh = _mini_doc(), _mini_doc()
        fresh["cases"][0]["timing"]["wall_s"] = 10.0  # 100x slower
        failures, warnings = compare_bench(base, fresh, time_factor=3.0)
        assert failures == []
        assert len(warnings) == 1 and "slower" in warnings[0]

    def test_big_speedup_also_warns(self):
        base, fresh = _mini_doc(), _mini_doc()
        fresh["cases"][0]["timing"]["wall_s"] = 0.002  # 50x faster
        failures, warnings = compare_bench(base, fresh, time_factor=3.0)
        assert failures == []
        assert len(warnings) == 1 and "faster" in warnings[0]

    def test_sub_millisecond_walls_never_warn(self):
        base, fresh = _mini_doc(), _mini_doc()
        base["cases"][0]["timing"]["wall_s"] = 0.0005
        fresh["cases"][0]["timing"]["wall_s"] = 0.00005
        _, warnings = compare_bench(base, fresh)
        assert warnings == []

    def test_schema_mismatch_fails_fast(self):
        base, fresh = _mini_doc(), _mini_doc()
        fresh["schema"] = BENCH_SCHEMA_VERSION + 1
        failures, _ = compare_bench(base, fresh)
        assert failures and "schema" in failures[0]

    def test_missing_case_fails(self):
        base, fresh = _mini_doc(), _mini_doc()
        fresh["cases"] = []
        failures, _ = compare_bench(base, fresh)
        assert any("missing from fresh run" in f for f in failures)


class TestCheckBaselines:
    def test_missing_baseline_is_a_failure(self, tmp_path):
        failures, _ = check_baselines(
            str(tmp_path),
            fresh_docs={"compress": {}, "sweep": {}, "autotune": {}},
        )
        assert len(failures) == len(BASELINE_FILES)
        assert all("baseline missing" in f for f in failures)

    def test_unreadable_baseline_is_a_failure(self, tmp_path):
        for name in BASELINE_FILES.values():
            (tmp_path / name).write_text("{not json")
        failures, _ = check_baselines(
            str(tmp_path),
            fresh_docs={"compress": {}, "sweep": {}, "autotune": {}},
        )
        assert len(failures) == len(BASELINE_FILES)
        assert all("unreadable" in f for f in failures)


@pytest.fixture(scope="module")
def baseline_dir(tmp_path_factory):
    """One real corpus run shared by the integration tests."""
    d = tmp_path_factory.mktemp("bench")
    write_baselines(str(d))
    return d


class TestGateIntegration:
    def test_rerun_passes_clean(self, baseline_dir):
        # Determinism end to end: a fresh corpus run matches the
        # baselines written moments ago, bit for bit.
        failures, _ = check_baselines(str(baseline_dir))
        assert failures == []

    def test_injected_regression_fails(self, baseline_dir):
        fresh = {
            "compress": run_compress_bench(),
            "sweep": run_sweep_bench(),
        }
        fresh["compress"]["cases"][0]["deterministic"][
            "compressed_bytes"
        ] += 1
        failures, _ = check_baselines(str(baseline_dir), fresh_docs=fresh)
        assert len(failures) == 1
        assert "compressed_bytes" in failures[0]

    def test_cli_exit_codes(self, baseline_dir, capsys):
        from repro.cli.main import main

        assert main(["bench", "--check", "--dir", str(baseline_dir)]) == 0
        assert "passed" in capsys.readouterr().out
        # doctor one baseline on disk -> exit 1
        path = baseline_dir / BASELINE_FILES["compress"]
        doc = json.loads(path.read_text())
        doc["cases"][0]["deterministic"]["compressed_bytes"] += 1
        path.write_text(json.dumps(doc))
        assert main(["bench", "--check", "--dir", str(baseline_dir)]) == 1
        assert "FAILED" in capsys.readouterr().out
        # restore and pass again
        doc["cases"][0]["deterministic"]["compressed_bytes"] -= 1
        path.write_text(json.dumps(doc))
        assert main(["bench", "--check", "--dir", str(baseline_dir)]) == 0

    def test_cli_bench_writes_baselines(self, tmp_path, capsys):
        from repro.cli.main import main

        assert main(["bench", "--dir", str(tmp_path)]) == 0
        for name in BASELINE_FILES.values():
            assert (tmp_path / name).exists()


def test_sweep_wall_time_is_the_sweep():
    """The sweep baseline's wall time covers the sweep, not only the
    root spans (which were the four ``sz.reconstruct`` spans, ~2 ms of
    a ~0.1 s sweep, so the gate missed slowdowns of up to ~100x)."""
    t0 = time.perf_counter()
    doc = run_sweep_bench()
    elapsed = time.perf_counter() - t0
    assert doc["case"]["timing"]["wall_s"] >= 0.5 * elapsed


class TestAutotuneScenario:
    """The autotune part of the corpus: deterministic and comparable."""

    def _mini_autotune_doc(self):
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "kind": "autotune",
            "git_rev": "test",
            "case": {
                "cases": ["ATM/CLDHGH/sz/ratio=10"],
                "results": [
                    {
                        "id": "ATM/CLDHGH/sz/ratio=10",
                        "deterministic": {
                            "converged": True,
                            "eb_rel": 1e-3,
                            "achieved": 9.9,
                            "n_trials": 5,
                            "subsample_trials": 0,
                            "stop_reason": "converged",
                        },
                        "timing": {"wall_s": 0.1},
                    }
                ],
                "timing": {"wall_s": 0.1},
            },
        }

    def test_identical_docs_are_clean(self):
        doc = self._mini_autotune_doc()
        failures, warnings = compare_bench(doc, copy.deepcopy(doc))
        assert failures == [] and warnings == []

    def test_trial_count_drift_fails(self):
        base = self._mini_autotune_doc()
        fresh = copy.deepcopy(base)
        fresh["case"]["results"][0]["deterministic"]["n_trials"] = 9
        failures, _ = compare_bench(base, fresh)
        assert any("n_trials" in f for f in failures)

    def test_convergence_regression_fails(self):
        base = self._mini_autotune_doc()
        fresh = copy.deepcopy(base)
        det = fresh["case"]["results"][0]["deterministic"]
        det["converged"] = False
        det["stop_reason"] = "max_trials"
        failures, _ = compare_bench(base, fresh)
        assert any("converged" in f for f in failures)

    def test_real_run_is_reproducible(self):
        from repro.telemetry.bench import run_autotune_bench

        a = run_autotune_bench()
        b = run_autotune_bench()
        failures, _ = compare_bench(a, b)
        assert failures == []
        rows = a["case"]["results"]
        assert all(r["deterministic"]["converged"] for r in rows)
        assert all(r["deterministic"]["n_trials"] <= 12 for r in rows)


class TestCacheScenario:
    """The blob-cache part of the corpus: a warm run that recompresses
    (or serves different bytes) is deterministic drift, a hard fail."""

    def _mini_cache_doc(self):
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "kind": "cache",
            "git_rev": "test",
            "case": {
                "dataset": "ATM",
                "cases": ["c/cold", "c/warm", "c/eviction"],
                "results": [
                    {
                        "id": "c/cold",
                        "deterministic": {
                            "hit": False,
                            "compressed_bytes": 1000,
                            "ratio": 4.0,
                        },
                    },
                    {
                        "id": "c/warm",
                        "deterministic": {
                            "hit": True,
                            "identical": True,
                            "codec_spans": 0,
                        },
                    },
                    {
                        "id": "c/eviction",
                        "deterministic": {"evicted_under_pressure": True},
                    },
                ],
                "timing": {
                    "wall_s": 0.1,
                    "cold_wall_s": 0.09,
                    "warm_wall_s": 0.01,
                    "warm_over_cold": 0.11,
                },
            },
        }

    def test_identical_docs_are_clean(self):
        doc = self._mini_cache_doc()
        failures, warnings = compare_bench(doc, copy.deepcopy(doc))
        assert failures == [] and warnings == []

    def test_warm_recompression_hard_fails(self):
        # The acceptance wall: a warm run whose trace shows codec spans
        # (or whose bytes stopped matching) recompressed behind the
        # cache's back.
        base = self._mini_cache_doc()
        fresh = copy.deepcopy(base)
        det = fresh["case"]["results"][1]["deterministic"]
        det["hit"] = False
        det["codec_spans"] = 6
        det["identical"] = False
        failures, _ = compare_bench(base, fresh)
        assert any("hit" in f for f in failures)
        assert any("codec_spans" in f for f in failures)
        assert any("identical" in f for f in failures)

    def test_lost_eviction_hard_fails(self):
        base = self._mini_cache_doc()
        fresh = copy.deepcopy(base)
        fresh["case"]["results"][2]["deterministic"][
            "evicted_under_pressure"
        ] = False
        failures, _ = compare_bench(base, fresh)
        assert any("evicted_under_pressure" in f for f in failures)

    def test_slow_warm_run_warns(self):
        from repro.telemetry.bench import CACHE_WARM_THRESHOLD

        base = self._mini_cache_doc()
        fresh = copy.deepcopy(base)
        fresh["case"]["timing"]["warm_over_cold"] = (
            CACHE_WARM_THRESHOLD * 2
        )
        failures, warnings = compare_bench(base, fresh)
        assert failures == []
        assert any("warm (cache-hit) run" in w for w in warnings)

    def test_real_run_is_reproducible(self):
        from repro.telemetry.bench import run_cache_bench

        a = run_cache_bench()
        b = run_cache_bench()
        failures, _ = compare_bench(a, b)
        assert failures == []
        rows = {r["id"]: r["deterministic"] for r in a["case"]["results"]}
        warm = next(v for k, v in rows.items() if k.endswith("/warm"))
        assert warm["hit"] and warm["identical"]
        assert warm["codec_spans"] == 0
