"""Unit tests for the field-sweep executor."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.parallel.executor import (
    Executor,
    FieldResult,
    map_tasks,
    run_field_task,
    sweep_dataset,
)


class TestRunFieldTask:
    def test_single_task(self):
        r = run_field_task("NYX", "temperature", 60.0)
        assert isinstance(r, FieldResult)
        assert r.dataset == "NYX"
        assert r.field == "temperature"
        assert abs(r.actual_psnr - 60.0) < 6.0
        assert r.deviation == pytest.approx(r.actual_psnr - 60.0)
        assert r.met == (r.actual_psnr >= 60.0)
        assert r.compression_ratio > 1.0
        assert r.bit_rate > 0.0
        assert r.eb_rel == pytest.approx(np.sqrt(3) * 1e-3)

    def test_refined_task(self):
        r = run_field_task("ATM", "PRECL", 30.0, refine="histogram")
        assert abs(r.deviation) < 3.0

    def test_transform_codec_task(self):
        r = run_field_task("ATM", "TS", 60.0, codec="transform")
        assert abs(r.deviation) < 3.0

    def test_as_dict(self):
        r = run_field_task("NYX", "velocity_x", 80.0)
        d = r.as_dict()
        assert d["field"] == "velocity_x"
        assert set(d) >= {"actual_psnr", "deviation", "met", "compression_ratio"}


class TestSweep:
    def test_inline_sweep_order(self):
        results = sweep_dataset(
            "NYX", targets=[40.0, 80.0], fields=["temperature", "velocity_x"]
        )
        keys = [(r.target_psnr, r.field) for r in results]
        assert keys == [
            (40.0, "temperature"),
            (40.0, "velocity_x"),
            (80.0, "temperature"),
            (80.0, "velocity_x"),
        ]

    def test_unknown_field_raises(self):
        with pytest.raises(ParameterError):
            sweep_dataset("NYX", targets=[60.0], fields=["not_a_field"])

    def test_parallel_matches_inline(self):
        kwargs = dict(targets=[60.0], fields=["temperature", "baryon_density"])
        inline = sweep_dataset("NYX", **kwargs)
        parallel = sweep_dataset("NYX", n_workers=2, **kwargs)
        assert [r.as_dict() for r in inline] == [r.as_dict() for r in parallel]

    def test_accuracy_shape_over_targets(self):
        """Higher targets give tighter control (Table II shape)."""
        results = sweep_dataset(
            "NYX",
            targets=[30.0, 100.0],
            fields=["temperature", "velocity_x", "velocity_y"],
        )
        dev_lo = np.mean([abs(r.deviation) for r in results if r.target_psnr == 30.0])
        dev_hi = np.mean([abs(r.deviation) for r in results if r.target_psnr == 100.0])
        assert dev_hi <= dev_lo + 0.5


def _double(x):
    return 2 * x


class TestExecutor:
    def test_inline_kind_forced_for_zero_workers(self):
        with Executor(n_workers=0, kind="process") as ex:
            assert ex.inline
            assert ex.pool is None
            assert ex.arena is None
            assert ex.map(_double, [(1,), (2,)]) == [2, 4]

    def test_bad_kind_and_transport_rejected(self):
        with pytest.raises(ParameterError):
            Executor(n_workers=2, kind="fiber")
        with pytest.raises(ParameterError):
            Executor(n_workers=2, transport="carrier-pigeon")

    def test_thread_kind_matches_inline(self):
        kwargs = dict(targets=[60.0], fields=["temperature"])
        inline = sweep_dataset("NYX", **kwargs)
        with Executor(n_workers=2, kind="thread") as ex:
            threaded = sweep_dataset("NYX", executor=ex, **kwargs)
        assert [r.as_dict() for r in inline] == [
            r.as_dict() for r in threaded
        ]

    def test_process_kind_reused_across_sweeps(self):
        kwargs = dict(targets=[60.0], fields=["temperature"])
        inline = sweep_dataset("NYX", **kwargs)
        with Executor(n_workers=2) as ex:
            first = sweep_dataset("NYX", executor=ex, **kwargs)
            pool = ex._pool
            second = sweep_dataset("NYX", executor=ex, **kwargs)
            assert ex._pool is pool  # same long-lived pool, no respawn
        assert [r.as_dict() for r in inline] == [r.as_dict() for r in first]
        assert [r.as_dict() for r in first] == [r.as_dict() for r in second]

    def test_map_tasks_uses_executor(self):
        with Executor(n_workers=2, kind="thread") as ex:
            assert map_tasks(_double, [(3,), (4,)], executor=ex) == [6, 8]

    def test_closed_executor_rejects_work(self):
        ex = Executor(n_workers=2, kind="thread")
        ex.close()
        ex.close()  # idempotent
        assert ex.closed
        with pytest.raises(ParameterError):
            ex.submit(_double, 1)

    def test_warm_spawns_workers(self):
        with Executor(n_workers=2) as ex:
            n = ex.warm()
            assert 1 <= n <= 2
        with Executor(n_workers=2, kind="thread") as ex:
            assert ex.warm() == 0

    def test_retry_path_with_executor(self):
        from repro.resilience.inject import WorkerFault
        from repro.resilience.retry import RetryPolicy

        with Executor(n_workers=2) as ex:
            results = sweep_dataset(
                "NYX",
                targets=[60.0],
                fields=["temperature"],
                executor=ex,
                retry=RetryPolicy(max_retries=2, backoff_base=0.01),
                fault=WorkerFault(
                    kind="exception",
                    fields=("temperature",),
                    fail_attempts=1,
                ),
            )
        assert results[0].ok
        assert results[0].attempts == 2

    def test_autotune_accepts_executor(self, smooth2d):
        from repro.autotune import autotune

        solo = autotune(smooth2d, "psnr", 60.0, max_trials=6)
        with Executor(n_workers=2, kind="thread") as ex:
            pooled = autotune(
                smooth2d, "psnr", 60.0, max_trials=6, executor=ex
            )
        assert pooled.eb_rel == pytest.approx(solo.eb_rel)
        assert pooled.achieved == pytest.approx(solo.achieved)

    def test_chunked_accepts_executor(self, smooth2d):
        from repro.parallel.chunking import (
            compress_chunked,
            decompress_chunked,
        )

        solo = compress_chunked(smooth2d, 1e-3, mode="rel", n_chunks=3)
        with Executor(n_workers=2, kind="thread") as ex:
            pooled = compress_chunked(
                smooth2d, 1e-3, mode="rel", n_chunks=3, executor=ex
            )
            assert pooled == solo
            recon = decompress_chunked(pooled, executor=ex)
        np.testing.assert_array_equal(recon, decompress_chunked(solo))


class TestPoolLifecycle:
    def test_pool_shut_down_when_first_submit_raises(self, monkeypatch):
        """Regression: an exception between pool creation and the
        try-block used to leak the pool's worker processes.  Any
        failure after construction must reach ``shutdown`` exactly
        once, with ``cancel_futures`` so queued work dies too."""
        import repro.parallel.executor as ex
        from repro.resilience.retry import RetryPolicy

        shutdown_calls = []

        class ExplodingPool:
            def __init__(self, max_workers=None):
                pass

            def submit(self, *a, **kw):
                raise RuntimeError("submit exploded")

            def shutdown(self, wait=True, cancel_futures=False):
                shutdown_calls.append((wait, cancel_futures))

        monkeypatch.setattr(ex, "ProcessPoolExecutor", ExplodingPool)
        task = (
            "NYX", "temperature", 60.0, None, None, "sz", False, False, None,
        )
        with pytest.raises(RuntimeError, match="submit exploded"):
            ex._sweep_pool_with_retry(
                [task],
                RetryPolicy(max_retries=0),
                None,
                ex._resilience_counters(),
                n_workers=2,
            )
        assert shutdown_calls == [(False, True)]
