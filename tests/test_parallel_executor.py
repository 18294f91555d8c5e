"""Unit tests for the field-sweep executor.

``FPZC_TEST_WORKERS`` sets the pool width of the pool-count tests (CI's
``parallel-matrix`` job runs this module at 1, 2 and 4 workers); the
default is 2.
"""

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.parallel.executor as executor_module
from repro.errors import ErrorCode, ParameterError
from repro.parallel.executor import (
    Executor,
    FieldResult,
    run_field_task,
    sweep_dataset,
)

WORKERS = int(os.environ.get("FPZC_TEST_WORKERS", "2"))


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

    @pytest.mark.parametrize("n_workers", [0, 2], ids=["serial", "pool"])
    def test_traced_sweep_measures_under_each_field(self, n_workers):
        """The measurement runs inside the task's trace: every field's
        subtree holds its ``sz.reconstruct``, and nothing lands at the
        caller's root (a serial sweep used to record the reconstruction
        there, and a pool sweep dropped it)."""
        from repro.observe import Trace, use_trace

        fields = ["CLDHGH", "FLDS"]
        tr = Trace()
        with use_trace(tr):
            sweep_dataset(
                "ATM", targets=[40.0], fields=fields, scale=0.5,
                n_workers=n_workers, collect_trace=True,
            )
        paths = {r.path for r in tr.records}
        assert all(len(p) > 1 for p in paths), sorted(paths)
        for name in fields:
            assert (f"field:{name}", "sz.reconstruct") in paths

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
            assert ex.map(_double, [(1,), (2,)]) == [2, 4]

    def test_bad_kind_and_transport_rejected(self):
        with pytest.raises(ParameterError):
            Executor(n_workers=2, kind="fiber")
        # The data plane is chosen per call; there is no knob for it.
        with pytest.raises(TypeError):
            Executor(n_workers=2, transport="shm")

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

    def test_map_preserves_order_on_the_pool(self):
        tasks = [(i,) for i in range(7)]
        with Executor(n_workers=2, kind="thread") as ex:
            assert ex.map(_double, tasks) == [2 * i for i in range(7)]
            assert ex.map(_double, tasks, chunksize=3) == [
                2 * i for i in range(7)
            ]
            assert ex.map(_double, []) == []

    def test_closed_executor_rejects_work(self):
        ex = Executor(n_workers=2, kind="thread")
        ex.close()
        ex.close()  # idempotent
        with pytest.raises(ParameterError):
            ex.map(_double, [(1,)])
        with pytest.raises(ParameterError):
            ex.pool

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
        once, with ``cancel_futures`` so queued work dies too, and
        without waiting (the retry path abandons hung attempts)."""
        from repro.resilience.retry import RetryPolicy

        shutdown_calls = []

        class ExplodingPool:
            def __init__(self, max_workers=None, mp_context=None):
                pass

            def submit(self, *a, **kw):
                raise RuntimeError("submit exploded")

            def shutdown(self, wait=True, cancel_futures=False):
                shutdown_calls.append((wait, cancel_futures))

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", ExplodingPool
        )
        with pytest.raises(RuntimeError, match="submit exploded"):
            sweep_dataset(
                "NYX",
                targets=[60.0],
                fields=["temperature"],
                n_workers=2,
                retry=RetryPolicy(max_retries=0),
            )
        assert shutdown_calls == [(False, True)]

    def test_concurrent_first_use_builds_one_pool(self, monkeypatch):
        """Two threads reaching ``pool`` together while the pool is
        being built -- the service's event loop and a sweep job's
        default-executor thread -- get one and the same pool."""
        built = []

        class SlowPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                time.sleep(0.2)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", SlowPool)
        barrier = threading.Barrier(2)
        seen = []

        def first_use(ex):
            barrier.wait()
            seen.append(ex.pool)

        with Executor(n_workers=2) as ex:
            threads = [
                threading.Thread(target=first_use, args=(ex,))
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(built) == 1
            assert seen[0] is seen[1] is ex.pool
        for pool in built:
            pool.shutdown()


@pytest.mark.fault
class TestSweepFaults:
    """Faults in pool workers degrade the sweep per task."""

    KW = dict(targets=[60.0], fields=["temperature", "baryon_density"])
    FAST = dict(backoff_base=0.01, backoff_max=0.05, jitter=0.0, seed=0)

    def _retry(self, **kw):
        from repro.resilience.retry import RetryPolicy

        return RetryPolicy(**{**self.FAST, **kw})

    def test_exhausted_crash_degrades(self):
        from repro.resilience.inject import WorkerFault

        fault = WorkerFault(
            "exception", fields=("temperature",), fail_attempts=99
        )
        results = sweep_dataset(
            "NYX",
            n_workers=WORKERS,
            retry=self._retry(max_retries=1),
            fault=fault,
            **self.KW,
        )
        by_field = {r.field: r for r in results}
        assert by_field["temperature"].status == "failed"
        assert by_field["temperature"].error_code == ErrorCode.TASK_FAILED
        assert by_field["baryon_density"].ok

    def test_hang_timeout_degrades(self):
        from repro.resilience.inject import WorkerFault

        fault = WorkerFault(
            "hang", fields=("temperature",), hang_seconds=8.0,
            fail_attempts=99,
        )
        # One worker per field: the deadline clock starts at submit,
        # so a narrower pool would charge the healthy field for the
        # time it spends queued behind the hung one.
        results = sweep_dataset(
            "NYX",
            n_workers=len(self.KW["fields"]),
            retry=self._retry(max_retries=0, task_timeout=2.0),
            fault=fault,
            **self.KW,
        )
        by_field = {r.field: r for r in results}
        assert by_field["temperature"].status == "failed"
        assert by_field["temperature"].error_code == ErrorCode.TASK_TIMEOUT
        assert by_field["baryon_density"].ok

    def test_poison_degrades(self):
        from repro.resilience.inject import WorkerFault

        fault = WorkerFault(
            "poison", fields=("temperature",), fail_attempts=99
        )
        results = sweep_dataset(
            "NYX",
            n_workers=WORKERS,
            retry=self._retry(max_retries=0),
            fault=fault,
            **self.KW,
        )
        failed = [r for r in results if not r.ok]
        assert len(failed) == 1
        assert failed[0].error_code == ErrorCode.POISONED_RESULT


ENTRY_POINTS = [
    "sweep_dataset", "compress_chunked", "decompress_chunked", "autotune",
]


def _entry_points(data):
    """One call of every parallel entry point, by name; each takes
    ``n_workers=`` or ``executor=``."""
    from repro.autotune import autotune
    from repro.parallel.chunking import compress_chunked, decompress_chunked

    blob = compress_chunked(data, 1e-3, mode="rel", n_chunks=3)
    return {
        "sweep_dataset": lambda **kw: sweep_dataset(
            "NYX", targets=[60.0], fields=["temperature"], **kw
        ),
        "compress_chunked": lambda **kw: compress_chunked(
            data, 1e-3, mode="rel", n_chunks=3, **kw
        ),
        "decompress_chunked": lambda **kw: decompress_chunked(blob, **kw),
        "autotune": lambda **kw: autotune(
            data, "psnr", 60.0, max_trials=4, keep_blob=False, **kw
        ),
    }


class TestPoolCount:
    """Every parallel entry point gets its workers from ``Executor``:
    a pooled call starts exactly one pool, and a call handed an
    executor starts none.  Pools are counted the way perfbench's
    ``parallel.pool_starts`` counts them, by patching
    ``repro.parallel.executor.ProcessPoolExecutor``."""

    @pytest.fixture
    def pool_starts(self, monkeypatch):
        starts = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", CountingPool
        )
        return starts

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_one_pool_per_pooled_call(self, pool_starts, smooth2d, name):
        _entry_points(smooth2d)[name](n_workers=WORKERS)
        assert len(pool_starts) == 1

    def test_no_pool_when_given_an_executor(self, pool_starts, smooth2d):
        calls = _entry_points(smooth2d)
        with Executor(n_workers=WORKERS) as ex:
            assert ex.pool is not None
            for name in ENTRY_POINTS:
                calls[name](executor=ex)
                assert len(pool_starts) == 1, name

    def test_no_pool_when_inline(self, pool_starts, smooth2d):
        for call in _entry_points(smooth2d).values():
            call(n_workers=0)
        assert pool_starts == []
