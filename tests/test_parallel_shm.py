"""The differential wall around the shared-memory data plane.

The data plane is an implementation detail: every entry point that
moves a user array to workers (chunked compress/decompress, the
autotune probe fan-out) must produce **bit-identical** output whether
payloads move inline, over the pickle channel, or through
:mod:`repro.parallel.shm` -- across codecs, dtypes and awkward shapes.
A pooled call picks shm on its own; the pickle arm is forced by
setting the size guard's ``MAX_SHARE_BYTES`` to 0, which turns every
payload away.  These tests pin that contract (container bytes and
per-stream CRCs, not just reconstructions), plus the arena lifecycle,
the fallback guards, and fault-time cleanup.  (Sweeps ship field names
only; their differential suite is ``tests/test_field_source.py``.)

``FPZC_TEST_WORKERS`` sets the pool width (CI's ``parallel-matrix``
job runs this module at 1, 2 and 4 workers); the default is 2.
"""

import contextlib
import os

import numpy as np
import pytest

import repro.parallel.shm as shm
from repro.errors import ErrorCode, ParameterError, TransportError
from repro.io.container import Container
from repro.parallel.chunking import compress_chunked, decompress_chunked
from repro.parallel.executor import sweep_dataset
from repro.parallel.shm import (
    InlineArrayRef,
    ShmArena,
    ShmArrayRef,
    ShmBytesRef,
    ShmSliceRef,
    open_payload,
    publish_array,
    publish_bytes,
    shm_available,
    shm_dir_entries,
    take_bytes,
)

WORKERS = int(os.environ.get("FPZC_TEST_WORKERS", "2"))

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(autouse=True)
def _zero_leaked_segments():
    """Every test in this module must leave ``/dev/shm`` as it found
    it -- the acceptance criterion's 'zero leaked segments' clause."""
    before = set(shm_dir_entries("fpz"))
    yield
    import gc

    gc.collect()
    leaked = set(shm_dir_entries("fpz")) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@contextlib.contextmanager
def _pickle_arm():
    """Inside the block the size guard turns every payload away, so a
    pooled call moves all of them over the pickle channel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shm, "MAX_SHARE_BYTES", 0)
        yield


def _counter(name):
    from repro.telemetry.registry import metrics

    m = metrics().get(name)
    return 0 if m is None else m.value


def _shared_bytes() -> int:
    return _counter("shm.bytes_shared_total")


def _field(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    for axis in range(x.ndim):
        x = np.cumsum(x, axis=axis)
    return x.astype(dtype)


# ---------------------------------------------------------------------------
# arena + ref mechanics
# ---------------------------------------------------------------------------


@needs_shm
class TestArenaLifecycle:
    def test_share_roundtrip_readonly(self):
        x = _field((64, 64), np.float64)
        with ShmArena() as arena:
            ref = arena.share(x)
            assert isinstance(ref, ShmArrayRef)
            with ref.open() as view:
                assert np.array_equal(view, x)
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0, 0] = 1.0

    def test_double_release_is_typed_error(self):
        # take_bytes drains a worker-published segment and unlinks it;
        # draining it a second time must not crash or resurrect it.
        blob = os.urandom(shm.MIN_SHARE_BYTES + 17)
        with ShmArena() as arena:
            payload = publish_bytes(arena.prefix, blob)
            assert take_bytes(payload) == blob
            with pytest.raises(TransportError) as exc:
                take_bytes(payload)
            assert exc.value.code == ErrorCode.SHM_RELEASED
            assert shm_dir_entries(arena.prefix) == []

    def test_share_after_close_is_typed_error(self):
        arena = ShmArena()
        arena.close()
        with pytest.raises(TransportError) as exc:
            arena.share(np.zeros((64, 64)))
        assert exc.value.code == ErrorCode.SHM_RELEASED

    def test_close_is_idempotent_and_detaches_finalizer(self):
        arena = ShmArena()
        arena.share(_field((64, 64), np.float64))
        assert arena.finalizer_alive
        arena.close()
        assert not arena.finalizer_alive
        arena.close()  # no error
        assert shm_dir_entries(arena.prefix) == []

    def test_attach_after_unlink_is_typed_error(self):
        arena = ShmArena()
        ref = arena.share(_field((64, 64), np.float64))
        arena.close()
        with pytest.raises(TransportError) as exc:
            with ref.open():
                pass
        assert exc.value.code == ErrorCode.SHM_RELEASED

    def test_finalizer_sweeps_dropped_arena(self):
        import gc

        arena = ShmArena()
        prefix = arena.prefix
        arena.share(_field((64, 64), np.float64))
        assert shm_dir_entries(prefix)
        del arena
        gc.collect()
        assert shm_dir_entries(prefix) == []

    def test_close_sweeps_worker_published_orphans(self):
        arena = ShmArena()
        payload = publish_array(
            arena.prefix, _field((64, 64), np.float64)
        )
        assert isinstance(payload, ShmArrayRef)
        assert shm_dir_entries(arena.prefix)
        arena.close()  # nobody adopted it -> the prefix sweep reclaims
        assert shm_dir_entries(arena.prefix) == []

    def test_slice_refs_cover_array(self):
        x = _field((97, 53), np.float64)
        rows = [25, 24, 24, 24]
        with ShmArena() as arena:
            ref = arena.share(x)
            parts = arena.slice_refs(ref, rows)
            assert all(isinstance(p, ShmSliceRef) for p in parts)
            recon = []
            for p in parts:
                with p.open() as v:
                    recon.append(np.array(v))
            assert np.array_equal(np.concatenate(recon), x)

    def test_publish_and_take_bytes(self):
        blob = os.urandom(shm.MIN_SHARE_BYTES + 17)
        with ShmArena() as arena:
            payload = publish_bytes(arena.prefix, blob)
            assert isinstance(payload, ShmBytesRef)
            assert take_bytes(payload) == blob  # also unlinks

    def test_adopt_published_array(self):
        x = _field((64, 64), np.float64)
        with ShmArena() as arena:
            payload = publish_array(arena.prefix, x)
            adopted = arena.adopt_array(payload)
            assert np.array_equal(adopted, x)
            assert not adopted.flags.writeable


class TestFallbackGuards:
    def test_tiny_payload_stays_inline(self):
        with ShmArena() as arena:
            ref = arena.share(np.zeros(4))
            assert isinstance(ref, InlineArrayRef)

    def test_zero_d_payload_stays_inline(self):
        with ShmArena() as arena:
            ref = arena.share(np.float64(3.5))
            assert isinstance(ref, InlineArrayRef)
            with open_payload(ref) as v:
                assert float(v) == 3.5

    def test_oversize_guard_falls_back(self, monkeypatch):
        # Simulates the >2 GiB-index / constrained-tmpfs guard without
        # allocating gigabytes: any payload above the cap must degrade
        # to pickle transport, never fail.
        monkeypatch.setattr(shm, "MAX_SHARE_BYTES", 1024)
        with ShmArena() as arena:
            ref = arena.share(_field((64, 64), np.float64))
            assert isinstance(ref, InlineArrayRef)

    def test_disabled_arena_shares_inline(self):
        with ShmArena(enabled=False) as arena:
            ref = arena.share(_field((64, 64), np.float64))
            assert isinstance(ref, InlineArrayRef)

    def test_publish_respects_guard(self, monkeypatch):
        monkeypatch.setattr(shm, "MAX_SHARE_BYTES", 1024)
        out = publish_array("fpzguardtest", _field((64, 64), np.float64))
        assert isinstance(out, np.ndarray)
        blob = b"x" * (1 << 20)
        assert publish_bytes("fpzguardtest", blob) is blob

    def test_open_payload_rejects_non_payloads(self):
        with pytest.raises(ParameterError):
            with open_payload("not an array"):
                pass


# ---------------------------------------------------------------------------
# differential: every data plane, bit-identical output
# ---------------------------------------------------------------------------


class TestChunkedDifferential:
    SHAPES = [
        ((97, 53), np.float32),   # prime-sized rows, uneven slabs
        ((97, 53), np.float64),
        ((61,), np.float64),      # 1-d, prime length
        ((16, 7, 11), np.float32),
    ]

    @pytest.mark.parametrize("shape,dtype", SHAPES)
    def test_container_bytes_identical_across_transports(self, shape, dtype):
        data = _field(shape, dtype, seed=hash((shape, str(dtype))) % 2**32)
        kwargs = dict(mode="rel", n_chunks=4)
        serial = compress_chunked(data, 1e-3, **kwargs)
        before = _shared_bytes()
        with _pickle_arm():
            pickled = compress_chunked(
                data, 1e-3, n_workers=WORKERS, **kwargs
            )
        assert _shared_bytes() == before
        shared = compress_chunked(data, 1e-3, n_workers=WORKERS, **kwargs)
        if shm_available() and data.nbytes >= shm.MIN_SHARE_BYTES:
            assert _shared_bytes() > before
        assert serial == pickled == shared
        # Same bytes implies same CRCs, but assert the stream level
        # explicitly so a future container change can't mask a drift.
        crcs = Container.from_bytes(serial).stream_crcs()
        assert crcs == Container.from_bytes(shared).stream_crcs()
        assert len(crcs) == 4

    def test_decompress_identical_across_transports(self):
        data = _field((97, 53), np.float64, seed=7)
        blob = compress_chunked(data, 1e-3, mode="rel", n_chunks=4)
        serial = decompress_chunked(blob)
        with _pickle_arm():
            pickled = decompress_chunked(blob, n_workers=WORKERS)
        shared = decompress_chunked(blob, n_workers=WORKERS)
        assert serial.dtype == pickled.dtype == shared.dtype
        assert np.array_equal(serial, pickled)
        assert np.array_equal(serial, shared)
        assert np.max(np.abs(shared - data)) <= 1e-3 * np.ptp(data) * (1 + 1e-9)

    def test_oversize_guard_path_still_bit_identical(self, monkeypatch):
        # Force every share over the capacity guard: the pool must
        # degrade to pickle payloads and still produce the same bytes.
        data = _field((97, 53), np.float64, seed=9)
        want = compress_chunked(data, 1e-3, mode="rel", n_chunks=4)
        monkeypatch.setattr(shm, "MAX_SHARE_BYTES", 256)
        got = compress_chunked(
            data, 1e-3, mode="rel", n_chunks=4, n_workers=WORKERS
        )
        assert got == want

    def test_zero_d_input_rejected_everywhere(self):
        for kwargs in ({}, dict(n_workers=WORKERS)):
            with pytest.raises(ParameterError):
                compress_chunked(np.float64(1.0), 1e-3, **kwargs)

    def test_module_compress_routes_chunked(self):
        from repro.sz.compressor import compress, decompress

        data = _field((60, 40), np.float32, seed=3)
        direct = compress_chunked(
            data, 1e-3, mode="rel", n_chunks=3, n_workers=WORKERS
        )
        routed = compress(
            data, 1e-3, mode="rel", n_chunks=3, n_workers=WORKERS
        )
        assert direct == routed
        assert np.array_equal(
            decompress(routed, n_workers=WORKERS), decompress(routed)
        )


class TestAutotuneDifferential:
    def test_probe_fanout_matches_across_transports(self):
        from repro.autotune.driver import autotune

        # Large enough for the size guard to let the field into shm.
        data = _field((128, 128), np.float32, seed=11)

        def key(r):
            return (r.eb_rel, r.n_trials, r.achieved, r.converged)

        inline = autotune(data, "ratio", 8.0, n_workers=0, keep_blob=False)
        before = _shared_bytes()
        with _pickle_arm():
            pickled = autotune(
                data, "ratio", 8.0, n_workers=WORKERS, keep_blob=False
            )
        assert _shared_bytes() == before
        shared = autotune(
            data, "ratio", 8.0, n_workers=WORKERS, keep_blob=False
        )
        if shm_available():
            assert _shared_bytes() - before == data.nbytes
        assert key(inline) == key(pickled) == key(shared)


# ---------------------------------------------------------------------------
# resilience: faults in pool workers degrade per task and leave no
# segment behind
# ---------------------------------------------------------------------------


@pytest.mark.fault
class TestShmFaultCleanup:
    KW = dict(targets=[60.0], fields=["temperature", "baryon_density"])
    FAST = dict(backoff_base=0.01, backoff_max=0.05, jitter=0.0, seed=0)

    def _retry(self, **kw):
        from repro.resilience.retry import RetryPolicy

        return RetryPolicy(**{**self.FAST, **kw})

    def test_exhausted_crash_degrades_and_cleans_up(self):
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
        # leak check is the module-level autouse fixture

    def test_hang_timeout_degrades_and_cleans_up(self):
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
        assert not shm_dir_entries("fpz")

    def test_poison_degrades_and_cleans_up(self):
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


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


@needs_shm
class TestTransportTelemetry:
    def test_share_counts_bytes_and_segments(self):
        x = _field((64, 64), np.float64)
        shared0 = _counter("shm.bytes_shared_total")
        created0 = _counter("shm.segments_created_total")
        released0 = _counter("shm.segments_released_total")
        with ShmArena() as arena:
            arena.share(x)
        assert _counter("shm.bytes_shared_total") - shared0 == x.nbytes
        assert _counter("shm.segments_created_total") - created0 == 1
        assert _counter("shm.segments_released_total") - released0 == 1

    def test_guard_fallback_counts(self, monkeypatch):
        monkeypatch.setattr(shm, "MAX_SHARE_BYTES", 1024)
        fallbacks0 = _counter("shm.fallbacks_total")
        moved0 = _counter("shm.bytes_moved_total")
        x = _field((64, 64), np.float64)
        with ShmArena() as arena:
            arena.share(x)
        assert _counter("shm.fallbacks_total") - fallbacks0 == 1
        assert _counter("shm.bytes_moved_total") - moved0 == x.nbytes

    def test_transport_spans_recorded(self):
        import repro.observe as observe

        tr = observe.Trace()
        x = _field((64, 64), np.float64)
        with observe.use_trace(tr):
            with ShmArena() as arena:
                ref = arena.share(x)
                with ref.open():
                    pass
        paths = {p[-1] for p in tr.aggregate()}
        assert "transport.share" in paths
        assert "transport.attach" in paths
