"""The differential wall around how parallel calls hand arrays to tasks.

Every entry point that moves a user array to its tasks (chunked
compress/decompress, the autotune probe fan-out) must produce
**bit-identical** output on each of four executors:

* ``inline`` (``n_workers=0``) and ``thread``: the tasks read the
  caller's memory;
* ``per-call`` (``n_workers=N``): the call's own pool, whose workers
  inherit the call's arrays where the pool forks (the inherit path);
* ``caller``: a running process :class:`Executor` the caller passes,
  whose workers receive the arrays by pickle (the pickle path).

The executor alone picks the path, so these tests need no knob.  They
pin container bytes and decoded arrays, plus the arena's table and a
process that leaves no resource tracker warning and no ``/dev/shm``
entry.  (Sweeps ship field names only;
their differential suite is ``tests/test_field_source.py``.)

``FPZC_TEST_WORKERS`` sets the pool width (CI's ``parallel-matrix``
job runs this module at 1, 2 and 4 workers); the default is 2.

Run as a script, ``PYTHONPATH=src python tests/test_parallel_shm.py
{per-call,caller}`` runs the resource-tracker repro once.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.parallel.shm as shm
from repro.errors import ParameterError
from repro.io.container import Container
from repro.parallel.chunking import compress_chunked, decompress_chunked
from repro.parallel.executor import Executor, payload_scope, sweep_dataset
from repro.parallel.shm import ShmArena, resolve

WORKERS = int(os.environ.get("FPZC_TEST_WORKERS", "2"))

EXECUTORS = ["inline", "thread", "per-call", "caller"]

#: Whether a per-call pool forks here (the default on Linux).
FORKS = Executor(n_workers=1).forks


@pytest.fixture(autouse=True)
def _no_key_left():
    """Every call drops the keys it registered."""
    yield
    assert shm._SHARED == {}


@contextlib.contextmanager
def _on(kind):
    """The keyword arguments that run one call on executor ``kind``."""
    if kind == "inline":
        yield {}
    elif kind == "per-call":
        yield {"n_workers": WORKERS}
    else:
        pool = "thread" if kind == "thread" else "process"
        with Executor(n_workers=WORKERS, kind=pool) as ex:
            yield {"executor": ex}


def _field(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    for axis in range(x.ndim):
        x = np.cumsum(x, axis=axis)
    return x.astype(dtype)


# ---------------------------------------------------------------------------
# the arena
# ---------------------------------------------------------------------------


class TestArenaLifecycle:
    def test_share_gives_a_key_only_where_tasks_inherit(self):
        x = _field((8, 8), np.float64)
        with ShmArena(inherit=True) as arena:
            key = arena.share(x)
            assert not isinstance(key, np.ndarray)
            assert resolve(key) is x
        with pytest.raises(KeyError):
            resolve(key)
        with ShmArena(inherit=False) as arena:
            assert arena.share(x) is x
            assert resolve(x) is x

    def test_share_after_close_is_typed_error(self):
        arena = ShmArena(inherit=True)
        arena.close()
        arena.close()  # idempotent
        with pytest.raises(ParameterError):
            arena.share(np.zeros((64, 64)))

    @pytest.mark.parametrize(
        "kind, inherit, forked",
        [
            ("inline", True, False),
            ("thread", True, False),
            ("per-call", FORKS, FORKS),
            ("caller", False, False),
        ],
    )
    def test_path_follows_the_executor(self, kind, inherit, forked):
        with _on(kind) as kw:
            ex, n_workers = kw.get("executor"), kw.get("n_workers", 0)
            with payload_scope(ex, n_workers) as (_, arena):
                assert (arena.inherit, arena.forked) == (inherit, forked)

    def test_a_pool_that_does_not_fork_gets_pickle(self):
        with Executor(n_workers=WORKERS, start_method="spawn") as ex:
            assert not ex.forks
            with payload_scope(ex, 0) as (_, arena):
                assert not arena.inherit

    def test_forked_output_is_one_shared_mapping(self):
        import mmap

        with ShmArena(inherit=True, forked=True) as arena:
            out = arena.empty((5, 3), np.float32)
        assert isinstance(out.base, mmap.mmap)
        assert out.shape == (5, 3) and out.dtype == np.float32
        assert out.flags.c_contiguous and out.flags.writeable


# ---------------------------------------------------------------------------
# differential: every executor, bit-identical output
# ---------------------------------------------------------------------------


SHAPES = [
    ((97, 53), np.float32),   # prime-sized rows, uneven slabs
    ((97, 53), np.float64),
    ((61,), np.float64),      # 1-d, prime length
    ((16, 7, 11), np.float32),
]


def _fortran_field():
    return np.asfortranarray(_field((97, 53), np.float32, seed=5))


class TestChunkedDifferential:
    @pytest.mark.parametrize("shape,dtype", SHAPES)
    def test_container_bytes_identical_across_transports(self, shape, dtype):
        data = _field(shape, dtype, seed=len(shape))
        kwargs = dict(mode="rel", n_chunks=4)
        serial = compress_chunked(data, 1e-3, **kwargs)
        assert len(Container.from_bytes(serial).streams) == 4
        for kind in EXECUTORS:
            with _on(kind) as kw:
                got = compress_chunked(data, 1e-3, **kwargs, **kw)
            assert got == serial, kind

    def test_fortran_order_input_identical_across_transports(self):
        data = _fortran_field()
        serial = compress_chunked(data, 1e-3, mode="rel", n_chunks=4)
        assert serial == compress_chunked(
            np.ascontiguousarray(data), 1e-3, mode="rel", n_chunks=4
        )
        for kind in EXECUTORS:
            with _on(kind) as kw:
                got = compress_chunked(
                    data, 1e-3, mode="rel", n_chunks=4, **kw
                )
            assert got == serial, kind

    def test_decompress_identical_across_transports(self):
        fields = [_field(s, d, seed=i) for i, (s, d) in enumerate(SHAPES)]
        for data in [*fields, _fortran_field()]:
            blob = compress_chunked(data, 1e-3, mode="rel", n_chunks=4)
            serial = decompress_chunked(blob)
            assert serial.dtype == data.dtype and serial.shape == data.shape
            bound = 1e-3 * float(np.ptp(data)) * (1 + 1e-6)
            assert np.max(np.abs(serial - data)) <= bound
            for kind in EXECUTORS:
                with _on(kind) as kw:
                    got = decompress_chunked(blob, **kw)
                assert got.dtype == serial.dtype, kind
                assert got.flags.c_contiguous and got.flags.writeable, kind
                np.testing.assert_array_equal(got, serial, err_msg=kind)

    def test_zero_d_input_rejected_everywhere(self):
        for kind in EXECUTORS:
            with _on(kind) as kw:
                with pytest.raises(ParameterError):
                    compress_chunked(np.float64(1.0), 1e-3, **kw)

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

        # Above the subsample threshold, so the fan runs twice per call:
        # on the subsample and on the full field.
        data = _field((400, 400), np.float32, seed=11)

        def key(r):
            return (r.eb_rel, r.n_trials, r.achieved, r.converged)

        want = key(autotune(data, "ratio", 8.0, keep_blob=False))
        for kind in EXECUTORS:
            with _on(kind) as kw:
                got = autotune(data, "ratio", 8.0, keep_blob=False, **kw)
            assert key(got) == want, kind


# ---------------------------------------------------------------------------
# process hygiene
# ---------------------------------------------------------------------------


def _tracker_repro(path: str) -> None:
    """A sweep on a caller's fork executor, then chunked compress and
    decompress of a 512x512 field on a per-call pool (``path ==
    "per-call"``) or on that executor (``"caller"``).  With named
    segments, the workers each started their own resource tracker and
    the caller's variant printed 16 tracker warnings at exit."""
    data = _field((512, 512), np.float32)
    with Executor(n_workers=2) as ex:
        sweep_dataset(
            "ATM", targets=[60.0], fields=["CLDHGH", "FLDS"], executor=ex
        )
        kw = {"executor": ex} if path == "caller" else {"n_workers": 2}
        blob = compress_chunked(data, 1e-3, mode="rel", n_chunks=4, **kw)
        out = decompress_chunked(blob, **kw)
    assert np.array_equal(out, decompress_chunked(blob))


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class TestProcessHygiene:
    @pytest.mark.parametrize("path", ["per-call", "caller"])
    def test_no_resource_tracker_and_no_segment(self, path):
        import repro

        before = _shm_entries()
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", __file__, path],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            },
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert _shm_entries() <= before


if __name__ == "__main__":
    _tracker_repro(sys.argv[1])
