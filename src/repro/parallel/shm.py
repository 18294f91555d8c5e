"""Zero-copy shared-memory data plane for parallel compression.

The problem this module solves: every parallel entry point used to ship
its array payloads through the ``ProcessPoolExecutor`` pickle channel,
which serializes the ndarray in the parent, streams the bytes through a
pipe, and deserializes them in the worker -- three full copies per
payload, twice per round trip.  FRaZ and SZ3 both observe that once the
search/codec layers are fixed, end-to-end throughput is dominated by
exactly this data-movement plumbing.

The data plane replaces the pickle channel with POSIX shared memory
(:mod:`multiprocessing.shared_memory`):

* :class:`ShmArena` owns the segments of one parallel call: an
  unlink-everything :meth:`ShmArena.close`, a ``weakref.finalize``
  safety net, and an orphan sweep keyed on the arena's unique name
  prefix (so segments published by a worker that crashed or hung are
  still reclaimed).  Each call that moves user arrays to worker
  processes opens its own arena
  (:func:`repro.parallel.executor.payload_scope`); none outlives it.
* :class:`ShmArrayRef` / :class:`ShmSliceRef` / :class:`ShmBytesRef`
  are lightweight picklable *references*: a few dozen bytes cross the
  pickle channel instead of the payload.  Workers attach with
  :func:`open_payload` and read the data in place -- zero copies.
* Workers send large *results* back the same way:
  :func:`publish_array` / :func:`publish_bytes` write into a fresh
  segment named under the arena prefix and return a ref; the parent
  drains it with :func:`take_bytes` or :meth:`ShmArena.adopt_array`.
* **Graceful fallback**: when shared memory is unavailable (platform,
  permissions, full ``/dev/shm``) or a payload is too small to be
  worth a segment (< :data:`MIN_SHARE_BYTES`) or trips the capacity
  guard (> :data:`MAX_SHARE_BYTES` or more than half the free space,
  the ">2 GiB on a constrained tmpfs" case), sharing degrades to an
  :class:`InlineArrayRef`/raw payload that travels by pickle.  Callers
  never branch: :func:`open_payload` accepts every payload kind.

Correctness contract: a payload read through the plane is **the same
bytes** as the pickled original, and shared inputs are mapped
read-only so no worker can corrupt a segment other tasks are reading.
``tests/test_parallel_shm.py`` holds the differential wall: every
parallel path must produce bit-identical output through shm, pickle
(forced through the size guard) and serial execution.

Telemetry (parent-side; see docs/PERFORMANCE.md and
docs/OBSERVABILITY.md):

* ``shm.bytes_shared_total`` -- payload bytes placed in segments,
* ``shm.bytes_moved_total`` -- payload bytes that crossed a process
  boundary by copy (pickle fallback + result drains),
* ``shm.segments_created_total`` / ``shm.segments_released_total``,
* ``shm.fallbacks_total`` -- shares that degraded to pickle,
* ``shm.orphans_swept_total`` (non-deterministic: depends on fault
  timing) -- leftover segments reclaimed by the prefix sweep,
* ``transport.share`` / ``transport.attach`` spans when a trace is
  active.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import secrets
import sys
import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

import repro.observe as observe
from repro.errors import ErrorCode, ParameterError, TransportError
from repro.telemetry.registry import metrics as _metrics

__all__ = [
    "MIN_SHARE_BYTES",
    "MAX_SHARE_BYTES",
    "shm_available",
    "ShmArena",
    "ShmArrayRef",
    "ShmSliceRef",
    "ShmBytesRef",
    "InlineArrayRef",
    "open_payload",
    "publish_array",
    "publish_bytes",
    "take_bytes",
    "shm_dir_entries",
]

#: Payloads below this many bytes ship by pickle: a segment costs two
#: syscalls plus resource-tracker traffic, which a small memcpy beats.
MIN_SHARE_BYTES = 1 << 15

#: Hard upper bound on a single shared payload; ``None`` disables it.
#: The capacity guard below is the real limit -- this cap exists so a
#: 32-bit index or a constrained tmpfs can be simulated in tests.
MAX_SHARE_BYTES: Optional[int] = None

#: Never fill shared memory past this fraction of its free space.
_CAPACITY_FRACTION = 0.5

_SHM_DIR = "/dev/shm"

#: Attached handles whose close() hit BufferError (a view outlived the
#: context); closed lazily so the failure degrades to a deferred close
#: instead of an exception in library code.
_DEFERRED_CLOSE: List[object] = []

_PUBLISH_COUNTER = itertools.count()

_AVAILABLE: Optional[bool] = None


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def shm_available() -> bool:
    """True when POSIX shared memory demonstrably works here.

    Probed once per process by creating and unlinking a tiny segment;
    any failure (missing module, read-only ``/dev/shm``, seccomp)
    makes every parallel call move its payloads by pickle.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            shm = _shared_memory().SharedMemory(create=True, size=16)
            shm.close()
            shm.unlink()
            _AVAILABLE = True
        except Exception:  # noqa: BLE001 -- any failure means "no shm"
            _AVAILABLE = False
    return _AVAILABLE


def _free_shm_bytes() -> Optional[int]:
    try:
        st = os.statvfs(_SHM_DIR)
    except (OSError, AttributeError):
        return None
    return st.f_bavail * st.f_frsize


def _share_allowed(nbytes: int) -> bool:
    """Size/capacity guard for one payload (the fallback gate)."""
    if nbytes < MIN_SHARE_BYTES:
        return False
    if MAX_SHARE_BYTES is not None and nbytes > MAX_SHARE_BYTES:
        return False
    if nbytes > sys.maxsize // 4:
        # Index-safety guard: never build a buffer a platform ssize_t
        # cannot address comfortably.
        return False
    free = _free_shm_bytes()
    if free is not None and nbytes > free * _CAPACITY_FRACTION:
        return False
    return True


def _count_fallback(nbytes: int) -> None:
    reg = _metrics()
    reg.counter(
        "shm.fallbacks_total",
        help="payload shares that degraded to pickle transport",
    ).inc()
    reg.counter(
        "shm.bytes_moved_total",
        help="payload bytes copied across a process boundary "
        "(pickle fallback + result drains)",
    ).inc(int(nbytes))


def _close_quietly(seg) -> None:
    """Close an attached handle; a still-exported buffer defers the
    close to interpreter exit instead of raising in library code."""
    try:
        seg.close()
    except BufferError:
        _DEFERRED_CLOSE.append(seg)


def _unlink_quietly(seg) -> None:
    try:
        seg.unlink()
    except (FileNotFoundError, OSError):
        pass


def shm_dir_entries(prefix: str = "") -> List[str]:
    """Names currently present in the shared-memory directory (test
    and audit helper); optionally filtered by ``prefix``."""
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(prefix))


def _sweep_prefix(prefix: str) -> int:
    """Unlink every leftover segment under ``prefix``.  Returns how
    many orphans were reclaimed.  Safe to call at any time: segments
    still attached elsewhere stay mapped until their last close."""
    swept = 0
    for name in shm_dir_entries(prefix):
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            swept += 1
        except OSError:
            continue
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister("/" + name, "shared_memory")
        except Exception:  # noqa: BLE001 -- tracker hygiene is best-effort
            pass
    return swept


def _release_all(prefix: str, segments: Dict[str, object]) -> int:
    """Close and unlink every handle in ``segments``, then sweep
    ``prefix``; returns the number of orphans swept.  Both
    :meth:`ShmArena.close` and the arena's ``weakref.finalize`` safety
    net (an arena garbage-collected, or the interpreter exiting,
    without ``close()``) run it."""
    for name in list(segments):
        seg = segments.pop(name)
        _close_quietly(seg)
        _unlink_quietly(seg)
    return _sweep_prefix(prefix)


# ---------------------------------------------------------------------------
# picklable payload references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShmArrayRef:
    """Picklable zero-copy reference to an ndarray in a shm segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int

    @contextlib.contextmanager
    def open(self) -> Iterator[np.ndarray]:
        """Attach and yield the array as a **read-only** view; the
        segment is detached (not unlinked) on exit.  Read-only is the
        contract that makes sharing one segment across concurrent
        tasks safe -- a codec that mutated its input would corrupt
        sibling tasks."""
        trace = observe.current_trace()
        with trace.span("transport.attach") as sp:
            if trace.enabled:
                sp.count("bytes", int(self.nbytes))
            seg = _attach(self.name)
        try:
            arr = np.ndarray(
                self.shape, dtype=np.dtype(self.dtype), buffer=seg.buf
            )
            arr.flags.writeable = False
            yield arr
            del arr
        finally:
            _close_quietly(seg)


@dataclass(frozen=True)
class ShmSliceRef:
    """A row-slab view ``[start, stop)`` along axis 0 of a shared
    array: one segment for the whole field, one cheap ref per chunk."""

    base: ShmArrayRef
    start: int
    stop: int

    @contextlib.contextmanager
    def open(self) -> Iterator[np.ndarray]:
        with self.base.open() as arr:
            yield arr[self.start:self.stop]


@dataclass(frozen=True)
class ShmBytesRef:
    """Picklable reference to a byte string in a shm segment."""

    name: str
    nbytes: int

    @contextlib.contextmanager
    def open(self) -> Iterator[memoryview]:
        seg = _attach(self.name)
        try:
            yield seg.buf[: self.nbytes]
        finally:
            _close_quietly(seg)


class InlineArrayRef:
    """Fallback payload holder with the ref API but pickle transport.

    Returned by :meth:`ShmArena.share` when the shm plane is disabled,
    unavailable, or the payload fails the size/capacity guard; the
    array itself rides the pickle channel.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @contextlib.contextmanager
    def open(self) -> Iterator[np.ndarray]:
        yield self.array


#: Anything a parallel task accepts as an array payload.
ArrayPayload = Union[np.ndarray, ShmArrayRef, ShmSliceRef, InlineArrayRef]


def _attach(name: str):
    try:
        return _shared_memory().SharedMemory(name=name)
    except FileNotFoundError as exc:
        raise TransportError(
            f"shared segment {name!r} is gone (released early, or the "
            "arena closed before its consumers finished)",
            code=ErrorCode.SHM_RELEASED,
        ) from exc


@contextlib.contextmanager
def open_payload(payload: ArrayPayload) -> Iterator[np.ndarray]:
    """Uniform access to any array payload kind: plain ndarrays are
    yielded as-is, refs are attached for the duration of the block."""
    if isinstance(payload, np.ndarray):
        yield payload
    elif isinstance(payload, (ShmArrayRef, ShmSliceRef, InlineArrayRef)):
        with payload.open() as arr:
            yield arr
    else:
        raise ParameterError(
            f"not an array payload: {type(payload).__name__}"
        )


# ---------------------------------------------------------------------------
# the arena (parent-owned segments of one call)
# ---------------------------------------------------------------------------


class ShmArena:
    """Owner of a family of shared segments with a common name prefix.

    Lifecycle: ``share()`` creates a segment that stays linked until
    ``close()``, which unlinks everything the arena shared or adopted
    and sweeps the prefix for orphans published by faulted workers.  A
    ``weakref.finalize`` hook repeats the cleanup if the arena is
    dropped without closing -- nothing this object created can outlive
    the process.

    Use as a context manager for exception-safe cleanup::

        with ShmArena() as arena:
            ref = arena.share(field)
            ... fan out tasks carrying ``ref`` ...
    """

    def __init__(self, prefix: Optional[str] = None, enabled: bool = True):
        self.prefix = prefix or f"fpz{os.getpid():x}x{secrets.token_hex(4)}"
        self._enabled = bool(enabled) and shm_available()
        # name -> handle, for segments shared here or adopted from workers
        self._segments: Dict[str, object] = {}
        self._counter = itertools.count()
        self._closed = False
        if self._enabled:
            # Start the resource tracker *now*, before any pool forks:
            # a worker that attaches without an inherited tracker spawns
            # its own, which unlinks "leaked" segments at worker exit --
            # destroying memory the parent is still serving.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # noqa: BLE001 -- tracker is an optimization
                pass
        self._finalizer = weakref.finalize(
            self, _release_all, self.prefix, self._segments
        )

    @property
    def finalizer_alive(self) -> bool:
        return self._finalizer.alive

    # -- sharing --------------------------------------------------------

    def share(self, data) -> ArrayPayload:
        """Place ``data`` in a fresh segment (one copy) and return a
        picklable ref; falls back to an :class:`InlineArrayRef` when
        the plane is off or the payload fails the size/capacity
        guard."""
        self._check_open()
        arr = np.asarray(data)
        if not (self._enabled and _share_allowed(arr.nbytes)):
            if self._enabled:
                _count_fallback(arr.nbytes)
            return InlineArrayRef(arr)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        trace = observe.current_trace()
        with trace.span("transport.share") as sp:
            name = f"{self.prefix}s{next(self._counter):x}"
            try:
                seg = _shared_memory().SharedMemory(
                    create=True, size=arr.nbytes, name=name
                )
            except OSError:
                _count_fallback(arr.nbytes)
                return InlineArrayRef(arr)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
            del view
            self._segments[name] = seg
            if trace.enabled:
                sp.count("bytes", int(arr.nbytes))
            reg = _metrics()
            reg.counter(
                "shm.segments_created_total",
                help="shared-memory segments created by arenas",
            ).inc()
            reg.counter(
                "shm.bytes_shared_total",
                help="payload bytes placed in shared memory "
                "(crossed process boundaries without a copy)",
            ).inc(int(arr.nbytes))
            return ShmArrayRef(
                name=name,
                shape=tuple(arr.shape),
                dtype=str(arr.dtype),
                nbytes=int(arr.nbytes),
            )

    def slice_refs(self, ref: ArrayPayload, row_counts) -> List:
        """Split a shared array into row-slab refs matching
        ``row_counts`` (chunk-parallel fan-out).  For an inline
        fallback ref this returns plain ndarray slabs -- the pickle
        path -- so callers never branch on the payload kind."""
        bounds = np.concatenate(([0], np.cumsum(list(row_counts))))
        if isinstance(ref, ShmArrayRef):
            return [
                ShmSliceRef(base=ref, start=int(lo), stop=int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        with open_payload(ref) as arr:
            return [
                arr[int(lo):int(hi)]
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]

    # -- worker-published results --------------------------------------

    def adopt_array(self, payload) -> np.ndarray:
        """Attach a worker-published array (see :func:`publish_array`)
        as a read-only view and track the segment for unlink at
        :meth:`close`.  Plain ndarrays (pickle fallback) pass through."""
        self._check_open()
        if isinstance(payload, np.ndarray):
            return payload
        if not isinstance(payload, ShmArrayRef):
            raise ParameterError(
                f"cannot adopt {type(payload).__name__}"
            )
        seg = _attach(payload.name)
        self._segments[payload.name] = seg
        arr = np.ndarray(
            payload.shape, dtype=np.dtype(payload.dtype), buffer=seg.buf
        )
        arr.flags.writeable = False
        return arr

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Unlink every shared and adopted segment, and sweep the
        prefix for orphans left by faulted workers.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        released = len(self._segments)
        swept = _release_all(self.prefix, self._segments)
        self._finalizer.detach()
        reg = _metrics()
        if released:
            reg.counter(
                "shm.segments_released_total",
                help="shared-memory segments explicitly released",
            ).inc(released)
        if swept:
            # Orphan counts depend on fault/scheduling timing, so they
            # are excluded from deterministic snapshots.
            reg.counter(
                "shm.orphans_swept_total",
                help="leftover segments reclaimed by the prefix sweep",
                deterministic=False,
            ).inc(swept)

    def _check_open(self) -> None:
        if self._closed:
            raise TransportError(
                "arena is closed", code=ErrorCode.SHM_RELEASED
            )

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# worker-side publication (results travel by shm too)
# ---------------------------------------------------------------------------


def _publish_name(prefix: str) -> str:
    return f"{prefix}o{os.getpid():x}i{next(_PUBLISH_COUNTER):x}"


def publish_array(prefix: Optional[str], arr: np.ndarray):
    """Worker-side: place a result array in a fresh segment under the
    arena ``prefix`` and return a :class:`ShmArrayRef`; the parent
    adopts it with :meth:`ShmArena.adopt_array`.  Falls back to
    returning the array itself (pickle) when ``prefix`` is None, shm is
    unavailable, or the payload fails the guard."""
    arr = np.asarray(arr)
    if prefix is None or not (shm_available() and _share_allowed(arr.nbytes)):
        return arr
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    try:
        seg = _shared_memory().SharedMemory(
            create=True, size=arr.nbytes, name=_publish_name(prefix)
        )
    except OSError:
        return arr
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    del view
    ref = ShmArrayRef(
        name=seg.name.lstrip("/"),
        shape=tuple(arr.shape),
        dtype=str(arr.dtype),
        nbytes=int(arr.nbytes),
    )
    _close_quietly(seg)
    return ref


def publish_bytes(prefix: Optional[str], data: bytes):
    """Worker-side: place a result byte string (e.g. a compressed
    stream) in a segment under ``prefix``; the parent drains it with
    :func:`take_bytes`.  Falls back to returning the bytes directly."""
    if prefix is None or not (shm_available() and _share_allowed(len(data))):
        return data
    try:
        seg = _shared_memory().SharedMemory(
            create=True, size=max(1, len(data)), name=_publish_name(prefix)
        )
    except OSError:
        return data
    seg.buf[: len(data)] = data
    ref = ShmBytesRef(name=seg.name.lstrip("/"), nbytes=len(data))
    _close_quietly(seg)
    return ref


def take_bytes(payload) -> bytes:
    """Parent-side: materialize a worker-published byte payload and
    unlink its segment.  Plain bytes (pickle fallback) pass through."""
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    if not isinstance(payload, ShmBytesRef):
        raise ParameterError(
            f"not a byte payload: {type(payload).__name__}"
        )
    seg = _attach(payload.name)
    try:
        data = bytes(seg.buf[: payload.nbytes])
    finally:
        _close_quietly(seg)
        _unlink_quietly(seg)
    _metrics().counter(
        "shm.bytes_moved_total",
        help="payload bytes copied across a process boundary "
        "(pickle fallback + result drains)",
    ).inc(len(data))
    return data
