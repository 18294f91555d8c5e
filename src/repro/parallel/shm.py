"""How one parallel call hands its arrays to its tasks.

Chunked compress/decompress (:mod:`repro.parallel.chunking`) and the
autotune probe fan-out (:mod:`repro.autotune.driver`) move user arrays
to tasks that may run in worker processes.  Each such call opens a
:class:`ShmArena` through :func:`repro.parallel.executor.payload_scope`,
which picks one of two paths from what it can observe; there is no
option.

* **Inherit.** The tasks run inline, on threads, or on a per-call
  process pool whose context forks.  :meth:`ShmArena.share` registers
  the array in a module-level table and returns its key.  A fork pool
  starts its workers at its first submit, after the call has
  registered everything, so they read the parent's pages
  copy-on-write.  An array that forked tasks write (a chunked
  decompress's output) is one anonymous shared mapping
  (:meth:`ShmArena.empty`), made before the pool starts.  No input is
  copied, nothing is named, and closing the arena only drops its keys.
* **Pickle.** The call runs on a caller's process executor, whose
  workers may have started before anything was registered, or on a
  pool that does not fork (the service's spawn pool).  ``share``
  returns the array itself, which travels in the task message.

A task turns what it received back into the array with
:func:`resolve`.  Both paths give the same bytes; the differential
tests are in ``tests/test_parallel_shm.py``.
"""

from __future__ import annotations

import itertools
import math
import mmap
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import ParameterError

__all__ = ["ShmArena", "resolve"]

#: key -> array, for every open arena of this process.  A forked worker
#: reads the copy of this table it inherited.
_SHARED: Dict[int, np.ndarray] = {}

_KEYS = itertools.count()

#: What a task receives for one array: its key, or the array itself.
Payload = Union[int, np.ndarray]


def resolve(payload: Payload) -> np.ndarray:
    """The array behind what :meth:`ShmArena.share` returned."""
    if isinstance(payload, np.ndarray):
        return payload
    return _SHARED[payload]


class ShmArena:
    """The arrays one parallel call shares with its tasks.

    ``inherit`` says whether the tasks see this process's memory: they
    run inline, on threads, or in workers forked after the call
    registered its arrays.  ``forked`` says whether those tasks run in
    forked worker processes, so that an array they write has to be a
    shared mapping for the writes to reach this process.

    Use it as a context manager;
    :func:`~repro.parallel.executor.payload_scope` opens one per call.
    perfbench's traced ``atm_sweep`` times ``ShmArena.share`` by
    patching it on this class.
    """

    def __init__(self, inherit: bool, forked: bool = False):
        self.inherit = inherit
        self.forked = forked
        self._keys: List[int] = []
        self._closed = False

    def share(self, arr: np.ndarray) -> Payload:
        """What a task receives for ``arr``: a key on the inherit path,
        ``arr`` itself on the pickle path.  Register every array before
        the call's first submit: a fork pool's workers start there."""
        if self._closed:
            raise ParameterError("arena is closed")
        if not self.inherit:
            return arr
        key = next(_KEYS)
        _SHARED[key] = arr
        self._keys.append(key)
        return key

    def empty(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-order array for tasks to fill: one
        anonymous shared mapping when forked tasks write it, a plain
        ``np.empty`` otherwise.  Raises ``MemoryError``, ``OSError``,
        ``OverflowError`` or ``ValueError`` when no such array can be
        made."""
        dtype = np.dtype(dtype)
        if not self.forked:
            return np.empty(shape, dtype)
        buf = mmap.mmap(-1, math.prod(shape) * dtype.itemsize)
        return np.ndarray(shape, dtype, buffer=buf)

    def close(self) -> None:
        """Drop this arena's keys.  Idempotent."""
        self._closed = True
        for key in self._keys:
            del _SHARED[key]
        self._keys.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
