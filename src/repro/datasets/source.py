"""One per-process source of named fields.

A named field is deterministic in (data set, scale, field name), and
sweeps and served jobs use the same field many times.
:func:`load_field` generates a field on its first use in a process (a
miss calls :meth:`Dataset.field`, so generation is paid, and timed,
where the field is used; nothing is prefetched) and serves later uses
from a thread-safe LRU of at most :data:`MAX_ENTRIES` fields and
:data:`MAX_BYTES` bytes; a larger field is returned uncached.  Arrays
are byte-identical to ``get_dataset(dataset, scale).field(field)`` and
read-only, so no caller can corrupt what a later one reads.  Loads
count in ``datasets.field_cache_{hits,misses}_total``
(non-deterministic: they depend on which worker ran which task).  A
forked child starts empty.  :meth:`Dataset.field` itself stays an
uncached generator.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.datasets.registry import get_dataset

__all__ = ["load_field", "clear_field_cache", "MAX_ENTRIES", "MAX_BYTES"]

#: Most fields one process keeps: constants, not settings.  An ATM
#: sweep's worker moves on to a new field every few tasks, and a larger
#: count only grows its RSS.
MAX_ENTRIES = 8
#: Most bytes one process keeps (at the default scale an ATM field is
#: 253 KiB, a NYX field 1 MiB and a Hurricane field 1.5 MiB).
MAX_BYTES = 64 << 20

_Key = Tuple[str, Optional[float], str]


class _Cache:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[_Key, np.ndarray]" = OrderedDict()
        self.nbytes = 0
        #: key -> lock held by the one thread generating that field
        self.loading: Dict[_Key, threading.Lock] = {}

    def get(self, key: _Key) -> Optional[np.ndarray]:
        """The cached array, marked most recent, or None; caller holds
        ``lock``."""
        data = self.entries.get(key)
        if data is not None:
            self.entries.move_to_end(key)
            _count("hits")
        return data


_cache = _Cache()


def clear_field_cache() -> None:
    """Forget every cached field (tests, and a forked child)."""
    global _cache
    _cache = _Cache()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=clear_field_cache)


def _count(outcome: str) -> None:
    from repro.telemetry.registry import metrics

    metrics().counter(
        f"datasets.field_cache_{outcome}_total",
        help=f"named-field loads that were field-cache {outcome}",
        deterministic=False,
    ).inc()


def load_field(
    dataset: str, field: str, scale: Optional[float] = None
) -> np.ndarray:
    """The named field as a read-only array, generated at most once per
    process while it stays cached."""
    cache = _cache
    key = (dataset, scale, field)
    with cache.lock:
        data = cache.get(key)
        if data is not None:
            return data
        gate = cache.loading.setdefault(key, threading.Lock())
    with gate:
        with cache.lock:
            data = cache.get(key)
        if data is not None:
            return data
        try:
            data = get_dataset(dataset, scale=scale).field(field)
            data.flags.writeable = False
            with cache.lock:
                _count("misses")
                if data.nbytes <= MAX_BYTES:
                    cache.entries[key] = data
                    cache.nbytes += data.nbytes
                while len(cache.entries) > MAX_ENTRIES or cache.nbytes > MAX_BYTES:
                    _, old = cache.entries.popitem(last=False)
                    cache.nbytes -= old.nbytes
        finally:
            with cache.lock:
                cache.loading.pop(key, None)
    return data
