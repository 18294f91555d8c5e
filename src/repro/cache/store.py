"""Content-addressed, on-disk cache for compression outcomes.

The paper's fixed-PSNR control (Eq. 7/8) makes a compression run a
*pure function* of (dataset bytes, dtype/shape, codec, control mode,
target or bound, container format version).  That purity is what makes
memoization sound: two runs with the same key must produce the same
blob bit-for-bit, so the blob can be stored once and replayed forever
-- the FRaZ observation (fixed-target search amortizes across runs)
promoted from autotune's private in-memory ``TrialCache`` to a store
every entry point shares: the CLI (``fpzc compress/sweep --cache``),
the autotune driver (trials persist across invocations) and the
service (cache consult before enqueue).

Layout and guarantees
---------------------

* One file per entry under ``<root>/<key[:2]>/<key>.fpze`` where
  ``key`` is a SHA-256 hex digest of the canonical key document (see
  :func:`blob_key` / :func:`trial_key`).  Sharding on the first byte
  keeps directories small at production entry counts.
* Entries are **write-once**: a temp file in the same directory is
  ``os.replace``'d into place, so concurrent writers of the same key
  race benignly (last rename wins with identical content; readers
  never observe a torn file) and a crash mid-write leaves only a temp
  file that the next eviction pass sweeps.
* Every entry embeds a CRC32 of its payload; a failed check (torn
  disk, bit rot) deletes the entry and reports a miss -- the cache
  self-heals instead of serving a corrupt blob.
* Eviction is LRU by file mtime, bounded by ``max_bytes``; a hit
  touches the entry's mtime so hot keys survive the pass.
* Keys embed both this module's :data:`CACHE_SCHEMA_VERSION` and the
  container format version (:data:`repro.io.container.VERSION`), so a
  format bump invalidates every prior entry *by key miss* -- stale
  blobs are never replayed, and the orphaned files age out via LRU.
  The schema is bumped too when the encoder's bytes change on purpose
  under the same format version.

``cache.*`` metrics (hits/misses/evictions/bytes) are registered
``deterministic=False``: a persistent store makes hit counts depend on
what earlier processes left behind, which must never enter the bench
gate's deterministic comparisons.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "CacheStore",
    "blob_key",
    "cache_path",
    "data_digest",
    "trial_key",
]

#: Version of the on-disk entry format *and* the key document schema.
#: Bumping it orphans every existing entry (keys miss; LRU sweeps the
#: files), which is exactly the invalidation a layout change needs --
#: and the one a change to the bytes the encoder writes needs, since a
#: key pins its blob bit for bit.  2: high-rate Huffman payloads are
#: deflated with zlib's run-length strategy, so a schema-1 blob's ratio
#: and bit rate differ from a fresh compress of the same key.
CACHE_SCHEMA_VERSION = 2

#: Entry file magic + fixed header: magic, schema, meta length.
_MAGIC = b"FPZE"
_HEADER = struct.Struct("<4sHI")

#: Suffix of entry files (temp files append a further ``.tmp*``).
_SUFFIX = ".fpze"


def cache_path(override: Optional[str] = None) -> Path:
    """The cache root: ``override`` if given, else ``$FPZC_CACHE``,
    else ``.fpzc/cache`` under the working directory (next to the run
    ledger's default home)."""
    if override:
        return Path(override)
    env = os.environ.get("FPZC_CACHE")
    if env:
        return Path(env)
    return Path(".fpzc") / "cache"


def data_digest(data) -> str:
    """Stable SHA-256 content digest of an array: dtype, shape, bytes.

    Two arrays share a digest iff they are element-wise identical with
    the same dtype and shape.  This is the package's one array
    fingerprint: blob keys, autotune trial keys, the service and the
    cluster router all use it.  SHA-256 because these keys name durable
    on-disk artefacts shared across machines.
    """
    a = np.ascontiguousarray(data)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _format_version() -> int:
    # Looked up at call time (not import time) so a format bump -- or a
    # test monkeypatching it -- invalidates keys immediately.
    from repro.io import container

    return int(container.VERSION)


def _hash_doc(doc: Dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _exact(value: Optional[float]) -> Optional[str]:
    """Floats enter keys via ``float.hex()`` -- exact, no rounding
    ambiguity -- mirroring the container's own float packing."""
    return None if value is None else float(value).hex()


def blob_key(
    digest: str,
    *,
    codec: str,
    mode: str,
    target: Optional[float] = None,
    bound: Optional[float] = None,
    **options,
) -> str:
    """The cache key for a finished compression blob.

    ``digest`` is :func:`data_digest` of the input array; ``mode`` is
    the control mode (``psnr``/``nrmse``/``mse``/``ratio``/``abs``/
    ``rel``/``pw_rel``); ``target`` or ``bound`` is the requested value
    in that unit.  ``options`` carries anything else that changes the
    output bytes (``refine``, ``chunks`` ...); ``None`` values are
    dropped so absent and default-omitted options agree.  Every key
    also names the entropy stage, ``huffman``, as keys did when a
    second coder could be chosen, so that the entries stored then
    still hit.
    """
    options["entropy"] = "huffman"
    doc = {
        "kind": "blob",
        "schema": CACHE_SCHEMA_VERSION,
        "format_version": _format_version(),
        "digest": digest,
        "codec": codec,
        "mode": mode,
        "target": _exact(target),
        "bound": _exact(bound),
        "options": {k: v for k, v in sorted(options.items()) if v is not None},
    }
    return _hash_doc(doc)


def trial_key(
    digest: str, *, codec: str, objective: str, eb_rel: float
) -> str:
    """The cache key for one autotune trial measurement at an exact
    bound (the persistent sibling of ``TrialCache``'s in-memory key,
    format version included)."""
    doc = {
        "kind": "trial",
        "schema": CACHE_SCHEMA_VERSION,
        "format_version": _format_version(),
        "digest": digest,
        "codec": codec,
        "objective": objective,
        "eb_rel": _exact(eb_rel),
    }
    return _hash_doc(doc)


def _cache_metrics():
    from repro.telemetry.registry import metrics

    reg = metrics()
    return {
        "hits": reg.counter(
            "cache.hits_total",
            help="store lookups served from disk",
            deterministic=False,
        ),
        "misses": reg.counter(
            "cache.misses_total",
            help="store lookups that fell through to compression",
            deterministic=False,
        ),
        "evictions": reg.counter(
            "cache.evictions_total",
            help="entries removed by the LRU size bound",
            deterministic=False,
        ),
        "bytes": reg.gauge(
            "cache.bytes",
            help="total bytes of cache entries on disk",
            deterministic=False,
        ),
    }


@dataclass
class CacheEntry:
    """One materialized cache entry: its key, the metadata document
    (achieved metrics, provenance) and the payload bytes."""

    key: str
    meta: Dict
    payload: bytes


class CacheStore:
    """The content-addressed store (see the module docstring for the
    on-disk contract).

    Carries only its root path and size bound, so instances pickle
    into worker processes; metrics always land in the process-local
    registry of whoever performs the operation.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ParameterError("cache max_bytes must be >= 0")
        self.root = Path(root) if root is not None else cache_path()
        self.max_bytes = max_bytes

    # -- paths ----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / (key + _SUFFIX)

    def _entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return [
            p
            for shard in self.root.iterdir()
            if shard.is_dir()
            for p in shard.glob("*" + _SUFFIX)
        ]

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        total = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
            except OSError:
                pass  # concurrently evicted
        return total

    # -- read -----------------------------------------------------------

    def get(self, key: str, *, touch: bool = True) -> Optional[CacheEntry]:
        """The entry for ``key``, or ``None`` on miss.  A hit bumps the
        entry's mtime (LRU recency) unless ``touch=False``; a corrupt
        entry is deleted and reported as a miss."""
        counters = _cache_metrics()
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            counters["misses"].inc()
            return None
        entry = self._parse(key, raw)
        if entry is None:
            # Self-heal: never serve (or keep) a corrupt entry.
            self.delete(key)
            counters["misses"].inc()
            return None
        if touch:
            try:
                os.utime(path)
            except OSError:
                pass  # concurrently evicted; the payload is already ours
        counters["hits"].inc()
        return entry

    def delete(self, key: str) -> bool:
        """Remove the entry for ``key``; returns whether one was
        removed."""
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        return True

    @staticmethod
    def _parse(key: str, raw: bytes) -> Optional[CacheEntry]:
        if len(raw) < _HEADER.size:
            return None
        magic, schema, meta_len = _HEADER.unpack_from(raw)
        if magic != _MAGIC or schema != CACHE_SCHEMA_VERSION:
            return None
        meta_end = _HEADER.size + meta_len
        if len(raw) < meta_end:
            return None
        try:
            meta = json.loads(raw[_HEADER.size:meta_end].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        payload = raw[meta_end:]
        if len(payload) != int(meta.get("payload_len", -1)):
            return None
        if zlib.crc32(payload) != int(meta.get("payload_crc32", -1)):
            return None
        return CacheEntry(key=key, meta=meta, payload=payload)

    def iter_meta(self) -> Iterator[Tuple[str, Dict]]:
        """Yield ``(key, meta)`` for every parseable entry -- the scan
        behind store-backed warm starts.  Payload CRCs are *not*
        verified here (that stays on the :meth:`get` path); unreadable
        entries are skipped silently."""
        for path in self._entries():
            key = path.name[: -len(_SUFFIX)]
            try:
                with open(path, "rb") as fh:
                    head = fh.read(_HEADER.size)
                    if len(head) < _HEADER.size:
                        continue
                    magic, schema, meta_len = _HEADER.unpack(head)
                    if magic != _MAGIC or schema != CACHE_SCHEMA_VERSION:
                        continue
                    meta = json.loads(fh.read(meta_len).decode("utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                continue
            yield key, meta

    # -- write ----------------------------------------------------------

    def put(self, key: str, payload: bytes, meta: Dict) -> bool:
        """Store ``payload`` under ``key`` (write-once; returns whether
        a new entry was written).  ``meta`` is any JSON document; the
        payload length/CRC fields are added here.  When the store has a
        ``max_bytes`` bound, an LRU eviction pass runs after the write.
        """
        path = self.path_for(key)
        if path.exists():
            # Write-once: an identical entry is already in place (keys
            # are content addresses, so contents cannot disagree).
            return False
        doc = dict(meta)
        doc["payload_len"] = len(payload)
        doc["payload_crc32"] = zlib.crc32(payload)
        meta_bytes = json.dumps(doc, sort_keys=True).encode("utf-8")
        blob = (
            _HEADER.pack(_MAGIC, CACHE_SCHEMA_VERSION, len(meta_bytes))
            + meta_bytes
            + payload
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        counters = _cache_metrics()
        if self.max_bytes is not None:
            self.evict()
        counters["bytes"].set(self.total_bytes())
        return True

    # -- eviction -------------------------------------------------------

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Delete least-recently-used entries until the store fits in
        ``max_bytes`` (defaulting to the store's own bound); stray temp
        files from crashed writers are swept too.  Returns the number
        of entries evicted."""
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            return 0
        counters = _cache_metrics()
        if self.root.is_dir():
            for shard in self.root.iterdir():
                if not shard.is_dir():
                    continue
                for stray in shard.glob("*.tmp*"):
                    try:
                        stray.unlink()
                    except OSError:
                        pass
        stats = []
        for p in self._entries():
            try:
                st = p.stat()
            except OSError:
                continue
            stats.append((st.st_mtime, p.name, p, st.st_size))
        total = sum(size for _, _, _, size in stats)
        evicted = 0
        # Oldest mtime first; name breaks ties deterministically.
        for _, _, path, size in sorted(stats, key=lambda s: (s[0], s[1])):
            if total <= bound:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            counters["evictions"].inc(evicted)
        counters["bytes"].set(max(0, total))
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for p in self._entries():
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        _cache_metrics()["bytes"].set(self.total_bytes())
        return removed
