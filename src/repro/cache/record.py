"""The blob-cache record: the fixed-PSNR key, the entry's metadata and
the cache-through fixed-PSNR step.

The paper's fixed-PSNR mode is one step -- Eq. 8 gives the bound, one
error-bounded compression follows -- and every entry point that caches
it goes through :func:`compress_psnr` or :func:`lookup_psnr`: ``fpzc
compress --psnr --cache``, sweep tasks, served jobs (in the worker and
at admission) and the bench gate, while the cluster router routes by
:func:`psnr_key`.  So an entry one of them writes is a hit for all the
others.

Metadata
--------
:func:`blob_meta` writes one document for every blob entry::

    {"kind": "blob", "codec": ..., "mode": ..., "target": ...,
     "metrics": {"achieved_psnr", "achieved", "ratio", "bit_rate",
                 "eb_rel", "raw_bytes", "compressed_bytes"}}

A fixed-PSNR hit needs only ``metrics.achieved_psnr`` from it: the
ratio and bit rate follow from the payload length and the array, and
``eb_rel`` is the blob header's ``bound``.  So entries written with
fewer metrics (older ``fpzc compress`` builds stored no ``bit_rate``
or ``eb_rel``) are hits too.  An entry with no achieved PSNR (or an
unreadable blob header) is deleted and recompressed, so the next
lookup hits the entry written in its place.
"""

from __future__ import annotations

import functools
from typing import Dict, NamedTuple, Optional, Tuple

__all__ = [
    "FIELD_DIGESTS",
    "BlobRecord",
    "blob_meta",
    "compress_psnr",
    "field_digest",
    "lookup_psnr",
    "psnr_key",
    "read_meta",
]

#: Registry fields whose digest :func:`field_digest` keeps per process
#: (a digest and two integers each).
FIELD_DIGESTS = 256


class BlobRecord(NamedTuple):
    """One fixed-PSNR blob and what was measured on it."""

    blob: bytes
    #: The relative bound the blob was compressed at (its header's
    #: ``bound``).
    eb_rel: float
    #: PSNR of :func:`repro.sz.compressor.reconstruction` against the
    #: input.
    achieved_psnr: float
    #: Whether the blob came from the store.
    hit: bool
    #: The entry's key (``None`` when no store was consulted).
    key: Optional[str] = None


def psnr_key(
    digest: str, target: float, codec: str = "sz", refine: Optional[str] = None
) -> str:
    """The key of the fixed-PSNR step on the array whose
    :func:`~repro.cache.store.data_digest` is ``digest``."""
    from repro.cache.store import blob_key

    return blob_key(
        digest, codec=codec, mode="psnr", target=target, refine=refine
    )


@functools.lru_cache(maxsize=FIELD_DIGESTS)
def field_digest(
    dataset: str, field: str, scale: Optional[float]
) -> Optional[Tuple[str, int, int]]:
    """``(data_digest, nbytes, size)`` of a registry field, or ``None``
    when the registry cannot produce it (a job on it fails through the
    normal path).

    The service's admission check and the cluster router key a
    fixed-PSNR job on a named field by :func:`psnr_key` of this digest,
    without compressing it.  Each process generates a field once for
    as long as its entry stays among the last :data:`FIELD_DIGESTS`
    used.  The field is generated afresh, not through
    :func:`repro.datasets.load_field`, whose cache would keep whole
    fields in a serving parent.
    """
    from repro.cache.store import data_digest
    from repro.datasets.registry import get_dataset

    try:
        data = get_dataset(dataset, scale=scale).field(field)
    except Exception:  # noqa: BLE001 -- unknown dataset/field
        return None
    return data_digest(data), int(data.nbytes), int(data.size)


def blob_meta(
    data,
    blob: bytes,
    *,
    codec: str,
    mode: str,
    target: Optional[float],
    achieved_psnr: Optional[float],
    achieved: Optional[float] = None,
    eb_rel: Optional[float] = None,
) -> Dict:
    """The metadata document of the entry storing ``blob``, compressed
    from ``data``.  ``achieved`` is the measure of the requested mode
    (NRMSE, MSE, ratio); it defaults to ``achieved_psnr``."""
    return {
        "kind": "blob",
        "codec": codec,
        "mode": mode,
        "target": target,
        "metrics": {
            "achieved_psnr": achieved_psnr,
            "achieved": achieved_psnr if achieved is None else achieved,
            "ratio": data.nbytes / len(blob),
            "bit_rate": 8.0 * len(blob) / data.size,
            "eb_rel": eb_rel,
            "raw_bytes": int(data.nbytes),
            "compressed_bytes": len(blob),
        },
    }


def read_meta(meta: Dict) -> Dict[str, Optional[float]]:
    """The ``achieved_psnr``, ``achieved`` and ``ratio`` an entry's
    metadata records, each a float, or ``None`` when absent or not a
    number."""
    metrics = meta.get("metrics")
    if not isinstance(metrics, dict):
        metrics = {}
    out: Dict[str, Optional[float]] = {}
    for name in ("achieved_psnr", "achieved", "ratio"):
        try:
            out[name] = float(metrics[name])
        except (KeyError, TypeError, ValueError):
            out[name] = None
    return out


def lookup_psnr(store, key: str) -> Optional[BlobRecord]:
    """The fixed-PSNR entry under ``key`` in ``store``, or ``None`` on a
    miss.  An entry that records no achieved PSNR, or whose blob header
    is unreadable, is deleted and reported as a miss."""
    from repro.errors import ReproError
    from repro.io.container import Container

    entry = store.get(key)
    if entry is None:
        return None
    achieved = read_meta(entry.meta)["achieved_psnr"]
    try:
        eb_rel = float(Container.from_bytes(entry.payload).meta["bound"])
    except (ReproError, KeyError, TypeError, ValueError):
        achieved = None
    if achieved is None:
        # Drop the entry, as the store drops one that fails its CRC:
        # the store is write-once, so a kept entry would never be
        # replaced by the recompressed one.
        store.delete(key)
        return None
    return BlobRecord(entry.payload, eb_rel, achieved, True, key)


def compress_psnr(
    data,
    target: float,
    *,
    codec: str = "sz",
    refine: Optional[str] = None,
    store=None,
) -> BlobRecord:
    """The fixed-PSNR step through the cache.

    With a ``store`` (a :class:`~repro.cache.store.CacheStore`), a hit
    replays the stored blob and its recorded PSNR without running a
    codec.  Otherwise ``data`` is compressed at ``target`` dB by
    :class:`repro.core.fixed_psnr.FixedPSNRCompressor`, its achieved
    PSNR is measured on :func:`repro.sz.compressor.reconstruction`
    (no decode for sz), and the blob is stored when there is a store.
    The new blob is parsed once, for its ``bound`` and the
    reconstruction both.
    """
    from repro.core.fixed_psnr import FixedPSNRCompressor
    from repro.io.container import Container
    from repro.metrics.distortion import psnr
    from repro.sz.compressor import reconstruction

    key = None
    if store is not None:
        from repro.cache.store import data_digest

        key = psnr_key(data_digest(data), target, codec, refine)
        hit = lookup_psnr(store, key)
        if hit is not None:
            return hit
    blob = FixedPSNRCompressor(target, refine=refine, codec=codec).compress(
        data
    )
    container = Container.from_bytes(blob)
    eb_rel = float(container.meta["bound"])
    achieved = float(psnr(data, reconstruction(data, container)))
    if store is not None:
        store.put(
            key,
            blob,
            blob_meta(
                data,
                blob,
                codec=codec,
                mode="psnr",
                target=float(target),
                achieved_psnr=achieved,
                eb_rel=eb_rel,
            ),
        )
    return BlobRecord(blob, eb_rel, achieved, False, key)
