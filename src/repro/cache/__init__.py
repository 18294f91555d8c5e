"""Content-addressed compression cache shared by every entry point.

See :mod:`repro.cache.store` for the on-disk contract,
:mod:`repro.cache.record` for the blob record every entry point
shares (the fixed-PSNR key, the entry metadata and the cache-through
fixed-PSNR step) and ``docs/CACHING.md`` for the operator's view (key
schema, invalidation, eviction, service semantics).

Names load from their submodule on first use, so a process that only
runs the fixed-PSNR step with the cache off (a sweep or service pool
worker) never imports the store.
"""

import importlib

#: Exported name -> the submodule defining it.
_EXPORTS = {
    "BlobRecord": "record",
    "blob_meta": "record",
    "compress_psnr": "record",
    "field_digest": "record",
    "lookup_psnr": "record",
    "psnr_key": "record",
    "read_meta": "record",
    "CACHE_SCHEMA_VERSION": "store",
    "CacheEntry": "store",
    "CacheStore": "store",
    "blob_key": "store",
    "cache_path": "store",
    "data_digest": "store",
    "trial_key": "store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
