"""Slab-parallel compression of a single large array.

HPC fields can be far larger than a worker's comfortable working set
(the paper's NYX snapshot is 32 GB per field).  ``compress_chunked``
splits the array into slabs along axis 0, compresses each slab as an
independent SZ container (each slab gets its own lattice anchor), and
wraps them in an outer CHUNKED container.

Correctness notes:

* the absolute error bound is resolved against the **whole** array
  before splitting, so relative-bound and fixed-PSNR semantics match
  the unchunked compressor exactly;
* the per-point error bound is preserved trivially (each slab obeys
  it);
* the overall PSNR estimate is unchanged: every slab quantizes with
  the same bin size ``delta``, and Eq. 6 depends only on ``delta`` and
  the global value range.
"""

from __future__ import annotations

import time
from typing import List, Union

import numpy as np

import repro.observe as observe
from repro.telemetry.registry import THROUGHPUT_BUCKETS, metrics as _metrics
from repro.encoding.codes import array_dtype, array_shape, read_keys
from repro.errors import ErrorCode, FormatError, ParameterError
from repro.io.container import CODEC_CHUNKED, Container
from repro.sz.compressor import SZCompressor

__all__ = ["compress_chunked", "decompress_chunked"]


def _compress_slab(payload, eb_abs, options, traced):
    """Compress one slab; returns ``(blob, records_or_None)``.

    ``payload`` is what :meth:`repro.parallel.shm.ShmArena.share`
    returned for the slab: its key, or the slab itself.

    When tracing is requested the slab runs under its own local
    :class:`repro.observe.Trace` (a worker process cannot write to the
    parent's trace), and the picklable span records travel back with
    the blob for the parent to merge.
    """
    from repro.parallel.shm import resolve

    comp = SZCompressor(error_bound=eb_abs, mode="abs", **options)
    data = resolve(payload)
    if not traced:
        return comp.compress(data), None
    local = observe.Trace()
    with observe.use_trace(local):
        blob = comp.compress(data)
    return blob, [r.as_dict() for r in local.records]


def _place(part: np.ndarray, rows: np.ndarray) -> None:
    """Write a decoded slab into its rows of the output, once it is
    exactly the shape and dtype the outer header gives those rows."""
    if part.shape != rows.shape or part.dtype != rows.dtype:
        raise FormatError(
            f"bad container metadata: a chunk decodes to {part.dtype} "
            f"{part.shape}, but the header's rows for it are "
            f"{rows.dtype} {rows.shape}",
            code=ErrorCode.BAD_META,
        )
    rows[...] = part


def _decompress_slab(blob: bytes, rows):
    """Decode one chunk.  ``rows`` is the key of the chunk's rows of
    the output on the inherit path, where the slab is written in place;
    it is ``None`` on the pickle path, where the slab goes back to the
    parent."""
    from repro.parallel.shm import resolve

    part = SZCompressor.decompress(blob)
    if rows is None:
        return part
    _place(part, resolve(rows))
    return None


def compress_chunked(
    data,
    error_bound: float,
    mode: str = "abs",
    n_chunks: int = 4,
    n_workers: int = 0,
    executor=None,
    **compressor_options,
) -> bytes:
    """Compress ``data`` as ``n_chunks`` independent slabs along axis 0.

    ``n_workers=0`` compresses slabs sequentially (deterministic and
    dependency-free); positive values use a per-call process pool, and
    ``executor`` runs the slabs on a long-lived
    :class:`repro.parallel.executor.Executor` instead (``n_workers``
    is then taken from it).  The workers of a per-call fork pool read
    their slabs from the memory they inherit, with no copy; a caller's
    process executor receives each slab by pickle
    (:func:`repro.parallel.executor.payload_scope`).  The output
    container is bit-identical across paths and worker counts.
    """
    from repro.parallel.executor import payload_scope

    trace = observe.current_trace()
    with trace.span("chunked.compress") as root:
        arr = np.asarray(data)
        if arr.ndim == 0 or arr.size == 0:
            raise ParameterError("data must be a non-empty array")
        if n_chunks < 1:
            raise ParameterError("n_chunks must be >= 1")
        n_chunks = min(n_chunks, arr.shape[0])
        with payload_scope(executor, n_workers) as (ex, arena):
            if trace.enabled:
                root.count("n_points", int(arr.size))
                root.set("n_chunks", n_chunks)
                root.set("n_workers", 0 if ex.inline else ex.n_workers)
            # Resolve the bound globally so chunked == unchunked semantics.
            probe = SZCompressor(
                error_bound=error_bound, mode=mode, **compressor_options
            )
            eb_abs = probe.resolve_error_bound(arr)
            slabs = np.array_split(arr, n_chunks, axis=0)
            chunk_rows = [int(s.shape[0]) for s in slabs]
            tasks = [
                (arena.share(slab), eb_abs, compressor_options, trace.enabled)
                for slab in slabs
            ]
            t0 = time.perf_counter()
            results = ex.map(_compress_slab, tasks)
            elapsed = time.perf_counter() - t0
            if elapsed > 0:
                # Wall-clock-derived, hence excluded from deterministic
                # snapshots.
                _metrics().histogram(
                    "parallel.chunk_throughput_mbps",
                    THROUGHPUT_BUCKETS,
                    deterministic=False,
                ).observe(arr.nbytes / 1e6 / elapsed)
        blobs: List[bytes] = []
        for blob, records in results:
            blobs.append(blob)
            if records:
                # Same "slab" prefix for every worker: repeated paths
                # aggregate, and the tree stays stable across worker
                # counts and scheduling.
                trace.merge(records, prefix=("slab",))
        meta = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "n_chunks": n_chunks,
            "chunk_rows": chunk_rows,
        }
        streams = [(f"chunk{i}", blob) for i, blob in enumerate(blobs)]
        return observe.traced_pack(Container(CODEC_CHUNKED, meta, streams))


def decompress_chunked(
    blob: Union[bytes, Container], n_workers: int = 0, executor=None
) -> np.ndarray:
    """Decompress a CHUNKED container (its bytes, or the parsed
    container) back into one array.

    The output is allocated once, from the outer header, and each slab
    is checked against its rows before it is written.  A slab whose
    shape or dtype disagrees with the header, or a header size that
    cannot be allocated, raises :class:`FormatError` with code
    ``BAD_META``.

    Slabs decode on the pool :func:`compress_chunked` would use.  On a
    per-call fork pool the output is one anonymous shared mapping and
    each worker writes its own rows; on a caller's process executor the
    slabs come back by pickle and the parent copies each into its rows.
    """
    from repro.parallel.executor import payload_scope

    container = (
        blob if isinstance(blob, Container) else Container.from_bytes(blob)
    )
    if container.codec != CODEC_CHUNKED:
        raise FormatError("container is not chunked")
    n_chunks, dtype, shape, chunk_rows = read_keys(
        container.meta,
        n_chunks=int,
        dtype=array_dtype,
        shape=array_shape,
        chunk_rows=lambda rows: [int(r) for r in rows],
    )
    if len(chunk_rows) != n_chunks or sum(chunk_rows) != shape[0]:
        raise FormatError(
            "chunk geometry inconsistent with array shape",
            code=ErrorCode.BAD_META,
        )
    blobs = [container.stream(f"chunk{i}") for i in range(n_chunks)]
    bounds = np.cumsum([0, *chunk_rows])
    with payload_scope(executor, n_workers) as (ex, arena):
        try:
            out = arena.empty(shape, dtype)
        except (MemoryError, OSError, OverflowError, ValueError) as exc:
            raise FormatError(
                f"bad container metadata: no {dtype} array of shape "
                f"{list(shape)} can be allocated ({exc})",
                code=ErrorCode.BAD_META,
            ) from exc
        rows = [out[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        # Registered before the first submit, which forks a per-call pool.
        targets = [arena.share(r) if arena.inherit else None for r in rows]
        parts = ex.map(_decompress_slab, zip(blobs, targets))
    for part, r in zip(parts, rows):
        if part is not None:
            _place(part, r)
    return out
