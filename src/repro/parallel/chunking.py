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
from typing import List

import numpy as np

import repro.observe as observe
from repro.telemetry.registry import THROUGHPUT_BUCKETS, metrics as _metrics
from repro.encoding.codes import array_shape, read_keys
from repro.errors import ErrorCode, FormatError, ParameterError
from repro.io.container import CODEC_CHUNKED, Container
from repro.sz.compressor import SZCompressor

__all__ = ["compress_chunked", "decompress_chunked"]


def _compress_slab(payload, eb_abs, options, traced, prefix):
    """Compress one slab; returns ``(blob_payload, records_or_None)``.

    The slab arrives as any :mod:`repro.parallel.shm` array payload --
    a plain ndarray on the pickle path, a zero-copy
    :class:`~repro.parallel.shm.ShmSliceRef` on the shm path -- and
    the compressed stream goes back the same way: published into a
    segment under the caller's arena prefix when large enough,
    returned as plain bytes otherwise.

    When tracing is requested the slab runs under its own local
    :class:`repro.observe.Trace` (a worker process cannot write to the
    parent's trace), and the picklable span records travel back with
    the blob for the parent to merge.
    """
    from repro.parallel.shm import open_payload, publish_bytes

    comp = SZCompressor(error_bound=eb_abs, mode="abs", **options)
    with open_payload(payload) as data:
        if not traced:
            return publish_bytes(prefix, comp.compress(data)), None
        local = observe.Trace()
        with observe.use_trace(local):
            blob = comp.compress(data)
    records = [r.as_dict() for r in local.records]
    return publish_bytes(prefix, blob), records


def _decompress_slab(payload, prefix):
    """Decompress one chunk blob (bytes or a shared uint8 payload) and
    send the reconstructed slab back as an array payload: published to
    a segment under the arena prefix when the call has one, a plain
    (pickled) ndarray otherwise."""
    from repro.parallel.shm import open_payload, publish_array

    if isinstance(payload, (bytes, bytearray)):
        part = SZCompressor.decompress(bytes(payload))
    else:
        with open_payload(payload) as buf:
            # The codec's parser wants a bytes object; this one copy
            # replaces the two the pickle channel used to make.
            part = SZCompressor.decompress(buf.tobytes())
    return publish_array(prefix, part)


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
    is then taken from it).  When the slabs go to worker processes and
    shared memory works here, the whole array is placed in **one**
    per-call segment and each worker reads its slab through a
    zero-copy :class:`~repro.parallel.shm.ShmSliceRef`; compressed
    streams travel back through segments too.  Otherwise, and for
    payloads the size/capacity guard turns away, they go by pickle.
    The output container is bit-identical across data planes and
    worker counts.
    """
    from repro.parallel.executor import payload_scope
    from repro.parallel.shm import take_bytes

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
            if arena is None:
                payloads, prefix = slabs, None
            else:
                base = arena.share(np.ascontiguousarray(arr))
                payloads = arena.slice_refs(base, chunk_rows)
                prefix = arena.prefix
            t0 = time.perf_counter()
            results = ex.map(
                _compress_slab,
                [
                    (payload, eb_abs, compressor_options, trace.enabled, prefix)
                    for payload in payloads
                ],
            )
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
            for blob_payload, records in results:
                blobs.append(take_bytes(blob_payload))
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
    blob: bytes, n_workers: int = 0, executor=None
) -> np.ndarray:
    """Decompress a CHUNKED container back into one array.

    Slabs decode on the pool :func:`compress_chunked` would use.  When
    they go to worker processes and shared memory works here, chunk
    streams go out and reconstructed slabs come back through per-call
    segments (the parent adopts each slab and concatenates the
    read-only views).
    """
    from repro.parallel.executor import payload_scope

    container = Container.from_bytes(blob)
    if container.codec != CODEC_CHUNKED:
        raise FormatError("container is not chunked")
    n_chunks, shape, chunk_rows = read_keys(
        container.meta,
        n_chunks=int,
        shape=array_shape,
        chunk_rows=lambda rows: [int(r) for r in rows],
    )
    if len(chunk_rows) != n_chunks or sum(chunk_rows) != shape[0]:
        raise FormatError(
            "chunk geometry inconsistent with array shape",
            code=ErrorCode.BAD_META,
        )
    blobs = [container.stream(f"chunk{i}") for i in range(n_chunks)]
    with payload_scope(executor, n_workers) as (ex, arena):
        if arena is None:
            payloads, prefix = blobs, None
        else:
            payloads = [
                arena.share(np.frombuffer(b, dtype=np.uint8)) for b in blobs
            ]
            prefix = arena.prefix
        raw = ex.map(_decompress_slab, [(p, prefix) for p in payloads])
        parts = raw if arena is None else [arena.adopt_array(p) for p in raw]
        for part, rows in zip(parts, chunk_rows):
            if part.shape[0] != rows:
                raise FormatError("slab shape mismatch")
        # np.concatenate copies, so the result owns its memory and the
        # adopted segments can be unlinked when the scope closes.
        return np.concatenate(parts, axis=0)
