"""Trailing lossless stage of the pipeline.

The paper's SZ applies GZIP to the Huffman-encoded bytes (Section
II-A step 3).  GZIP's algorithm is DEFLATE, which is what :mod:`zlib`
implements; we expose it behind a small method registry so other
lossless back-ends could be slotted in.

DEFLATE runs either at the codec's zlib level with the default
strategy, or with zlib's run-length strategy (``Z_RLE``), which looks
for repeats of the previous byte only and skips the LZ77 search.  The
caller picks: :func:`repro.encoding.codes.encode_codes` deflates a
high-rate Huffman payload with ``rle=True`` (see
:data:`~repro.encoding.codes.RLE_BITS_PER_SYMBOL`) and every other
stream as before.  Both are ordinary zlib streams under the container's
one ``zlib`` id, so the reader does not know which was used; a
``Z_RLE`` stream's header reads ``78 01``, a level-6 one's ``78 9c``.
"""

from __future__ import annotations

import zlib
from typing import Optional

import repro.observe as observe
from repro.errors import DecompressionError, ParameterError

__all__ = ["lossless_compress", "lossless_decompress", "METHODS"]

#: Supported lossless back-ends; one byte id is stored in the container.
METHODS = {"none": 0, "zlib": 1}
_IDS = {v: k for k, v in METHODS.items()}


def lossless_compress(
    data: bytes, method: str = "zlib", level: int = 6, rle: bool = False
) -> bytes:
    """Compress ``data`` with the named lossless back-end.

    ``level`` follows zlib semantics (1 fastest .. 9 best); ignored for
    ``"none"``.  ``rle=True`` deflates with zlib's run-length strategy,
    whose output does not depend on ``level``.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown lossless method {method!r}")
    if method == "none":
        return bytes(data)
    if not 1 <= level <= 9:
        raise ParameterError("zlib level must be in [1, 9]")
    trace = observe.current_trace()
    with trace.span("lossless") as sp:
        if rle:
            deflater = zlib.compressobj(
                level, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE
            )
            out = deflater.compress(data) + deflater.flush()
        else:
            out = zlib.compress(bytes(data), level)
        if trace.enabled:
            sp.count("bytes_in", len(data))
            sp.count("bytes_out", len(out))
    return out


def lossless_decompress(
    data: bytes, method: str = "zlib", max_length: Optional[int] = None
) -> bytes:
    """Inverse of :func:`lossless_compress`.

    ``max_length`` bounds the output: a stream that would inflate past
    it is a :class:`DecompressionError`, found after inflating at most
    ``max_length + 1`` bytes, so a decompression bomb costs no more
    memory than the bound.  A truncated stream is an error too.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown lossless method {method!r}")
    if method == "none":
        out, complete = bytes(data), True
    else:
        inflater = zlib.decompressobj()
        limit = 0 if max_length is None else max(max_length, 0) + 1
        try:
            out = inflater.decompress(bytes(data), limit)
        except zlib.error as exc:  # corrupt stream
            raise DecompressionError(f"zlib stream corrupt: {exc}") from exc
        complete = inflater.eof
    if max_length is not None and len(out) > max_length:
        raise DecompressionError(
            f"stream inflates past its bound of {max_length} bytes"
        )
    if not complete:
        raise DecompressionError("zlib stream truncated")
    return out


def method_id(method: str) -> int:
    """Numeric id of a method (for container headers)."""
    if method not in METHODS:
        raise ParameterError(f"unknown lossless method {method!r}")
    return METHODS[method]


def method_name(mid: int) -> str:
    """Inverse of :func:`method_id`."""
    if mid not in _IDS:
        raise DecompressionError(f"unknown lossless method id {mid}")
    return _IDS[mid]
