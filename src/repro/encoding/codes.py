"""The shared tail of the quantization codecs: escape, entropy, lossless.

Whatever its predictor or transform, every quantization codec of the
SZ pipeline (paper Section II-A) ends the same way:

1. **Escape** the rare integer codes outside the quantization-bin
   radius into a side stream, so the entropy coder's alphabet stays
   bounded (SZ 1.4's "unpredictable data" path);
2. **entropy-code** the rest with canonical Huffman (the paper's
   choice) or interleaved rANS (:mod:`repro.encoding.rans`);
3. **GZIP** (zlib) the code table and the coded payload.

This module holds that tail once, as SZ3 composes a compressor from
separate predictor, quantizer, encoder and lossless modules: the seven
quantization codecs (sz, temporal, regression, hybrid, interp, legacy
and transform) supply only their codes, side streams and metadata.  It
also holds what every compressor shares at its edges -- the input
validation, and the container-header read with its checks on hostile
metadata.

Stream order written here: ``table``, ``payload``, then the codec's own
streams in the order it appended them, then ``escapes``.  Metadata:
``n_escapes``, ``escape_symbol`` and, for Huffman, ``total_bits``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import repro.observe as observe
from repro.encoding.huffman import CanonicalHuffman
from repro.encoding.lossless import (
    lossless_compress,
    lossless_decompress,
    method_name,
)
from repro.encoding.rans import RansCoder
from repro.errors import (
    CompressionError,
    DecompressionError,
    ErrorCode,
    FormatError,
    ParameterError,
)
from repro.io.container import Container, unpack_exact_float

__all__ = [
    "DEFAULT_RADIUS",
    "ENTROPY_CODERS",
    "SUPPORTED_DTYPES",
    "decode_codes",
    "encode_codes",
    "read_header",
    "validate_input",
]

#: Default quantization-bin index radius; SZ 1.4 defaults to 65536
#: intervals, i.e. indices in [-32768, 32767].  Codes outside are escaped.
DEFAULT_RADIUS = 32767

#: Supported input dtypes (the paper evaluates single-precision data).
SUPPORTED_DTYPES = (np.float32, np.float64)

#: Entropy-coder ids stored in the container.
ENTROPY_CODERS = {"huffman": 0, "rans": 1}
_HUFFMAN = ENTROPY_CODERS["huffman"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def validate_input(data, finite: bool = True) -> np.ndarray:
    """Return ``data`` as a non-empty float32/float64 array, or raise.

    ``finite=False`` leaves NaN/Inf to the caller (the sz codec's fill
    values may be NaN).
    """
    arr = np.asarray(data)
    if arr.dtype not in SUPPORTED_DTYPES:
        raise ParameterError(
            f"dtype {arr.dtype} unsupported; use float32 or float64"
        )
    if arr.ndim == 0 or arr.size == 0:
        raise ParameterError("data must be a non-empty array")
    if finite and not np.all(np.isfinite(arr)):
        raise CompressionError(
            "data contains NaN/Inf; error-bounded compression of "
            "non-finite values is undefined"
        )
    return arr


def _bad_meta(message: str) -> FormatError:
    return FormatError(f"bad container metadata: {message}", code=ErrorCode.BAD_META)


def read_header(
    blob: bytes, codec: int, name: str
) -> Tuple[Container, np.dtype, Tuple[int, ...], str, Optional[float]]:
    """Parse a codec's container and the header fields every codec has.

    Returns ``(container, dtype, shape, lossless method, constant)``,
    where ``constant`` is the stored value of a constant field (None
    for any other container).  The declared dtype must be one that
    compression writes, and the shape a non-empty list of positive
    JSON integers whose product fits in int64; anything else raises
    :class:`FormatError` with code ``BAD_META``.
    """
    container = Container.from_bytes(blob)
    if container.codec != codec:
        raise FormatError(f"container was not produced by the {name} codec")
    meta = container.meta
    dtype = meta.get("dtype")
    if dtype not in ("float32", "float64"):
        raise _bad_meta(f"dtype {dtype!r}")
    shape = meta.get("shape")
    if not isinstance(shape, list) or not shape:
        raise _bad_meta(f"shape {shape!r}")
    size = 1
    for extent in shape:
        # bools are ints to Python but not to JSON; floats would truncate
        if type(extent) is not int or extent < 1:
            raise _bad_meta(f"shape {shape!r}")
        size *= extent
        if size > _INT64_MAX:
            raise _bad_meta(f"shape {shape!r} overflows int64")
    try:
        lossless = method_name(int(meta["lossless"]))
        constant = (
            unpack_exact_float(meta["constant"]) if "constant" in meta else None
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad container metadata: {exc}") from exc
    return container, np.dtype(dtype), tuple(shape), lossless, constant


def encode_codes(
    q: np.ndarray,
    meta: dict,
    streams: list,
    radius: int,
    lossless: str,
    level: int,
    entropy: str = "huffman",
) -> Tuple[int, Optional[int], int]:
    """Escape, entropy-code and lossless-compress the integer codes ``q``.

    Appends the ``escapes`` stream to ``streams`` (when there are any),
    puts ``table`` and ``payload`` first, and writes ``n_escapes``,
    ``escape_symbol`` and ``total_bits`` to ``meta``.  rANS falls back
    to Huffman on alphabets its model cannot hold.  Returns
    ``(n_escapes, total_bits, coder id used)``; ``total_bits`` is None
    for rANS.
    """
    trace = observe.current_trace()
    escape_symbol = radius + 1
    with trace.span("escape") as sp:
        esc_mask = np.abs(q) > radius
        n_escapes = int(esc_mask.sum())
        if trace.enabled:
            sp.count("n_outliers", n_escapes)
            sp.set("hit_ratio", 1.0 - n_escapes / q.size)
        if n_escapes:
            escaped = q[esc_mask].astype(np.int64)
            q = q.copy()
            q[esc_mask] = escape_symbol
            streams.append(
                ("escapes", lossless_compress(escaped.tobytes(), lossless, level))
            )
    meta["n_escapes"] = n_escapes
    meta["escape_symbol"] = escape_symbol

    coder_id = ENTROPY_CODERS[entropy]
    with trace.span("entropy") as sp:
        if trace.enabled:
            sp.count("n_symbols", int(q.size))
            sp.set("coder_id", coder_id)
        if entropy == "rans":
            try:
                coder = RansCoder.from_data(q)
            except ParameterError:
                coder_id = _HUFFMAN
                if trace.enabled:
                    sp.set("coder_id", coder_id)
            else:
                # rANS output is already near-incompressible; only the
                # model table goes through the lossless stage.
                streams.insert(0, ("payload", coder.encode(q)))
                streams.insert(
                    0,
                    ("table", lossless_compress(coder.table_bytes(), lossless, level)),
                )
                return n_escapes, None, coder_id

        code = CanonicalHuffman.from_data(q)
        payload, total_bits = code.encode(q)
        meta["total_bits"] = total_bits
        if trace.enabled:
            sp.count("total_bits", int(total_bits))
        streams.insert(0, ("payload", lossless_compress(payload, lossless, level)))
        streams.insert(
            0, ("table", lossless_compress(code.table_bytes(), lossless, level))
        )
    return n_escapes, total_bits, coder_id


def decode_codes(
    container: Container, lossless: str, n: int, entropy_id: int = 0
) -> np.ndarray:
    """Inverse of :func:`encode_codes`: the ``n`` codes of a container,
    escapes restored, as a flat int64 array."""
    meta = container.meta
    try:
        n_escapes = int(meta["n_escapes"])
        escape_symbol = int(meta["escape_symbol"])
        total_bits = int(meta["total_bits"]) if entropy_id == _HUFFMAN else 0
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad container metadata: {exc}") from exc

    trace = observe.current_trace()
    with trace.span("codes.decode") as sp:
        if trace.enabled:
            sp.count("n_points", n)
            sp.set("coder_id", entropy_id)
        if entropy_id not in ENTROPY_CODERS.values():
            raise FormatError(f"unknown entropy coder id {entropy_id}")
        table_blob = lossless_decompress(container.stream("table"), lossless)
        if entropy_id == _HUFFMAN:
            code = CanonicalHuffman.from_table_bytes(table_blob)
            payload = lossless_decompress(container.stream("payload"), lossless)
            q = code.decode(payload, n, total_bits)
        else:
            coder = RansCoder.from_table_bytes(table_blob)
            q = coder.decode(container.stream("payload"))
            if q.size != n:
                raise DecompressionError("rANS symbol count mismatch")

        if n_escapes:
            esc_blob = lossless_decompress(container.stream("escapes"), lossless)
            if len(esc_blob) != 8 * n_escapes:
                raise DecompressionError(
                    f"escape stream holds {len(esc_blob)} bytes, "
                    f"expected {n_escapes} int64 values"
                )
            esc_mask = q == escape_symbol
            if int(esc_mask.sum()) != n_escapes:
                raise DecompressionError("escape marker count mismatch")
            q = q.copy()
            q[esc_mask] = np.frombuffer(esc_blob, dtype=np.int64)
    return q
