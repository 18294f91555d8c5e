"""The shared tail of the quantization codecs: escape, entropy, lossless.

Whatever its predictor or transform, every quantization codec of the
SZ pipeline (paper Section II-A) ends the same way:

1. **Escape** the rare integer codes outside the quantization-bin
   radius into a side stream, so the entropy coder's alphabet stays
   bounded (SZ 1.4's "unpredictable data" path);
2. **entropy-code** the rest with canonical Huffman (the paper's
   choice; containers that earlier builds wrote with interleaved rANS,
   entropy id 1, are still read through :mod:`repro.encoding.rans`);
3. **GZIP** (zlib) the code table and the coded payload: the table at
   the codec's ``lossless_level``, the payload too below
   :data:`RLE_BITS_PER_SYMBOL` bits per symbol, and with zlib's
   run-length strategy at or above it, where the LZ77 search took two
   to three times as long and changed the blob by less than 1.5%.

This module holds that tail once, as SZ3 composes a compressor from
separate predictor, quantizer, encoder and lossless modules: the seven
quantization codecs (sz, temporal, regression, hybrid, interp, legacy
and transform) supply only their codes, side streams and metadata.  It
also holds what every compressor shares at its edges -- the input
validation, the pack step (:func:`pack`), the constant-field container
(:func:`pack_constant`), and the container-header read with its checks
on hostile metadata (:func:`read_header`, :func:`read_keys`).

:class:`ErrorBoundedCodec` is the frame of the six error-bounded codecs
(sz, transform, regression, hybrid, interp and legacy).  By the paper's
Theorem 3 one fixed-PSNR contract covers them all: Eq. 8 gives a
value-range-relative bound and each turns it into ``eb_abs =
eb_rel * (max - min)``.  The frame holds the constructor checks, the
header document, that conversion and both ends of the constant-field
path; a codec keeps its predictor or transform, its side streams, its
extra keys and its reconstruction.

Stream order written here: ``table``, ``payload``, then the codec's own
streams in the order it appended them, then ``escapes``.  Metadata:
``n_escapes``, ``escape_symbol`` and, for Huffman, ``total_bits``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

import repro.observe as observe
from repro.encoding.huffman import MAX_TABLE_BITS, CanonicalHuffman
from repro.encoding.lossless import (
    lossless_compress,
    lossless_decompress,
    method_id,
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
from repro.io.container import Container, pack_exact_float, unpack_exact_float
from repro.telemetry.registry import metrics as _metrics

__all__ = [
    "DEFAULT_RADIUS",
    "ENTROPY_CODERS",
    "RLE_BITS_PER_SYMBOL",
    "SUPPORTED_DTYPES",
    "ErrorBoundedCodec",
    "Header",
    "array_dtype",
    "array_shape",
    "check_count",
    "check_stream",
    "decode_codes",
    "encode_codes",
    "one_of",
    "pack",
    "pack_constant",
    "read_header",
    "read_keys",
    "validate_input",
]

#: Default quantization-bin index radius; SZ 1.4 defaults to 65536
#: intervals, i.e. indices in [-32768, 32767].  Codes outside are escaped.
DEFAULT_RADIUS = 32767

#: Supported input dtypes (the paper evaluates single-precision data).
SUPPORTED_DTYPES = (np.float32, np.float64)

#: Entropy-coder ids a container may hold.  Compression writes Huffman;
#: rANS containers, which earlier builds could write, are only read.
ENTROPY_CODERS = {"huffman": 0, "rans": 1}
_HUFFMAN = ENTROPY_CODERS["huffman"]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Mean Huffman code length, in bits per symbol, from which the payload
#: is deflated with zlib's run-length strategy (``Z_RLE``) instead of at
#: the codec's ``lossless_level``.  Such a payload holds few repeats
#: that an LZ77 search finds and a run-length pass misses: over the 294
#: ATM, Hurricane and NYX registry streams at 40/60/80 dB, ``Z_RLE``
#: moved a blob at or above this rate by -1.0% to +1.43%, below it by
#: -5.7% to +9.2%, while taking a third to half the deflate time
#: (docs/PERFORMANCE.md, "Lossless stage").  The table, the escapes
#: and every side stream keep the level.
RLE_BITS_PER_SYMBOL = 1.5


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


def check_count(name: str, declared: int, implied: int) -> None:
    """Raise :class:`FormatError` with code ``BAD_META`` unless the
    header's count ``name`` equals the one its shape implies.  Side
    streams are sized from these counts, so they are checked before
    anything is inflated."""
    if declared != implied:
        raise _bad_meta(f"{name} {declared}, the shape implies {implied}")


def check_stream(container: Container, name: str, expected: bool) -> None:
    """Raise :class:`FormatError` with code ``BAD_META`` unless
    ``container`` has the stream ``name`` exactly when the header says
    it should (``expected``)."""
    if container.has_stream(name) != expected:
        state = "missing" if expected else "present"
        raise _bad_meta(f"{name} stream {state}, against the header")


def one_of(values: Iterable) -> Callable:
    """Parser of a header key that selects a decode path: its value must
    be one that compression writes, from the writer's own table (an id
    of ``INTERPOLATORS``, a mode of ``MODES``, ...).  Any other value
    would send the decoder down some path to wrong data."""
    allowed = tuple(values)

    def parse(value):
        # bool is an int to Python, and True == 1, but not to JSON
        if type(value) not in (int, str) or value not in allowed:
            raise ValueError(f"not one of {allowed}")
        return value

    return parse


def read_keys(meta: dict, **parsers) -> List:
    """The values of the header keys named by ``parsers``, in order,
    each passed through its parser (``int``,
    :func:`~repro.io.container.unpack_exact_float`, ...).  A parser
    given as ``(parser, default)`` reads a key that older containers
    may lack; ``default`` stands in for it unparsed.

    A missing key, or a value its parser rejects, raises
    :class:`FormatError` with code ``BAD_META``.
    """
    values = []
    for key, parser in parsers.items():
        if isinstance(parser, tuple):
            parser, default = parser
            if key not in meta:
                values.append(default)
                continue
        elif key not in meta:
            raise _bad_meta(f"no {key}")
        try:
            values.append(parser(meta[key]))
        except (TypeError, ValueError, DecompressionError) as exc:
            raise _bad_meta(f"{key} {meta[key]!r} ({exc})") from exc
    return values


def array_shape(shape) -> Tuple[int, ...]:
    """Parser of a header's ``shape``: a non-empty list of positive JSON
    integers whose product fits in int64."""
    if not isinstance(shape, list) or not shape:
        raise ValueError("not a non-empty list")
    size = 1
    for extent in shape:
        # bools are ints to Python but not to JSON; floats would truncate
        if type(extent) is not int or extent < 1:
            raise ValueError("not a list of positive integers")
        size *= extent
        if size > _INT64_MAX:
            raise ValueError("overflows int64")
    return tuple(shape)


def array_dtype(name) -> np.dtype:
    """Parser of a header's ``dtype``: one that compression writes."""
    if name not in ("float32", "float64"):
        raise ValueError("not a dtype compression writes")
    return np.dtype(name)


class Header(NamedTuple):
    """A codec's container and the header fields every codec has."""

    container: Container
    dtype: np.dtype
    shape: Tuple[int, ...]
    lossless: str
    #: A constant field's stored value; None for any other container.
    constant: Optional[float]

    def constant_field(self, dtype=None) -> np.ndarray:
        """A constant container's array: the stored value over the
        header's shape, in ``dtype`` (the header's by default)."""
        return np.full(
            self.shape, self.constant, dtype=self.dtype if dtype is None else dtype
        )

    def keys(self, **parsers) -> List:
        """:func:`read_keys` on this container's metadata."""
        return read_keys(self.container.meta, **parsers)


def read_header(blob: Union[bytes, Container], codec: int, name: str) -> Header:
    """Parse a codec's container (or take an already parsed one) and
    the header fields every codec has.

    The declared dtype must be one that compression writes, and the
    shape a non-empty list of positive JSON integers whose product fits
    in int64; anything else, like a missing or malformed ``lossless``
    or ``constant``, raises :class:`FormatError` with code
    ``BAD_META``.
    """
    container = (
        blob if isinstance(blob, Container) else Container.from_bytes(blob)
    )
    if container.codec != codec:
        raise FormatError(f"container was not produced by the {name} codec")
    return Header(
        container,
        *read_keys(
            container.meta,
            dtype=array_dtype,
            shape=array_shape,
            lossless=lambda mid: method_name(int(mid)),
            constant=(unpack_exact_float, None),
        ),
    )


def pack(codec: int, meta: dict, streams=()) -> bytes:
    """The pack step of every codec: serialize its container under a
    ``pack`` span with exact byte accounting
    (:func:`repro.observe.traced_pack`) and count the bytes in
    ``pipeline.compressed_bytes_total``."""
    blob = observe.traced_pack(Container(codec, meta, list(streams)))
    _metrics().counter("pipeline.compressed_bytes_total").inc(len(blob))
    return blob


def pack_constant(codec: int, meta: dict, value: float, streams=()) -> bytes:
    """The constant-field container: ``value`` stored exactly as the
    header's ``constant``, and no codes (:meth:`Header.constant_field`
    reads it back)."""
    meta["constant"] = pack_exact_float(value)
    return pack(codec, meta, streams)


class ErrorBoundedCodec:
    """The frame of an error-bounded codec.

    A codec sets :attr:`CODEC` and :attr:`NAME`, adds its header keys
    (:meth:`_keys`) and either implements :meth:`_encode` (its codes and
    side streams, for :meth:`compress`) or its own ``compress``, and
    :meth:`_decode` (its reconstruction, for :meth:`decompress`).  Both
    directions hand the codec the bin size ``delta = 2 * eb_abs``.

    Parameters
    ----------
    error_bound:
        The bound: absolute with ``mode="abs"``, relative to the value
        range with ``mode="rel"`` (see :meth:`eb_abs`).
    mode:
        One of :attr:`MODES`.
    lossless, lossless_level:
        Trailing lossless stage (``"zlib"``, GZIP's DEFLATE, or
        ``"none"``) and its effort level.
    quantization_radius:
        Codes with ``|q| > radius`` take the escape path.
    """

    #: Container codec id.
    CODEC: int
    #: The codec's name in the error for another codec's container.
    NAME: str
    #: The ``mode`` values the codec takes.
    MODES: Tuple[str, ...] = ("abs", "rel")

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
    ) -> None:
        if mode not in self.MODES:
            raise ParameterError(f"mode must be one of {self.MODES}, got {mode!r}")
        if not np.isfinite(error_bound) or error_bound <= 0:
            raise ParameterError(f"error bound must be positive, got {error_bound}")
        if quantization_radius < 1:
            raise ParameterError("quantization radius must be >= 1")
        self.error_bound = float(error_bound)
        self.mode = mode
        self.lossless = lossless
        self.lossless_id = method_id(lossless)
        self.lossless_level = int(lossless_level)
        self.radius = int(quantization_radius)
        #: set by the fixed-PSNR wrapper so the container records intent
        self.target_psnr: Optional[float] = None

    def _keys(self) -> dict:
        """The codec's own header keys, in every container it writes."""
        return {}

    def header(self, arr: np.ndarray, value_range: float) -> dict:
        """The header document of a container compressed from ``arr``."""
        meta = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "mode": self.mode,
            "bound": self.error_bound,
            "lossless": self.lossless_id,
            "radius": self.radius,
            "value_range": value_range,
            **self._keys(),
        }
        if self.target_psnr is not None:
            meta["target_psnr"] = float(self.target_psnr)
        return meta

    def eb_abs(self, value_range: float) -> float:
        """The absolute bound on data whose value range is
        ``value_range``: ``error_bound * value_range`` under
        ``mode="rel"``, else ``error_bound``.  A constant field's range
        of 0 keeps the bound itself, so downstream math stays finite."""
        if self.mode == "rel" and value_range != 0.0:
            return self.error_bound * value_range
        return self.error_bound

    def _encode(self, x: np.ndarray, delta: float, meta: dict, streams: list):
        """The codes of the non-constant float64 array ``x`` at bin size
        ``delta``, as a flat int64 array; side streams go to
        ``streams``, extra keys to ``meta``."""
        raise NotImplementedError

    def compress(self, data) -> bytes:
        """Compress ``data``; returns a serialized container."""
        arr = validate_input(data)
        x = arr.astype(np.float64, copy=False)
        vr = float(x.max() - x.min())
        meta = self.header(arr, vr)
        if vr == 0.0:
            return pack_constant(self.CODEC, meta, float(x.flat[0]))
        eb_abs = self.eb_abs(vr)
        meta["eb_abs"] = pack_exact_float(eb_abs)
        streams = []
        q = self._encode(x, 2.0 * eb_abs, meta, streams)
        meta["n_codes"] = int(q.size)
        encode_codes(
            q, meta, streams, self.radius, self.lossless, self.lossless_level
        )
        return pack(self.CODEC, meta, streams)

    @staticmethod
    def _decode(head: Header, delta: float) -> np.ndarray:
        """The array of a non-constant container whose bin size is
        ``delta``."""
        raise NotImplementedError

    @classmethod
    def decompress(cls, blob) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        head = read_header(blob, cls.CODEC, cls.NAME)
        if head.constant is not None:
            return head.constant_field()
        (eb_abs,) = head.keys(eb_abs=unpack_exact_float)
        return cls._decode(head, 2.0 * eb_abs)


def encode_codes(
    q: np.ndarray,
    meta: dict,
    streams: list,
    radius: int,
    lossless: str,
    level: int,
) -> Tuple[int, int]:
    """Escape, Huffman-code and lossless-compress the integer codes ``q``.

    Appends the ``escapes`` stream to ``streams`` (when there are any),
    puts ``table`` and ``payload`` first, and writes ``n_escapes``,
    ``escape_symbol`` and ``total_bits`` to ``meta``.  Returns
    ``(n_escapes, total_bits)``.
    """
    trace = observe.current_trace()
    escape_symbol = radius + 1
    with trace.span("escape") as sp:
        # One min/max pass settles the usual case, no escapes, and
        # gives the entropy coder the stream's span.
        bounds = (int(q.min()), int(q.max()))
        n_escapes = 0
        if bounds[0] < -radius or bounds[1] > radius:
            esc_mask = np.abs(q) > radius
            n_escapes = int(esc_mask.sum())
        if n_escapes:
            escaped = q[esc_mask].astype(np.int64)
            q = q.copy()
            q[esc_mask] = escape_symbol
            bounds = (int(q.min()), escape_symbol)
            streams.append(
                ("escapes", lossless_compress(escaped.tobytes(), lossless, level))
            )
        if trace.enabled:
            sp.count("n_outliers", n_escapes)
            sp.set("hit_ratio", 1.0 - n_escapes / q.size)
    meta["n_escapes"] = n_escapes
    meta["escape_symbol"] = escape_symbol

    with trace.span("entropy") as sp:
        if trace.enabled:
            sp.count("n_symbols", int(q.size))
            sp.set("coder_id", _HUFFMAN)
        # Codes shifted to start at 0 serve both the histogram and the
        # encoder's lookup, which would each subtract the minimum from
        # every code; the table is written with the codes' own values.
        lo, hi = bounds
        shifted = q - lo if lo else q
        code = CanonicalHuffman.from_data(shifted, bounds=(0, hi - lo))
        payload, total_bits = code.encode(shifted, bounds=(0, hi - lo))
        del shifted
        table = CanonicalHuffman(code.symbols + lo, code.lengths).table_bytes()
        meta["total_bits"] = total_bits
        if trace.enabled:
            sp.count("total_bits", int(total_bits))
        rle = total_bits >= RLE_BITS_PER_SYMBOL * q.size
        streams.insert(
            0, ("payload", lossless_compress(payload, lossless, level, rle=rle))
        )
        streams.insert(0, ("table", lossless_compress(table, lossless, level)))
    return n_escapes, total_bits


def _inflate_exact(
    container: Container, name: str, lossless: str, size: int
) -> bytes:
    """Stream ``name`` inflated, which must come to exactly ``size``
    bytes (and is never inflated much past it)."""
    blob = lossless_decompress(container.stream(name), lossless, max_length=size)
    if len(blob) != size:
        raise DecompressionError(
            f"{name} stream holds {len(blob)} bytes, expected {size}"
        )
    return blob


def decode_codes(
    container: Container, lossless: str, n: int, entropy_id: int = 0
) -> np.ndarray:
    """Inverse of :func:`encode_codes`: the ``n`` codes of a container,
    escapes restored, as a flat int64 array."""
    n_escapes, escape_symbol = read_keys(
        container.meta, n_escapes=int, escape_symbol=int
    )
    total_bits = 0
    if entropy_id == _HUFFMAN:
        (total_bits,) = read_keys(container.meta, total_bits=int)

    trace = observe.current_trace()
    with trace.span("codes.decode") as sp:
        if trace.enabled:
            sp.count("n_points", n)
            sp.set("coder_id", entropy_id)
        if entropy_id not in ENTROPY_CODERS.values():
            raise _bad_meta(f"entropy {entropy_id}")
        # Inflation is bounded by the metadata, so a bomb fails early:
        # the alphabet cannot outnumber the points (9 bytes per Huffman
        # table entry, 10 per rANS), the packer writes exactly
        # ceil(total_bits / 8) payload bytes of codes 1 to max_length
        # bits long, and an escape is 8 bytes, one per escape marker.
        table_blob = lossless_decompress(
            container.stream("table"),
            lossless,
            max_length=8 + (9 if entropy_id == _HUFFMAN else 10) * n,
        )
        if entropy_id == _HUFFMAN:
            code = CanonicalHuffman.from_table_bytes(table_blob)
            # The encoder caps lengths at MAX_TABLE_BITS; a longer code
            # would send the payload to the per-bit sequential decoder,
            # whose time grows with the declared shape.
            if code.max_length > MAX_TABLE_BITS:
                raise DecompressionError(
                    f"Huffman table has a {code.max_length}-bit code; "
                    f"the encoder writes at most {MAX_TABLE_BITS}"
                )
            if not n <= total_bits <= code.max_length * n:
                raise DecompressionError(
                    f"{total_bits} bits cannot hold {n} codes of 1 to "
                    f"{code.max_length} bits"
                )
            payload = _inflate_exact(
                container, "payload", lossless, -(-total_bits // 8)
            )
            q = code.decode(payload, n, total_bits)
        else:
            coder = RansCoder.from_table_bytes(table_blob)
            q = coder.decode(container.stream("payload"), n)

        if n_escapes:
            esc_mask = q == escape_symbol
            if int(esc_mask.sum()) != n_escapes:
                raise DecompressionError("escape marker count mismatch")
            esc_blob = _inflate_exact(
                container, "escapes", lossless, 8 * n_escapes
            )
            q = q.copy()
            q[esc_mask] = np.frombuffer(esc_blob, dtype=np.int64)
    return q
