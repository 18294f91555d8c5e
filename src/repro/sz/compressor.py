"""The SZ-style compression pipeline.

Compression (paper Section II-A):

1. **Predict** each point with the Lorenzo predictor and quantize the
   prediction error with error-controlled uniform quantization.  Both
   happen at once in the lattice formulation (see
   :mod:`repro.sz.quantizer`): snap values to the lattice, then take the
   integer Lorenzo difference of the lattice coordinates.
2. **Escape** rare codes outside the quantization-bin radius into a
   side stream, so the Huffman alphabet stays bounded (SZ 1.4's
   "unpredictable data" path; see DESIGN.md for the documented
   deviation -- escaped points store their lattice-snapped value, which
   keeps every point's error uniform in ``[-eb, +eb]``).
3. **Huffman-code** the quantization codes (:mod:`repro.encoding.huffman`).
4. **GZIP** (zlib/DEFLATE) the encoded streams
   (:mod:`repro.encoding.lossless`).

Stages 2-4, and their inverses, are :mod:`repro.encoding.codes`, the
stage every quantization codec of this package shares.

Decompression inverts each stage; the predictor inverse is a cumsum, so
neither direction has a per-element Python loop.

Measuring a blob just written needs no decompression at all: by the
paper's Theorem 1 the decompressed data carry exactly the quantization
stage's error, and for this codec the reconstruction is the lattice
snap of the input (:mod:`repro.sz.quantizer`).  :func:`reconstruction`
recomputes it from the input and the container's header; both it and
:meth:`SZCompressor.decompress` end in the same :func:`_finish`.
"""

from __future__ import annotations

import importlib
from typing import Optional, Union

import numpy as np

import repro.observe as observe
from repro.telemetry.registry import (
    BITS_BUCKETS,
    RATIO_BUCKETS,
    metrics as _metrics,
)
from repro.encoding.codes import (
    DEFAULT_RADIUS,
    ENTROPY_CODERS,
    ErrorBoundedCodec,
    check_stream,
    decode_codes,
    encode_codes,
    one_of,
    pack,
    pack_constant,
    read_header,
    validate_input,
)
from repro.encoding.lossless import lossless_compress, lossless_decompress
from repro.errors import CompressionError, DecompressionError, ParameterError
from repro.io.container import (
    CODEC_CHUNKED,
    CODEC_EMBEDDED,
    CODEC_HYBRID,
    CODEC_INTERP,
    CODEC_LEGACY,
    CODEC_REGRESSION,
    CODEC_SZ,
    CODEC_TRANSFORM,
    Container,
    pack_exact_float,
    unpack_exact_float,
)
from repro.metrics.distortion import fill_mask as _fill_mask
from repro.sz.pointwise import (
    forward_log_transform,
    inverse_log_transform,
    pointwise_bound_to_log_bound,
)
from repro.sz.predictors import predictor_by_id, predictor_by_name
from repro.sz.quantizer import LatticeQuantizer

__all__ = ["SZCompressor", "compress", "decompress", "reconstruction"]


class SZCompressor(ErrorBoundedCodec):
    """Error-bounded lossy compressor with SZ semantics.

    Parameters
    ----------
    error_bound:
        The bound value.  Interpretation depends on ``mode``:
        ``"abs"`` -- absolute error bound ``eb_abs``;
        ``"rel"`` -- value-range-based relative bound, ``eb_abs =
        error_bound * (max(X) - min(X))``;
        ``"pw_rel"`` -- pointwise relative bound: every value within
        ``error_bound * |x_i|`` of ``x_i`` (via logarithmic
        preprocessing; see :mod:`repro.sz.pointwise`).  Must be < 1.
    mode:
        ``"abs"``, ``"rel"`` or ``"pw_rel"`` (the three traditional SZ
        error controls of paper Section II-B).
    predictor:
        ``"lorenzo"`` (default, SZ 1.4), ``"lorenzo1d"`` or ``"none"``.
    lossless:
        Trailing lossless stage: ``"zlib"`` (GZIP's DEFLATE, the paper's
        choice) or ``"none"``.
    lossless_level:
        zlib effort level, 1..9.
    quantization_radius:
        Codes with ``|q| > radius`` take the escape path.
    fill_value:
        Sentinel marking missing points (production climate data uses
        values like 1e20/1e35 over land; ``np.nan`` is accepted too).
        Masked points are restored **exactly** on decompression, are
        excluded from the value range (so relative bounds mean what
        they should), and do not pollute prediction -- internally they
        are replaced by the valid mean and the bit mask travels in its
        own stream.
    """

    CODEC = CODEC_SZ
    NAME = "SZ"
    MODES = ("abs", "rel", "pw_rel")

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        predictor: str = "lorenzo",
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
        fill_value: Optional[float] = None,
    ) -> None:
        super().__init__(
            error_bound, mode, lossless, lossless_level, quantization_radius
        )
        if mode == "pw_rel" and error_bound >= 1.0:
            raise ParameterError("pointwise relative bound must be < 1")
        self.predictor = predictor
        self.predictor_id, self._difference, _ = predictor_by_name(predictor)
        if fill_value is not None and np.isinf(fill_value):
            raise ParameterError("fill_value must be finite or NaN")
        self.fill_value = None if fill_value is None else float(fill_value)

    def _keys(self) -> dict:
        return {"predictor": self.predictor_id}

    # -- helpers --------------------------------------------------------

    def eb_abs(self, value_range: float) -> float:
        """As :meth:`ErrorBoundedCodec.eb_abs`; for ``"pw_rel"`` the
        bound in the log domain."""
        if self.mode == "pw_rel":
            return pointwise_bound_to_log_bound(self.error_bound)
        return super().eb_abs(value_range)

    def resolve_error_bound(self, data: np.ndarray) -> float:
        """Return the absolute bound the quantizer will use on ``data``
        under ``mode`` (for ``"pw_rel"`` it is the bound in the log
        domain)."""
        _, x, _ = _split_fill(data, self.fill_value)
        return self.eb_abs(_value_range(x))

    # -- compression -----------------------------------------------------

    def _encode_lattice(self, y: np.ndarray, eb_abs: float, meta, streams) -> None:
        """Core pipeline on a float64 array: lattice snap, predictor
        difference, escape, Huffman; appends to ``meta``/``streams``."""
        trace = observe.current_trace()
        anchor = float(y.flat[0])
        meta["eb_abs"] = pack_exact_float(eb_abs)
        meta["anchor"] = pack_exact_float(anchor)

        with trace.span("quantize") as sp:
            quantizer = LatticeQuantizer(eb_abs, anchor)
            k = quantizer.quantize(y)
            q = self._difference(k)
            if trace.enabled:
                sp.count("n_points", int(q.size))
                sp.set("bin_size", 2.0 * eb_abs)

        n_escapes, total_bits = encode_codes(
            q, meta, streams, self.radius, self.lossless, self.lossless_level
        )
        meta["entropy"] = ENTROPY_CODERS["huffman"]
        reg = _metrics()
        reg.histogram("sz.quantization.hit_ratio", RATIO_BUCKETS).observe(
            1.0 - n_escapes / q.size
        )
        reg.histogram("sz.quantization.outlier_rate", RATIO_BUCKETS).observe(
            n_escapes / q.size
        )
        reg.histogram("sz.entropy.bits_per_symbol", BITS_BUCKETS).observe(
            total_bits / q.size
        )

    def compress(self, data) -> bytes:
        """Compress ``data`` and return the serialized container."""
        trace = observe.current_trace()
        with trace.span("sz.compress") as root:
            arr, x, fill_mask = _split_fill(data, self.fill_value)
            reg = _metrics()
            reg.counter("pipeline.compress_calls").inc()
            reg.counter("pipeline.raw_bytes_total").inc(int(arr.nbytes))
            if trace.enabled:
                root.count("n_points", int(arr.size))
                root.count("raw_bytes", int(arr.nbytes))
            vr = _value_range(x)
            meta = self.header(arr, vr)

            streams = []
            if fill_mask is not None:
                meta["fill_value"] = pack_exact_float(self.fill_value)
                streams.append(
                    (
                        "fillmask",
                        lossless_compress(
                            np.packbits(fill_mask).tobytes(),
                            self.lossless,
                            self.lossless_level,
                        ),
                    )
                )
            y, y_range = x, vr
            if self.mode == "pw_rel":
                signs, y = forward_log_transform(x)
                streams.append(
                    (
                        "signs",
                        lossless_compress(
                            signs.tobytes(), self.lossless, self.lossless_level
                        ),
                    )
                )
                y_range = float(y.max() - y.min())
            if y_range == 0.0:
                return pack_constant(CODEC_SZ, meta, float(y.flat[0]), streams)
            self._encode_lattice(y, self.eb_abs(vr), meta, streams)
            return pack(CODEC_SZ, meta, streams)

    # -- decompression ----------------------------------------------------

    @staticmethod
    def decompress(blob: Union[bytes, Container]) -> np.ndarray:
        """Decompress a container produced by :meth:`compress` (its
        bytes, or the parsed container)."""
        head = read_header(blob, CODEC_SZ, "SZ")
        container, shape, lossless = head.container, head.shape, head.lossless
        n = int(np.prod(shape))
        signs = None
        if _pointwise(head):
            sign_blob = lossless_decompress(
                container.stream("signs"), lossless, max_length=n
            )
            signs = np.frombuffer(sign_blob, dtype=np.int8)
            if signs.size != n:
                raise DecompressionError("sign stream length mismatch")
            signs = signs.reshape(shape)

        (fill_value,) = head.keys(fill_value=(unpack_exact_float, None))
        fill_mask = None
        if fill_value is not None:
            mask_blob = lossless_decompress(
                container.stream("fillmask"), lossless,
                max_length=(n + 7) // 8,
            )
            bits = np.unpackbits(np.frombuffer(mask_blob, dtype=np.uint8))
            if bits.size < n:
                raise DecompressionError("fill mask shorter than the array")
            fill_mask = bits[:n].astype(bool).reshape(shape)

        if head.constant is not None:
            values = head.constant_field(np.float64)
            return _finish(values, signs, fill_mask, fill_value, head.dtype)

        eb_abs, anchor, (_, _, reconstruct), entropy_id = head.keys(
            eb_abs=unpack_exact_float,
            anchor=unpack_exact_float,
            predictor=predictor_by_id,
            entropy=(int, 0),
        )
        q = decode_codes(container, lossless, n, entropy_id).reshape(shape)

        trace = observe.current_trace()
        with trace.span("sz.reconstruct"):
            k = reconstruct(q)
            values = LatticeQuantizer(eb_abs, anchor).dequantize(k)
            return _finish(values, signs, fill_mask, fill_value, head.dtype)


def _split_fill(data, fill_value: Optional[float]):
    """Separate the fill mask from the data; returns ``(input array,
    array with fill replaced, mask or None)``.

    Without a fill value the second array is the input itself, float32
    or float64: what reads it -- :func:`_value_range`, the lattice snap
    and the log transform -- computes in float64 from either, so a
    float32 field is never copied whole to float64.  With one, it is a
    float64 copy."""
    arr = validate_input(data, finite=fill_value is None)
    if fill_value is None:
        return arr, arr, None
    x = arr.astype(np.float64, copy=False)
    mask = _fill_mask(arr, fill_value)
    valid = x[~mask]
    if valid.size and not np.all(np.isfinite(valid)):
        raise CompressionError("non-fill data contains NaN/Inf")
    if not mask.any():
        return arr, x, None
    # Replace fill by the valid mean: prediction stays well-behaved
    # and the value range reflects only real data.
    replacement = float(valid.mean()) if valid.size else 0.0
    x = x.copy()
    x[mask] = replacement
    return arr, x, mask


def _pointwise(head) -> bool:
    """Whether an sz container is pointwise relative: its ``mode`` must
    be one of :attr:`SZCompressor.MODES`, and it must hold a ``signs``
    stream exactly when the mode is ``pw_rel``."""
    (mode,) = head.keys(mode=one_of(SZCompressor.MODES))
    check_stream(head.container, "signs", mode == "pw_rel")
    return mode == "pw_rel"


def _value_range(x: np.ndarray) -> float:
    """``max - min`` of ``x`` in float64 (a float32 array's extremes
    are exact in float64)."""
    return float(x.max()) - float(x.min())


def _finish(values, signs, fill_mask, fill_value, dtype) -> np.ndarray:
    """The end of both read paths: float64 values (lattice points, or a
    constant field's value) -> inverse log transform (``pw_rel``) ->
    fill restore -> a C-ordered array of the container's dtype.
    ``values`` is a fresh array; the fill restore writes into it."""
    if signs is not None:
        values = inverse_log_transform(signs, values)
    if fill_mask is not None:
        values[fill_mask] = fill_value
    return values.astype(dtype, order="C")


def compress(
    data,
    error_bound: float,
    mode: str = "abs",
    n_chunks: int = 0,
    n_workers: int = 0,
    **kwargs,
) -> bytes:
    """Functional one-shot front end to :class:`SZCompressor`.

    ``n_chunks >= 1`` routes through the slab-parallel
    :func:`repro.parallel.chunking.compress_chunked` path instead
    (``n_workers`` processes); the default stays the plain
    single-container compressor.
    """
    if n_chunks >= 1:
        from repro.parallel.chunking import compress_chunked

        return compress_chunked(
            data,
            error_bound,
            mode=mode,
            n_chunks=n_chunks,
            n_workers=n_workers,
            **kwargs,
        )
    return SZCompressor(error_bound=error_bound, mode=mode, **kwargs).compress(data)


#: Container codec id -> (module, class) of its decoder.  Imported on
#: first use: repro.parallel.chunking imports this module, and a decode
#: needs only its own codec.
_DECODERS = {
    CODEC_TRANSFORM: ("repro.transform.compressor", "TransformCompressor"),
    CODEC_REGRESSION: ("repro.sz.regression", "RegressionCompressor"),
    CODEC_EMBEDDED: ("repro.transform.embedded", "EmbeddedTransformCompressor"),
    CODEC_HYBRID: ("repro.sz.hybrid", "HybridCompressor"),
    CODEC_LEGACY: ("repro.sz.legacy", "Sz11Compressor"),
    CODEC_INTERP: ("repro.sz.interp", "InterpolationCompressor"),
}


def decompress(
    blob: Union[bytes, Container], n_workers: int = 0
) -> np.ndarray:
    """Decompress any container produced by this package (SZ,
    transform, regression, embedded, or chunked), given its bytes or
    the parsed container.  The container is parsed once and handed to
    its codec.  ``n_workers`` applies only to chunked containers, whose
    slabs can be decoded in parallel."""
    container = (
        blob if isinstance(blob, Container) else Container.from_bytes(blob)
    )
    if container.codec == CODEC_SZ:
        return SZCompressor.decompress(container)
    if container.codec == CODEC_CHUNKED:
        from repro.parallel.chunking import decompress_chunked

        return decompress_chunked(container, n_workers=n_workers)
    module, name = _DECODERS[container.codec]
    return getattr(importlib.import_module(module), name).decompress(container)


def reconstruction(data, blob: Union[bytes, Container]) -> np.ndarray:
    """Return exactly what ``decompress(blob)`` returns -- the same
    values, dtype and shape -- for a ``blob`` just compressed from
    ``data`` (its bytes, or the parsed container, which is then not
    parsed again), which is how achieved PSNR is measured right after
    compressing.

    For an sz container nothing is decoded.  The paper's Theorem 1 puts
    all of the decompressed data's error in the quantization stage, and
    every point this codec reconstructs is the lattice snap of its input
    (:mod:`repro.sz.quantizer`), whatever the predictor, radius, escapes
    or entropy coder.  So ``data`` is snapped onto the lattice the
    header records, and no table, payload, escape, sign or fill-mask
    stream is touched.  Any other container (temporal frames included)
    is decoded.

    ``data`` must be the array ``blob`` was compressed from.  Against an
    sz header, a different shape or dtype, a first value (after fill
    replacement and, for ``pw_rel``, the log transform) other than the
    stored anchor, or fill points where the header has none (or none
    where it has some) raise :class:`~repro.errors.ParameterError`.
    """
    container = (
        blob if isinstance(blob, Container) else Container.from_bytes(blob)
    )
    if container.codec != CODEC_SZ or container.meta.get("temporal"):
        return decompress(container)
    head = read_header(container, CODEC_SZ, "SZ")
    arr = np.asarray(data)
    if arr.shape != head.shape or arr.dtype != head.dtype:
        raise ParameterError(
            f"data is {arr.dtype} {arr.shape}; the container holds "
            f"{head.dtype} {head.shape}"
        )
    (fill_value,) = head.keys(fill_value=(unpack_exact_float, None))
    # The first (fill-replaced, log) value the encoder stored: a
    # constant field's value, else the lattice anchor.
    anchor = head.constant
    if anchor is None:
        eb_abs, anchor = head.keys(
            eb_abs=unpack_exact_float, anchor=unpack_exact_float
        )

    _, y, fill_mask = _split_fill(arr, fill_value)
    signs = None
    if _pointwise(head):
        signs, y = forward_log_transform(y)
    has_fill = fill_mask is not None
    if float(y.flat[0]) != anchor or has_fill != (fill_value is not None):
        raise ParameterError(
            "data does not match the container: its first value or its "
            "fill points differ from the header's"
        )
    if head.constant is not None:
        values = head.constant_field(np.float64)
        return _finish(values, signs, fill_mask, fill_value, head.dtype)

    trace = observe.current_trace()
    with trace.span("sz.reconstruct"):
        quantizer = LatticeQuantizer(eb_abs, anchor)
        values = quantizer.dequantize(quantizer.quantize(y))
        return _finish(values, signs, fill_mask, fill_value, head.dtype)
