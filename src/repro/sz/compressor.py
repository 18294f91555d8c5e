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
"""

from __future__ import annotations

from typing import Optional

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
    decode_codes,
    encode_codes,
    read_header,
    validate_input,
)
from repro.encoding.lossless import (
    lossless_compress,
    lossless_decompress,
    method_id,
)
from repro.errors import (
    CompressionError,
    DecompressionError,
    FormatError,
    ParameterError,
)
from repro.io.container import (
    CODEC_CHUNKED,
    CODEC_EMBEDDED,
    CODEC_HYBRID,
    CODEC_INTERP,
    CODEC_LEGACY,
    CODEC_REGRESSION,
    CODEC_SZ,
    Container,
    pack_exact_float,
    unpack_exact_float,
)
from repro.sz.pointwise import (
    forward_log_transform,
    inverse_log_transform,
    pointwise_bound_to_log_bound,
)
from repro.sz.predictors import predictor_by_id, predictor_by_name
from repro.sz.quantizer import LatticeQuantizer

__all__ = ["SZCompressor", "compress", "decompress"]


class SZCompressor:
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
    entropy:
        Third-stage entropy coder: ``"huffman"`` (the paper's SZ 1.4)
        or ``"rans"`` (interleaved range-ANS; see
        :mod:`repro.encoding.rans`), which falls back to Huffman on
        pathological alphabets.
    fill_value:
        Sentinel marking missing points (production climate data uses
        values like 1e20/1e35 over land; ``np.nan`` is accepted too).
        Masked points are restored **exactly** on decompression, are
        excluded from the value range (so relative bounds mean what
        they should), and do not pollute prediction -- internally they
        are replaced by the valid mean and the bit mask travels in its
        own stream.
    """

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        predictor: str = "lorenzo",
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
        entropy: str = "huffman",
        fill_value: Optional[float] = None,
    ) -> None:
        if mode not in ("abs", "rel", "pw_rel"):
            raise ParameterError(
                f"mode must be 'abs', 'rel' or 'pw_rel', got {mode!r}"
            )
        if not np.isfinite(error_bound) or error_bound <= 0:
            raise ParameterError(f"error bound must be positive, got {error_bound}")
        if mode == "pw_rel" and error_bound >= 1.0:
            raise ParameterError("pointwise relative bound must be < 1")
        if quantization_radius < 1:
            raise ParameterError("quantization radius must be >= 1")
        self.error_bound = float(error_bound)
        self.mode = mode
        self.predictor = predictor
        self.predictor_id, self._difference, _ = predictor_by_name(predictor)
        self.lossless = lossless
        self.lossless_id = method_id(lossless)
        self.lossless_level = int(lossless_level)
        self.radius = int(quantization_radius)
        if entropy not in ENTROPY_CODERS:
            raise ParameterError(
                f"unknown entropy coder {entropy!r}; "
                f"choose from {sorted(ENTROPY_CODERS)}"
            )
        self.entropy = entropy
        if fill_value is not None and np.isinf(fill_value):
            raise ParameterError("fill_value must be finite or NaN")
        self.fill_value = None if fill_value is None else float(fill_value)
        #: set by the fixed-PSNR wrapper so the container records intent
        self.target_psnr: Optional[float] = None

    # -- helpers --------------------------------------------------------

    def resolve_error_bound(self, data: np.ndarray) -> float:
        """Return the absolute bound the quantizer will use under
        ``mode`` (for ``"pw_rel"`` it is the bound in the log domain)."""
        _, x, _ = self._split_fill(data)
        if self.mode == "abs":
            return self.error_bound
        if self.mode == "pw_rel":
            return pointwise_bound_to_log_bound(self.error_bound)
        vr = float(x.max() - x.min())
        if vr == 0.0:
            # Constant field: any positive bound works; pick the bound
            # itself so downstream math stays finite.
            return self.error_bound
        return self.error_bound * vr

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

        n_escapes, total_bits, coder_id = encode_codes(
            q,
            meta,
            streams,
            self.radius,
            self.lossless,
            self.lossless_level,
            self.entropy,
        )
        meta["entropy"] = coder_id
        reg = _metrics()
        reg.histogram("sz.quantization.hit_ratio", RATIO_BUCKETS).observe(
            1.0 - n_escapes / q.size
        )
        reg.histogram("sz.quantization.outlier_rate", RATIO_BUCKETS).observe(
            n_escapes / q.size
        )
        if total_bits is not None:
            reg.histogram("sz.entropy.bits_per_symbol", BITS_BUCKETS).observe(
                total_bits / q.size
            )

    def _split_fill(self, data):
        """Separate the fill mask from the data; returns
        ``(input array, float64 array with fill replaced, mask or None)``."""
        arr = validate_input(data, finite=self.fill_value is None)
        x = arr.astype(np.float64, copy=False)
        if self.fill_value is None:
            return arr, x, None
        if np.isnan(self.fill_value):
            mask = np.isnan(x)
        else:
            mask = x == self.fill_value
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

    def _pack(self, meta, streams) -> bytes:
        """Serialize the container, with exact byte accounting when a
        trace is active (see :mod:`repro.observe`)."""
        blob = observe.traced_pack(Container(CODEC_SZ, meta, streams))
        _metrics().counter("pipeline.compressed_bytes_total").inc(len(blob))
        return blob

    def compress(self, data) -> bytes:
        """Compress ``data`` and return the serialized container."""
        trace = observe.current_trace()
        with trace.span("sz.compress") as root:
            arr, x, fill_mask = self._split_fill(data)
            reg = _metrics()
            reg.counter("pipeline.compress_calls").inc()
            reg.counter("pipeline.raw_bytes_total").inc(int(arr.nbytes))
            if trace.enabled:
                root.count("n_points", int(arr.size))
                root.count("raw_bytes", int(arr.nbytes))
            vr = float(x.max() - x.min())
            meta = {
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "mode": self.mode,
                "bound": self.error_bound,
                "predictor": self.predictor_id,
                "lossless": self.lossless_id,
                "radius": self.radius,
                "value_range": vr,
            }
            if self.target_psnr is not None:
                meta["target_psnr"] = float(self.target_psnr)

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
                eb_abs = pointwise_bound_to_log_bound(self.error_bound)
                if float(y.max() - y.min()) == 0.0:
                    meta["constant"] = pack_exact_float(float(y.flat[0]))
                    return self._pack(meta, streams)
                self._encode_lattice(y, eb_abs, meta, streams)
                return self._pack(meta, streams)

            if vr == 0.0:
                # Constant field: store the value exactly.
                meta["constant"] = pack_exact_float(float(x.flat[0]))
                return self._pack(meta, streams)

            if self.mode == "abs":
                eb_abs = self.error_bound
            else:
                eb_abs = self.error_bound * vr
            self._encode_lattice(x, eb_abs, meta, streams)
            return self._pack(meta, streams)

    # -- decompression ----------------------------------------------------

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        container, dtype, shape, lossless, constant = read_header(
            blob, CODEC_SZ, "SZ"
        )
        meta = container.meta
        n = int(np.prod(shape))
        pointwise = meta.get("mode") == "pw_rel"
        signs = None
        if pointwise:
            sign_blob = lossless_decompress(container.stream("signs"), lossless)
            signs = np.frombuffer(sign_blob, dtype=np.int8)
            if signs.size != n:
                raise DecompressionError("sign stream length mismatch")
            signs = signs.reshape(shape)

        fill_value = None
        fill_mask = None
        if "fill_value" in meta:
            fill_value = unpack_exact_float(meta["fill_value"])
            mask_blob = lossless_decompress(container.stream("fillmask"), lossless)
            bits = np.unpackbits(np.frombuffer(mask_blob, dtype=np.uint8))
            if bits.size < n:
                raise DecompressionError("fill mask shorter than the array")
            fill_mask = bits[:n].astype(bool).reshape(shape)

        def _restore_fill(values: np.ndarray) -> np.ndarray:
            if fill_mask is not None:
                values = values.copy()
                values[fill_mask] = fill_value
            return values

        if constant is not None:
            out = np.full(shape, constant, dtype=np.float64)
            if pointwise:
                out = inverse_log_transform(signs, out)
            return _restore_fill(out).astype(dtype)

        try:
            eb_abs = unpack_exact_float(meta["eb_abs"])
            anchor = unpack_exact_float(meta["anchor"])
            predictor_id = int(meta["predictor"])
            entropy_id = int(meta.get("entropy", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad container metadata: {exc}") from exc

        _, _, reconstruct = predictor_by_id(predictor_id)
        q = decode_codes(container, lossless, n, entropy_id).reshape(shape)

        trace = observe.current_trace()
        with trace.span("sz.reconstruct"):
            k = reconstruct(q)
            quantizer = LatticeQuantizer(eb_abs, anchor)
            values = quantizer.dequantize(k)
            if pointwise:
                values = inverse_log_transform(signs, values)
        return _restore_fill(values).astype(dtype)


def compress(
    data,
    error_bound: float,
    mode: str = "abs",
    n_chunks: int = 0,
    n_workers: int = 0,
    transport: str = "auto",
    **kwargs,
) -> bytes:
    """Functional one-shot front end to :class:`SZCompressor`.

    ``n_chunks >= 1`` routes through the slab-parallel
    :func:`repro.parallel.chunking.compress_chunked` path instead
    (``n_workers`` processes, array payloads moved over ``transport``
    -- see :mod:`repro.parallel.shm`); the default stays the plain
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
            transport=transport,
            **kwargs,
        )
    return SZCompressor(error_bound=error_bound, mode=mode, **kwargs).compress(data)


def decompress(
    blob: bytes, n_workers: int = 0, transport: str = "auto"
) -> np.ndarray:
    """Decompress any container produced by this package (SZ,
    transform, regression, embedded, or chunked).  ``n_workers`` and
    ``transport`` apply only to chunked containers, whose slabs can be
    decoded in parallel."""
    container = Container.from_bytes(blob)
    if container.codec == CODEC_SZ:
        return SZCompressor.decompress(blob)
    # Deferred imports: repro.parallel.chunking imports this module, and
    # a decode needs only its own codec.
    if container.codec == CODEC_CHUNKED:
        from repro.parallel.chunking import decompress_chunked

        return decompress_chunked(blob, n_workers=n_workers, transport=transport)
    if container.codec == CODEC_REGRESSION:
        from repro.sz.regression import RegressionCompressor

        return RegressionCompressor.decompress(blob)
    if container.codec == CODEC_HYBRID:
        from repro.sz.hybrid import HybridCompressor

        return HybridCompressor.decompress(blob)
    if container.codec == CODEC_LEGACY:
        from repro.sz.legacy import Sz11Compressor

        return Sz11Compressor.decompress(blob)
    if container.codec == CODEC_INTERP:
        from repro.sz.interp import InterpolationCompressor

        return InterpolationCompressor.decompress(blob)
    if container.codec == CODEC_EMBEDDED:
        from repro.transform.embedded import EmbeddedTransformCompressor

        return EmbeddedTransformCompressor.decompress(blob)
    from repro.transform.compressor import TransformCompressor

    return TransformCompressor.decompress(blob)
