"""Streaming compression of snapshot *sequences* (time dimension).

The paper's introduction describes the practice this replaces: HACC
keeps only every k-th snapshot because storage cannot hold them all --
"degrading the consecutiveness of simulation in time dimension and
losing important information unexpectedly".  With error-bounded
compression cheap enough per step, one can keep **every** snapshot.

This module adds temporal prediction to the lattice codec: time is
treated as one more Lorenzo axis.  In lattice terms the step-t codes
are

    q_t = Delta_spatial(k_t) - Delta_spatial(k_{t-1}),

the finite difference *in time* of the spatial difference codes --
exactly what (d+1)-dimensional Lorenzo over the stacked array would
produce, but computed streamingly with O(1) snapshots of state.  For
slowly evolving fields ``q_t`` is concentrated near zero and the rate
drops well below per-snapshot compression.

Guarantees: every snapshot individually satisfies the absolute error
bound (all steps share one lattice, so there is **no drift across
time**), and any *keyframe* (every ``keyframe_interval``-th step) can
start decompression mid-stream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

import repro.observe as observe

from repro.encoding.codes import (
    DEFAULT_RADIUS,
    decode_codes,
    encode_codes,
    read_header,
    validate_input,
)
from repro.encoding.lossless import method_id
from repro.errors import (
    DecompressionError,
    FormatError,
    ParameterError,
)
from repro.io.container import (
    CODEC_SZ,
    Container,
    pack_exact_float,
    unpack_exact_float,
)
from repro.sz.predictors import lorenzo_difference, lorenzo_reconstruct
from repro.sz.quantizer import LatticeQuantizer

__all__ = [
    "TemporalCompressor",
    "TemporalDecompressor",
    "compress_series",
    "decompress_series",
]


class TemporalCompressor:
    """Stateful compressor for a sequence of same-shaped snapshots.

    Parameters
    ----------
    error_bound / mode:
        As :class:`repro.sz.SZCompressor` (``"abs"`` or ``"rel"``).
        A relative bound resolves against the *first* snapshot's value
        range (the lattice must stay fixed across the stream).
    target_psnr:
        Alternative to ``error_bound``: fixed-PSNR mode via Eq. 8,
        again anchored to the first snapshot's range.
    keyframe_interval:
        Every k-th frame is coded without temporal prediction, so
        decompression can start there.  1 disables temporal prediction
        entirely (every frame independent).
    temporal_order:
        1 (default): predict frame t from frame t-1 (persistence);
        2: linear extrapolation from frames t-1 and t-2.  Higher order
        removes steady trends but *amplifies lattice-quantization
        noise* (a second difference triples the code-noise variance a
        first difference doubles), so in practice order 1 wins unless
        the inter-frame change is large against the error bound and
        strongly trending -- the same trade-off that makes order-1
        Lorenzo SZ's spatial default.  Exposed for experimentation;
        ablation X8 quantifies it.
    """

    def __init__(
        self,
        error_bound: Optional[float] = None,
        mode: str = "abs",
        target_psnr: Optional[float] = None,
        keyframe_interval: int = 16,
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
        temporal_order: int = 1,
    ) -> None:
        if (error_bound is None) == (target_psnr is None):
            raise ParameterError("give exactly one of error_bound / target_psnr")
        if error_bound is not None and (
            not np.isfinite(error_bound) or error_bound <= 0
        ):
            raise ParameterError("error bound must be positive")
        if mode not in ("abs", "rel"):
            raise ParameterError("temporal mode must be 'abs' or 'rel'")
        if keyframe_interval < 1:
            raise ParameterError("keyframe interval must be >= 1")
        if temporal_order not in (1, 2):
            raise ParameterError("temporal_order must be 1 or 2")
        self.error_bound = error_bound
        self.mode = mode
        self.target_psnr = target_psnr
        self.keyframe_interval = int(keyframe_interval)
        self.temporal_order = int(temporal_order)
        self.lossless = lossless
        self.lossless_id = method_id(lossless)
        self.lossless_level = int(lossless_level)
        self.radius = int(quantization_radius)
        self._quantizer: Optional[LatticeQuantizer] = None
        self._prev_spatial: Optional[np.ndarray] = None
        self._prev2_spatial: Optional[np.ndarray] = None
        self._chain_pos = 0  # frames since the last keyframe
        self._shape = None
        self._dtype = None
        self._step = 0

    def _initialise(self, first: np.ndarray) -> None:
        x = first.astype(np.float64, copy=False)
        vr = float(x.max() - x.min())
        if self.target_psnr is not None:
            from repro.core.fixed_psnr import psnr_to_absolute_bound

            if vr == 0.0:
                raise ParameterError(
                    "fixed-PSNR temporal mode needs a non-constant first snapshot"
                )
            eb_abs = psnr_to_absolute_bound(self.target_psnr, vr)
        elif self.mode == "rel":
            if vr == 0.0:
                raise ParameterError(
                    "relative temporal mode needs a non-constant first snapshot"
                )
            eb_abs = self.error_bound * vr
        else:
            eb_abs = self.error_bound
        self._quantizer = LatticeQuantizer(eb_abs, float(x.flat[0]))
        self._shape = first.shape
        self._dtype = first.dtype

    def push(self, snapshot) -> bytes:
        """Compress the next snapshot; returns a self-describing blob."""
        arr = validate_input(snapshot)
        keyframe = (
            self._quantizer is None or self._step % self.keyframe_interval == 0
        )
        if self._quantizer is None:
            self._initialise(arr)
        elif arr.shape != self._shape or arr.dtype != self._dtype:
            raise ParameterError("all snapshots must share shape and dtype")
        elif keyframe and (self.mode == "rel" or self.target_psnr is not None):
            # Prediction chains restart at keyframes, so the lattice may
            # be re-derived there: range-relative and fixed-PSNR bounds
            # then track the stream's drifting value range instead of
            # staying pinned to the first snapshot.
            self._initialise(arr)

        x = arr.astype(np.float64, copy=False)
        k = self._quantizer.quantize(x)
        spatial = lorenzo_difference(k)
        # Pick the prediction order for THIS frame: order 2 needs two
        # prior frames on the *current* lattice (never across a
        # keyframe, where the lattice may have been re-derived).
        if keyframe:
            used_order = 0
        elif self.temporal_order == 2 and self._chain_pos >= 2:
            used_order = 2
        else:
            used_order = 1
        if used_order == 0:
            q = spatial
            self._chain_pos = 1
        elif used_order == 1:
            q = spatial - self._prev_spatial
            self._chain_pos += 1
        else:
            # linear extrapolation: pred = 2*prev - prev2
            q = spatial - 2 * self._prev_spatial + self._prev2_spatial
            self._chain_pos += 1
        self._prev2_spatial = self._prev_spatial
        self._prev_spatial = spatial
        meta = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "temporal": True,
            "step": self._step,
            "keyframe": bool(keyframe),
            "order": used_order,
            "lossless": self.lossless_id,
            "radius": self.radius,
            "eb_abs": pack_exact_float(self._quantizer.error_bound),
            "anchor": pack_exact_float(self._quantizer.anchor),
        }
        if self.target_psnr is not None:
            meta["target_psnr"] = float(self.target_psnr)
        self._step += 1

        streams = []
        encode_codes(
            q, meta, streams, self.radius, self.lossless, self.lossless_level
        )
        return observe.traced_pack(Container(CODEC_SZ, meta, streams))


class TemporalDecompressor:
    """Stateful inverse of :class:`TemporalCompressor`.

    Feed blobs in stream order (or start at any keyframe).
    """

    def __init__(self) -> None:
        self._prev_spatial: Optional[np.ndarray] = None
        self._prev2_spatial: Optional[np.ndarray] = None
        self._step: Optional[int] = None

    def push(self, blob: bytes) -> np.ndarray:
        """Decompress the next snapshot in the stream."""
        container, dtype, shape, lossless, _ = read_header(
            blob, CODEC_SZ, "temporal-stream"
        )
        meta = container.meta
        if not meta.get("temporal"):
            raise FormatError("not a temporal-stream container")
        try:
            step = int(meta["step"])
            keyframe = bool(meta["keyframe"])
            order = int(meta.get("order", 0 if meta["keyframe"] else 1))
            eb_abs = unpack_exact_float(meta["eb_abs"])
            anchor = unpack_exact_float(meta["anchor"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad temporal metadata: {exc}") from exc
        if order not in (0, 1, 2):
            raise FormatError(f"unknown temporal prediction order {order}")

        if not keyframe:
            if self._prev_spatial is None or (
                order == 2 and self._prev2_spatial is None
            ):
                raise DecompressionError(
                    "stream must start at a keyframe (step "
                    f"{step} is predicted)"
                )
            if self._step is not None and step != self._step + 1:
                raise DecompressionError(
                    f"out-of-order temporal frame: got step {step} "
                    f"after {self._step}"
                )

        n = int(np.prod(shape))
        q = decode_codes(container, lossless, n).reshape(shape)

        if order == 0:
            spatial = q
        elif order == 1:
            spatial = q + self._prev_spatial
        else:
            spatial = q + 2 * self._prev_spatial - self._prev2_spatial
        self._prev2_spatial = self._prev_spatial
        self._prev_spatial = spatial
        self._step = step
        k = lorenzo_reconstruct(spatial)
        quantizer = LatticeQuantizer(eb_abs, anchor)
        return quantizer.dequantize(k).astype(dtype)


def compress_series(snapshots: Iterable[np.ndarray], **options) -> List[bytes]:
    """Compress an iterable of snapshots; returns one blob per step."""
    comp = TemporalCompressor(**options)
    return [comp.push(s) for s in snapshots]


def decompress_series(blobs: Iterable[bytes]) -> Iterator[np.ndarray]:
    """Decompress a stream of temporal blobs in order."""
    dec = TemporalDecompressor()
    for blob in blobs:
        yield dec.push(blob)
