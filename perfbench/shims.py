"""Timing shims for the traced run.

A :class:`Tracer` replaces public functions and methods of the
program's layers with wrappers that time each call.  A per-thread stack
of open calls turns durations into *self* time (a call's duration minus
the part its shimmed callees cover), so every layer's number excludes
the layers below it and the root call's self time is the residual that
no named layer explains.  Span records stay in memory until
:meth:`Tracer.write` dumps them at the end of the run.

Module-level functions are patched wherever a caller looks them up:
every ``repro.*`` module whose globals hold the original object gets
the wrapper (so ``repro.sz.compressor.lossless_compress`` and
``repro.transform.compressor.lossless_compress`` are both covered).
:meth:`Tracer.restore` undoes every patch; untraced runs never install
any.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_CODEC_BY_ID = {1: "sz", 2: "transform", 4: "regression", 5: "embedded",
                6: "hybrid", 7: "legacy", 8: "interp"}


def blob_codec(blob: bytes) -> str:
    """Codec name from a container header (byte 5 holds the codec id)."""
    return _CODEC_BY_ID.get(blob[5], "other") if len(blob) > 5 else "other"


class Tracer:
    """Installs shims, keeps their span records and per-layer totals."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        #: (layer, tag) -> summed self / inclusive seconds and call count
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.incl_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        #: (id, parent id, layer, tag, thread, start, end)
        self.records: List[tuple] = []
        self.captured: Dict[str, list] = defaultdict(list)
        self._undo: List[Callable[[], None]] = []

    # -- per-thread state ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @property
    def tag(self) -> str:
        return getattr(self._tls, "tag", "")

    @contextlib.contextmanager
    def tagged(self, tag: str):
        """Label every span this thread opens inside the block."""
        old = self.tag
        self._tls.tag = tag
        try:
            yield
        finally:
            self._tls.tag = old

    # -- spans ----------------------------------------------------------

    def _open(self, name: str):
        stack = self._stack()
        parent = stack[-1][2] if stack else None
        frame = [name, 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def _close(self, frame, t0: float, t1: float) -> None:
        stack = self._stack()
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][1] += dur
        name, child, span_id, parent = frame
        key = (name, self.tag)
        with self._lock:
            self.self_s[key] += dur - child
            self.incl_s[key] += dur
            self.calls[key] += 1
            self.records.append(
                (span_id, parent, name, key[1], threading.get_ident(), t0, t1)
            )

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a workload's root)."""
        frame = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, time.perf_counter())

    def wrap(self, layer: str, fn: Callable, name_fn: Optional[Callable] = None,
             capture: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            frame = tracer._open(layer if name_fn is None else name_fn(*args))
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, t0, time.perf_counter())
            if capture:
                tracer.captured[frame[0]].append(out)
            return out

        return shim

    # -- patching -------------------------------------------------------

    def patch_attr(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def patch_method(self, cls, attr: str, layer: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(layer, raw.__func__, **kw))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__, **kw))
        else:
            new = self.wrap(layer, raw, **kw)
        self.patch_attr(cls, attr, new)

    def patch_function(self, fn: Callable, layer: str, **kw) -> None:
        shim = self.wrap(layer, fn, **kw)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch_attr(mod, attr, shim)

    def patch_registry(self, table: dict, wrap_entry: Callable) -> None:
        old = dict(table)
        table.update({k: wrap_entry(v) for k, v in old.items()})
        self._undo.append(lambda: table.update(old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------

    def self_time(self, layer: str) -> float:
        return sum(v for (l, _), v in self.self_s.items() if l == layer)

    def incl_time(self, layer: str) -> float:
        return sum(v for (l, _), v in self.incl_s.items() if l == layer)

    def mean_call_s(self, layer: str) -> float:
        n = sum(v for (l, _), v in self.calls.items() if l == layer)
        return self.incl_time(layer) / n if n else 0.0

    def layers(self) -> List[str]:
        return sorted({l for l, _ in self.self_s})

    def write(self, path: Path, summary: Dict) -> None:
        """Dump every span record plus ``summary`` as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "summary": summary,
            "fields": ["id", "parent", "layer", "tag", "thread", "start_s", "end_s"],
            "records": self.records,
        }
        path.write_text(json.dumps(doc))


def install_codec_shims(tracer: Tracer) -> None:
    """Wrap the codec stack: core, sz, transform, encoding, io,
    datasets and metrics.  The fixed-PSNR entry points become root
    spans named ``compress.<codec>`` / ``decompress.<codec>``; their
    self time is the residual no named layer explains (for ``hybrid``
    that is its private per-block predictor)."""
    # Import every codec module first: one imported later would bind
    # the shims by name and keep them after restore().
    import repro.core.codecs  # noqa: F401
    import repro.parallel.executor  # noqa: F401
    import repro.service.tasks  # noqa: F401
    import repro.sz.hybrid  # noqa: F401
    import repro.transform.compressor  # noqa: F401
    from repro.core.fixed_psnr import FixedPSNRCompressor
    from repro.datasets.registry import Dataset
    from repro.encoding.huffman import CanonicalHuffman
    from repro.encoding.lossless import lossless_compress, lossless_decompress
    from repro.io.container import Container
    from repro.metrics.distortion import psnr
    from repro.sz import predictors
    from repro.sz.quantizer import LatticeQuantizer
    from repro.transform.dct import block_inverse, block_transform

    tracer.patch_method(FixedPSNRCompressor, "compress", "compress",
                        name_fn=lambda self, data: f"compress.{self.codec}",
                        capture=True)
    tracer.patch_method(FixedPSNRCompressor, "decompress", "decompress",
                        name_fn=lambda blob: f"decompress.{blob_codec(blob)}")
    tracer.patch_method(FixedPSNRCompressor, "derive_bound", "core.derive_bound")
    tracer.patch_method(LatticeQuantizer, "quantize", "sz.quantize")
    tracer.patch_method(LatticeQuantizer, "dequantize", "sz.reconstruct")
    tracer.patch_registry(
        predictors.PREDICTORS,
        lambda e: (e[0], tracer.wrap("sz.predict", e[1]), tracer.wrap("sz.reconstruct", e[2])),
    )
    tracer.patch_registry(
        predictors._BY_ID,
        lambda e: (e[0], tracer.wrap("sz.predict", e[1]), tracer.wrap("sz.reconstruct", e[2])),
    )
    tracer.patch_function(block_transform, "transform.dct")
    tracer.patch_function(block_inverse, "transform.idct")
    tracer.patch_method(CanonicalHuffman, "from_data", "encoding.huffman_build")
    tracer.patch_method(CanonicalHuffman, "encode", "encoding.huffman_encode")
    tracer.patch_method(CanonicalHuffman, "decode", "encoding.huffman_decode")
    tracer.patch_method(CanonicalHuffman, "from_table_bytes", "encoding.huffman_decode")
    tracer.patch_function(lossless_compress, "encoding.lossless_compress")
    tracer.patch_function(lossless_decompress, "encoding.lossless_decompress")
    tracer.patch_method(Container, "to_bytes", "io.pack")
    tracer.patch_method(Container, "from_bytes", "io.unpack")
    tracer.patch_method(Dataset, "field", "datasets.field_gen")
    tracer.patch_function(psnr, "metrics.psnr")
