"""``codec_compress`` / ``codec_decompress``: the fixed-PSNR codec
in-process, one direction per workload.

Each pass runs every case, in a fresh order drawn from the seed:
``FixedPSNRCompressor(target, codec=...).compress`` on the generated
field, or ``FixedPSNRCompressor.decompress`` on the case's reference
blob.  Set-up (``setup_s``) generates the fields and builds the
compressors; the reference blobs are made once after it.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np

from harness import Tally, geomean, leak_check, mean, median, peak_rss_mb, timed_setup
from shims import Tracer, blob_codec, install_codec_shims

#: (label, dataset, field, codec, target dB, scale).  The last case is
#: 128^3 float32 = 8 MiB, larger than a core's L2 cache.
CASES = (
    ("ATM/CLDHGH", "ATM", "CLDHGH", "sz", 80.0, None),
    ("ATM/FLDS", "ATM", "FLDS", "transform", 60.0, None),
    ("Hurricane/TC", "Hurricane", "TC", "sz", 80.0, None),
    ("NYX/temperature", "NYX", "temperature", "hybrid", 60.0, None),
    ("NYX/velocity_x", "NYX", "velocity_x", "sz", 60.0, 0.0625),
)
MIN_PASSES = 3
REPEAT_SHARE = 0.2
MAX_REPEATS = 10


def _setup():
    """Generate every case's field and build its compressor."""
    from repro.core.fixed_psnr import FixedPSNRCompressor
    from repro.datasets.registry import get_dataset

    return [
        (label, codec, target, get_dataset(ds, scale=scale).field(field),
         FixedPSNRCompressor(target, codec=codec))
        for label, ds, field, codec, target, scale in CASES
    ]


def _check_reference(data: np.ndarray, blob: bytes, recon: np.ndarray) -> str:
    """Empty string when ``recon`` is a valid decoding of ``blob``."""
    from repro.io.container import Container, unpack_exact_float

    if recon.shape != data.shape or recon.dtype != data.dtype:
        return f"shape/dtype {recon.shape}/{recon.dtype} != {data.shape}/{data.dtype}"
    if blob_codec(blob) == "sz":
        # The codec meets eb_abs in float64; casting back to the input
        # dtype adds up to half a unit in the last place.
        eb_abs = unpack_exact_float(Container.from_bytes(blob).meta["eb_abs"])
        err = np.abs(data.astype(np.float64) - recon.astype(np.float64))
        limit = eb_abs + 0.5 * np.spacing(np.abs(recon)).astype(np.float64)
        if np.any(err > limit):
            return f"max error {err.max():.9g} > eb_abs {eb_abs:.9g} + half ulp"
    return ""


def container_counts(blobs: List[bytes]) -> Dict[str, float]:
    """Escape, entropy and byte-layout counts over one pass's blobs."""
    from repro.encoding.huffman import CanonicalHuffman
    from repro.encoding.lossless import lossless_decompress, method_name
    from repro.io.container import Container

    escapes = bits = points = payload = table = framing = 0
    alphabets = []
    for blob in blobs:
        c = Container.from_bytes(blob)
        layout = c.byte_layout()
        payload += layout["streams"].get("payload", 0)
        table += layout["streams"].get("table", 0)
        framing += layout["framing"]
        if blob_codec(blob) == "sz":
            escapes += int(c.meta.get("n_escapes", 0))
        if "total_bits" in c.meta and c.has_stream("table"):
            bits += int(c.meta["total_bits"])
            points += int(np.prod(c.meta["shape"]))
            lossless = method_name(int(c.meta.get("lossless", 1)))
            code = CanonicalHuffman.from_table_bytes(
                lossless_decompress(c.stream("table"), lossless)
            )
            alphabets.append(code.symbols.size)
    return {
        "sz.escape_count": escapes,
        "encoding.bits_per_symbol": bits / points if points else 0.0,
        "encoding.alphabet_size": mean(alphabets) if alphabets else 0.0,
        "io.payload_bytes": payload,
        "io.table_bytes": table,
        "io.framing_bytes": framing,
    }


#: Layers whose per-pass self time is reported as ``<layer>_s``.
TIMED_LAYERS = (
    "core.derive_bound", "sz.quantize", "sz.predict", "sz.reconstruct",
    "transform.dct", "transform.idct", "encoding.huffman_build",
    "encoding.huffman_encode", "encoding.huffman_decode",
    "encoding.lossless_compress", "encoding.lossless_decompress",
    "io.pack", "io.unpack", "metrics.psnr",
)


def layer_metrics(tracer: Tracer, ops_per_tag: Optional[Dict[str, int]] = None) -> Dict[str, float]:
    """Self time of every codec layer over one pass, plus the residual
    (the self time of the ``compress.<codec>``/``decompress.<codec>``
    roots) and the smallest share of an sz root's wall time that named
    layers explain.

    Spans are tagged by case; ``ops_per_tag`` gives how many times each
    case ran, so one pass means every case once (default: the tracer
    saw exactly one pass, untagged)."""
    ops = ops_per_tag or {"": 1}

    def per_pass(layer: str) -> float:
        return sum(v / ops[tag] for (l, tag), v in tracer.self_s.items() if l == layer)

    out = {f"{layer}_s": per_pass(layer) for layer in TIMED_LAYERS}
    for direction in ("compress", "decompress"):
        roots = [l for l in tracer.layers() if l.startswith(direction + ".")]
        total = 0.0
        for root in roots:
            residual = per_pass(root)
            out[f"{direction}.residual_{root.split('.', 1)[1]}_s"] = residual
            total += residual
        out[f"{direction}.residual_s"] = total
        fracs = [
            1.0 - tracer.self_s[(l, tag)] / tracer.incl_s[(l, tag)]
            for (l, tag) in tracer.incl_s
            if l == f"{direction}.sz" and tracer.incl_s[(l, tag)] > 0
        ]
        out[f"{direction}.sz_attributed_frac_min"] = min(fracs) if fracs else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    from repro.metrics.distortion import psnr

    direction = workload.split("_", 1)[1]
    tally = Tally()
    cases, setup_s = timed_setup(_setup)
    # Reference blobs: what every timed compress must reproduce and
    # what every timed decompress reads.
    cases = [(*case, case[4].compress(case[3])) for case in cases]
    rng = random.Random(seed)

    def shuffled() -> List[int]:
        """A fresh case order per pass, so no case always follows the
        8 MiB one."""
        order = list(range(len(cases)))
        rng.shuffle(order)
        return order

    # Reference decodings: validity, PSNR, and the digest every timed
    # decompress must reproduce.
    achieved, digests = [], []
    for label, codec, target, data, comp, blob in cases:
        recon = comp.decompress(blob)
        problem = _check_reference(data, blob, recon)
        tally.record(not problem, f"{label} reference: {problem}")
        achieved.append(float(psnr(data, recon)))
        digests.append(hashlib.sha256(recon.tobytes()).hexdigest())

    def one_op(i: int) -> float:
        label, codec, target, data, comp, blob = cases[i]
        if direction == "compress":
            t0 = time.perf_counter()
            out = comp.compress(data)
            dt = time.perf_counter() - t0
            ok = out == blob
        else:
            t0 = time.perf_counter()
            out = comp.decompress(blob)
            dt = time.perf_counter() - t0
            ok = (
                out.shape == data.shape
                and out.dtype == data.dtype
                and hashlib.sha256(out.tobytes()).hexdigest() == digests[i]
            )
        tally.record(ok, f"{label} {direction}: output differs from the reference")
        return dt

    # Warm-up pass (checked, timing discarded).  Its timings set how
    # often each case repeats within a pass: a case faster than the
    # slowest one runs until it has used about REPEAT_SHARE of the
    # slowest case's time, so its median rests on more samples.
    warm = {i: one_op(i) for i in shuffled()}
    slowest = max(warm.values())
    repeats = {
        i: max(1, min(MAX_REPEATS, round(REPEAT_SHARE * slowest / t)))
        for i, t in warm.items()
    }

    tracer = None
    if trace:
        tracer = Tracer()
        install_codec_shims(tracer)
    op_s: Dict[int, List[float]] = defaultdict(list)
    passes = 0
    start = time.perf_counter()
    try:
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            for i in shuffled():
                for _ in range(repeats[i]):
                    with tracer.tagged(cases[i][0]) if tracer is not None else nullcontext():
                        op_s[i].append(one_op(i))
            passes += 1
    finally:
        if tracer is not None:
            tracer.restore()

    for i, case in enumerate(cases):
        print(f"{case[0]:16s} {direction} median {1e3 * median(op_s[i]):9.2f} ms "
              f"over {len(op_s[i])}", file=sys.stderr)
    latency_s = geomean(median(op_s[i]) for i in range(len(cases)))
    e2e = {
        "throughput_mbps": geomean(c[3].nbytes / 1e6 for c in cases) / latency_s,
        "latency_p50_ms": 1e3 * latency_s,
        "ratio": geomean(c[3].nbytes / len(c[5]) for c in cases),
        "psnr_abs_dev_db": mean(abs(a - c[2]) for a, c in zip(achieved, cases)),
        "psnr_met_frac": mean(float(a >= c[2]) for a, c in zip(achieved, cases)),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    values = dict(e2e)
    if tracer is not None:
        values = layer_metrics(tracer, {cases[i][0]: len(op_s[i]) for i in op_s})
        values.update(container_counts([c[5] for c in cases]))
        values["traced.throughput_mbps"] = e2e["throughput_mbps"]
        values["traced.latency_p50_ms"] = e2e["latency_p50_ms"]
        tracer.write(out_dir / f"trace-{workload}-{seed}.json",
                     {"passes": passes, "per_layer": values})
    leak_check(tally)
    return {"values": values, "tally": tally}
