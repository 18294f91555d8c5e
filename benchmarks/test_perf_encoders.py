"""Performance gates for the entropy coders and the codec hot paths.

The HPC-Python guides' core demand is that per-element work stays out
of Python; these benchmarks measure the resulting throughput and act
as regression gates (generous thresholds -- CI machines vary).
"""

from pathlib import Path

import numpy as np

from benchmarks.conftest import render_table
from repro.encoding.huffman import CanonicalHuffman, huffman_encode
from repro.encoding.lossless import lossless_decompress
from repro.encoding.rans import RansCoder
from repro.io.container import Container
from repro.observe import Trace, use_trace
from repro.sz.compressor import SZCompressor, decompress


def _mb(nbytes: float) -> float:
    return nbytes / 2**20


def test_huffman_throughput(benchmark, save_result):
    rng = np.random.default_rng(0)
    data = rng.geometric(0.25, size=1 << 20) - 1  # 1M symbols

    payload, bits, code = huffman_encode(data)

    def decode():
        return code.decode(payload, data.size, bits)

    out = benchmark(decode)
    assert np.array_equal(out, data)
    # vectorized decode must sustain > 2M symbols/s on any machine
    assert data.size / benchmark.stats["mean"] > 2e6


def test_huffman_fixed_length_decode_throughput(benchmark, save_result):
    """Codes that never resynchronise (1M symbols of 8-bit fixed-length
    codes): the speculative resolve hands such a stream over to the
    all-offsets entry walkers, never settling it one segment per round.
    (At 2**20 symbols the segment length is a multiple of 8, every
    leader starts on a code boundary and nothing is handed over; at
    10**6 it is not.)"""
    data = np.arange(10**6) % 256
    code = CanonicalHuffman(np.arange(256), np.full(256, 8))
    payload, bits = code.encode(data)
    trace = Trace()
    with use_trace(trace):
        code.decode(payload, data.size, bits)
    (span,) = [r for r in trace.records if r.path[-1] == "huffman.decode"]
    assert span.counters["handover_segments"] > 0

    out = benchmark(code.decode, payload, data.size, bits)
    assert np.array_equal(out, data)
    assert data.size / benchmark.stats["mean"] > 2e6


def test_huffman_encode_throughput(benchmark, save_result):
    rng = np.random.default_rng(0)
    data = rng.geometric(0.25, size=1 << 20) - 1  # 1M symbols

    payload, bits, code = benchmark(huffman_encode, data)
    assert np.array_equal(code.decode(payload, data.size, bits), data)
    # code build + encode must sustain > 2M symbols/s on any machine
    assert data.size / benchmark.stats["mean"] > 2e6


def test_payload_deflate_throughput(benchmark, save_result, monkeypatch):
    """The lossless stage on a high-rate Huffman payload: NYX/velocity_x
    (128^3 float32) at 60 dB, ~6.1 bits per symbol, 1.6 MB.

    ``encode_codes`` deflates such a payload with zlib's run-length
    strategy; its deflate is timed with exactly the arguments the codec
    passed.  It must clear 50 MB/s, which the run-length strategy does
    (78-107 MB/s on a 2-vCPU Xeon guest) and level 6 does not (25-35
    MB/s there), and run at least twice as fast as level 6 on the same
    bytes on any machine: a return of the LZ77 search fails both."""
    import time

    import repro.encoding.codes as codes
    from repro.core.fixed_psnr import FixedPSNRCompressor
    from repro.datasets.registry import get_dataset
    from repro.encoding.lossless import lossless_compress

    calls = []

    def spy(data, *args, **kwargs):
        calls.append((bytes(data), args, kwargs))
        return lossless_compress(data, *args, **kwargs)

    monkeypatch.setattr(codes, "lossless_compress", spy)
    field = get_dataset("NYX", scale=0.0625).field("velocity_x")
    FixedPSNRCompressor(60.0).compress(field)
    payload, args, kwargs = calls[0]  # no escapes: the payload is first
    assert len(payload) > 1_500_000

    benchmark(lossless_compress, payload, *args, **kwargs)
    mbps = len(payload) / 1e6 / benchmark.stats["mean"]
    level6 = []
    for _ in range(3):
        t0 = time.perf_counter()
        lossless_compress(payload, "zlib", 6)
        level6.append(time.perf_counter() - t0)
    level6_mbps = len(payload) / 1e6 / min(level6)
    text = render_table(
        ["metric", "value"],
        [
            ("payload", f"{len(payload)} bytes"),
            ("payload deflate", f"{mbps:.1f} MB/s"),
            ("level 6, same bytes", f"{level6_mbps:.1f} MB/s"),
        ],
        title="payload deflate throughput",
    )
    print("\n" + text)
    save_result(
        "perf_deflate",
        {"payload_bytes": len(payload), "throughput_mbps": mbps,
         "level6_mbps": level6_mbps},
        text,
    )
    assert mbps > 50.0
    assert mbps > 2.0 * level6_mbps


def test_rans_throughput(benchmark, save_result):
    """The rANS reader on the frozen 256-lane container (131,072
    symbols): nothing writes rANS any more, so the decoder is timed on
    a payload an earlier build wrote."""
    golden = Path(__file__).parent.parent / "tests" / "golden" / "rans"
    c = Container.from_bytes((golden / "sz_rel_lanes256.fpz").read_bytes())
    n = int(np.prod(c.meta["shape"]))
    table = lossless_decompress(c.stream("table"), "zlib")
    coder = RansCoder.from_table_bytes(table)

    out = benchmark(coder.decode, c.stream("payload"), n)
    assert out.size == n
    assert n / benchmark.stats["mean"] > 2e6


def test_codec_roundtrip_throughput(benchmark, save_result):
    """End-to-end SZ round trip on an 8 MiB field, reported in MB/s."""
    rng = np.random.default_rng(2)
    x = np.cumsum(np.cumsum(rng.normal(size=(1024, 1024)), 0), 1)
    comp = SZCompressor(1e-4, mode="rel")

    recon = benchmark(lambda: decompress(comp.compress(x)))
    assert recon.shape == x.shape
    mbps = _mb(x.nbytes) / benchmark.stats["mean"]
    text = render_table(
        ["metric", "value"],
        [
            ("field", "1024x1024 float64 (8 MiB)"),
            ("round trip", f"{1e3 * benchmark.stats['mean']:.1f} ms"),
            ("throughput", f"{mbps:.1f} MB/s"),
        ],
        title="codec round-trip throughput",
    )
    print("\n" + text)
    save_result(
        "perf_codec",
        {"mean_s": benchmark.stats["mean"], "throughput_mbps": mbps},
        text,
    )
    # pure-Python + NumPy must still exceed 5 MB/s round trip
    assert mbps > 5.0
