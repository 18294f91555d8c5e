"""Performance gates for the entropy coders and the codec hot paths.

The HPC-Python guides' core demand is that per-element work stays out
of Python; these benchmarks measure the resulting throughput and act
as regression gates (generous thresholds -- CI machines vary).
"""

import numpy as np

from benchmarks.conftest import render_table
from repro.encoding.huffman import huffman_encode
from repro.encoding.rans import rans_encode
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


def test_huffman_encode_throughput(benchmark, save_result):
    rng = np.random.default_rng(0)
    data = rng.geometric(0.25, size=1 << 20) - 1  # 1M symbols

    payload, bits, code = benchmark(huffman_encode, data)
    assert np.array_equal(code.decode(payload, data.size, bits), data)
    # code build + encode must sustain > 2M symbols/s on any machine
    assert data.size / benchmark.stats["mean"] > 2e6


def test_rans_throughput(benchmark, save_result):
    rng = np.random.default_rng(1)
    data = rng.geometric(0.25, size=1 << 20) - 1
    payload, coder = rans_encode(data)

    out = benchmark(coder.decode, payload)
    assert np.array_equal(out, data)
    assert data.size / benchmark.stats["mean"] > 2e6


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
