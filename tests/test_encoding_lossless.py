"""Unit tests for repro.encoding.lossless."""

import numpy as np
import pytest

from repro.encoding.lossless import (
    METHODS,
    lossless_compress,
    lossless_decompress,
    method_id,
    method_name,
)
from repro.errors import DecompressionError, ParameterError


class TestRoundtrip:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_roundtrip(self, method):
        data = bytes(range(256)) * 40
        blob = lossless_compress(data, method)
        assert lossless_decompress(blob, method) == data

    def test_zlib_compresses_redundancy(self):
        data = b"A" * 10000
        assert len(lossless_compress(data, "zlib")) < 200

    def test_none_is_identity(self):
        data = b"hello"
        assert lossless_compress(data, "none") == data

    def test_levels_tradeoff(self):
        data = bytes(range(256)) * 100
        fast = lossless_compress(data, "zlib", level=1)
        best = lossless_compress(data, "zlib", level=9)
        assert lossless_decompress(best) == data
        assert len(best) <= len(fast)


class TestErrors:
    def test_unknown_method_raises(self):
        with pytest.raises(ParameterError):
            lossless_compress(b"", "lzma")
        with pytest.raises(ParameterError):
            lossless_decompress(b"", "lzma")

    def test_bad_level_raises(self):
        with pytest.raises(ParameterError):
            lossless_compress(b"", "zlib", level=0)

    def test_corrupt_stream_raises(self):
        blob = lossless_compress(b"payload", "zlib")
        with pytest.raises(DecompressionError):
            lossless_decompress(blob[:-3] + b"\x00\x00\x00", "zlib")

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_output_bound(self, method):
        data = bytes(range(256)) * 4
        blob = lossless_compress(data, method)
        assert lossless_decompress(blob, method, max_length=len(data)) == data
        with pytest.raises(DecompressionError, match="bound"):
            lossless_decompress(blob, method, max_length=len(data) - 1)

    def test_truncated_stream_raises_with_and_without_bound(self):
        blob = lossless_compress(b"payload" * 50, "zlib")
        for bound in (None, 10_000):
            with pytest.raises(DecompressionError, match="truncated"):
                lossless_decompress(blob[:-4], "zlib", max_length=bound)


class TestIds:
    def test_roundtrip_ids(self):
        for name in METHODS:
            assert method_name(method_id(name)) == name

    def test_unknown_id_raises(self):
        with pytest.raises(DecompressionError):
            method_name(250)


class TestRunLengthStrategy:
    def test_roundtrip_and_level_free(self):
        data = bytes(range(256)) * 30 + b"\x00" * 5000
        blobs = {lossless_compress(data, "zlib", level, rle=True) for level in range(1, 10)}
        (blob,) = blobs
        assert blob[:2] == b"\x78\x01"
        assert lossless_decompress(blob, "zlib") == data
        assert lossless_compress(data, "none", rle=True) == data


def _streams(q):
    from repro.encoding.codes import DEFAULT_RADIUS, encode_codes

    meta, streams = {}, []
    encode_codes(np.asarray(q, dtype=np.int64), meta, streams, DEFAULT_RADIUS, "zlib", 6)
    return meta, dict(streams)


@pytest.mark.parametrize(
    "counts, header",
    [
        ((500, 250, 250), b"\x78\x01"),  # lengths 1, 2, 2: exactly 1.5 bits
        ((502, 249, 249), b"\x78\x9c"),  # 1498 bits for 1000 symbols
    ],
    ids=["at-threshold", "below-threshold"],
)
def test_payload_strategy_follows_the_rate(counts, header):
    """A Huffman payload at or above RLE_BITS_PER_SYMBOL bits per symbol
    is deflated with Z_RLE (header 78 01), one below it at the level
    (78 9c at level 6); the table always at the level."""
    from repro.encoding.codes import RLE_BITS_PER_SYMBOL

    q = np.repeat([0, 1, -1], counts)
    np.random.default_rng(3).shuffle(q)
    meta, streams = _streams(q)
    assert RLE_BITS_PER_SYMBOL == 1.5
    assert (meta["total_bits"] >= 1.5 * q.size) == (header == b"\x78\x01")
    assert streams["payload"][:2] == header
    assert streams["table"][:2] == b"\x78\x9c"


def test_high_rate_payload_uses_run_length():
    q = np.random.default_rng(4).integers(-40, 41, size=5000)
    meta, streams = _streams(q)
    assert meta["total_bits"] > 6 * q.size
    assert streams["payload"][:2] == b"\x78\x01"
    assert streams["table"][:2] == b"\x78\x9c"
