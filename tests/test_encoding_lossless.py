"""Unit tests for repro.encoding.lossless."""

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
