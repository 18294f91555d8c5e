"""Unit and property tests for the interleaved rANS coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.rans import (
    SCALE_BITS,
    TOTAL,
    RansCoder,
    _normalize_freqs,
    rans_decode,
    rans_encode,
)
from repro.errors import DecompressionError, ParameterError


class TestNormalize:
    def test_sums_to_total(self, rng):
        counts = rng.integers(1, 10000, size=500)
        freqs = _normalize_freqs(counts)
        assert int(freqs.sum()) == TOTAL
        assert freqs.min() >= 1

    def test_rare_symbols_keep_mass(self):
        counts = np.array([10**9, 1, 1, 1])
        freqs = _normalize_freqs(counts)
        assert freqs[1:].min() >= 1
        assert freqs[0] > TOTAL // 2

    def test_single_symbol(self):
        assert _normalize_freqs(np.array([42])).tolist() == [TOTAL]

    def test_validation(self):
        with pytest.raises(ParameterError):
            _normalize_freqs(np.zeros(0))
        with pytest.raises(ParameterError):
            _normalize_freqs(np.array([1, 0]))
        with pytest.raises(ParameterError):
            _normalize_freqs(np.ones(TOTAL + 1))


class TestRoundtrip:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: rng.geometric(0.3, size=50000),
            lambda rng: rng.integers(-100, 100, size=777),
            lambda rng: np.full(300, -5),
            lambda rng: rng.integers(0, 2, size=10),
            lambda rng: np.array([7]),
        ],
        ids=["geometric", "uniform", "constant", "tiny-binary", "single"],
    )
    def test_roundtrip(self, maker, rng):
        data = maker(rng)
        payload, coder = rans_encode(data)
        assert np.array_equal(rans_decode(payload, coder), data)

    def test_empty(self, rng):
        data = rng.integers(0, 5, size=10)
        _, coder = rans_encode(data)
        payload = coder.encode(np.zeros(0, np.int64))
        assert coder.decode(payload).size == 0

    def test_rate_near_entropy(self, rng):
        """On a large skewed stream, rANS lands within ~5 % of the
        zeroth-order entropy (plus fixed lane/state overhead)."""
        data = rng.geometric(0.2, size=300000)
        payload, coder = rans_encode(data)
        _, counts = np.unique(data, return_counts=True)
        p = counts / data.size
        entropy = float(-(p * np.log2(p)).sum())
        rate = 8.0 * (len(payload) - 5000) / data.size  # subtract overhead
        assert rate < entropy * 1.05 + 0.05

    def test_beats_or_matches_huffman_on_skewed(self, rng):
        """Fractional-bit coding: rANS should not lose to Huffman by
        more than the lane overhead on a skewed alphabet."""
        from repro.encoding.huffman import huffman_encode

        data = (rng.random(size=200000) < 0.95).astype(np.int64)
        rans_payload, _ = rans_encode(data)
        huff_payload, _, _ = huffman_encode(data)
        # huffman is stuck at 1 bit/symbol = 25000 B; rANS reaches the
        # ~0.29 bit entropy
        assert len(rans_payload) < len(huff_payload) // 2


class TestErrors:
    def test_out_of_alphabet_raises(self, rng):
        _, coder = rans_encode(rng.integers(0, 5, size=100))
        with pytest.raises(ParameterError):
            coder.encode(np.array([99]))

    def test_truncated_payload_raises(self, rng):
        data = rng.integers(0, 50, size=5000)
        payload, coder = rans_encode(data)
        with pytest.raises(DecompressionError):
            coder.decode(payload[: len(payload) // 2])

    def test_garbage_rejected(self, rng):
        _, coder = rans_encode(rng.integers(0, 5, size=10))
        with pytest.raises(DecompressionError):
            coder.decode(b"definitely not rans")

    def test_bad_model_rejected(self):
        with pytest.raises(ParameterError):
            RansCoder(np.array([1, 2]), np.array([100, 100]))  # sum != TOTAL
        with pytest.raises(ParameterError):
            RansCoder(np.array([2, 1]), np.array([TOTAL - 1, 1]))  # unsorted

    def test_table_roundtrip(self, rng):
        data = rng.integers(-30, 30, size=4000)
        payload, coder = rans_encode(data)
        revived = RansCoder.from_table_bytes(coder.table_bytes())
        assert np.array_equal(revived.decode(payload), data)

    def test_table_truncation_rejected(self, rng):
        _, coder = rans_encode(rng.integers(0, 5, size=10))
        with pytest.raises(DecompressionError):
            RansCoder.from_table_bytes(coder.table_bytes()[:-1])


class TestSZIntegration:
    def test_sz_with_rans_roundtrip(self, smooth2d):
        from repro.metrics.distortion import max_abs_error
        from repro.sz.compressor import SZCompressor, decompress

        eb = 1e-3
        blob = SZCompressor(eb, entropy="rans").compress(smooth2d)
        recon = decompress(blob)
        assert max_abs_error(smooth2d, recon) <= eb * (1 + 1e-9)

    def test_sizes_comparable(self, smooth2d):
        from repro.sz.compressor import SZCompressor

        huff = len(SZCompressor(1e-4, entropy="huffman").compress(smooth2d))
        rans = len(SZCompressor(1e-4, entropy="rans").compress(smooth2d))
        assert rans < huff * 1.5

    def test_unknown_entropy_rejected(self):
        from repro.sz.compressor import SZCompressor

        with pytest.raises(ParameterError):
            SZCompressor(1e-3, entropy="arithmetic")

    def test_removed_rle_coder_is_gone(self, smooth2d):
        """The RLE+rANS coder (container entropy id 2) was removed: the
        option is rejected and a container naming id 2 is a
        FormatError."""
        from repro.errors import FormatError
        from repro.io.container import Container
        from repro.sz.compressor import SZCompressor, decompress

        with pytest.raises(ParameterError):
            SZCompressor(1e-3, entropy="rans_rle")
        c = Container.from_bytes(SZCompressor(1e-3).compress(smooth2d))
        blob = Container(c.codec, {**c.meta, "entropy": 2}, c.streams).to_bytes()
        with pytest.raises(FormatError):
            decompress(blob)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-500, 500), min_size=1, max_size=3000))
def test_rans_roundtrip_property(values):
    """Any int64 stream round-trips bit-exactly."""
    data = np.asarray(values, dtype=np.int64)
    payload, coder = rans_encode(data)
    assert np.array_equal(coder.decode(payload), data)
