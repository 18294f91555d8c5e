"""Unit and property tests for repro.encoding.huffman."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.bitio import unpack_bits
from repro.encoding.huffman import (
    MAX_TABLE_BITS,
    CanonicalHuffman,
    huffman_decode,
    huffman_encode,
    optimal_code_lengths,
    package_merge_lengths,
)
from repro.errors import DecompressionError, ParameterError


class TestOptimalLengths:
    def test_balanced_four_symbols(self):
        lengths = optimal_code_lengths(np.array([1, 1, 1, 1]))
        assert lengths.tolist() == [2, 2, 2, 2]

    def test_skewed(self):
        # Fibonacci-ish weights force a skewed tree.
        lengths = optimal_code_lengths(np.array([1, 1, 2, 4, 8]))
        assert lengths.max() == 4
        assert lengths[np.argmax([1, 1, 2, 4, 8])] == 1

    def test_single_symbol(self):
        assert optimal_code_lengths(np.array([42])).tolist() == [1]

    def test_kraft_equality(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 1000, size=300)
        lengths = optimal_code_lengths(counts)
        assert np.sum(2.0 ** -lengths.astype(float)) == pytest.approx(1.0)

    def test_optimality_vs_entropy(self):
        """Expected code length within 1 bit of the entropy bound."""
        rng = np.random.default_rng(6)
        counts = rng.integers(1, 10000, size=64).astype(float)
        p = counts / counts.sum()
        lengths = optimal_code_lengths(counts.astype(np.int64))
        avg = float(np.sum(p * lengths))
        entropy = float(-np.sum(p * np.log2(p)))
        assert entropy <= avg < entropy + 1.0

    def test_nonpositive_counts_raise(self):
        with pytest.raises(ParameterError):
            optimal_code_lengths(np.array([3, 0]))


class TestPackageMerge:
    def test_respects_limit(self):
        counts = (2 ** np.arange(1, 40)).astype(np.int64)
        lengths = package_merge_lengths(counts, 18)
        assert lengths.max() <= 18
        assert np.sum(2.0 ** -lengths.astype(float)) <= 1.0 + 1e-12

    def test_matches_optimal_when_unconstrained(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 100, size=40)
        opt = optimal_code_lengths(counts)
        pm = package_merge_lengths(counts, 32)
        # Both must be optimal: same total cost.
        assert np.sum(counts * pm) == np.sum(counts * opt)

    def test_impossible_limit_raises(self):
        with pytest.raises(ParameterError):
            package_merge_lengths(np.arange(1, 10), 3)  # 9 symbols, 8 codes

    def test_single_symbol(self):
        assert package_merge_lengths(np.array([5]), 4).tolist() == [1]

    def test_cost_optimality_small(self):
        """Package-merge must beat or match naive truncation cost."""
        counts = np.array([1, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89], np.int64)
        L = 5
        pm = package_merge_lengths(counts, L)
        assert pm.max() <= L
        # brute-force check: flat 4-bit code is a valid competitor
        flat_cost = counts.sum() * 4
        assert np.sum(counts * pm) <= flat_cost


class TestCanonicalHuffman:
    def test_prefix_free(self):
        rng = np.random.default_rng(8)
        data = rng.geometric(0.2, size=5000)
        _, _, code = huffman_encode(data)
        codes = [
            format(int(c), f"0{int(l)}b") for c, l in zip(code.codes, code.lengths)
        ]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)

    def test_roundtrip_vectorized(self, rng):
        data = rng.integers(-500, 500, size=20000)
        payload, bits, code = huffman_encode(data)
        out = huffman_decode(payload, data.size, bits, code)
        assert np.array_equal(out, data)

    def test_roundtrip_sequential_matches(self, rng):
        data = rng.geometric(0.4, size=3000)
        payload, bits, code = huffman_encode(data)
        vec = code.decode(payload, data.size, bits)
        seq = code.decode_sequential(payload, data.size, bits)
        assert np.array_equal(vec, seq)

    def test_single_symbol_stream(self):
        data = np.full(977, -3)
        payload, bits, code = huffman_encode(data)
        assert bits == 977  # one bit per symbol
        assert np.array_equal(code.decode(payload, 977, bits), data)
        assert np.array_equal(code.decode_sequential(payload, 977, bits), data)

    def test_negative_symbols(self):
        data = np.array([-(2**40), 0, 2**40, 0, -(2**40)])
        payload, bits, code = huffman_encode(data)
        assert np.array_equal(code.decode(payload, 5, bits), data)

    def test_empty_encode(self, rng):
        data = rng.integers(0, 5, size=10)
        _, _, code = huffman_encode(data)
        payload, bits = code.encode(np.zeros(0, np.int64))
        assert payload == b"" and bits == 0
        assert code.decode(b"", 0, 0).size == 0

    def test_out_of_alphabet_raises(self):
        _, _, code = huffman_encode(np.array([1, 2, 3]))
        with pytest.raises(ParameterError):
            code.encode(np.array([99]))

    @pytest.mark.parametrize("bad", [-1, 3, 6])
    def test_out_of_alphabet_raises_on_dense_route(self, bad):
        # Ten symbols over an alphabet spanning six values: the dense
        # lookup route, below, inside (a gap) and above the alphabet.
        code = CanonicalHuffman.from_data(np.array([0, 2, 5]))
        with pytest.raises(ParameterError):
            code.encode(np.array([0, 2, 5, 0, 2, 5, 0, 2, 5, bad]))

    def test_dense_and_search_routes_agree(self):
        """Encode looks codes up in a dense table when the alphabet's
        span is at most the input size, else by binary search; both
        routes emit the same bits for the same symbols."""
        code = CanonicalHuffman.from_data(np.arange(-300, 301))
        short = np.array([-300, 7, 300, 0, 7])  # 5 symbols < span 601
        p_short, b_short = code.encode(short)
        p_long, b_long = code.encode(np.tile(short, 200))  # 1000 >= 601
        assert b_long == 200 * b_short
        assert np.array_equal(
            unpack_bits(p_long, b_long), np.tile(unpack_bits(p_short, b_short), 200)
        )

    @pytest.mark.parametrize("lengths", [[1, 1], [1, MAX_TABLE_BITS + 1]])
    def test_symbol_count_beyond_bits_raises(self, lengths):
        """Every code is at least one bit, so more symbols than bits is
        rejected before either decoder (the flat-table one, or the
        sequential one for codes longer than MAX_TABLE_BITS) allocates
        for them."""
        code = CanonicalHuffman(np.array([0, 1]), np.array(lengths))
        with pytest.raises(DecompressionError):
            code.decode(b"\x00", 2**40, 8)

    def test_truncated_payload_raises(self, rng):
        data = rng.integers(0, 50, size=1000)
        payload, bits, code = huffman_encode(data)
        with pytest.raises(DecompressionError):
            code.decode(payload[: len(payload) // 2], data.size, bits)

    def test_short_stream_raises(self, rng):
        data = rng.integers(0, 50, size=1000)
        payload, bits, code = huffman_encode(data)
        with pytest.raises(DecompressionError):
            code.decode(payload, data.size + 100, bits)

    def test_table_serialization_roundtrip(self, rng):
        data = rng.integers(-100, 100, size=5000)
        payload, bits, code = huffman_encode(data)
        revived = CanonicalHuffman.from_table_bytes(code.table_bytes())
        assert np.array_equal(revived.symbols, code.symbols)
        assert np.array_equal(revived.lengths, code.lengths)
        assert np.array_equal(revived.codes, code.codes)
        assert np.array_equal(revived.decode(payload, data.size, bits), data)

    def test_table_blob_truncation_raises(self, rng):
        data = rng.integers(0, 10, size=100)
        _, _, code = huffman_encode(data)
        blob = code.table_bytes()
        with pytest.raises(DecompressionError):
            CanonicalHuffman.from_table_bytes(blob[:4])
        with pytest.raises(DecompressionError):
            CanonicalHuffman.from_table_bytes(blob[:-1])

    def test_kraft_violation_raises(self):
        with pytest.raises(ParameterError):
            CanonicalHuffman(np.array([0, 1, 2]), np.array([1, 1, 1]))

    def test_unsorted_symbols_raise(self):
        with pytest.raises(ParameterError):
            CanonicalHuffman(np.array([2, 1]), np.array([1, 1]))

    def test_wide_alphabet_stays_within_table_bits(self, rng):
        # Geometric counts over a big alphabet force length limiting.
        n = 3000
        counts = np.maximum(1, (1e9 * 0.99 ** np.arange(n))).astype(np.int64)
        symbols = np.arange(n)
        code = CanonicalHuffman.from_counts(symbols, counts)
        assert code.max_length == MAX_TABLE_BITS
        data = rng.choice(symbols, size=2000, p=counts / counts.sum())
        payload, bits = code.encode(data)
        assert np.array_equal(code.decode(payload, data.size, bits), data)
        assert np.array_equal(code.decode_sequential(payload, data.size, bits), data)


def _reference_code(data):
    """(symbols, lengths, codes) for ``data`` from np.unique and literal
    array-based heap, depth and canonical-rank loops."""
    symbols, counts = np.unique(np.asarray(data, dtype=np.int64), return_counts=True)
    n = counts.size
    lengths = np.ones(1, dtype=np.int64)
    if n > 1:
        heap = [(int(c), i, i) for i, c in enumerate(counts)]
        heapq.heapify(heap)
        parent = np.full(2 * n - 1, -1, dtype=np.int64)
        next_id = n
        while len(heap) > 1:
            w1, _, a = heapq.heappop(heap)
            w2, _, b = heapq.heappop(heap)
            parent[a] = parent[b] = next_id
            heapq.heappush(heap, (w1 + w2, next_id, next_id))
            next_id += 1
        depth = np.zeros(2 * n - 1, dtype=np.int64)
        for node in range(2 * n - 3, -1, -1):
            depth[node] = depth[parent[node]] + 1
        lengths = depth[:n]
    if lengths.max() > MAX_TABLE_BITS:
        lengths = package_merge_lengths(counts, MAX_TABLE_BITS)
    order = np.lexsort((np.arange(n), lengths))
    codes = np.zeros(n, dtype=np.uint64)
    code = 0
    for rank, idx in enumerate(order):
        if rank:
            code = (code + 1) << int(lengths[idx] - lengths[order[rank - 1]])
        codes[idx] = code
    return symbols, lengths, codes


@pytest.mark.parametrize(
    "kind", ["radius_bounded", "wide", "single_symbol", "uniform"]
)
def test_from_data_matches_reference(kind):
    rng = np.random.default_rng(11)
    if kind == "radius_bounded":
        # Signed quantization codes within the default radius 32767,
        # plus the escape symbol radius + 1.
        data = rng.geometric(0.05, size=50000) * rng.choice([-1, 1], size=50000)
        data = np.clip(data, -32767, 32767)
        data[::997] = 32768
    elif kind == "wide":
        data = rng.choice(np.array([-(2**40), -7, 0, 2**40]), size=1000)
    elif kind == "single_symbol":
        data = np.full(50, 2**40)
    else:
        data = rng.integers(-2000, 2000, size=20000)
    code = CanonicalHuffman.from_data(data)
    symbols, lengths, codes = _reference_code(data)
    assert np.array_equal(code.symbols, symbols)
    assert np.array_equal(code.lengths, lengths)
    assert np.array_equal(code.codes, codes)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=2000),
)
def test_huffman_roundtrip_property(values):
    """Any int64 data round-trips bit-exactly through encode/decode."""
    data = np.asarray(values, dtype=np.int64)
    payload, bits, code = huffman_encode(data)
    assert np.array_equal(code.decode(payload, data.size, bits), data)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(1, 10**9), min_size=2, max_size=120),
    st.integers(8, 24),
)
def test_package_merge_kraft_property(counts, limit):
    """Length-limited lengths always satisfy Kraft and the limit."""
    counts = np.asarray(counts, dtype=np.int64)
    if (1 << limit) < counts.size:
        return
    lengths = package_merge_lengths(counts, limit)
    assert lengths.max() <= limit
    assert lengths.min() >= 1
    assert np.sum(2.0 ** -lengths.astype(float)) <= 1.0 + 1e-12
