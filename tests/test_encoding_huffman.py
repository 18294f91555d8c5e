"""Unit and property tests for repro.encoding.huffman."""

import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.bitio import pack_aligned, pack_codes, unpack_bits
from repro.encoding.huffman import (
    MAX_TABLE_BITS,
    CanonicalHuffman,
    _canonical_codes,
    _segment_bits,
    huffman_decode,
    huffman_encode,
    optimal_code_lengths,
    package_merge_lengths,
)
from repro.errors import DecompressionError, ParameterError
from repro.observe import Trace, use_trace


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


def _reference_lengths(counts):
    """Huffman code lengths from a literal heap over (count, id) and
    an array-based depth loop."""
    n = len(counts)
    if n == 1:
        return np.ones(1, dtype=np.int64)
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
    return depth[:n]


def _reference_canonical(lengths):
    """Canonical codes from the literal per-rank loop."""
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.lexsort((np.arange(lengths.size), lengths))
    codes = np.zeros(lengths.size, dtype=np.uint64)
    code = 0
    for rank, idx in enumerate(order):
        if rank:
            code = (code + 1) << int(lengths[idx] - lengths[order[rank - 1]])
        codes[idx] = code
    return codes


def _reference_code(data):
    """(symbols, lengths, codes) for ``data`` from np.unique and literal
    array-based heap, depth and canonical-rank loops."""
    symbols, counts = np.unique(np.asarray(data, dtype=np.int64), return_counts=True)
    lengths = _reference_lengths(counts)
    if lengths.max() > MAX_TABLE_BITS:
        lengths = package_merge_lengths(counts, MAX_TABLE_BITS)
    return symbols, lengths, _reference_canonical(lengths)


@pytest.mark.parametrize(
    "kind", ["radius_bounded", "wide", "single_symbol", "uniform", "gappy"]
)
def test_from_data_matches_reference(kind):
    """Spans within the input size take the bincount histogram (all
    but "wide"), the others np.unique; both match the reference."""
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
    elif kind == "gappy":
        data = rng.choice(np.arange(-3000, 3000, 7), size=20000)
    else:
        data = rng.integers(-2000, 2000, size=20000)
    code = CanonicalHuffman.from_data(data)
    symbols, lengths, codes = _reference_code(data)
    assert np.array_equal(code.symbols, symbols)
    assert np.array_equal(code.lengths, lengths)
    assert np.array_equal(code.codes, codes)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(1, 4), min_size=1, max_size=300),
        st.lists(st.sampled_from([1, 2, 3, 5, 8, 13]), min_size=1, max_size=300),
        st.lists(st.integers(1, 10**12), min_size=1, max_size=60),
    )
)
def test_optimal_lengths_match_the_heap(counts):
    """The two-queue construction gives the heap's lengths exactly,
    ties included (small repeated counts force many)."""
    lengths = optimal_code_lengths(np.array(counts))
    assert np.array_equal(lengths, _reference_lengths(counts))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=200))
def test_canonical_codes_match_the_rank_loop(counts):
    lengths = optimal_code_lengths(np.array(counts))
    assert np.array_equal(_canonical_codes(lengths), _reference_canonical(lengths))


@pytest.mark.parametrize("longest", [1, 18, 28, 29, 57])
def test_canonical_codes_match_the_rank_loop_up_to_57_bits(longest):
    """A complete code with lengths 1, 2, ..., longest, longest, in
    shuffled symbol order: the prefix sum stays exact in uint64."""
    lengths = np.append(np.arange(1, longest + 1), longest)
    lengths = np.random.default_rng(longest).permutation(lengths)
    assert np.array_equal(_canonical_codes(lengths), _reference_canonical(lengths))


def _test_code(longest):
    """A complete code whose longest codes have ``longest`` bits (one
    symbol for ``longest`` 1), over a span of 3 * longest + 1 values."""
    if longest == 1:
        return CanonicalHuffman(np.array([5]), np.array([1]))
    lengths = np.append(np.arange(1, longest + 1), longest)
    return CanonicalHuffman(np.arange(lengths.size) * 3 - 7, lengths)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 1001, 1002])
@pytest.mark.parametrize("longest", [*range(1, 21), 28, 29])
def test_encode_matches_per_symbol_pack(n, longest):
    """Encode (left-aligned lookup, fused triples when 3L <= 57, pairs
    when 2L <= 57) emits the bits of ``pack_codes`` over the per-symbol
    codes: for n = 0, 1 and 2 mod 3 and for one symbol, on the search
    route (n below the span) and the dense one, for every length a
    built code can have and either side of each fusion limit."""
    code = _test_code(longest)
    idx = np.random.default_rng(n + longest).integers(0, code.symbols.size, size=n)
    idx[: min(n, 3)] = code.symbols.size - 1  # the longest codes
    want = pack_codes(code.codes[idx], code.lengths[idx])
    assert code.encode(code.symbols[idx]) == want


@pytest.mark.parametrize(
    "longest, group", [(1, 3), (18, 3), (19, 3), (20, 2), (28, 2), (29, 1)]
)
def test_encode_fuses_as_many_codes_as_fit(monkeypatch, longest, group):
    """The packer gets one code per run of three symbols up to L = 19,
    per pair up to L = 28 and per symbol beyond."""
    import repro.encoding.huffman as huffman

    seen = []

    def spy(codes, lengths):
        seen.append(codes.size)
        return pack_aligned(codes, lengths)

    monkeypatch.setattr(huffman, "pack_aligned", spy)
    code = _test_code(longest)
    code.encode(np.resize(code.symbols, 1001))
    assert seen == [-(-1001 // group)]


@pytest.mark.parametrize("position", [0, 5, 10], ids=["first", "second", "tail"])
@pytest.mark.parametrize("bad", [-1, 3, 6])
@pytest.mark.parametrize("longest", [2, 29], ids=["paired", "unpaired"])
def test_out_of_alphabet_raises_in_any_pair_position(position, bad, longest):
    """On the dense route, a symbol below, inside (a gap) or above the
    alphabet's span raises whether it is the first or the second half
    of a fused pair or the odd tail, and when codes are too long to be
    paired."""
    code = CanonicalHuffman(np.array([0, 2, 5]), np.array([1, 2, longest]))
    data = np.resize(code.symbols, 11)  # odd, and span 6 <= 11
    data[position] = bad
    with pytest.raises(ParameterError):
        code.encode(data)


def _property_stream(values, shape):
    """(data, code): one shape of valid stream for the round-trip property."""
    values = np.asarray(values, dtype=np.int64)
    if shape == "fixed_length":
        # 2**k codes of k bits: a walk that starts off a code boundary
        # never resynchronises.
        k = 1 + int(abs(values[0])) % 5
        return values % (1 << k), CanonicalHuffman(
            np.arange(1 << k), np.full(1 << k, k)
        )
    if shape == "table_bits":
        # Lengths 1, 2, ..., 18, 18: a complete code as long as the table.
        lengths = np.append(np.arange(1, MAX_TABLE_BITS + 1), MAX_TABLE_BITS)
        return values % lengths.size, CanonicalHuffman(
            np.arange(lengths.size), lengths
        )
    if shape == "single_symbol":
        values = np.full(values.size, values[0])
    return values, CanonicalHuffman.from_data(values)


def _end_at_segment_edge(code, payload, n_symbols, total_bits, edge):
    """Zero-pad the stream so that it ends ``edge`` bits past a segment
    boundary of the decoder (-1: one bit short of a full segment)."""
    padded = payload + bytes(1100)  # 8800 bits: two of the largest segments
    for bits in range(total_bits, 8 * len(padded)):
        seg = _segment_bits(n_symbols, bits, code.max_length)
        if bits % seg == edge % seg:
            return padded, bits
    raise AssertionError("no segment edge within the padding")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=2000),
    st.sampled_from(["data", "fixed_length", "single_symbol", "table_bits"]),
    st.sampled_from([None, -1, 0, 1]),
    st.integers(1, 2000),
)
def test_huffman_roundtrip_property(values, shape, edge, n_decode):
    """Valid streams decode to their data and to what the sequential
    decoder reads: any int64 data, non-synchronising fixed-length
    codes, one-symbol alphabets, codes as long as the table, streams
    ending one bit short of, on, or one bit past a segment boundary
    (a stream shorter than one segment among them), and requests for
    fewer symbols than were encoded."""
    data, code = _property_stream(values, shape)
    payload, bits = code.encode(data)
    n = min(n_decode, data.size)
    if edge is not None:
        payload, bits = _end_at_segment_edge(code, payload, n, bits, edge)
    out = code.decode(payload, n, bits)
    assert np.array_equal(out, data[:n])
    assert np.array_equal(out, code.decode_sequential(payload, n, bits))


def _pointer_doubling_decode(code, payload, n_symbols, total_bits):
    """The speculative-decode + pointer-doubling decoder that the
    segment-parallel one replaced, kept literally (size checks and
    table build included) as the reference on invalid input."""
    if n_symbols == 0:
        return np.zeros(0, dtype=np.int64)
    if n_symbols < 0 or total_bits < 0:
        raise ParameterError("negative sizes")
    if total_bits > 8 * len(payload):
        raise DecompressionError("Huffman payload shorter than declared")
    if n_symbols > total_bits:
        raise DecompressionError("symbols cannot fit in the bits")
    L = code.max_length
    size = 1 << L
    fill = (1 << (L - code.lengths)).astype(np.int64)
    starts = (code.codes << (L - code.lengths).astype(np.uint64)).astype(np.int64)
    total = int(fill.sum())
    reps_idx = np.repeat(np.arange(code.symbols.size), fill)
    run_starts = np.repeat(starts, fill)
    offs = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(fill)[:-1])), fill
    )
    positions = run_starts + offs
    table_sym = np.zeros(size, dtype=np.int32)
    table_len = np.ones(size, dtype=np.uint8)
    table_sym[positions] = reps_idx
    table_len[positions] = code.lengths[reps_idx]
    n_bytes = (total_bits + 7) >> 3
    buf = np.zeros(n_bytes + 3, dtype=np.uint32)
    buf[:n_bytes] = np.frombuffer(payload, dtype=np.uint8, count=n_bytes)
    if total_bits & 7:
        buf[n_bytes - 1] &= (0xFF << (8 - (total_bits & 7))) & 0xFF
    u32 = (buf[:-3] << 24) | (buf[1:-2] << 16) | (buf[2:-1] << 8) | buf[3:]
    shifts = (32 - L - np.arange(8)).astype(np.uint32)
    mask = np.uint32((1 << L) - 1)
    w = ((u32[:, None] >> shifts) & mask).ravel()[:total_bits]
    index = np.int32 if total_bits + L < 2**31 else np.int64
    nxt = np.arange(total_bits + 1, dtype=index)
    nxt[:-1] += table_len[w]
    np.minimum(nxt, total_bits, out=nxt)
    positions = np.empty(n_symbols, dtype=index)
    positions[0] = 0
    filled = 1
    jump = nxt
    while filled < n_symbols:
        take = min(filled, n_symbols - filled)
        positions[filled : filled + take] = jump[positions[:take]]
        filled += take
        if filled < n_symbols:
            jump = jump[jump]
    if positions[-1] >= total_bits:
        raise DecompressionError("Huffman stream exhausted before n_symbols")
    sym_idx = table_sym[w[positions]]
    end = int(positions[-1] + code.lengths[sym_idx[-1]])
    if end > total_bits:
        raise DecompressionError("Huffman stream overruns declared bit count")
    return code.symbols[sym_idx]


def _outcome(decode, *args):
    try:
        return decode(*args)
    except (DecompressionError, ParameterError) as exc:
        return type(exc)


def _invalid_streams(rng, count):
    """``count`` corrupted (code, payload, n_symbols, total_bits)
    cases, multi-segment streams among them."""
    for _ in range(count):
        n = int(rng.choice([1, 7, 300, 5000, 40000]))
        data = rng.geometric(rng.uniform(0.05, 0.9), n) * rng.choice([-1, 1], n)
        payload, bits, code = huffman_encode(data)
        kind = rng.integers(5)
        if kind == 0:  # bit flips
            buf = bytearray(payload)
            for pos in rng.integers(0, bits, size=rng.integers(1, 6)):
                buf[pos >> 3] ^= 0x80 >> (pos & 7)
            yield code, bytes(buf), n, bits
        elif kind == 1:  # total_bits shorter than the stream
            yield code, payload, n, int(rng.integers(n, bits)) if n < bits else n
        elif kind == 2:  # more symbols than were encoded
            yield code, payload, min(bits, n + int(rng.integers(1, 50))), bits
        elif kind == 3 and code.symbols.size > 1:  # incomplete table
            keep = np.arange(code.symbols.size) != rng.integers(code.symbols.size)
            partial = CanonicalHuffman(code.symbols[keep], code.lengths[keep])
            yield partial, payload, n, bits
        else:  # random payload
            junk = rng.integers(0, 256, size=len(payload), dtype=np.uint8).tobytes()
            yield code, junk, int(rng.integers(1, 8 * len(junk) + 1)), 8 * len(junk)


@pytest.mark.parametrize("seed", range(4))
def test_invalid_streams_match_pointer_doubling(seed):
    """On corrupt input the decoder returns the same symbols, or raises
    the same exception type, as the pointer-doubling decoder."""
    rng = np.random.default_rng(seed)
    for code, payload, n, bits in _invalid_streams(rng, 60):
        want = _outcome(_pointer_doubling_decode, code, payload, n, bits)
        got = _outcome(code.decode, payload, n, bits)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        else:
            assert got is want


def _stream_with_one_run(covered):
    """``(code, data, k)``: a stream that resynchronises at every 0 bit
    but inside one run of a 3-bit code that covers ``covered`` whole
    decoder segments from segment ``k`` on.

    Every code of ``0``, ``10``, ``110``, ``111`` but the last ends in
    its only 0 bit, so any two walks meet just past a 0.  The run is
    ``111`` repeated: a walk inside it that is off the run's 3-bit grid
    stays off it.  The run starts one, two, four or five bits before
    segment k's first bit, so segment k's leader starts off the true
    chain and does not meet it before the segment ends."""
    code = CanonicalHuffman(np.arange(4), np.array([1, 2, 3, 3]))
    seq = np.random.default_rng(5).choice(3, size=20000, p=[0.5, 0.3, 0.2])
    cum = np.concatenate(([0], np.cumsum(code.lengths[seq])))
    run = 0
    for _ in range(50):
        seg = _segment_bits(seq.size + run, int(cum[-1]) + 3 * run, 3)
        want = -(-(covered * seg + 9) // 3)  # past the covered ends
        if want == run:
            break
        run = want
    for k in range(20, 200):
        start = k * seg
        off = start - cum
        split = np.flatnonzero((off >= 1) & (off <= 5) & (off % 3 != 0))
        if split.size:
            i = int(split[0])
            break
    assert cum[i] < k * seg and cum[i] + 3 * run >= (k + covered) * seg + 3
    data = np.concatenate((seq[:i], np.full(run, 3), seq[i:]))
    return code, data, k


def _decode_counters(code, payload, n, bits):
    tr = Trace()
    with use_trace(tr):
        out = code.decode(payload, n, bits)
    (rec,) = [r for r in tr.records if r.path[-1] == "huffman.decode"]
    return out, rec.counters


@pytest.mark.parametrize("covered", [1, 10])
def test_non_resynchronising_run(covered):
    """A run that covers one segment breaks the speculated entry of the
    next segment, which is walked again (repair) with no handover; a
    run over many segments breaks the walked-again segment too, and
    the segments from there on go to the all-offsets entry walkers
    (handover), while those before the run stay speculated."""
    code, data, k = _stream_with_one_run(covered)
    payload, bits = code.encode(data)
    out, counters = _decode_counters(code, payload, data.size, bits)
    assert np.array_equal(out, data)
    assert np.array_equal(out, code.decode_sequential(payload, data.size, bits))
    if covered == 1:
        assert counters["handover_segments"] == 0
    else:
        assert 0 < counters["handover_segments"] <= counters["segments"] - k - 1


def test_fixed_length_stream_hands_over():
    """Codes that never resynchronise hand the stream over after one
    repair round instead of settling one segment per round: segments 0
    and 1 are entered right on the first pass (segment 0's leader is
    the true chain), segment 2 after the repair, and the rest go to
    the all-offsets entry walkers."""
    data = np.arange(200_000) % 8
    code = CanonicalHuffman(np.arange(8), np.full(8, 3))
    payload, bits = code.encode(data)
    out, counters = _decode_counters(code, payload, data.size, bits)
    assert np.array_equal(out, data)
    seg = _segment_bits(data.size, bits, 3)
    assert seg % 3 and counters["handover_segments"] == counters["segments"] - 3


def test_decode_peak_memory_per_payload_bit():
    """Decode state is one byte per payload bit plus per-symbol arrays:
    on a 1M-symbol stream of ~6 bits per symbol the tracemalloc peak
    stays under 8 bytes per payload bit (the pointer-doubling decoder
    peaked at ~17.7)."""
    data = np.round(np.random.default_rng(0).laplace(0, 12, 2**20)).astype(np.int64)
    payload, bits, code = huffman_encode(data)
    assert bits >= 6 * data.size
    tracemalloc.start()
    try:
        out = code.decode(payload, data.size, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, data)
    assert peak < 8 * bits


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
