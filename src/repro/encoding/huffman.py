"""Canonical Huffman coding with a fully vectorized encoder *and* decoder.

SZ's third stage is a "customized Huffman coding" over quantization
codes (paper Section II-A).  This module implements it from scratch:

* optimal code lengths via the classic two-queue/heap algorithm;
* **length-limited** code lengths via the package-merge (coin
  collector) algorithm, so that decode tables stay small;
* canonical code assignment (codes are recoverable from lengths alone,
  so the serialized table is just ``(symbol, length)`` pairs);
* vectorized encoding: a code lookup per symbol, then the word-level
  packer :func:`repro.encoding.bitio.pack_codes`.  The lookup gathers
  from dense value -> (code, length) tables when the alphabet's span
  is no larger than the input (quantization codes lie within a small
  radius, so this is the usual case), and binary-searches the sorted
  alphabet otherwise (any int64 alphabet is allowed);
* segment-parallel decoding, whose work is per symbol rather than
  per bit.  The payload is cut into segments of S bits
  (:func:`_segment_bits` derives S from the stream) and walkers in
  every segment advance one code per lock-step NumPy pass, reading
  each ``max_length``-bit window from the big-endian 32-bit word at
  byte ``p >> 3``:

  1. *Leaders.*  One walker per segment starts at its first bit,
     marks its path in a byte-per-bit mask and records its exit, its
     first position at or past the segment end.
  2. *Entry walkers.*  The true symbol chain enters segment k at one
     of the L = ``max_length`` bits from its start (the code that
     crosses the boundary is at most L bits long), so a walker starts
     at each.  It stops when it steps onto the leader's path (and
     shares the leader's exit), onto another walker's path (and
     shares that walker's fate), or past the segment end (its own
     exit).  Huffman codes self-synchronise, so most walkers stop
     within a few codes; a code that never does (fixed-length codes)
     costs at most the L walks through the segment.
  3. *Resolve.*  The chain starts at bit 0, and each segment's exit
     names the next segment's entry walker, in one pass over the
     segments.
  4. *Chain.*  In each segment, the leader's marks before the point
     where the true chain joins the leader's path (the segment end if
     it never does) are cleared, and the short true prefix up to that
     point is walked again and marked.  The symbol boundaries are then
     the marked bits.

  Every loop is bounded: each step advances at least one bit, no walk
  goes more than L bits past its segment, and S is at most 4096.
  Decoding keeps one byte per payload bit (the mask) plus per-symbol
  arrays.

A literal sequential decoder (:meth:`CanonicalHuffman.decode_sequential`)
is kept both as a fallback for pathological alphabets whose codes cannot
be length-limited to the table width and as an oracle in tests.
"""

from __future__ import annotations

import heapq
import math
from typing import Tuple

import numpy as np

import repro.observe as observe
from repro.encoding.bitio import pack_codes
from repro.errors import DecompressionError, ParameterError

__all__ = [
    "CanonicalHuffman",
    "huffman_encode",
    "huffman_decode",
    "optimal_code_lengths",
    "package_merge_lengths",
]

#: Widest decode table we are willing to build: 2**18 entries (~2 MB).
MAX_TABLE_BITS = 18


def _segment_bits(n_symbols: int, total_bits: int, max_length: int) -> int:
    """Segment length S, in bits, of the segment-parallel decoder.

    The leaders advance in lock-step, so their pass count grows with S
    (a segment holds up to S codes), while a segment's L entry walkers
    make the walker work fall as ``total_bits * L / S``.  Balancing the
    two gives ``S ~ sqrt(total_bits * L)``; longer codes resynchronise
    over more bits, which the bits-per-symbol factor covers.  Constant
    and exponent were fitted to a sweep of S from 32 to 4096 bits over
    49 streams: the 18 ATM fixed-PSNR specs (40/60/80 dB), the five
    perfbench codec cases, and 26 synthetic streams of 1.1-10.7 bits
    per symbol and 2e4-2e6 symbols.  There the rule's S decoded within
    4% of each stream's best S on average and within 21% at worst.
    The clamp bounds every lock-step loop to 4096 passes.
    """
    bits_per_symbol = total_bits / n_symbols
    s = 0.077 * math.sqrt(total_bits * max_length) * bits_per_symbol**0.75
    return int(min(4096, max(32, s)))


def optimal_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Return optimal (unlimited) Huffman code lengths for ``counts``.

    Uses the standard heap construction.  A single-symbol alphabet gets
    length 1 (a code must still occupy at least one bit).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ParameterError("counts must be a non-empty 1-D array")
    if (counts <= 0).any():
        raise ParameterError("all symbol counts must be positive")
    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    # Heap of (weight, tiebreak, node-id); internal nodes get ids >= n.
    # Plain Python ints throughout: these loops run once per symbol of
    # the alphabet, where NumPy scalar indexing costs more than the work.
    heap = [(c, i, i) for i, c in enumerate(counts.tolist())]
    heapq.heapify(heap)
    parent = [-1] * (2 * n - 1)
    next_id = n
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (w1 + w2, next_id, next_id))
        next_id += 1
    # Depth of each leaf = code length; compute top-down over node ids
    # (a child always has a smaller id than its parent).
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return np.array(depth[:n], dtype=np.int64)


def package_merge_lengths(counts: np.ndarray, max_length: int) -> np.ndarray:
    """Optimal length-limited code lengths via package-merge.

    Solves the coin-collector formulation: collect total value ``n - 1``
    using coins of denominations ``2**-1 .. 2**-max_length`` (one coin
    per symbol per denomination, numismatic value = symbol count); the
    number of coins of symbol *i* in the solution is its code length.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ParameterError("counts must be a non-empty 1-D array")
    if (counts <= 0).any():
        raise ParameterError("all symbol counts must be positive")
    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    if max_length < 1 or (max_length < 63 and (1 << max_length) < n):
        raise ParameterError(
            f"cannot code {n} symbols with max length {max_length}"
        )
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    # Each list entry is (weight, tuple-of-original-item-ranks).
    items = [(int(w), (int(r),)) for r, w in enumerate(sorted_counts)]
    current = list(items)  # denomination 2**-max_length
    for _level in range(max_length - 1):
        packages = [
            (
                current[2 * i][0] + current[2 * i + 1][0],
                current[2 * i][1] + current[2 * i + 1][1],
            )
            for i in range(len(current) // 2)
        ]
        current = sorted(items + packages, key=lambda e: e[0])
    take = current[: 2 * (n - 1)]
    lengths_sorted = np.zeros(n, dtype=np.int64)
    for _w, members in take:
        for r in members:
            lengths_sorted[r] += 1
    lengths = np.zeros(n, dtype=np.int64)
    lengths[order] = lengths_sorted
    return lengths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes given per-symbol lengths.

    Symbols are ranked by (length, position); code values increase with
    rank, shifting left when the length steps up.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.lexsort((np.arange(lengths.size), lengths))
    by_rank = []
    code = -1
    prev_len = int(lengths[order[0]])
    for ln in lengths[order].tolist():
        code = (code + 1) << (ln - prev_len)
        by_rank.append(code)
        prev_len = ln
    codes = np.zeros(lengths.size, dtype=np.uint64)
    codes[order] = by_rank
    return codes


class CanonicalHuffman:
    """A canonical Huffman code over an integer alphabet.

    Parameters
    ----------
    symbols:
        Sorted, unique integer symbol values (any int64 range).
    lengths:
        Code length of each symbol, Kraft sum <= 1.
    """

    def __init__(self, symbols: np.ndarray, lengths: np.ndarray) -> None:
        symbols = np.asarray(symbols, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if symbols.ndim != 1 or symbols.shape != lengths.shape:
            raise ParameterError("symbols/lengths must be matching 1-D arrays")
        if symbols.size == 0:
            raise ParameterError("empty alphabet")
        if (np.diff(symbols) <= 0).any():
            raise ParameterError("symbols must be strictly increasing")
        if lengths.min() < 1 or lengths.max() > 57:
            raise ParameterError("code lengths must be in [1, 57]")
        kraft = np.sum(np.exp2(-lengths.astype(np.float64)))
        if kraft > 1.0 + 1e-9:
            raise ParameterError(f"Kraft inequality violated (sum={kraft})")
        self.symbols = symbols
        self.lengths = lengths
        self.codes = _canonical_codes(lengths)
        self.max_length = int(lengths.max())
        self._table_sym: np.ndarray | None = None
        self._table_len: np.ndarray | None = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_counts(
        cls,
        symbols: np.ndarray,
        counts: np.ndarray,
        max_length: int = MAX_TABLE_BITS,
    ) -> "CanonicalHuffman":
        """Build a code from symbol frequencies.

        Uses the optimal (unlimited) lengths when they already fit in
        ``max_length`` bits, otherwise package-merge.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        lengths = optimal_code_lengths(counts)
        if lengths.max() > max_length:
            lengths = package_merge_lengths(counts, max_length)
        return cls(symbols, lengths)

    @classmethod
    def from_data(
        cls, data: np.ndarray, max_length: int = MAX_TABLE_BITS
    ) -> "CanonicalHuffman":
        """Build a code from the data that will be encoded."""
        trace = observe.current_trace()
        with trace.span("huffman.build") as sp:
            data = np.asarray(data).ravel()
            if data.size == 0:
                raise ParameterError("cannot build a code from empty data")
            symbols, counts = np.unique(data.astype(np.int64), return_counts=True)
            from repro.telemetry.registry import metrics as _metrics

            _metrics().histogram("encoding.huffman.alphabet_size").observe(
                int(symbols.size)
            )
            if trace.enabled:
                sp.set("alphabet_size", int(symbols.size))
            return cls.from_counts(symbols, counts, max_length=max_length)

    # -- encoding ------------------------------------------------------

    def encode(self, data: np.ndarray) -> Tuple[bytes, int]:
        """Encode ``data`` (values must all be in the alphabet).

        Returns ``(payload, total_bits)``.
        """
        trace = observe.current_trace()
        with trace.span("huffman.encode") as sp:
            flat = np.asarray(data, dtype=np.int64).ravel()
            if flat.size == 0:
                return b"", 0
            lo = int(self.symbols[0])
            span = int(self.symbols[-1]) - lo + 1
            if span <= flat.size:
                # Dense value -> (code, length) tables over the alphabet's
                # span, no larger than the input, so the lookup stays
                # O(n).  Length 0 marks a value missing from the alphabet.
                if int(flat.min()) < lo or int(flat.max()) >= lo + span:
                    raise ParameterError("data contains symbols outside the alphabet")
                code_of = np.zeros(span, dtype=np.uint64)
                length_of = np.zeros(span, dtype=np.int64)
                code_of[self.symbols - lo] = self.codes
                length_of[self.symbols - lo] = self.lengths
                rel = flat - lo
                codes, lengths = code_of[rel], length_of[rel]
                if lengths.min() == 0:
                    raise ParameterError("data contains symbols outside the alphabet")
            else:
                # Wide alphabets (any int64 values): binary search.
                idx = np.searchsorted(self.symbols, flat)
                bad = (idx >= self.symbols.size) | (self.symbols[
                    np.minimum(idx, self.symbols.size - 1)
                ] != flat)
                if bad.any():
                    raise ParameterError("data contains symbols outside the alphabet")
                codes, lengths = self.codes[idx], self.lengths[idx]
            payload, total_bits = pack_codes(codes, lengths)
            if trace.enabled:
                sp.count("n_symbols", int(flat.size))
                sp.count("total_bits", int(total_bits))
                sp.count("bytes_out", len(payload))
            return payload, total_bits

    # -- decoding ------------------------------------------------------

    def _build_table(self) -> None:
        """Build the flat ``2**max_length`` lookup table (lazily).

        Canonical codes in rank order own consecutive runs of the
        table, starting at entry 0, so each table is one ``np.repeat``.
        """
        if self._table_sym is not None:
            return
        bits = self.max_length
        order = np.argsort(self.lengths, kind="stable")  # canonical rank
        fill = 1 << (bits - self.lengths[order])
        used = int(fill.sum())
        table_sym = np.zeros(1 << bits, dtype=np.int32)
        # Unused entries (incomplete code) get length 1 so every walk
        # still advances; valid streams never reach them.
        table_len = np.ones(1 << bits, dtype=np.uint8)
        table_sym[:used] = np.repeat(order, fill)
        table_len[:used] = np.repeat(self.lengths[order], fill)
        self._table_sym = table_sym
        self._table_len = table_len

    def decode(self, payload: bytes, n_symbols: int, total_bits: int) -> np.ndarray:
        """Decode ``n_symbols`` symbols from ``payload``.

        Uses the segment-parallel decoder when the maximum code length
        permits a flat table, else the sequential decoder.  The
        declared sizes are checked against the payload before either
        decoder allocates anything: every code is at least one bit
        long, so ``n_symbols <= total_bits <= 8 * len(payload)`` holds
        for every valid stream.
        """
        trace = observe.current_trace()
        with trace.span("huffman.decode") as sp:
            if n_symbols == 0:
                return np.zeros(0, dtype=np.int64)
            if n_symbols < 0 or total_bits < 0:
                raise ParameterError("negative sizes")
            if total_bits > 8 * len(payload):
                raise DecompressionError("Huffman payload shorter than declared")
            if n_symbols > total_bits:
                raise DecompressionError(
                    f"{n_symbols} symbols cannot fit in {total_bits} bits"
                )
            sp.count("n_symbols", int(n_symbols))
            sp.count("total_bits", int(total_bits))
            if self.max_length > MAX_TABLE_BITS:
                return self.decode_sequential(payload, n_symbols, total_bits)
            return self._decode_segments(payload, n_symbols, total_bits, sp)

    def _decode_segments(
        self, payload: bytes, n_symbols: int, total_bits: int, sp
    ) -> np.ndarray:
        """Segment-parallel decode (see the module docstring); ``sp``
        is the ``huffman.decode`` span, which gets the walk counters."""
        self._build_table()
        L = self.max_length
        T = total_bits
        S = _segment_bits(n_symbols, total_bits, L)
        tlen = self._table_len
        # Bits past total_bits read as zero, whatever the payload holds.
        n_bytes = (T + 7) >> 3
        buf = np.zeros(n_bytes + 3, dtype=np.uint8)
        buf[:n_bytes] = np.frombuffer(payload, dtype=np.uint8, count=n_bytes)
        if T & 7:
            buf[n_bytes - 1] &= (0xFF << (8 - (T & 7))) & 0xFF
        # u32[b] is the big-endian 32-bit word at byte b (an overlapping
        # view, one copy): it holds the L bits from every bit p with
        # p >> 3 == b, since L <= 18 and p & 7 <= 7.
        u32 = np.ndarray((n_bytes,), ">u4", buf, strides=(1,)).astype(np.uint32)
        del buf

        def window(p: np.ndarray) -> np.ndarray:
            return (u32.take(p >> 3) >> (32 - L - (p & 7))) & ((1 << L) - 1)

        starts = np.arange(0, T, S)
        ends = np.minimum(starts + S, T)
        K = starts.size
        # One byte per bit: 1 where a leader stepped (at the end: where
        # the true chain did), 1 + j where entry walker j did.  A walk
        # stops within L bits past its segment end.
        mark = np.zeros(T + L, dtype=np.uint8)

        # Leaders: one per segment, from its first bit.  Each marks its
        # path and records its exit, its first position >= segment end.
        lead_exit = np.empty(K, dtype=np.intp)
        p, seg, end = starts, np.arange(K), ends
        while p.size:
            mark[p] = 1
            p = p + tlen[window(p)]
            out = p >= end
            if np.count_nonzero(out):
                lead_exit[seg[out]] = p[out]
                keep = ~out
                p, seg, end = p[keep], seg[keep], end[keep]

        # Entry walkers.  The true chain enters segment k at one of
        # starts[k] + j, j < L (bit 0 for k = 0).  Walker k * L + j
        # starts there; j = 0 is the leader.  A walker stops on the
        # leader's path (merge = that bit; it shares the leader's exit),
        # on another walker's path (root = that walker), or at or past
        # the segment end (its own exit; merge = the segment end).
        root = np.arange(K * L)
        merge = np.repeat(starts, L)
        walker_exit = np.repeat(lead_exit, L)
        g = root.reshape(K, L)[1:, 1:].ravel()
        seg, j = np.divmod(g, L)
        p, end, ids = starts[seg] + j, ends[seg], (j + 1).astype(np.uint8)
        del seg, j
        steps = 0
        while g.size:
            here = mark[p]
            out = p >= end
            stop = np.logical_or(here, out)
            if np.count_nonzero(stop):
                walker_exit[g[out]] = p[out]
                merge[g[out]] = end[out]
                lead = (here == 1) & ~out
                merge[g[lead]] = p[lead]
                other = (here > 1) & ~out
                root[g[other]] = g[other] + (here[other].astype(np.intp) - ids[other])
                keep = ~stop
                g, p, end, ids = g[keep], p[keep], end[keep], ids[keep]
            mark[p] = ids
            steps += g.size
            p = p + tlen[window(p)]
        # A walker only stops on a bit that another walker marked in an
        # earlier pass and then walked past, so the root links form
        # chains of fewer than L walkers; pointer jumping takes each
        # walker to the end of its chain.
        for _ in range((L - 1).bit_length()):
            root = root[root]

        # Resolve, one pass over the segments: next_walker[k * L + j] is
        # the walker of segment k + 1 by which the chain enters after
        # walker j of segment k, since a segment's exit is the next
        # segment's entry.
        next_walker = memoryview(
            (
                walker_exit[root].reshape(K, L)[:-1]
                + (np.arange(1, K) * (L - S))[:, None]
            ).ravel()
        )
        chain = [0] * K
        w = 0
        for k in range(1, K):
            w = next_walker[w]
            chain[k] = w
        chain = np.array(chain, dtype=np.intp)
        entry = starts + chain % L
        until = merge[root[chain]]

        # Chain: in each segment, unmark the leader's path before the
        # merge point and mark the true path from the entry up to it.
        redo = until > starts
        p = np.concatenate((starts[redo], entry[redo]))
        until = np.concatenate((until[redo], until[redo]))
        value = np.repeat(np.array([0, 1], dtype=np.uint8), p.size // 2)
        while True:
            keep = p < until
            p, until, value = p[keep], until[keep], value[keep]
            if not p.size:
                break
            mark[p] = value
            p = p + tlen[window(p)]

        sp.count("segments", K)
        sp.count("entry_walker_steps", steps)
        positions = np.flatnonzero(mark[:T] == 1)
        del mark
        if positions.size < n_symbols:
            raise DecompressionError("Huffman stream exhausted before n_symbols")
        positions = positions[:n_symbols]
        sym_idx = self._table_sym[window(positions)]
        end = int(positions[-1]) + int(self.lengths[sym_idx[-1]])
        if end > T:
            raise DecompressionError("Huffman stream overruns declared bit count")
        return self.symbols[sym_idx]

    def decode_sequential(
        self, payload: bytes, n_symbols: int, total_bits: int
    ) -> np.ndarray:
        """Literal per-symbol canonical decoder (oracle / fallback)."""
        buf = np.frombuffer(payload, dtype=np.uint8)
        if buf.size * 8 < total_bits:
            raise DecompressionError("Huffman payload shorter than declared")
        bits = np.unpackbits(buf)[:total_bits]
        # Canonical decode needs, per length l: the first code value and
        # the rank offset of the first symbol of that length.
        order = np.lexsort((np.arange(self.symbols.size), self.lengths))
        sym_by_rank = self.symbols[order]
        len_by_rank = self.lengths[order]
        first_code = {}
        first_rank = {}
        for rank in range(order.size):
            ln = int(len_by_rank[rank])
            if ln not in first_code:
                first_code[ln] = int(self.codes[order[rank]])
                first_rank[ln] = rank
        count_by_len = {
            ln: int(np.sum(len_by_rank == ln)) for ln in set(len_by_rank.tolist())
        }
        out = np.empty(n_symbols, dtype=np.int64)
        acc = 0
        ln = 0
        pos = 0
        emitted = 0
        while emitted < n_symbols:
            if pos >= total_bits:
                raise DecompressionError("Huffman stream exhausted")
            acc = (acc << 1) | int(bits[pos])
            pos += 1
            ln += 1
            if ln in first_code and 0 <= acc - first_code[ln] < count_by_len[ln]:
                out[emitted] = sym_by_rank[first_rank[ln] + acc - first_code[ln]]
                emitted += 1
                acc = 0
                ln = 0
            elif ln > self.max_length:
                raise DecompressionError("invalid Huffman code in stream")
        return out

    # -- serialization -------------------------------------------------

    def table_bytes(self) -> bytes:
        """Serialize the code as (n, symbols[int64], lengths[uint8]).

        Canonical codes are reconstructible from lengths alone.
        """
        n = np.array([self.symbols.size], dtype=np.int64)
        return (
            n.tobytes()
            + self.symbols.tobytes()
            + self.lengths.astype(np.uint8).tobytes()
        )

    @classmethod
    def from_table_bytes(cls, blob: bytes) -> "CanonicalHuffman":
        """Inverse of :meth:`table_bytes`."""
        if len(blob) < 8:
            raise DecompressionError("Huffman table blob truncated")
        n = int(np.frombuffer(blob[:8], dtype=np.int64)[0])
        need = 8 + 8 * n + n
        if n <= 0 or len(blob) < need:
            raise DecompressionError("Huffman table blob malformed")
        symbols = np.frombuffer(blob[8 : 8 + 8 * n], dtype=np.int64)
        lengths = np.frombuffer(blob[8 + 8 * n : need], dtype=np.uint8).astype(
            np.int64
        )
        return cls(symbols, lengths)


def huffman_encode(data: np.ndarray) -> Tuple[bytes, int, "CanonicalHuffman"]:
    """One-shot helper: build a code from ``data`` and encode it."""
    code = CanonicalHuffman.from_data(data)
    payload, total_bits = code.encode(data)
    return payload, total_bits, code


def huffman_decode(
    payload: bytes, n_symbols: int, total_bits: int, code: "CanonicalHuffman"
) -> np.ndarray:
    """One-shot helper mirroring :func:`huffman_encode`."""
    return code.decode(payload, n_symbols, total_bits)
