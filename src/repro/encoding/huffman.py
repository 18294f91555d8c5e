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
* vectorized decoding: *speculative decode + pointer-doubling list
  ranking*.  A symbol is decoded at **every** bit offset with one table
  gather, giving a successor array ``nxt[pos] = pos + len(symbol at
  pos)``; the true symbol boundaries are the chain of ``nxt`` starting
  at bit 0, which is materialised in ``O(log n)`` vectorized passes by
  pointer doubling (``A_{k+1} = A_k ++ nxt^{|A_k|}[A_k]``).  The
  ``max_length``-bit window at every offset comes from one big-endian
  32-bit read per payload byte, shifted by the offset within the byte.
  This turns an inherently sequential decoder into whole-array NumPy
  work, per the HPC-Python guidance to keep Python loops out of
  per-element paths; pointer doubling is its dominant cost.

A literal sequential decoder (:meth:`CanonicalHuffman.decode_sequential`)
is kept both as a fallback for pathological alphabets whose codes cannot
be length-limited to the table width and as an oracle in tests.
"""

from __future__ import annotations

import heapq
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
        """Build the flat ``2**max_length`` lookup table (lazily)."""
        if self._table_sym is not None:
            return
        bits = self.max_length
        size = 1 << bits
        fill = (1 << (bits - self.lengths)).astype(np.int64)
        starts = (self.codes << (bits - self.lengths).astype(np.uint64)).astype(
            np.int64
        )
        total = int(fill.sum())
        # Vectorized table fill: every code owns a contiguous entry run.
        reps_idx = np.repeat(np.arange(self.symbols.size), fill)
        run_starts = np.repeat(starts, fill)
        offs = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(fill)[:-1])), fill
        )
        positions = run_starts + offs
        table_sym = np.zeros(size, dtype=np.int32)
        # Unused entries (incomplete code) get length 1 so the successor
        # array stays monotonic; valid streams never reach them.
        table_len = np.ones(size, dtype=np.uint8)
        table_sym[positions] = reps_idx
        table_len[positions] = self.lengths[reps_idx]
        self._table_sym = table_sym
        self._table_len = table_len

    def decode(self, payload: bytes, n_symbols: int, total_bits: int) -> np.ndarray:
        """Decode ``n_symbols`` symbols from ``payload``.

        Uses the vectorized speculative/pointer-doubling decoder when
        the maximum code length permits a flat table, else the
        sequential decoder.  The declared sizes are checked against the
        payload before either decoder allocates anything: every code is
        at least one bit long, so ``n_symbols <= total_bits <=
        8 * len(payload)`` holds for every valid stream.
        """
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
        if self.max_length > MAX_TABLE_BITS:
            return self.decode_sequential(payload, n_symbols, total_bits)
        return self._decode_vectorized(payload, n_symbols, total_bits)

    def _decode_vectorized(
        self, payload: bytes, n_symbols: int, total_bits: int
    ) -> np.ndarray:
        self._build_table()
        L = self.max_length
        # Bits past total_bits read as zero, whatever the payload holds.
        n_bytes = (total_bits + 7) >> 3
        buf = np.zeros(n_bytes + 3, dtype=np.uint32)
        buf[:n_bytes] = np.frombuffer(payload, dtype=np.uint8, count=n_bytes)
        if total_bits & 7:
            buf[n_bytes - 1] &= (0xFF << (8 - (total_bits & 7))) & 0xFF
        # Window value at every bit offset, w[p] = the L bits from p on:
        # a big-endian uint32 starting at byte p >> 3 holds them all
        # (L <= 18 and p & 7 <= 7), shifted right by 32 - L - (p & 7).
        u32 = (buf[:-3] << 24) | (buf[1:-2] << 16) | (buf[2:-1] << 8) | buf[3:]
        shifts = (32 - L - np.arange(8)).astype(np.uint32)
        mask = np.uint32((1 << L) - 1)
        w = ((u32[:, None] >> shifts) & mask).ravel()[:total_bits]
        # Speculative decode at every offset -> successor array with a
        # self-looping sentinel at index total_bits.
        index = np.int32 if total_bits + L < 2**31 else np.int64
        nxt = np.arange(total_bits + 1, dtype=index)
        nxt[:-1] += self._table_len[w]
        np.minimum(nxt, total_bits, out=nxt)
        # Pointer-doubling list ranking: materialise the first
        # n_symbols positions of the chain starting at 0.
        positions = np.empty(n_symbols, dtype=index)
        positions[0] = 0
        filled = 1
        jump = nxt  # jumps exactly `filled` symbols when applied
        while filled < n_symbols:
            take = min(filled, n_symbols - filled)
            positions[filled : filled + take] = jump[positions[:take]]
            filled += take
            if filled < n_symbols:
                jump = jump[jump]
        if positions[-1] >= total_bits:
            raise DecompressionError("Huffman stream exhausted before n_symbols")
        sym_idx = self._table_sym[w[positions]]
        end = int(positions[-1] + self.lengths[sym_idx[-1]])
        if end > total_bits:
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
