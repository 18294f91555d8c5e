"""Interleaved range-ANS (rANS) decoder: the reader of sz containers
whose entropy id is 1.

Earlier builds could write the sz codec's codes with a static-model
rANS coder in place of Huffman.  On the paper's fields it wrote more
bytes than Huffman + GZIP and ran several times slower, so nothing
writes it any more; this module keeps the decoder so that those
containers stay readable (``tests/golden/rans/``).

The coder has **N interleaved states**: lane *i* holds symbols ``i,
i+N, i+2N, ...``, so each decoding step advances all lanes at once with
whole-array NumPy operations, and the Python-level loop runs ``ceil(n /
N)`` times (at most N = 256 lanes), not ``n`` times.  Each step is the
textbook recurrence

    ``s = table[x & MASK]; x = f * (x >> SCALE_BITS) + (x & MASK) - c``

(f: the symbol's frequency, c: their cumulative sum), with byte
renormalisation keeping ``x`` in ``[L, 256*L)``.

A payload is ``RANS``, the symbol count (uint64) and the lane count
(uint32), then each lane's final state and each lane's byte length
(uint32 apiece), then each lane's bytes in the order they are read.  A
model table is the alphabet size (int64), the symbols (int64) and
their frequencies (uint16), which sum to ``2**SCALE_BITS``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import DecompressionError, ParameterError

__all__ = ["RansCoder"]

#: Probability resolution: frequencies sum to 2**SCALE_BITS.
SCALE_BITS = 14
TOTAL = 1 << SCALE_BITS
MASK = TOTAL - 1
#: Lower bound of the state interval [L, 256L).
L = np.uint64(1 << 23)
#: The most interleaved lanes a payload holds.
N_LANES = 256

_MAGIC = b"RANS"


class RansCoder:
    """A static-model rANS decoder over an int64 alphabet."""

    def __init__(self, symbols: np.ndarray, freqs: np.ndarray) -> None:
        symbols = np.asarray(symbols, dtype=np.int64)
        freqs = np.asarray(freqs, dtype=np.int64)
        if symbols.ndim != 1 or symbols.shape != freqs.shape or symbols.size == 0:
            raise ParameterError("symbols/freqs must be matching 1-D arrays")
        if (np.diff(symbols) <= 0).any():
            raise ParameterError("symbols must be strictly increasing")
        if int(freqs.sum()) != TOTAL or (freqs < 1).any():
            raise ParameterError(f"frequencies must be >= 1 and sum to {TOTAL}")
        self.symbols = symbols
        self.freqs = freqs.astype(np.uint64)
        self.cums = np.concatenate(([0], np.cumsum(freqs)[:-1])).astype(np.uint64)
        # slot -> symbol index lookup
        self._slot_to_sym = np.repeat(
            np.arange(symbols.size, dtype=np.int64), freqs
        )

    def decode(self, payload: bytes, n: int) -> np.ndarray:
        """The ``n`` symbols of ``payload``, where ``n`` is the count
        its container declares.  A payload that holds another count, a
        lane count outside ``1..min(N_LANES, n)``, or lane lengths that
        add up to more than its remaining bytes raises
        :class:`DecompressionError` before anything is allocated."""
        if len(payload) < 16 or payload[:4] != _MAGIC:
            raise DecompressionError("not a rANS payload")
        count, lanes = struct.unpack_from("<QI", payload, 4)
        if count != n:
            raise DecompressionError(
                f"rANS payload holds {count} symbols, the container {n}"
            )
        if not 1 <= lanes <= min(N_LANES, n):
            raise DecompressionError(f"bad rANS lane count {lanes}")
        pos = 16 + 8 * lanes
        if len(payload) < pos:
            raise DecompressionError("rANS payload truncated")
        x = np.frombuffer(payload, dtype="<u4", count=lanes, offset=16).astype(
            np.uint64
        )
        lengths = np.frombuffer(
            payload, dtype="<u4", count=lanes, offset=16 + 4 * lanes
        ).astype(np.int64)
        total = int(lengths.sum())
        if total > len(payload) - pos:
            raise DecompressionError("rANS payload truncated")
        data = np.frombuffer(
            payload, dtype=np.uint8, count=total, offset=pos
        ).astype(np.uint64)
        # Each lane reads its own run of ``data``: from ``rptr`` to ``end``.
        end = np.cumsum(lengths)
        rptr = end - lengths

        steps = -(-n // lanes)
        out = np.zeros((steps, lanes), dtype=np.int64)
        valid = np.zeros((steps, lanes), dtype=bool)
        valid.ravel()[:n] = True

        eight = np.uint64(8)
        sb = np.uint64(SCALE_BITS)
        mask = np.uint64(MASK)
        lane_ids = np.arange(lanes)
        for step in range(steps):
            v = valid[step]
            slot = (x & mask).astype(np.int64)
            sym_idx = self._slot_to_sym[slot]
            out[step][v] = self.symbols[sym_idx][v]
            f = self.freqs[sym_idx]
            c = self.cums[sym_idx]
            x_new = f * (x >> sb) + (x & mask) - c
            x = np.where(v, x_new, x)
            # renormalise: pull bytes while x < L
            while True:
                need_bytes = v & (x < L)
                if not need_bytes.any():
                    break
                li = lane_ids[need_bytes]
                if (rptr[li] >= end[li]).any():
                    raise DecompressionError("rANS stream exhausted")
                x[li] = (x[li] << eight) | data[rptr[li]]
                rptr[li] += 1
        return out.ravel()[:n]

    @classmethod
    def from_table_bytes(cls, blob: bytes) -> "RansCoder":
        """The model of a serialized table."""
        if len(blob) < 8:
            raise DecompressionError("rANS table truncated")
        n = int(np.frombuffer(blob[:8], dtype=np.int64)[0])
        need = 8 + 8 * n + 2 * n
        if n <= 0 or len(blob) < need:
            raise DecompressionError("rANS table malformed")
        symbols = np.frombuffer(blob[8 : 8 + 8 * n], dtype=np.int64)
        freqs = np.frombuffer(blob[8 + 8 * n : need], dtype=np.uint16).astype(
            np.int64
        )
        return cls(symbols, freqs)
