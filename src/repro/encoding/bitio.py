"""Vectorized variable-length bit packing and a small sequential bit I/O.

The hot path is :func:`pack_aligned`: given per-symbol codes stored
left-aligned in 64-bit words, with their lengths, it produces the
concatenated MSB-first bit stream.  It works on 64-bit words rather
than bits: the exclusive prefix sum of the lengths gives every code's
bit offset, each code is shifted into place inside the word it starts
in, one ``bitwise_or.reduceat`` per word merges the codes that start
there, and the few codes that cross a word boundary are OR-ed into the
next word.  The cost is a constant number of whole-array passes, with
no Python loop over symbols or bit positions.  :func:`pack_codes` is
the same packer for codes held in their low bits.

:class:`BitWriter` / :class:`BitReader` are deliberately simple
sequential implementations used for small headers and as an oracle in
tests of the vectorized path.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = ["pack_aligned", "pack_codes", "unpack_bits", "BitWriter", "BitReader"]


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> Tuple[bytes, int]:
    """Pack variable-length codes into a contiguous MSB-first bit stream.

    Parameters
    ----------
    codes:
        Unsigned integer array; the low ``lengths[i]`` bits of
        ``codes[i]`` are emitted MSB first.
    lengths:
        Bit length of each code, ``1 <= lengths[i] <= 57``.

    Returns
    -------
    (payload, total_bits):
        ``payload`` is the packed byte string (zero-padded to a byte
        boundary); ``total_bits`` the exact number of meaningful bits.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape or codes.ndim != 1:
        raise ParameterError("codes and lengths must be equal-length 1-D arrays")
    if codes.size == 0:
        return b"", 0
    if lengths.min() < 1 or lengths.max() > 57:
        raise ParameterError("code lengths must be in [1, 57]")
    # Left-align each code in a 64-bit word, dropping bits above its
    # length.
    return pack_aligned(codes << (np.uint64(64) - lengths.view(np.uint64)), lengths)


def pack_aligned(aligned: np.ndarray, lengths: np.ndarray) -> Tuple[bytes, int]:
    """:func:`pack_codes` for codes already left-aligned in their words.

    ``aligned[i]`` holds its ``lengths[i]`` code bits at the top of a
    uint64 and zeros below them; ``lengths`` is a non-empty uint8 or
    int64 array of values in ``[1, 57]``.  Neither is checked, and
    ``aligned`` is overwritten.
    """
    # Exclusive prefix sum of the lengths: each code's bit offset, of
    # which only the offset inside its word is kept.
    bit = np.cumsum(lengths, dtype=np.int64)
    total_bits = int(bit[-1])
    bit -= lengths
    bit = np.bitwise_and(bit, 63, out=bit).view(np.uint64)
    # A code is shorter than a word, so every word up to the last
    # code's holds the start of at least one code, and a code starts a
    # word exactly where the in-word offset falls.  One OR-reduction
    # over each word's run of codes (which occupy disjoint bits)
    # assembles the word.  Only the last code of a word can spill into
    # the next one, and then its bit offset is >= 8, so the shift below
    # stays in [1, 56].
    starts = np.empty(aligned.size, dtype=bool)
    starts[0] = True
    np.less(bit[1:], bit[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    last = np.append(first[1:], aligned.size) - 1
    k = np.flatnonzero(bit[last] + lengths[last] > 64)
    spill = last[k]
    spilled = aligned[spill] << (np.uint64(64) - bit[spill])
    # Move each code to its bit offset inside the word it starts in.
    np.right_shift(aligned, bit, out=aligned)
    words = np.zeros((total_bits + 63) >> 6, dtype=np.uint64)
    words[: first.size] = np.bitwise_or.reduceat(aligned, first)
    words[k + 1] |= spilled
    payload = words.astype(">u8").view(np.uint8)[: (total_bits + 7) >> 3]
    return payload.tobytes(), total_bits


def unpack_bits(payload: bytes, total_bits: int) -> np.ndarray:
    """Inverse of the packing step: return the first ``total_bits`` bits
    of ``payload`` as a uint8 array of 0/1 values."""
    if total_bits < 0:
        raise ParameterError("total_bits must be non-negative")
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    buf = np.frombuffer(payload, dtype=np.uint8)
    if buf.size * 8 < total_bits:
        raise ParameterError(
            f"payload of {buf.size} bytes cannot hold {total_bits} bits"
        )
    return np.unpackbits(buf)[:total_bits]


class BitWriter:
    """Sequential MSB-first bit writer (headers, tests, reference path)."""

    def __init__(self) -> None:
        self._bits: list = []

    def write(self, value: int, n_bits: int) -> None:
        """Append the low ``n_bits`` bits of ``value``, MSB first."""
        if n_bits < 0 or n_bits > 64:
            raise ParameterError("n_bits must be in [0, 64]")
        if value < 0 or (n_bits < 64 and value >> n_bits):
            raise ParameterError(f"value {value} does not fit in {n_bits} bits")
        for j in range(n_bits - 1, -1, -1):
            self._bits.append((value >> j) & 1)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._bits)

    def getvalue(self) -> bytes:
        """Return the packed bytes (zero-padded to a byte boundary)."""
        if not self._bits:
            return b""
        return np.packbits(np.asarray(self._bits, dtype=np.uint8)).tobytes()


class BitReader:
    """Sequential MSB-first bit reader matching :class:`BitWriter`."""

    def __init__(self, payload: bytes, total_bits: int | None = None) -> None:
        buf = np.frombuffer(payload, dtype=np.uint8)
        self._bits = np.unpackbits(buf)
        if total_bits is not None:
            if total_bits > self._bits.size:
                raise ParameterError("total_bits exceeds payload size")
            self._bits = self._bits[:total_bits]
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return int(self._bits.size - self._pos)

    def read(self, n_bits: int) -> int:
        """Read ``n_bits`` bits MSB-first and return them as an int."""
        if n_bits < 0:
            raise ParameterError("n_bits must be non-negative")
        if self._pos + n_bits > self._bits.size:
            raise ParameterError("bit stream exhausted")
        value = 0
        for j in range(n_bits):
            value = (value << 1) | int(self._bits[self._pos + j])
        self._pos += n_bits
        return value
