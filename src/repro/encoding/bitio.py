"""Vectorized variable-length bit packing and a small sequential bit I/O.

The hot path is :func:`pack_codes`: given per-symbol (code, length)
pairs it produces the concatenated MSB-first bit stream.  It works on
64-bit words rather than bits: the exclusive prefix sum of the lengths
gives every code's bit offset, each code is shifted into place inside
the word it starts in, one ``bitwise_or.reduceat`` per word merges the
codes that start there, and the few codes that cross a word boundary
are OR-ed into the next word.  The cost is a constant number of
whole-array passes, with no Python loop over symbols or bit positions.

:class:`BitWriter` / :class:`BitReader` are deliberately simple
sequential implementations used for small headers and as an oracle in
tests of the vectorized path.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = ["pack_codes", "unpack_bits", "BitWriter", "BitReader"]


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

    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    offsets = ends - lengths
    bit = (offsets & 63).view(np.uint64)
    # Left-align each code in a 64-bit word (dropping bits above its
    # length), then move it to its bit offset inside the word it starts
    # in.  A code is shorter than a word, so every word up to the last
    # code's holds the start of at least one code: ``first[k]`` is the
    # first code starting in word k, and one OR-reduction over each run
    # of codes (which occupy disjoint bits) assembles word k.
    aligned = codes << (np.uint64(64) - lengths.view(np.uint64))
    first = np.searchsorted(offsets, np.arange(0, int(offsets[-1]) + 1, 64))
    words = np.zeros((total_bits + 63) >> 6, dtype=np.uint64)
    words[: first.size] = np.bitwise_or.reduceat(aligned >> bit, first)
    # Only the last code of word k can spill into word k + 1, and then
    # its bit offset is >= 8, so the shift below stays in [1, 56].
    last = np.append(first[1:], codes.size) - 1
    k = np.flatnonzero(ends[last] > np.arange(1, first.size + 1) * 64)
    spill = last[k]
    words[k + 1] |= aligned[spill] << (np.uint64(64) - bit[spill])
    return words.astype(">u8").tobytes()[: (total_bits + 7) >> 3], total_bits


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
