"""Unit and property tests for repro.encoding.bitio."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.bitio import BitReader, BitWriter, pack_codes, unpack_bits
from repro.errors import ParameterError


class TestPackCodes:
    def test_empty(self):
        payload, bits = pack_codes(np.zeros(0, np.uint64), np.zeros(0, np.int64))
        assert payload == b"" and bits == 0

    def test_single_byte_exact(self):
        # 0b101 followed by 0b01101: 10101101 = 0xAD
        payload, bits = pack_codes(np.array([0b101, 0b01101]), np.array([3, 5]))
        assert bits == 8
        assert payload == bytes([0xAD])

    def test_padding_is_zero(self):
        payload, bits = pack_codes(np.array([0b1]), np.array([1]))
        assert bits == 1
        assert payload == bytes([0b10000000])

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ParameterError):
            pack_codes(np.array([1, 2]), np.array([1]))

    def test_bad_length_raises(self):
        with pytest.raises(ParameterError):
            pack_codes(np.array([1]), np.array([0]))
        with pytest.raises(ParameterError):
            pack_codes(np.array([1]), np.array([58]))

    def test_matches_sequential_writer(self, rng):
        lengths = rng.integers(1, 58, size=400)
        codes = np.array(
            [int(rng.integers(0, 1 << int(ln))) for ln in lengths], dtype=np.uint64
        )
        offsets = np.cumsum(lengths) - lengths
        assert ((offsets % 64) + lengths > 64).sum() > 10  # word-straddling codes
        payload, bits = pack_codes(codes, lengths)
        w = BitWriter()
        for c, ln in zip(codes, lengths):
            w.write(int(c), int(ln))
        assert payload == w.getvalue()
        assert bits == w.bit_length


class TestUnpackBits:
    def test_roundtrip(self):
        payload, bits = pack_codes(np.array([0b1011]), np.array([4]))
        assert unpack_bits(payload, bits).tolist() == [1, 0, 1, 1]

    def test_zero_bits(self):
        assert unpack_bits(b"", 0).size == 0

    def test_too_short_raises(self):
        with pytest.raises(ParameterError):
            unpack_bits(b"\x00", 9)

    def test_negative_raises(self):
        with pytest.raises(ParameterError):
            unpack_bits(b"", -1)


class TestBitWriterReader:
    def test_roundtrip_sequence(self):
        w = BitWriter()
        values = [(5, 3), (0, 1), (1023, 10), (1, 1), ((1 << 32) - 1, 32)]
        for v, n in values:
            w.write(v, n)
        r = BitReader(w.getvalue(), w.bit_length)
        for v, n in values:
            assert r.read(n) == v
        assert r.remaining == 0

    def test_overflow_value_raises(self):
        w = BitWriter()
        with pytest.raises(ParameterError):
            w.write(8, 3)

    def test_read_past_end_raises(self):
        r = BitReader(b"\xff", 4)
        r.read(4)
        with pytest.raises(ParameterError):
            r.read(1)

    def test_total_bits_exceeding_payload_raises(self):
        with pytest.raises(ParameterError):
            BitReader(b"\xff", 9)


@st.composite
def _codes_and_lengths(draw):
    lengths = draw(st.lists(st.integers(1, 57), min_size=1, max_size=300))
    codes = [draw(st.integers(0, (1 << ln) - 1)) for ln in lengths]
    return lengths, codes


@settings(max_examples=60, deadline=None)
@given(_codes_and_lengths())
def test_pack_unpack_roundtrip_property(args):
    """Packing then unpacking reproduces every code bit-exactly, and the
    packed bytes equal the sequential writer's."""
    lengths, codes = args
    w = BitWriter()
    for c, ln in zip(codes, lengths):
        w.write(c, ln)
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.uint64)
    payload, total = pack_codes(codes, lengths)
    assert payload == w.getvalue() and total == w.bit_length
    bits = unpack_bits(payload, total)
    pos = 0
    for c, ln in zip(codes, lengths):
        val = 0
        for j in range(ln):
            val = (val << 1) | int(bits[pos + j])
        assert val == int(c)
        pos += ln
    assert pos == total
