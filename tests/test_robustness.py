"""Robustness: malformed inputs must raise ReproError, never crash.

Fuzz-style property tests over the container parser, the archive
parser, and the generic decompressor: arbitrary bytes, random
truncations and single-byte corruptions of valid containers, plus
well-formed containers whose metadata declares hostile sizes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.errors import DecompressionError, ReproError
from repro.io.archive import read_archive_field, read_archive_index, write_archive
from repro.io.container import Container
from repro.sz.compressor import compress, decompress


@pytest.fixture(scope="module")
def valid_blob():
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.normal(size=(30, 30)), axis=0)
    return compress(x, 1e-3)


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=400))
def test_arbitrary_bytes_never_crash(blob):
    """decompress() on garbage raises ReproError (or returns for the
    astronomically unlikely valid container), never anything else."""
    try:
        decompress(blob)
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncations_never_crash(valid_blob, data):
    cut = data.draw(st.integers(0, len(valid_blob) - 1))
    try:
        decompress(valid_blob[:cut])
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_single_byte_corruption_detected_or_bounded(valid_blob, data):
    """Flipping one byte either raises ReproError (CRC/parse) or -- if
    it lands in ignored padding -- decodes to *something*; it must not
    raise non-Repro exceptions."""
    pos = data.draw(st.integers(0, len(valid_blob) - 1))
    bit = data.draw(st.integers(0, 7))
    corrupted = bytearray(valid_blob)
    corrupted[pos] ^= 1 << bit
    try:
        decompress(bytes(corrupted))
    except ReproError:
        pass


@pytest.mark.parametrize(
    "codec, hostile",
    [
        ("sz", {"shape": [2**40]}),
        # Transform and hybrid take the symbol count from n_codes; a
        # hostile shape alone fails later, when the blocks are merged.
        ("transform", {"n_codes": 2**40}),
        ("hybrid", {"n_codes": 2**40}),
    ],
)
def test_hostile_symbol_count_fails_in_bounded_memory(codec, hostile):
    """A well-formed container declaring 2**40 symbols over a payload of
    a few kilobytes ends in DecompressionError before the Huffman
    decoder allocates for them."""
    x = np.cumsum(np.random.default_rng(3).normal(size=(32, 32)), axis=0)
    c = Container.from_bytes(FixedPSNRCompressor(60.0, codec=codec).compress(x))
    blob = Container(c.codec, {**c.meta, **hostile}, c.streams).to_bytes()
    tracemalloc.start()
    try:
        with pytest.raises(DecompressionError):
            decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_container_parser_never_crashes(blob):
    try:
        Container.from_bytes(blob)
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_archive_parser_never_crashes(blob):
    try:
        read_archive_index(blob)
    except ReproError:
        pass


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_archive_truncation_never_crashes(data):
    arc = write_archive([("f", b"0123456789abcdef")])
    cut = data.draw(st.integers(0, len(arc) - 1))
    try:
        read_archive_field(arc[:cut], "f")
    except ReproError:
        pass
