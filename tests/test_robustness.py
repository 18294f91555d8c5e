"""Robustness: malformed inputs must raise ReproError, never crash.

Fuzz-style property tests over the container parser, the archive
parser, and the generic decompressor: arbitrary bytes, random
truncations and single-byte corruptions of valid containers, plus
well-formed containers whose metadata declares hostile sizes, shapes
or dtypes.
"""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.errors import DecompressionError, ErrorCode, FormatError, ReproError
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


def _header_codecs(radius=32767):
    """``(compress, decompress)`` for every codec that reads the shared
    container header; the quantization codecs escape codes outside
    ``radius``."""
    from repro.sz.hybrid import HybridCompressor
    from repro.sz.interp import InterpolationCompressor
    from repro.sz.legacy import Sz11Compressor
    from repro.sz.regression import RegressionCompressor
    from repro.sz.temporal import TemporalCompressor, TemporalDecompressor
    from repro.transform.compressor import TransformCompressor
    from repro.transform.embedded import EmbeddedTransformCompressor

    r = {"quantization_radius": radius}
    return {
        "sz": (lambda x: compress(x, 1e-3, **r), decompress),
        "transform": (
            TransformCompressor(1e-4, mode="rel", **r).compress,
            decompress,
        ),
        "regression": (RegressionCompressor(1e-3, **r).compress, decompress),
        "hybrid": (HybridCompressor(1e-3, **r).compress, decompress),
        "interp": (InterpolationCompressor(1e-3, **r).compress, decompress),
        "legacy": (Sz11Compressor(1e-3, **r).compress, decompress),
        "temporal": (
            lambda x: TemporalCompressor(error_bound=1e-3, **r).push(x),
            lambda blob: TemporalDecompressor().push(blob),
        ),
        "embedded": (EmbeddedTransformCompressor(rate=8.0).compress, decompress),
    }


@pytest.mark.parametrize(
    "hostile",
    [
        {"shape": [-1]},
        {"shape": [0]},
        {"shape": [16.7, 16]},
        {"shape": [True, 16]},
        {"shape": []},
        {"shape": "16x16"},
        {"shape": [2**32, 2**32]},  # product overflows int64
        {"dtype": "object"},
        {"dtype": "int8"},
    ],
    ids=lambda h: repr(h).replace(" ", ""),
)
@pytest.mark.parametrize("constant", [False, True], ids=["field", "constant"])
@pytest.mark.parametrize("codec", sorted(_header_codecs()))
def test_hostile_header_metadata_is_a_format_error(codec, constant, hostile):
    """A well-formed container whose header declares a shape or dtype
    compression never writes ends in FormatError(BAD_META), for every
    codec, constant-field containers included."""
    compress_fn, decompress_fn = _header_codecs()[codec]
    if constant:
        x = np.full((16, 16), 2.5)
    else:
        x = np.cumsum(np.random.default_rng(4).normal(size=(16, 16)), axis=0)
    c = Container.from_bytes(compress_fn(x))
    blob = Container(c.codec, {**c.meta, **hostile}, c.streams).to_bytes()
    with pytest.raises(FormatError) as info:
        decompress_fn(blob)
    assert info.value.code == ErrorCode.BAD_META


@pytest.mark.parametrize("extra", [-1, 1, 8], ids=["short", "odd", "long"])
@pytest.mark.parametrize(
    "codec", sorted(set(_header_codecs()) - {"embedded"})
)
def test_escape_stream_of_wrong_length_is_a_decompression_error(codec, extra):
    """An escape stream that does not hold exactly ``n_escapes`` int64
    values ends in DecompressionError (a length that is not a multiple
    of 8 bytes used to escape as a raw ValueError)."""
    compress_fn, decompress_fn = _header_codecs(radius=3)[codec]
    x = np.cumsum(np.random.default_rng(4).normal(size=(16, 16)), axis=0)
    c = Container.from_bytes(compress_fn(x))
    escapes = zlib.decompress(c.stream("escapes"))
    resized = escapes[:extra] if extra < 0 else escapes + bytes(extra)
    streams = [
        (name, zlib.compress(resized) if name == "escapes" else payload)
        for name, payload in c.streams
    ]
    blob = Container(c.codec, c.meta, streams).to_bytes()
    with pytest.raises(DecompressionError):
        decompress_fn(blob)


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
