"""Robustness: malformed inputs must raise ReproError, never crash.

Fuzz-style property tests over the container parser, the archive
parser, and the generic decompressor: arbitrary bytes, random
truncations and single-byte corruptions of valid containers, plus
well-formed containers whose metadata declares hostile sizes, shapes
or dtypes.
"""

import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.errors import DecompressionError, ErrorCode, FormatError, ReproError
from repro.io.archive import read_archive_field, read_archive_index, write_archive
from repro.io.container import Container
from repro.parallel.chunking import decompress_chunked
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


#: The Huffman tail's keys, read by every quantization decoder.
_TAIL = "n_escapes escape_symbol total_bits"

#: Every header key each decoder reads besides dtype and shape: the
#: keys a container must have, then the keys it may lack (older
#: containers, constant fields, fields without fill points).
_READ_KEYS = {
    "sz": (f"lossless mode eb_abs anchor predictor {_TAIL}",
           "entropy constant fill_value"),
    "transform": (f"lossless eb_abs center block_size n_codes {_TAIL}",
                  "transform constant"),
    "regression": (f"lossless eb_abs block_size n_codes n_blocks {_TAIL}",
                   "constant"),
    "hybrid": ("lossless eb_abs anchor block_size n_codes n_blocks "
               f"n_regression {_TAIL}", "constant"),
    "interp": (f"lossless eb_abs anchor interpolator n_codes {_TAIL}",
               "constant"),
    "legacy": (f"lossless eb_abs anchor n_codes n_segments {_TAIL}",
               "constant"),
    "temporal": (f"lossless step keyframe eb_abs anchor {_TAIL}", "order"),
    "embedded": ("lossless center scale block_size n_planes_total n_coeffs "
                 "n_streams", "constant"),
    "chunked": ("dtype shape n_chunks chunk_rows", ""),
}


def _keyed_container(codec, key):
    """A well-formed ``codec`` container whose header has ``key``."""
    rng = np.random.default_rng(4)
    x = np.cumsum(rng.normal(size=(16, 16)), axis=0)
    if key == "constant":
        x = np.full((16, 16), 2.5)
    if codec == "chunked":
        blob = compress(x, 1e-3, n_chunks=2)
    elif key == "fill_value":
        x[::5, ::3] = -999.0
        blob = compress(x, 1e-3, fill_value=-999.0)
    else:
        blob = _header_codecs()[codec][0](x)
    c = Container.from_bytes(blob)
    assert key in c.meta
    return c


@pytest.mark.parametrize(
    "codec, key, fault",
    [
        (codec, key, fault)
        for codec, (required, optional) in _READ_KEYS.items()
        for key, faults in [(k, ("missing", "malformed")) for k in required.split()]
        + [(k, ("malformed",)) for k in optional.split()]
        for fault in faults
    ],
)
def test_every_header_key_fault_is_bad_meta(codec, key, fault):
    """A header key a decoder reads that is missing, or holds a value
    of the wrong kind, ends in FormatError(BAD_META) for every codec
    (each codec's own key read used to raise with no code)."""
    c = _keyed_container(codec, key)
    meta = {k: v for k, v in c.meta.items() if k != key}
    if fault == "malformed":
        meta[key] = "zz"
    blob = Container(c.codec, meta, c.streams).to_bytes()
    decompress_fn = (
        _header_codecs()[codec][1] if codec in _header_codecs() else decompress
    )
    with pytest.raises(FormatError) as info:
        decompress_fn(blob)
    assert info.value.code == ErrorCode.BAD_META


@pytest.mark.parametrize(
    "codec, key, value",
    [("sz", "predictor", 99), ("sz", "lossless", 99), ("sz", "entropy", 9),
     ("temporal", "order", 5), ("interp", "interpolator", 7),
     ("transform", "transform", 7)],
)
def test_unknown_id_is_bad_meta(codec, key, value):
    """An id no compression writes is a header-key fault too (an unknown
    predictor id used to raise ParameterError, the others no code; an
    unknown interpolator decoded as linear, an unknown transform as
    DCT)."""
    c = _keyed_container(codec, key)
    blob = Container(c.codec, {**c.meta, key: value}, c.streams).to_bytes()
    with pytest.raises(FormatError) as info:
        _header_codecs()[codec][1](blob)
    assert info.value.code == ErrorCode.BAD_META


@pytest.mark.parametrize(
    "written, mode",
    [("pw_rel", None), ("pw_rel", "abs"), ("abs", "pw_rel")],
    ids=["pw_rel-mode-removed", "pw_rel-as-abs", "abs-as-pw_rel"],
)
def test_mode_must_agree_with_the_signs_stream(written, mode):
    """An sz container has a ``signs`` stream exactly when its mode is
    ``pw_rel``; a pointwise-relative container whose mode was removed
    or rewritten used to decode without its signs, to wrong values."""
    x = np.cumsum(np.random.default_rng(4).normal(size=(16, 16)), axis=0)
    bound = 1e-2 if written == "pw_rel" else 1e-3
    c = Container.from_bytes(compress(x, bound, mode=written))
    meta = {k: v for k, v in c.meta.items() if k != "mode"}
    if mode is not None:
        meta["mode"] = mode
    blob = Container(c.codec, meta, c.streams).to_bytes()
    with pytest.raises(FormatError) as info:
        decompress(blob)
    assert info.value.code == ErrorCode.BAD_META


@pytest.mark.parametrize("rows", [[8, 7], [8, 8, 0], [16]])
def test_chunk_geometry_off_the_shape_is_bad_meta(rows):
    c = _keyed_container("chunked", "chunk_rows")
    blob = Container(c.codec, {**c.meta, "chunk_rows": rows}, c.streams)
    with pytest.raises(FormatError) as info:
        decompress(blob.to_bytes())
    assert info.value.code == ErrorCode.BAD_META


@pytest.mark.parametrize("path", ["inline", "pool", "executor"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("shape", [97, 60]),
        ("shape", [97, 53, 2]),
        ("dtype", "float64"),
        ("shape", [97, 2**50]),
        ("shape", [97, 2**56]),
    ],
    ids=["wider", "deeper", "dtype", "unallocatable", "overflowing"],
)
def test_chunked_header_that_disagrees_with_its_slabs_is_bad_meta(
    key, value, path
):
    """The outer header sizes the output, and each slab must fill its
    rows exactly; a header the slabs contradict, or whose size no array
    can have, is a header fault on every path (the first three used to
    decode silently to the slabs' own 97x53 float32 array)."""
    from repro.parallel.executor import Executor

    x = np.cumsum(np.random.default_rng(5).normal(size=(97, 53)), axis=0)
    c = Container.from_bytes(compress(x.astype(np.float32), 1e-3, n_chunks=4))
    blob = Container(c.codec, {**c.meta, key: value}, c.streams).to_bytes()
    with pytest.raises(FormatError) as info:
        if path == "executor":
            with Executor(n_workers=2) as ex:
                decompress_chunked(blob, executor=ex)
        else:
            decompress(blob, n_workers=2 if path == "pool" else 0)
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


@pytest.fixture(scope="module")
def zlib_bomb():
    """A ~64 KB zlib stream of 64 MiB of zeros, deflated 1 MiB at a
    time so that making it needs no 64 MiB buffer."""
    deflater = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    return b"".join([deflater.compress(chunk) for _ in range(64)]
                    + [deflater.flush()])


#: sz options that make a container carry each bombed stream.
_BOMB_OPTIONS = {
    "table": {},
    "payload": {},
    "escapes": {},
    "signs": {"mode": "pw_rel"},
    "fillmask": {"fill_value": -999.0},
}

#: (codec, stream) pairs of the other codecs' side streams.
_SIDE_STREAMS = [
    ("hybrid", "selector"),
    ("hybrid", "coeffs"),
    ("regression", "coeffs"),
    ("legacy", "flags"),
    ("embedded", "plane0"),
    ("embedded", "plane1"),
]


def _bomb_target(codec, stream):
    """A well-formed ``codec`` container that carries ``stream``."""
    rng = np.random.default_rng(4)
    if codec == "sz":
        x = np.cumsum(rng.normal(size=(16, 16)), axis=0)
        x[::5, ::3] = -999.0  # fill points; only the fillmask case masks them
        c = Container.from_bytes(
            compress(x, 1e-3, quantization_radius=3, **_BOMB_OPTIONS[stream])
        )
        assert c.meta["n_escapes"] > 0
        return c
    if codec == "hybrid":
        # 3-D white noise: Lorenzo's stencil amplifies it, so every
        # block picks regression and the container has coefficients.
        x = rng.normal(size=(16, 16, 16))
    else:
        x = np.cumsum(rng.normal(size=(16, 16)), axis=0)
    return Container.from_bytes(_header_codecs()[codec][0](x))


@pytest.mark.parametrize(
    "codec, stream",
    [("sz", stream) for stream in _BOMB_OPTIONS] + _SIDE_STREAMS,
    ids=list(_BOMB_OPTIONS) + [f"{c}-{s}" for c, s in _SIDE_STREAMS],
)
def test_zlib_bomb_is_a_bounded_decompression_error(zlib_bomb, codec, stream):
    """A bomb in any Huffman-tail or side stream of a well-formed
    container ends in DecompressionError without being inflated (all
    64 MiB used to be; a payload bomb even decoded, because the bytes
    past ``total_bits`` were ignored, and so did a bomb in a fill mask,
    selector, flag or bit-plane stream, because the bits past the
    count the header declares were)."""
    c = _bomb_target(codec, stream)
    assert stream in dict(c.streams)
    streams = [
        (name, zlib_bomb if name == stream else payload)
        for name, payload in c.streams
    ]
    blob = Container(c.codec, c.meta, streams).to_bytes()
    tracemalloc.start()
    try:
        with pytest.raises(DecompressionError):
            decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "count, stream", [("total_bits", "payload"), ("n_escapes", "escapes")]
)
def test_bomb_behind_a_hostile_count_is_bounded(zlib_bomb, count, stream):
    """A Huffman-tail stream is inflated only up to what the decoded
    symbols allow, whatever count the header declares: 2**40 payload
    bits for 256 points, or 2**30 escapes, over a bomb, end in
    DecompressionError under the same memory bound (the declared count
    used to set the cap, so all 64 MiB were inflated)."""
    c = _bomb_target("sz", stream)
    hostile = {count: 2**30 if count == "n_escapes" else 2**40}
    streams = [
        (name, zlib_bomb if name == stream else payload)
        for name, payload in c.streams
    ]
    blob = Container(c.codec, {**c.meta, **hostile}, streams).to_bytes()
    tracemalloc.start()
    try:
        with pytest.raises(DecompressionError):
            decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _rans_payload(name, count=None, lengths=None):
    """A frozen rANS container (``tests/golden/rans/``) whose payload
    declares another symbol count or other lane lengths."""
    path = Path(__file__).parent / "golden" / "rans" / f"{name}.fpz"
    c = Container.from_bytes(path.read_bytes())
    payload = bytearray(c.stream("payload"))
    lanes = struct.unpack_from("<I", payload, 12)[0]
    if count is not None:
        struct.pack_into("<Q", payload, 4, count)
    if lengths is not None:
        old = list(struct.unpack_from(f"<{lanes}I", payload, 16 + 4 * lanes))
        struct.pack_into(f"<{lanes}I", payload, 16 + 4 * lanes, *lengths(old))
    streams = [
        (key, bytes(payload) if key == "payload" else value)
        for key, value in c.streams
    ]
    return Container(c.codec, c.meta, streams).to_bytes()


@pytest.mark.parametrize(
    "name, hostile",
    [
        ("sz_rel_rans", dict(count=20_000_000)),
        ("sz_rel_rans", dict(lengths=lambda old: [10_000_000])),
        (
            "sz_rel_lanes256",
            dict(lengths=lambda old: [sum(old)] + [0] * (len(old) - 1)),
        ),
    ],
    ids=["symbol-count", "lane-length", "one-lane-holds-all"],
)
def test_rans_payload_its_container_contradicts_is_bounded(name, hostile):
    """The rANS reader takes the symbol count from the container and
    checks the payload against it before allocating: a payload declaring
    2*10**7 symbols for 768 points, a lane 10**7 bytes long in a
    1.8 KB payload, or every byte dealt to one of 256 lanes ends in
    DecompressionError within 16 MiB (they reached 343.5, 76.4 and
    41.7 MiB when the decoder sized its buffers from the payload's own
    counts)."""
    blob = _rans_payload(name, **hostile)
    tracemalloc.start()
    try:
        with pytest.raises(DecompressionError):
            decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "codec, count",
    [
        ("hybrid", "n_blocks"),
        ("hybrid", "n_codes"),
        ("regression", "n_blocks"),
        ("regression", "n_codes"),
        ("legacy", "n_segments"),
        ("legacy", "n_codes"),
        ("embedded", "n_coeffs"),
    ],
)
@pytest.mark.parametrize("delta", [-1, 1])
def test_count_that_disagrees_with_the_shape_is_bad_meta(codec, count, delta):
    """The counts that size a codec's side streams must be the ones its
    shape implies; one more or one less is FormatError(BAD_META) before
    any stream is inflated."""
    c = _bomb_target(codec, None)
    blob = Container(
        c.codec, {**c.meta, count: c.meta[count] + delta}, c.streams
    ).to_bytes()
    with pytest.raises(FormatError) as info:
        decompress(blob)
    assert info.value.code == ErrorCode.BAD_META


def test_huffman_table_longer_than_the_encoder_writes_is_rejected(monkeypatch):
    """A table with a code longer than MAX_TABLE_BITS ends in
    DecompressionError before the payload is inflated.  Here a 19-bit
    code beside a 1-bit one over 2**20 zero bits used to go through the
    per-bit sequential decoder (~1.5 s), whose time grows with the
    declared shape."""
    from repro.encoding.huffman import MAX_TABLE_BITS, CanonicalHuffman

    n = 1024 * 1024
    table = CanonicalHuffman(np.array([0, 1]), np.array([1, MAX_TABLE_BITS + 1]))
    c = Container.from_bytes(compress(np.zeros((4, 4)) + np.arange(4), 1e-3))
    meta = {**c.meta, "shape": [1024, 1024], "total_bits": n, "n_escapes": 0}
    streams = [
        ("table", zlib.compress(table.table_bytes())),
        ("payload", zlib.compress(bytes(n // 8), 9)),
    ]
    blob = Container(c.codec, meta, streams).to_bytes()
    assert len(blob) < 1024

    def sequential(*args):
        raise AssertionError("the per-bit decoder ran on a container")

    monkeypatch.setattr(CanonicalHuffman, "decode_sequential", sequential)
    with pytest.raises(DecompressionError):
        decompress(blob)


@pytest.mark.parametrize("cut", [1, 8])
def test_truncated_zlib_stream_is_a_decompression_error(cut):
    x = np.cumsum(np.random.default_rng(4).normal(size=(16, 16)), axis=0)
    c = Container.from_bytes(compress(x, 1e-3))
    streams = [
        (name, payload[:-cut] if name == "payload" else payload)
        for name, payload in c.streams
    ]
    blob = Container(c.codec, c.meta, streams).to_bytes()
    with pytest.raises(DecompressionError):
        decompress(blob)


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
