"""The rANS reader on what earlier builds wrote with its encoder.

Nothing writes rANS (container entropy id 1) any more, so every payload
and model table here was frozen in ``tests/golden/rans/``: containers
with one lane (``sz_rel_rans``), 8 lanes (``sz_rel_lanes8``) and 256
lanes (``sz_rel_lanes256``), whose decoded arrays
``tests/test_format_stability.py`` pins, and in ``streams.npz`` the
payloads and tables of five symbol streams.  The streams must decode
back to themselves; the containers are damaged one way at a time and
must end in a typed error.
"""

import struct
from pathlib import Path

import numpy as np
import pytest

from repro.encoding.lossless import lossless_decompress
from repro.encoding.rans import N_LANES, TOTAL, RansCoder
from repro.errors import DecompressionError, FormatError, ParameterError
from repro.io.container import Container
from repro.sz.compressor import decompress

RANS = Path(__file__).parent / "golden" / "rans"

#: The streams ``streams.npz`` holds, each drawn from a fresh
#: ``default_rng(20180713)``.
STREAMS = {
    "geometric": lambda rng: rng.geometric(0.3, size=50000),
    "uniform": lambda rng: rng.integers(-100, 100, size=777),
    "constant": lambda rng: np.full(300, -5),
    "tiny-binary": lambda rng: rng.integers(0, 2, size=10),
    "single": lambda rng: np.array([7]),
}


def _parts(name):
    """``(model table bytes, payload, n)`` of a frozen container."""
    c = Container.from_bytes((RANS / f"{name}.fpz").read_bytes())
    table = lossless_decompress(c.stream("table"), "zlib")
    return table, c.stream("payload"), int(np.prod(c.meta["shape"]))


class TestRoundtrip:
    @pytest.mark.parametrize("name", list(STREAMS))
    def test_roundtrip(self, name):
        """A payload the encoder wrote decodes to its stream: 97 lanes
        whose last step is partial (geometric), a one-symbol model
        (constant) and a single symbol among them."""
        data = STREAMS[name](np.random.default_rng(20180713))
        with np.load(RANS / "streams.npz") as frozen:
            table = frozen[f"{name}.table"].tobytes()
            payload = frozen[f"{name}.payload"].tobytes()
        q = RansCoder.from_table_bytes(table).decode(payload, data.size)
        assert np.array_equal(q, data)


class TestErrors:
    def test_truncated_payload_raises(self):
        table, payload, n = _parts("sz_rel_lanes8")
        coder = RansCoder.from_table_bytes(table)
        for cut in (8, 20, len(payload) // 2, len(payload) - 1):
            with pytest.raises(DecompressionError):
                coder.decode(payload[:cut], n)

    def test_garbage_rejected(self):
        table, payload, n = _parts("sz_rel_lanes8")
        coder = RansCoder.from_table_bytes(table)
        for bad in (b"definitely not rans", b"SNAR" + payload[4:]):
            with pytest.raises(DecompressionError, match="not a rANS payload"):
                coder.decode(bad, n)

    def test_bad_model_rejected(self):
        with pytest.raises(ParameterError):
            RansCoder(np.array([1, 2]), np.array([100, 100]))  # sum != TOTAL
        with pytest.raises(ParameterError):
            RansCoder(np.array([2, 1]), np.array([TOTAL - 1, 1]))  # unsorted
        table, _, _ = _parts("sz_rel_rans")
        (size,) = struct.unpack_from("<q", table)
        freqs = bytearray(table)
        freqs[8 + 8 * size : 10 + 8 * size] = b"\x00\x00"  # one frequency 0
        with pytest.raises(ParameterError):
            RansCoder.from_table_bytes(bytes(freqs))

    def test_table_roundtrip(self):
        """The model read from a table writes back to the same bytes:
        the alphabet size, the symbols and their uint16 frequencies."""
        for name in ("sz_rel_rans", "sz_rel_lanes8", "sz_rel_lanes256"):
            table, _, _ = _parts(name)
            coder = RansCoder.from_table_bytes(table)
            assert int(coder.freqs.sum()) == TOTAL
            assert (
                np.int64(coder.symbols.size).tobytes()
                + coder.symbols.tobytes()
                + coder.freqs.astype("<u2").tobytes()
            ) == table

    def test_table_truncation_rejected(self):
        table, _, _ = _parts("sz_rel_rans")
        for cut in (0, 7, len(table) - 1):
            with pytest.raises(DecompressionError):
                RansCoder.from_table_bytes(table[:cut])


@pytest.mark.parametrize("lanes", [0, N_LANES + 1, 9])
def test_lane_count_out_of_range(lanes):
    """A lane count outside ``1..min(N_LANES, n)`` is refused: 0, more
    than any payload holds, or more lanes than symbols (the count and
    ``n`` are rewritten to 8 for the last case)."""
    table, payload, n = _parts("sz_rel_lanes8")
    if lanes == 9:
        n = 8
    bad = payload[:4] + struct.pack("<QI", n, lanes) + payload[16:]
    with pytest.raises(DecompressionError, match="lane count"):
        RansCoder.from_table_bytes(table).decode(bad, n)


@pytest.mark.parametrize("name", ["sz_rel_lanes8", "sz_rel_lanes256"])
def test_short_lane_is_exhausted(name):
    """Each lane of a multi-lane payload reads exactly the bytes its
    length declares: with one byte fewer, the last lane runs dry."""
    table, payload, n = _parts(name)
    lanes = struct.unpack_from("<I", payload, 12)[0]
    pos = 16 + 4 * lanes + 4 * (lanes - 1)
    short = bytearray(payload)
    (length,) = struct.unpack_from("<I", payload, pos)
    struct.pack_into("<I", short, pos, length - 1)
    with pytest.raises(DecompressionError, match="exhausted"):
        RansCoder.from_table_bytes(table).decode(bytes(short), n)


class TestSZIntegration:
    def test_removed_rle_coder_is_gone(self):
        """The RLE+rANS coder (container entropy id 2) was removed: a
        container naming id 2 is a FormatError."""
        c = Container.from_bytes((RANS / "sz_rel_rans.fpz").read_bytes())
        meta = {**c.meta, "entropy": 2}
        with pytest.raises(FormatError):
            decompress(Container(c.codec, meta, c.streams).to_bytes())
