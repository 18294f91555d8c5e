"""On-disk / in-memory container for compressed data.

Layout (all integers little-endian)::

    magic   4 bytes  b"FPZC"
    version 1 byte
    codec   1 byte
    reserved 2 bytes
    meta_len 8 bytes, meta_crc32 4 bytes,
    then meta_len bytes of UTF-8 JSON metadata
    n_streams 4 bytes
    per stream:
        name_len 2 bytes, name (UTF-8)
        payload_len 8 bytes
        crc32 4 bytes (of the payload)
        payload

Metadata is JSON for debuggability; floating-point fields that must
round-trip **exactly** (the error bound, the lattice anchor) are stored
via ``float.hex()``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Tuple

from repro.errors import ErrorCode, FormatError, ParameterError

__all__ = [
    "Container",
    "CODEC_SZ",
    "CODEC_TRANSFORM",
    "CODEC_CHUNKED",
    "CODEC_REGRESSION",
    "CODEC_EMBEDDED",
    "CODEC_HYBRID",
    "CODEC_LEGACY",
    "CODEC_INTERP",
    "pack_exact_float",
    "unpack_exact_float",
]

MAGIC = b"FPZC"
VERSION = 1
CODEC_SZ = 1
CODEC_TRANSFORM = 2
CODEC_CHUNKED = 3
CODEC_REGRESSION = 4
CODEC_EMBEDDED = 5
CODEC_HYBRID = 6
CODEC_LEGACY = 7
CODEC_INTERP = 8
_KNOWN_CODECS = (
    CODEC_SZ,
    CODEC_TRANSFORM,
    CODEC_CHUNKED,
    CODEC_REGRESSION,
    CODEC_EMBEDDED,
    CODEC_HYBRID,
    CODEC_LEGACY,
    CODEC_INTERP,
)


def pack_exact_float(x: float) -> str:
    """Encode a float so it round-trips bit-exactly through JSON."""
    return float(x).hex()


def unpack_exact_float(s: str) -> float:
    """Inverse of :func:`pack_exact_float`."""
    try:
        return float.fromhex(s)
    except (TypeError, ValueError) as exc:
        raise FormatError(
            f"bad exact-float field {s!r}", code=ErrorCode.BAD_META
        ) from exc


class Container:
    """A codec id, a JSON-able metadata dict, and named byte streams."""

    def __init__(self, codec: int, meta: Dict, streams: List[Tuple[str, bytes]]):
        if codec not in _KNOWN_CODECS:
            raise ParameterError(f"unknown codec id {codec}")
        self.codec = codec
        self.meta = dict(meta)
        self.streams = list(streams)
        #: :class:`repro.resilience.salvage.SalvageReport` when this
        #: container came out of a salvage decode; None otherwise.
        self.salvage = None
        #: Transient telemetry attached by tooling (stage costs, byte
        #: layouts).  Deliberately NOT serialized: the container format
        #: carries data, never measurements (see DESIGN.md).
        self.metrics: Dict = {}

    def stream(self, name: str) -> bytes:
        """Return the payload of the named stream."""
        for sname, payload in self.streams:
            if sname == name:
                return payload
        raise FormatError(
            f"container has no stream named {name!r}",
            code=ErrorCode.MISSING_STREAM,
        )

    def has_stream(self, name: str) -> bool:
        """True if a stream of that name is present."""
        return any(sname == name for sname, _ in self.streams)

    def byte_layout(self) -> Dict:
        """Exact byte accounting of the serialized form.

        Returns ``{"total", "framing", "streams": {name: bytes}}``
        where ``framing`` covers the header, metadata block and
        per-stream name/length/CRC fields.  By construction
        ``framing + sum(streams.values()) == total == len(to_bytes())``
        -- the invariant the observability layer's byte counters are
        checked against.  Repeated stream names accumulate.
        """
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        # magic(4) + version/codec/reserved(4) + meta_len/crc(12) + meta
        # + n_streams(4)
        framing = 4 + 4 + 12 + len(meta_blob) + 4
        sizes: Dict[str, int] = {}
        payload_total = 0
        for name, payload in self.streams:
            framing += 2 + len(name.encode("utf-8")) + 12
            sizes[name] = sizes.get(name, 0) + len(payload)
            payload_total += len(payload)
        return {
            "total": framing + payload_total,
            "framing": framing,
            "streams": sizes,
        }

    def stream_crcs(self) -> Dict[str, int]:
        """CRC32 of every stream payload, keyed by stream name -- the
        exact checksums :meth:`to_bytes` frames each stream with.

        This is the integrity fingerprint the differential tests pin
        parallel transports against: two containers with equal codec,
        metadata and stream CRCs serialize to identical bytes.
        Repeated stream names keep the *last* occurrence (matching
        duplicate-key behaviour elsewhere would be ambiguous; chunked
        containers never repeat names).
        """
        return {
            name: zlib.crc32(payload) for name, payload in self.streams
        }

    def to_bytes(self) -> bytes:
        """Serialize the container."""
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        parts = [
            MAGIC,
            struct.pack("<BBH", VERSION, self.codec, 0),
            struct.pack("<QI", len(meta_blob), zlib.crc32(meta_blob)),
            meta_blob,
            struct.pack("<I", len(self.streams)),
        ]
        for name, payload in self.streams:
            name_b = name.encode("utf-8")
            if len(name_b) > 0xFFFF:
                raise ParameterError("stream name too long")
            parts.append(struct.pack("<H", len(name_b)))
            parts.append(name_b)
            parts.append(struct.pack("<QI", len(payload), zlib.crc32(payload)))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes, salvage: bool = False) -> "Container":
        """Parse and validate a serialized container.

        Strict by default: the first bad byte raises a
        :class:`~repro.errors.FormatError` carrying a structured
        ``code``.  With ``salvage=True`` the parse is best-effort
        instead (see :func:`repro.resilience.salvage.salvage_container`):
        CRC-failing streams are skipped, the parser resynchronizes on
        provable stream boundaries, and the returned container's
        ``salvage`` attribute holds the
        :class:`~repro.resilience.salvage.SalvageReport`.  Salvage
        still raises (typed) when the identity header itself is
        unusable.
        """
        if salvage:
            from repro.resilience.salvage import salvage_container

            container, _report = salvage_container(bytes(blob))
            return container
        view = memoryview(blob)
        pos = 0

        def take(n: int) -> memoryview:
            nonlocal pos
            if pos + n > len(view):
                raise FormatError(
                    "container truncated", code=ErrorCode.TRUNCATED
                )
            out = view[pos : pos + n]
            pos += n
            return out

        if bytes(take(4)) != MAGIC:
            raise FormatError(
                "bad magic: not a FPZC container", code=ErrorCode.BAD_MAGIC
            )
        version, codec, _reserved = struct.unpack("<BBH", take(4))
        if version != VERSION:
            raise FormatError(
                f"unsupported container version {version}",
                code=ErrorCode.BAD_VERSION,
            )
        if codec not in _KNOWN_CODECS:
            raise FormatError(
                f"unknown codec id {codec}", code=ErrorCode.BAD_CODEC
            )
        meta_len, meta_crc = struct.unpack("<QI", take(12))
        meta_blob = bytes(take(meta_len))
        if zlib.crc32(meta_blob) != meta_crc:
            raise FormatError(
                "metadata block failed its CRC check",
                code=ErrorCode.CRC_MISMATCH,
            )
        try:
            meta = json.loads(meta_blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(
                f"bad metadata block: {exc}", code=ErrorCode.BAD_META
            ) from exc
        if not isinstance(meta, dict):
            raise FormatError(
                "metadata block is not a JSON object", code=ErrorCode.BAD_META
            )
        (n_streams,) = struct.unpack("<I", take(4))
        streams: List[Tuple[str, bytes]] = []
        for _ in range(n_streams):
            (name_len,) = struct.unpack("<H", take(2))
            try:
                name = bytes(take(name_len)).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"bad stream name: {exc}", code=ErrorCode.BAD_STREAM_NAME
                ) from exc
            payload_len, crc = struct.unpack("<QI", take(12))
            payload = bytes(take(payload_len))
            if zlib.crc32(payload) != crc:
                raise FormatError(
                    f"stream {name!r} failed its CRC check",
                    code=ErrorCode.CRC_MISMATCH,
                )
            streams.append((name, payload))
        if pos != len(view):
            raise FormatError(
                f"{len(view) - pos} trailing bytes after container",
                code=ErrorCode.TRAILING_BYTES,
            )
        return cls(codec, meta, streams)
