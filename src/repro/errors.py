"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch a single base class.  The
subclasses separate the three failure domains a compressor has:
bad *parameters* (caller bug), bad *input bytes* (corrupt stream), and
internal invariant violations during compression itself.

Structured error codes
----------------------
Errors raised by the byte-level parsers (and by the resilience layer
on their behalf) carry an optional machine-readable ``code`` attribute
drawn from :class:`ErrorCode`.  Codes are what a
:class:`repro.resilience.salvage.SalvageReport` records per lost
stream, so tooling can aggregate failure causes without parsing
message strings.  ``code`` is ``None`` for errors that predate the
scheme or have no structured cause.
"""

from __future__ import annotations

from typing import Optional


class ErrorCode:
    """String constants identifying structured failure causes.

    Grouped by domain: container/archive parsing (``bad_*``,
    ``truncated``, ``crc_mismatch``, ``trailing_bytes``) and task
    execution (``task_*``, ``poisoned_result``).  The values are
    stable identifiers -- they appear in salvage reports, telemetry
    and the CI fault matrix -- so never repurpose one.
    """

    BAD_MAGIC = "bad_magic"
    BAD_VERSION = "bad_version"
    BAD_CODEC = "bad_codec"
    BAD_META = "bad_meta"
    BAD_INDEX = "bad_index"
    BAD_STREAM_NAME = "bad_stream_name"
    TRUNCATED = "truncated"
    CRC_MISMATCH = "crc_mismatch"
    TRAILING_BYTES = "trailing_bytes"
    MISSING_STREAM = "missing_stream"

    TASK_FAILED = "task_failed"
    TASK_TIMEOUT = "task_timeout"
    POISONED_RESULT = "poisoned_result"

    CONNECT_FAILED = "connect_failed"
    NODE_UNAVAILABLE = "node_unavailable"

    #: Every defined code, for validation.
    ALL = (
        BAD_MAGIC,
        BAD_VERSION,
        BAD_CODEC,
        BAD_META,
        BAD_INDEX,
        BAD_STREAM_NAME,
        TRUNCATED,
        CRC_MISMATCH,
        TRAILING_BYTES,
        MISSING_STREAM,
        TASK_FAILED,
        TASK_TIMEOUT,
        POISONED_RESULT,
        CONNECT_FAILED,
        NODE_UNAVAILABLE,
    )


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`.

    ``code`` (keyword-only) is an optional :class:`ErrorCode` constant
    naming the structured cause; it defaults to ``None``.
    """

    def __init__(self, *args, code: Optional[str] = None):
        super().__init__(*args)
        self.code = code

    def __reduce__(self):
        # Default Exception pickling drops keyword-only state; carry
        # ``code`` across process boundaries (worker -> parent).
        return (type(self), self.args, self.__dict__)


class ParameterError(ReproError, ValueError):
    """A caller-supplied parameter is out of range or inconsistent.

    Also a :class:`ValueError` so that generic callers that validate
    with ``except ValueError`` keep working.
    """


class CompressionError(ReproError):
    """Compression failed (e.g. non-finite data with strict mode on)."""


class DecompressionError(ReproError):
    """Decompression failed on a syntactically valid container."""


class FormatError(DecompressionError):
    """The byte stream is not a valid container (bad magic, truncation,
    checksum mismatch, unsupported version)."""


class TaskError(ReproError):
    """A parallel task failed in a way the executor accounts for
    (worker exception, deadline exceeded, poisoned result).  Raised
    only when the caller asked for fail-fast semantics; the default
    resilient sweep records the failure in the result instead."""


class TransportError(ReproError):
    """Network transport to a compression service node failed
    (connection refused/reset, dead or mid-restart server).

    Carries :data:`ErrorCode.CONNECT_FAILED`, or
    :data:`ErrorCode.NODE_UNAVAILABLE` when a cluster router exhausted
    every ring successor.  The cluster failover layer treats exactly
    this type as "try the next node"; HTTP-level errors (4xx/5xx
    responses) stay :class:`ServiceError` and are never failed over
    blindly.
    """
