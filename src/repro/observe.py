"""Stage-level observability for the compression pipeline.

The pipeline (predict -> quantize -> encode -> pack) is tunable only
once each stage reports its own cost: SZ3 exposes per-stage timings to
drive its autotuner, and FRaZ's fixed-ratio search loop is built
entirely on per-run measurements.  This module is the repo's
foundation for both: a dependency-free ``Trace``/``Span`` API with

* **monotonic timers** per span (``time.perf_counter``),
* **exact counters** (byte accounting, symbol counts, quantization
  stats such as bin size / hit ratio / outlier count),
* **picklable span records**, so per-worker traces cross process
  boundaries and merge into the parent trace,
* a **no-op singleton** active by default, so instrumented hot paths
  pay essentially nothing when tracing is off.

Determinism contract
--------------------
Counters are exact and reproducible run-to-run; wall-clock durations
are not.  Serialization therefore splits the two: ``Trace.as_dict()``
puts counters under ``"counters"`` and durations under ``"timing"``,
and golden/regression tests must compare only the deterministic part
(``Trace.deterministic_dict()``).  Telemetry never enters the
container format (see DESIGN.md).

Usage
-----
>>> from repro import observe
>>> tr = observe.Trace()
>>> with observe.use_trace(tr):
...     blob = compressor.compress(data)      # doctest: +SKIP
>>> print(tr.render())                        # doctest: +SKIP

Instrumented call sites follow one pattern::

    t = observe.current_trace()
    with t.span("sz.entropy") as sp:
        ...
        sp.set("total_bits", total_bits)

When no trace is active, ``t`` is :data:`NULL_TRACE` and ``t.span``
returns a shared no-op span: no record is allocated, no timer is read.
Counter computations that are themselves costly should additionally be
guarded with ``if t.enabled:``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "Trace",
    "NullTrace",
    "NULL_TRACE",
    "current_trace",
    "use_trace",
    "account_container_bytes",
    "traced_pack",
    "add_span_hook",
    "remove_span_hook",
    "FRAMING_KEY",
]

#: Version of the JSON trace schema (bump on incompatible change).
SCHEMA_VERSION = 1

#: Counter key holding container framing bytes (header + metadata +
#: stream names/length/CRC fields) so byte counters sum to the total.
FRAMING_KEY = "bytes.framing"


@dataclass
class SpanRecord:
    """One finished span: a path in the stage tree plus its numbers.

    Plain data (tuple/str/float/dict) so records pickle cheaply across
    process boundaries and serialize to JSON without custom hooks.
    ``counters`` are additive quantities (bytes, symbol counts) that
    sum when spans aggregate; ``gauges`` are per-call readings (bin
    size, hit ratio) that average instead.  ``duration_s`` is
    wall-clock and **non-deterministic**; everything else is exact.

    ``t_start``/``pid``/``tid`` place the span on a timeline: the
    ``time.perf_counter`` reading when the span opened and the OS
    process/thread that ran it.  They exist so exported traces (Chrome
    trace-event JSON, see :mod:`repro.telemetry.export`) render
    pool-mode sweeps as parallel per-process tracks; like
    ``duration_s`` they are wall-clock data and **never** enter the
    deterministic views.  Records deserialized from an older producer
    default all three to 0.
    """

    path: Tuple[str, ...]
    seq: int
    duration_s: float
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    t_start: float = 0.0
    pid: int = 0
    tid: int = 0

    def as_dict(self) -> Dict:
        """JSON/pickle-friendly representation."""
        return {
            "path": list(self.path),
            "seq": self.seq,
            "duration_s": self.duration_s,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "t_start": self.t_start,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "SpanRecord":
        """Inverse of :meth:`as_dict` (used when merging worker traces).
        Tolerates dicts from producers that predate the timeline
        fields."""
        return cls(
            path=tuple(str(p) for p in d["path"]),
            seq=int(d["seq"]),
            duration_s=float(d["duration_s"]),
            counters={str(k): v for k, v in dict(d["counters"]).items()},
            gauges={str(k): v for k, v in dict(d.get("gauges", {})).items()},
            t_start=float(d.get("t_start", 0.0)),
            pid=int(d.get("pid", 0)),
            tid=int(d.get("tid", 0)),
        )


class Span:
    """A live timed region.  Use as a context manager via
    :meth:`Trace.span`; closing appends a :class:`SpanRecord` to the
    owning trace."""

    __slots__ = ("_trace", "name", "counters", "gauges", "_t0")

    def __init__(self, trace: "Trace", name: str) -> None:
        self._trace = trace
        self.name = name
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self._t0 = 0.0

    # -- counters -------------------------------------------------------

    def set(self, key: str, value) -> None:
        """Set a gauge: a per-call reading that *averages* when spans
        with the same path aggregate (bin size, hit ratio, ids)."""
        self.gauges[key] = value

    def count(self, key: str, n=1) -> None:
        """Increment a counter: an additive quantity that *sums* on
        aggregation (bytes, symbols, outliers)."""
        self.counters[key] = self.counters.get(key, 0) + n

    def add_bytes(self, stream: str, n: int) -> None:
        """Account ``n`` bytes to the named stream (key ``bytes.<stream>``)."""
        self.count(f"bytes.{stream}", int(n))

    # -- context management ---------------------------------------------

    def __enter__(self) -> "Span":
        self._trace._push(self)
        if _SPAN_HOOKS:
            for on_enter, _ in _SPAN_HOOKS:
                try:
                    on_enter(self)
                except Exception:
                    # Hooks are observers; a broken one (e.g. tracemalloc
                    # stopped externally mid-run) must not abort the
                    # pipeline operation it observes.
                    pass
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Read the clock first so hook work (e.g. tracemalloc reads)
        # never pollutes the span's own duration.
        duration = time.perf_counter() - self._t0
        if _SPAN_HOOKS:
            for _, on_exit in _SPAN_HOOKS:
                try:
                    on_exit(self)
                except Exception:
                    pass
        self._trace._pop(self, duration)
        return False


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path.

    A single module-level instance is handed to every call site, so
    instrumentation allocates nothing when tracing is off.
    """

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def count(self, key: str, n=1) -> None:
        pass

    gauges: Dict[str, float] = {}
    counters: Dict[str, float] = {}

    def add_bytes(self, stream: str, n: int) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTrace:
    """Disabled trace: ``span()`` returns the shared no-op span and no
    records are ever kept."""

    __slots__ = ()

    enabled = False
    records: Tuple[SpanRecord, ...] = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


#: The module-wide disabled trace (also the default active trace).
NULL_TRACE = NullTrace()


class Trace:
    """Collects :class:`SpanRecord` instances from nested spans.

    Nesting is tracked with an explicit stack, so ``span("entropy")``
    opened inside ``span("sz.compress")`` records the path
    ``("sz.compress", "entropy")``.  Records from worker processes are
    grafted in with :meth:`merge`.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._stack: List[Tuple[Span, Tuple[str, ...]]] = []
        self._seq = 0

    # -- recording ------------------------------------------------------

    def span(self, name: str) -> Span:
        """Open a new (not yet entered) span named ``name``."""
        return Span(self, name)

    def _push(self, span: Span) -> None:
        parent = self._stack[-1][1] if self._stack else ()
        self._stack.append((span, parent + (span.name,)))

    def _pop(self, span: Span, duration: float) -> None:
        top, path = self._stack.pop()
        if top is not span:  # pragma: no cover - API misuse guard
            raise RuntimeError("span closed out of order")
        self.records.append(
            SpanRecord(
                path=path,
                seq=self._seq,
                duration_s=duration,
                counters=dict(span.counters),
                gauges=dict(span.gauges),
                # Timeline placement: read at record time so a record
                # created inside a worker carries the *worker's* pid,
                # which is what lets exported traces draw one track per
                # process (see repro.telemetry.export).
                t_start=span._t0,
                pid=os.getpid(),
                tid=threading.get_native_id(),
            )
        )
        self._seq += 1

    def merge(
        self,
        records: Iterable,
        prefix: Sequence[str] = (),
    ) -> None:
        """Graft ``records`` (SpanRecords or their ``as_dict`` forms,
        e.g. shipped back from a worker process) under ``prefix``."""
        base = tuple(prefix)
        if self._stack:
            base = self._stack[-1][1] + base
        for rec in records:
            if isinstance(rec, dict):
                rec = SpanRecord.from_dict(rec)
            self.records.append(
                SpanRecord(
                    path=base + tuple(rec.path),
                    seq=self._seq,
                    duration_s=rec.duration_s,
                    counters=dict(rec.counters),
                    gauges=dict(rec.gauges),
                    # Keep the producer's timeline placement: a worker
                    # record merged into the parent still happened in
                    # the worker's process at the worker's clock.
                    t_start=rec.t_start,
                    pid=rec.pid,
                    tid=rec.tid,
                )
            )
            self._seq += 1

    # -- aggregation and serialization ----------------------------------

    def aggregate(self) -> Dict[Tuple[str, ...], Dict]:
        """Collapse repeated paths: per path, call count, summed
        duration, summed counters and averaged gauges.  Ordered by
        first appearance."""
        out: Dict[Tuple[str, ...], Dict] = {}
        gauge_hits: Dict[Tuple[Tuple[str, ...], str], int] = {}
        for rec in sorted(self.records, key=lambda r: r.seq):
            slot = out.setdefault(
                rec.path,
                {"calls": 0, "duration_s": 0.0, "counters": {}, "gauges": {}},
            )
            slot["calls"] += 1
            slot["duration_s"] += rec.duration_s
            for k, v in rec.counters.items():
                slot["counters"][k] = slot["counters"].get(k, 0) + v
            for k, v in rec.gauges.items():
                slot["gauges"][k] = slot["gauges"].get(k, 0) + v
                gauge_hits[(rec.path, k)] = gauge_hits.get((rec.path, k), 0) + 1
        for (path, k), hits in gauge_hits.items():
            out[path]["gauges"][k] /= hits
        return out

    def as_dict(self, include_timing: bool = True) -> Dict:
        """Aggregated trace as a JSON-able dict.

        Counters live under ``"counters"`` (deterministic); wall-clock
        data under ``"timing"`` (non-deterministic, dropped when
        ``include_timing=False``).
        """
        spans = []
        for path, agg in self.aggregate().items():
            entry = {
                "path": "/".join(path),
                "calls": agg["calls"],
                "counters": dict(agg["counters"]),
                "gauges": dict(agg["gauges"]),
            }
            if include_timing:
                entry["timing"] = {"duration_s": agg["duration_s"]}
            spans.append(entry)
        return {"schema": SCHEMA_VERSION, "spans": spans}

    def deterministic_dict(self) -> Dict:
        """The golden-comparable part of the trace (no timings)."""
        return self.as_dict(include_timing=False)

    def to_json(self, include_timing: bool = True, indent: Optional[int] = 2) -> str:
        """Serialize :meth:`as_dict` as JSON text."""
        return json.dumps(
            self.as_dict(include_timing=include_timing),
            indent=indent,
            sort_keys=True,
        )

    def total_bytes(self, path: Optional[Tuple[str, ...]] = None) -> int:
        """Sum of all ``bytes.*`` counters (optionally for one path)."""
        total = 0
        for rec in self.records:
            if path is not None and rec.path != path:
                continue
            for k, v in rec.counters.items():
                if k.startswith("bytes."):
                    total += int(v)
        return total

    def render(self, show_timing: bool = True) -> str:
        """Human-readable stage-cost tree (what ``--trace`` prints).

        Parents print before children (records close child-first, so
        this re-sorts into tree order); siblings keep first-seen order.
        Intermediate path components that never closed a span of their
        own (e.g. merge prefixes) render as bare group labels.
        """
        agg = self.aggregate()
        first_seq = {
            path: min(r.seq for r in self.records if r.path == path)
            for path in agg
        }
        # Ensure every ancestor exists as a (possibly bare) tree node,
        # ordered where its earliest descendant appeared.
        nodes = set(agg)
        for path in list(agg):
            for i in range(1, len(path)):
                anc = path[:i]
                nodes.add(anc)
                first_seq[anc] = min(first_seq.get(anc, first_seq[path]), first_seq[path])
        children: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
        for path in nodes:
            children.setdefault(path[:-1], []).append(path)

        def order_key(path):
            return first_seq.get(path, float("inf"))

        lines = ["stage-cost tree (counters exact; timings non-deterministic)"]

        def emit(path) -> None:
            indent = "  " * (len(path) - 1)
            cols = [f"{indent}{path[-1]:<{max(1, 34 - len(indent))}}"]
            slot = agg.get(path)
            if slot is not None:
                if show_timing:
                    cols.append(f"{1e3 * slot['duration_s']:9.3f} ms")
                if slot["calls"] > 1:
                    cols.append(f"x{slot['calls']}")
                counters = slot["counters"]
                byte_keys = sorted(k for k in counters if k.startswith("bytes."))
                other = sorted(k for k in counters if not k.startswith("bytes."))
                for k in byte_keys + other:
                    v = counters[k]
                    if isinstance(v, float) and not float(v).is_integer():
                        cols.append(f"{k}={v:.6g}")
                    else:
                        cols.append(f"{k}={int(v)}")
                for k in sorted(slot["gauges"]):
                    v = slot["gauges"][k]
                    if isinstance(v, float) and not float(v).is_integer():
                        cols.append(f"{k}={v:.6g}")
                    else:
                        cols.append(f"{k}={int(v)}")
            lines.append("  ".join(cols).rstrip())
            for child in sorted(children.get(path, ()), key=order_key):
                emit(child)

        for root in sorted(children.get((), ()), key=order_key):
            emit(root)
        return "\n".join(lines)


# -- span hooks ---------------------------------------------------------

#: Registered ``(on_enter, on_exit)`` pairs, called for every *live*
#: span (never for the disabled-path no-op span).  The memory profiler
#: (:mod:`repro.telemetry.memory`) is the canonical client.  The empty
#: default keeps the hot path at one truthiness check.
_SPAN_HOOKS: List[Tuple] = []


def add_span_hook(on_enter, on_exit) -> None:
    """Register a span hook: ``on_enter(span)`` runs when a span opens
    (after it joins the stack, before its timer starts); ``on_exit(span)``
    runs when it closes (after its timer stops, before its record is
    appended -- so hooks may still write gauges/counters).  Exceptions
    raised by hooks are swallowed: observers never abort the pipeline
    operation they observe."""
    _SPAN_HOOKS.append((on_enter, on_exit))


def remove_span_hook(on_enter, on_exit) -> None:
    """Unregister a hook pair registered with :func:`add_span_hook`."""
    try:
        _SPAN_HOOKS.remove((on_enter, on_exit))
    except ValueError:
        pass


# -- active-trace management -------------------------------------------

_ACTIVE: object = NULL_TRACE


def current_trace():
    """The trace instrumented call sites should report to.  Returns
    :data:`NULL_TRACE` unless a trace was activated via
    :func:`use_trace`."""
    return _ACTIVE


class use_trace:
    """Context manager installing ``trace`` as the active trace.

    Re-entrant in the sense that the previous active trace is restored
    on exit, so nested activations (e.g. a worker trace inside tests)
    behave sanely.
    """

    def __init__(self, trace) -> None:
        self.trace = trace
        self._prev: object = NULL_TRACE

    def __enter__(self):
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self.trace
        return self.trace

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._prev
        return False


def account_container_bytes(span, streams, total_size: int) -> None:
    """Record exact byte accounting for a serialized container.

    One ``bytes.<stream>`` counter per named stream payload plus
    ``bytes.framing`` for the header/metadata/stream framing, so that
    the span's byte counters sum **exactly** to ``total_size`` (the
    acceptance invariant of the trace regression tests).
    """
    payload_total = 0
    for name, payload in streams:
        span.add_bytes(name, len(payload))
        payload_total += len(payload)
    span.count(FRAMING_KEY, int(total_size) - payload_total)


def traced_pack(container) -> bytes:
    """Serialize ``container`` under a ``pack`` span with exact byte
    accounting.

    ``container`` is duck-typed (anything with ``streams`` and
    ``to_bytes()``), keeping this module dependency-free.  This is the
    one serialization wrapper every codec path shares, so the
    byte-accounting invariant -- ``bytes.framing`` plus all per-stream
    counters sum exactly to the container size -- holds for every
    container this package produces, constant-field short-circuits
    included.
    """
    trace = current_trace()
    with trace.span("pack") as sp:
        blob = container.to_bytes()
        if trace.enabled:
            account_container_bytes(sp, container.streams, len(blob))
    return blob
