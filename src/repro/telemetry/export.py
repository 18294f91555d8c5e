"""Trace export: Chrome trace-event JSON and collapsed flame stacks.

:mod:`repro.observe` keeps span data in a private schema.  That is the
right storage format, but it locks the data away from the mature
timeline tooling everyone already has: Perfetto (ui.perfetto.dev) and
``chrome://tracing`` both read the Chrome *trace-event* JSON format,
and the flamegraph ecosystem reads collapsed-stack text.  This module
is the bridge -- a pure function of a finished
:class:`~repro.observe.Trace`, no new dependencies.

Chrome trace-event mapping
--------------------------
One complete ``"X"`` (duration) event per :class:`SpanRecord`:

* ``name`` -- the leaf stage name, ``cat`` -- the root of the span
  path (so Perfetto can filter by pipeline),
* ``ts``/``dur`` -- microseconds; ``ts`` is the record's
  ``t_start`` normalized so the earliest span starts at 0.  On every
  mainstream platform ``time.perf_counter`` reads a system-wide
  monotonic clock, so spans recorded in *worker processes* land on the
  same timeline as the parent's,
* ``pid``/``tid`` -- the **real** OS ids captured when the span
  closed, which is what makes a pool-mode sweep render as
  parallel per-worker tracks instead of one serial lane,
* ``args`` -- the span's exact counters and gauges.

Span counters additionally emit ``"C"`` (counter) events -- cumulative
per ``(pid, counter-name)``, stamped at each span's end -- so byte
accounting draws as rising counter tracks next to the timeline.  A
registry snapshot can be appended as final ``"C"`` samples too.

Every event carries the four keys ``ph``/``ts``/``dur``/``pid`` (CI
validates exactly that), all numeric fields are non-negative, and the
document is a single JSON object ``{"traceEvents": [...]}`` -- the
strict form both viewers accept.

Records from producers that predate timeline capture (``t_start == 0``)
still export: they are placed at ``ts = 0`` with their real duration,
so old worker pickles degrade to a stacked-at-origin view instead of
failing.

Collapsed stacks
----------------
:func:`to_collapsed_stacks` emits the classic ``a;b;c <weight>`` text
(one line per unique span path, weight = **self** time in integer
microseconds) consumed by flamegraph.pl, speedscope, inferno et al.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_collapsed_stacks",
    "validate_chrome_trace",
    "REQUIRED_EVENT_KEYS",
]

#: Keys every exported event must carry (what CI asserts on the
#: artifact).  ``dur`` is meaningful only on ``"X"`` events but is
#: emitted as 0 elsewhere so one validation rule covers the file.
REQUIRED_EVENT_KEYS = ("ph", "ts", "dur", "pid", "tid", "name")


def _us(seconds: float) -> float:
    """Seconds -> non-negative microseconds, rounded for stable JSON."""
    return max(0.0, round(float(seconds) * 1e6, 3))


def chrome_trace_events(
    trace,
    snapshot: Optional[Dict] = None,
    process_names: Optional[Dict[int, str]] = None,
) -> List[Dict]:
    """Flatten ``trace`` into a list of Chrome trace events.

    ``snapshot`` is an optional :meth:`MetricsRegistry.snapshot`; its
    counters are appended as final ``"C"`` samples (name
    ``metric:<name>``) at the end of the timeline, so process-lifetime
    aggregates sit next to the per-span series.

    ``process_names`` optionally maps pids to display names for the
    ``process_name`` metadata events.  The cluster tier uses this to
    label each member node's synthetic lane with its URL; unmapped
    pids keep the ``fpzc pid N`` default.
    """
    records = list(getattr(trace, "records", ()) or ())
    starts = [r.t_start for r in records if r.t_start > 0.0]
    t0 = min(starts) if starts else 0.0
    events: List[Dict] = []
    seen_procs: Dict[Tuple[int, int], bool] = {}
    cumulative: Dict[Tuple[int, str], float] = {}
    end_of_time = 0.0
    for rec in sorted(records, key=lambda r: (r.t_start, r.seq)):
        pid = int(rec.pid)
        tid = int(rec.tid) or pid
        ts = _us(rec.t_start - t0) if rec.t_start > 0.0 else 0.0
        dur = _us(rec.duration_s)
        end_of_time = max(end_of_time, ts + dur)
        if (pid, tid) not in seen_procs:
            seen_procs[(pid, tid)] = True
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0.0,
                    "dur": 0.0,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "name": (process_names or {}).get(
                            pid, f"fpzc pid {pid}"
                        )
                    },
                }
            )
        args: Dict[str, float] = {}
        args.update(rec.counters)
        for k, v in rec.gauges.items():
            if isinstance(v, (int, float)):
                args[k] = v
        events.append(
            {
                "name": rec.path[-1],
                "cat": rec.path[0],
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for key in sorted(rec.counters):
            slot = (pid, key)
            cumulative[slot] = cumulative.get(slot, 0.0) + rec.counters[key]
            events.append(
                {
                    "name": key,
                    "cat": "counters",
                    "ph": "C",
                    "ts": ts + dur,
                    "dur": 0.0,
                    "pid": pid,
                    "tid": tid,
                    "args": {key.rpartition(".")[2]: cumulative[slot]},
                }
            )
    if snapshot:
        import os

        pid = os.getpid()
        for name, entry in sorted(snapshot.get("metrics", {}).items()):
            if entry.get("kind") != "counter":
                continue
            events.append(
                {
                    "name": f"metric:{name}",
                    "cat": "metrics",
                    "ph": "C",
                    "ts": end_of_time,
                    "dur": 0.0,
                    "pid": pid,
                    "tid": pid,
                    "args": {name.rpartition(".")[2]: entry.get("value", 0)},
                }
            )
    return events


def to_chrome_trace(
    trace,
    snapshot: Optional[Dict] = None,
    process_names: Optional[Dict[int, str]] = None,
) -> Dict:
    """The full trace-event JSON document for ``trace`` (the object
    form with ``traceEvents``, which both Perfetto and
    ``chrome://tracing`` load directly)."""
    return {
        "traceEvents": chrome_trace_events(
            trace, snapshot=snapshot, process_names=process_names
        ),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "fpzc", "spans": len(trace.records)},
    }


def write_chrome_trace(
    trace,
    path,
    snapshot: Optional[Dict] = None,
    process_names: Optional[Dict[int, str]] = None,
) -> Path:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the path."""
    target = Path(path)
    doc = to_chrome_trace(
        trace, snapshot=snapshot, process_names=process_names
    )
    target.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return target


def validate_chrome_trace(doc) -> List[str]:
    """Sanity-check an exported document; returns a list of problems
    (empty means valid).  This is what the CI smoke step and the unit
    tests run against the real artifact."""
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not an object with a traceEvents list"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in REQUIRED_EVENT_KEYS:
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        for key in ("ts", "dur"):
            v = ev.get(key, 0)
            if not isinstance(v, (int, float)) or v < 0:
                problems.append(f"event {i}: {key} must be a number >= 0")
        if not isinstance(ev.get("pid", 0), int):
            problems.append(f"event {i}: pid must be an int")
    return problems


def to_collapsed_stacks(trace) -> str:
    """Collapsed-stack text: one ``a;b;c <self-time-us>`` line per
    unique span path, sorted, for flamegraph tooling.

    The weight is **self** time -- the path's total duration minus the
    total duration of its direct children -- clamped at zero, so a
    flame graph built from the output sums to the real wall time
    instead of double-counting nested spans.
    """
    totals: Dict[Tuple[str, ...], float] = {}
    for rec in trace.records:
        totals[rec.path] = totals.get(rec.path, 0.0) + rec.duration_s
    child_time: Dict[Tuple[str, ...], float] = {}
    for path, total in totals.items():
        if len(path) > 1:
            parent = path[:-1]
            child_time[parent] = child_time.get(parent, 0.0) + total
    lines = []
    for path in sorted(totals):
        self_s = max(0.0, totals[path] - child_time.get(path, 0.0))
        lines.append(";".join(path) + f" {int(round(self_s * 1e6))}")
    return "\n".join(lines) + ("\n" if lines else "")
