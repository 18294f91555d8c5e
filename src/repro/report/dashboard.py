"""The self-contained HTML run dashboard behind ``fpzc report --html``.

One call -- :func:`render_dashboard` -- aggregates everything the
observability stack records into a single static HTML file:

* the run ledger (:mod:`repro.telemetry.ledger`): recent runs plus the
  compression-ratio and PSNR-deviation trajectories,
* the PSNR conformance verdicts (:mod:`repro.telemetry.drift`), one
  control-chart row per (dataset, codec, target) series,
* the latest metrics snapshot (:mod:`repro.telemetry.registry`),
* the committed ``BENCH_*.json`` baselines (:mod:`repro.telemetry.bench`),
* a span-timeline strip from an exported Chrome trace
  (:mod:`repro.telemetry.export`).

Design constraints, deliberate and load-bearing:

* **Zero dependencies, zero fetches.**  Pure stdlib; the output embeds
  every byte it needs (inline CSS, inline SVG), references no external
  URL, script, font or image, and therefore renders identically from a
  CI artifact, an email attachment or ``file://``.
* **Every section tolerates empty input** -- a missing ledger, an
  empty snapshot or an absent trace renders as an explicit empty-state
  line, never an exception, so the dashboard is safe to generate at
  any point in a repo's life.
* Charts follow the house style: thin 2 px marks, muted hairline
  chrome, values and labels in text ink (never the series color), a
  table next to every sparkline as the accessible fallback, and status
  conveyed by icon + label, never color alone.
"""

from __future__ import annotations

import html
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "render_dashboard",
    "render_ledger_section",
    "render_drift_section",
    "render_metrics_section",
    "render_bench_section",
    "render_service_section",
    "render_cache_section",
    "render_cluster_section",
    "render_timeline_section",
    "sparkline",
    "load_bench_dir",
]


def _esc(value) -> str:
    """HTML-escape anything user- or data-controlled."""
    return html.escape(str(value), quote=True)


def _fmt(v, spec: str = ".4g") -> str:
    """Format a possibly-missing numeric cell."""
    if v is None:
        return "–"  # en dash: "no value", distinct from 0
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "+Inf" if v > 0 else "-Inf"
        return format(v, spec)
    return str(v)


_BADGES = {
    # status -> (icon, css class); icon + label so color never carries
    # the state alone (the warning step is sub-3:1 on light surfaces).
    "ok": ("✓", "b-ok"),
    "drifting": ("✕", "b-bad"),
    "insufficient": ("△", "b-warn"),
}


def _badge(status: str) -> str:
    icon, cls = _BADGES.get(status, ("•", "b-warn"))
    return (
        f'<span class="badge {cls}"><span class="badge-ic">{icon}</span> '
        f"{_esc(status)}</span>"
    )


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A plain table from pre-escaped cell fragments."""
    head = "".join(f"<th>{h}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (
        f'<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>'
    )


def _section(anchor: str, title: str, body: str, note: str = "") -> str:
    note_html = f'<p class="note">{_esc(note)}</p>' if note else ""
    return (
        f'<section id="{_esc(anchor)}"><h2>{_esc(title)}</h2>'
        f"{note_html}{body}</section>"
    )


def _empty(message: str) -> str:
    return f'<p class="empty">{_esc(message)}</p>'


# ---------------------------------------------------------------------------
# sparklines
# ---------------------------------------------------------------------------


def sparkline(
    values: Sequence[float],
    *,
    width: int = 140,
    height: int = 32,
    label: str = "",
) -> str:
    """An inline-SVG sparkline: 2 px line, hairline baseline, a dot on
    the latest point.  Non-finite values are dropped; fewer than two
    finite points render as a flat baseline only (never an error)."""
    pts = [float(v) for v in values if isinstance(v, (int, float))
           and math.isfinite(float(v))]
    pad = 3.0
    base_y = height - pad
    title = f"<title>{_esc(label)}</title>" if label else ""
    baseline = (
        f'<line x1="0" y1="{base_y:g}" x2="{width}" y2="{base_y:g}" '
        f'stroke="var(--axis)" stroke-width="1"/>'
    )
    if len(pts) < 2:
        body = baseline
        if len(pts) == 1:
            body += (
                f'<circle cx="{width - pad:g}" cy="{height / 2:g}" r="2.5" '
                f'fill="var(--series-1)"/>'
            )
        return (
            f'<svg class="spark" role="img" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
            f"{title}{body}</svg>"
        )
    lo, hi = min(pts), max(pts)
    span = (hi - lo) or 1.0
    n = len(pts)
    coords = []
    for i, v in enumerate(pts):
        x = pad + (width - 2 * pad) * i / (n - 1)
        y = pad + (height - 2 * pad) * (1.0 - (v - lo) / span)
        coords.append((x, y))
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    lx, ly = coords[-1]
    return (
        f'<svg class="spark" role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">{title}{baseline}'
        f'<polyline points="{points}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{lx:.1f}" cy="{ly:.1f}" r="2.5" '
        f'fill="var(--series-1)"/></svg>'
    )


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def render_ledger_section(entries: Sequence, limit: int = 20) -> str:
    """Recent run-ledger entries plus the ratio/deviation trajectories.

    ``entries`` are :class:`repro.telemetry.ledger.LedgerEntry`-shaped
    objects (attribute access, tolerant of missing attributes)."""
    entries = list(entries)
    if not entries:
        return _section(
            "ledger", "Run ledger", _empty("no ledger history yet")
        )
    ratios = [e.ratio for e in entries if getattr(e, "ratio", None)
              is not None]
    devs = [
        e.achieved_psnr - e.target_psnr
        for e in entries
        if getattr(e, "achieved_psnr", None) is not None
        and getattr(e, "target_psnr", None) is not None
    ]
    tiles = (
        '<div class="tiles">'
        f'<div class="tile"><div class="tile-v">{len(entries)}</div>'
        '<div class="tile-l">runs recorded</div></div>'
        '<div class="tile"><div class="tile-v">'
        f'{len({getattr(e, "dataset", "") for e in entries})}</div>'
        '<div class="tile-l">datasets</div></div>'
        '<div class="tile">'
        f"{sparkline(ratios, label='compression ratio per run')}"
        '<div class="tile-l">compression ratio trajectory</div></div>'
        '<div class="tile">'
        f"{sparkline(devs, label='achieved minus target PSNR, dB')}"
        '<div class="tile-l">PSNR deviation trajectory (dB)</div></div>'
        "</div>"
    )
    headers = ["created", "kind", "rev", "dataset/field", "codec", "mode",
               "target", "achieved", "ratio", "bytes"]
    rows = []
    for e in entries[-limit:]:
        field = getattr(e, "field", "")
        where = e.dataset if not field else f"{e.dataset}/{field}"
        mode = getattr(e, "mode", "") or (
            "psnr" if getattr(e, "target_psnr", None) is not None else ""
        )
        target = getattr(e, "target", None)
        if target is None:
            target = getattr(e, "target_psnr", None)
        achieved = getattr(e, "achieved", None)
        if achieved is None:
            achieved = getattr(e, "achieved_psnr", None)
        rows.append([
            _esc(getattr(e, "created", "")), _esc(e.kind),
            _esc(getattr(e, "git_rev", "")), _esc(where),
            _esc(getattr(e, "codec", "")), _esc(mode),
            _esc(_fmt(target)), _esc(_fmt(achieved)),
            _esc(_fmt(getattr(e, "ratio", None))),
            _esc(_fmt(getattr(e, "compressed_bytes", None))),
        ])
    note = (
        f"showing the last {min(limit, len(entries))} of "
        f"{len(entries)} entries"
    )
    return _section(
        "ledger", "Run ledger", tiles + _table(headers, rows), note
    )


def render_drift_section(report) -> str:
    """PSNR-conformance control-chart verdicts, one row per series,
    with each series' deviation history as a sparkline.  ``report`` is
    a :class:`repro.telemetry.drift.DriftReport` or ``None``."""
    if report is None or not report.series:
        return _section(
            "drift", "PSNR conformance",
            _empty("no conformance history (ledger predates schema 3, "
                   "or no fixed-PSNR runs recorded)"),
        )
    headers = ["dataset", "codec", "target dB", "n", "deviation history",
               "mean dev", "latest", "EWMA", "CUSUM±", "status"]
    rows = []
    for s in report.series:
        if s.status == "insufficient":
            stats = ["–"] * 4
        else:
            stats = [
                _esc(f"{s.baseline_mean:+.3f}"),
                _esc(f"{s.latest:+.3f}"),
                _esc(f"{s.ewma:+.3f}"),
                _esc(f"{s.cusum_pos:.2f} / {s.cusum_neg:.2f}"),
            ]
        label = (
            f"{s.dataset}/{s.codec}@{s.target_psnr:g}dB deviation, dB"
        )
        rows.append([
            _esc(s.dataset), _esc(s.codec), _esc(f"{s.target_psnr:g}"),
            _esc(s.n), sparkline(s.deviations, label=label),
            *stats, _badge(s.status),
        ])
    note = (
        "achieved minus predicted PSNR per run; EWMA and CUSUM control "
        f"charts over ledger history — overall: {report.status}"
    )
    body = (
        f'<p class="verdict">overall {_badge(report.status)}</p>'
        + _table(headers, rows)
    )
    return _section("drift", "PSNR conformance", body, note)


def render_metrics_section(snapshot: Optional[Dict]) -> str:
    """The latest metrics snapshot (:meth:`MetricsRegistry.snapshot`)
    as a table; histograms show count/sum plus a bucket sparkline."""
    metrics = (snapshot or {}).get("metrics", {})
    if not metrics:
        return _section(
            "metrics", "Metrics snapshot", _empty("no metrics snapshot")
        )
    headers = ["metric", "kind", "value", "detail", "help"]
    rows = []
    for name, entry in sorted(metrics.items()):
        kind = entry.get("kind", "untyped")
        if kind == "histogram":
            value = _esc(
                f"n={int(entry.get('count', 0))} "
                f"sum={_fmt(entry.get('sum'))}"
            )
            detail = sparkline(
                [float(c) for c in entry.get("counts", [])],
                label=f"{name} bucket counts",
            )
        else:
            value = _esc(_fmt(entry.get("value")))
            detail = ""
        rows.append([
            f"<code>{_esc(name)}</code>", _esc(kind), value, detail,
            _esc(entry.get("help", "")),
        ])
    return _section(
        "metrics", "Metrics snapshot", _table(headers, rows),
        f"{len(rows)} metrics",
    )


def _bench_rows(doc: Dict) -> List[Tuple[str, Dict, Dict]]:
    """Flatten one BENCH_*.json document into (case id, deterministic,
    timing) triples, tolerating each of the three layouts (compress
    ``cases`` list, sweep/autotune single ``case`` with ``results``)."""
    out: List[Tuple[str, Dict, Dict]] = []
    for case in doc.get("cases") or []:
        if isinstance(case, dict):
            out.append((
                str(case.get("id", "?")),
                case.get("deterministic") or {},
                case.get("timing") or {},
            ))
    case = doc.get("case")
    if isinstance(case, dict):
        for res in case.get("results") or []:
            if isinstance(res, dict):
                out.append((
                    str(res.get("id", "?")),
                    res.get("deterministic") or {},
                    res.get("timing") or {},
                ))
    return out


def render_bench_section(bench: Optional[Dict[str, Dict]]) -> str:
    """The committed perf baselines (``BENCH_*.json``), one table per
    document plus a ratio sparkline across cases.  ``bench`` maps a
    display name to the parsed JSON document."""
    bench = bench or {}
    if not bench:
        return _section(
            "bench", "Perf baselines",
            _empty("no BENCH_*.json baselines found"),
        )
    parts = []
    for name in sorted(bench):
        doc = bench[name] if isinstance(bench[name], dict) else {}
        rows_raw = _bench_rows(doc)
        title = (
            f"<h3>{_esc(name)} "
            f'<span class="note">rev {_esc(doc.get("git_rev", "?"))}, '
            f'schema {_esc(doc.get("schema", "?"))}</span></h3>'
        )
        if not rows_raw:
            parts.append(title + _empty("no cases in this baseline"))
            continue
        ratios = [
            det["ratio"] for _, det, _ in rows_raw
            if isinstance(det.get("ratio"), (int, float))
        ]
        spark = ""
        if len(ratios) >= 2:
            spark = (
                '<div class="tile">'
                + sparkline(ratios, label=f"{name} ratio across cases")
                + '<div class="tile-l">ratio across cases</div></div>'
            )
        headers = ["case", "deterministic", "wall"]
        rows = []
        for cid, det, timing in rows_raw:
            det_cells = ", ".join(
                f"{_esc(k)}={_esc(_fmt(v))}"
                for k, v in sorted(det.items())
                if not isinstance(v, (dict, list))
            )
            wall = timing.get("wall_s")
            rows.append([
                f"<code>{_esc(cid)}</code>",
                det_cells or "–",
                _esc("–" if wall is None else f"{1e3 * wall:.1f} ms"),
            ])
        parts.append(title + spark + _table(headers, rows))
    return _section(
        "bench", "Perf baselines", "".join(parts),
        "deterministic fields are golden-compared by fpzc bench --check; "
        "wall times are informational",
    )


#: (metric name, tile label) pairs the service panel summarizes.
_SERVICE_TILES = (
    ("service.jobs_submitted_total", "submitted"),
    ("service.jobs_completed_total", "completed"),
    ("service.jobs_failed_total", "failed"),
    ("service.jobs_rejected_total", "rejected (429)"),
    ("service.jobs_cancelled_total", "cancelled"),
    ("service.jobs_timeout_total", "deadline timeouts"),
)


def render_service_section(
    entries: Sequence = (), snapshot: Optional[Dict] = None
) -> str:
    """The compression service's traffic: job-outcome tiles from the
    ``service.*`` metric family plus the most recent service-submitted
    ledger runs (entries carrying an ``extra.service`` object)."""
    metrics = (snapshot or {}).get("metrics", {})
    tiles = []
    for name, label in _SERVICE_TILES:
        entry = metrics.get(name)
        if entry is None:
            continue
        tiles.append(
            '<div class="tile">'
            f'<div class="tile-v">{_esc(_fmt(entry.get("value")))}</div>'
            f'<div class="tile-l">{_esc(label)}</div></div>'
        )
    service_rows = []
    for entry in entries:
        extra = getattr(entry, "extra", None) or {}
        svc = extra.get("service")
        if isinstance(svc, dict):
            service_rows.append((entry, svc))
    if not tiles and not service_rows:
        return _section(
            "service", "Compression service",
            _empty("no service traffic recorded"),
        )
    parts = []
    if tiles:
        parts.append(f'<div class="tiles">{"".join(tiles)}</div>')
    if service_rows:
        headers = [
            "job", "kind", "dataset", "field", "target", "achieved PSNR",
            "attempts", "queued",
        ]
        rows = []
        for entry, svc in service_rows[-20:][::-1]:
            queued_s = svc.get("queued_s")
            rows.append([
                f"<code>{_esc(svc.get('job_id', '?'))}</code>",
                _esc(getattr(entry, "kind", "?")),
                _esc(getattr(entry, "dataset", "?")),
                _esc(getattr(entry, "field", "") or "–"),
                _esc(_fmt(getattr(entry, "target", None))),
                _esc(_fmt(getattr(entry, "achieved_psnr", None))),
                _esc(_fmt(svc.get("attempts"))),
                _esc(
                    "–" if queued_s is None else f"{1e3 * queued_s:.1f} ms"
                ),
            ])
        parts.append(_table(headers, rows))
    return _section(
        "service", "Compression service", "".join(parts),
        "job outcomes from the service.* metric family; runs land in "
        "the same ledger and drift history as CLI runs",
    )


#: (metric name, tile label) pairs the cache panel summarizes.
_CACHE_TILES = (
    ("cache.hits_total", "hits"),
    ("cache.misses_total", "misses"),
    ("cache.evictions_total", "evictions"),
    ("cache.bytes", "stored bytes"),
)


def render_cache_section(
    entries: Sequence = (), snapshot: Optional[Dict] = None
) -> str:
    """The blob cache's behaviour: hit/miss/eviction/size tiles from
    the ``cache.*`` metric family, the derived hit rate, and the most
    recent runs that consulted the cache (ledger entries carrying an
    ``extra.cache`` object)."""
    metrics = (snapshot or {}).get("metrics", {})
    tiles = []
    values: Dict[str, float] = {}
    for name, label in _CACHE_TILES:
        entry = metrics.get(name)
        if entry is None:
            continue
        values[name] = float(entry.get("value") or 0.0)
        tiles.append(
            '<div class="tile">'
            f'<div class="tile-v">{_esc(_fmt(entry.get("value")))}</div>'
            f'<div class="tile-l">{_esc(label)}</div></div>'
        )
    lookups = values.get("cache.hits_total", 0.0) + values.get(
        "cache.misses_total", 0.0
    )
    if lookups > 0:
        rate = values.get("cache.hits_total", 0.0) / lookups
        tiles.append(
            '<div class="tile">'
            f'<div class="tile-v">{rate:.0%}</div>'
            '<div class="tile-l">hit rate</div></div>'
        )
    cache_rows = []
    for entry in entries:
        extra = getattr(entry, "extra", None) or {}
        doc = extra.get("cache")
        if isinstance(doc, dict):
            cache_rows.append((entry, doc))
    if not tiles and not cache_rows:
        return _section(
            "cache", "Blob cache",
            _empty("no cache traffic recorded"),
        )
    parts = []
    if tiles:
        parts.append(f'<div class="tiles">{"".join(tiles)}</div>')
    if cache_rows:
        headers = ["kind", "dataset", "field", "outcome", "key / store"]
        rows = []
        for entry, doc in cache_rows[-20:][::-1]:
            if "hit" in doc:
                outcome = "hit" if doc.get("hit") else "miss"
            else:
                outcome = (
                    f"{_fmt(doc.get('hits'))} hit / "
                    f"{_fmt(doc.get('misses'))} miss"
                )
            key = doc.get("key") or doc.get("store") or "–"
            rows.append([
                _esc(getattr(entry, "kind", "?")),
                _esc(getattr(entry, "dataset", "?")),
                _esc(getattr(entry, "field", "") or "–"),
                _esc(outcome),
                f"<code>{_esc(str(key)[:24])}</code>",
            ])
        parts.append(_table(headers, rows))
    return _section(
        "cache", "Blob cache", "".join(parts),
        "content-addressed compression cache (repro.cache); hits serve "
        "stored bytes without running a codec",
    )


#: (metric name, tile label) pairs the cluster panel summarizes.
_CLUSTER_TILES = (
    ("cluster.jobs_routed_total", "jobs routed"),
    ("cluster.failovers_total", "failovers"),
    ("cluster.jobs_exhausted_total", "exhausted"),
    ("cluster.sweep_tasks_total", "sweep tasks"),
    ("cluster.nodes_alive", "nodes alive"),
    ("cluster.nodes_total", "nodes total"),
)


def render_cluster_section(
    entries: Sequence = (), snapshot: Optional[Dict] = None
) -> str:
    """The cluster tier's behaviour: routing/failover tiles from the
    ``cluster.*`` metric family (a coordinator's own snapshot or a
    ``/cluster/metrics`` merged scrape) and the most recent runs that
    went through a coordinator (ledger entries carrying an
    ``extra.cluster`` object -- member-side job records stamped with
    forwarding provenance, or coordinator-side sweep entries)."""
    metrics = (snapshot or {}).get("metrics", {})
    tiles = []
    for name, label in _CLUSTER_TILES:
        entry = metrics.get(name)
        if entry is None:
            continue
        tiles.append(
            '<div class="tile">'
            f'<div class="tile-v">{_esc(_fmt(entry.get("value")))}</div>'
            f'<div class="tile-l">{_esc(label)}</div></div>'
        )
    cluster_rows = []
    for entry in entries:
        extra = getattr(entry, "extra", None) or {}
        doc = extra.get("cluster")
        if isinstance(doc, dict):
            cluster_rows.append((entry, doc))
    if not tiles and not cluster_rows:
        return _section(
            "cluster", "Cluster",
            _empty("no cluster activity recorded"),
        )
    parts = []
    if tiles:
        parts.append(f'<div class="tiles">{"".join(tiles)}</div>')
    if cluster_rows:
        headers = ["kind", "dataset", "field", "node(s)", "route / attempt"]
        rows = []
        for entry, doc in cluster_rows[-20:][::-1]:
            if "node" in doc:
                # Member-side record: one forwarded job.
                nodes = str(doc.get("node") or "?")
                route = (
                    f"<code>{_esc(str(doc.get('key') or '')[:16])}</code> "
                    f"attempt {_fmt(doc.get('attempt', 0))}"
                )
            else:
                # Coordinator-side sweep entry.
                alive = doc.get("alive") or doc.get("nodes") or []
                nodes = f"{len(alive)} alive"
                route = _esc(str(doc.get("topology") or "–"))
            rows.append([
                _esc(getattr(entry, "kind", "?")),
                _esc(getattr(entry, "dataset", "?")),
                _esc(getattr(entry, "field", "") or "–"),
                _esc(nodes),
                route,
            ])
        parts.append(_table(headers, rows))
    return _section(
        "cluster", "Cluster", "".join(parts),
        "coordinator tier (repro.cluster): consistent-hash routing over "
        "member nodes with health-probed failover",
    )


def _trace_events(trace) -> List[Dict]:
    if isinstance(trace, dict):
        events = trace.get("traceEvents", [])
    elif isinstance(trace, list):
        events = trace
    else:
        events = []
    return [e for e in events if isinstance(e, dict)]


def render_timeline_section(trace, *, width: int = 680,
                            max_rows: int = 12) -> str:
    """A span-timeline strip from an exported Chrome trace document
    (the ``--trace-perfetto`` output): one lane per (pid, tid), bars
    nested by depth, plus a top-spans table as the accessible view."""
    events = _trace_events(trace)
    xs = [e for e in events if e.get("ph") == "X"]
    if not xs:
        return _section(
            "timeline", "Span timeline",
            _empty("no trace provided (export one with --trace-perfetto)"),
        )
    # Lane names from process_name metadata when present.
    names: Dict[int, str] = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "process_name":
            try:
                names[int(e["pid"])] = str(
                    (e.get("args") or {}).get("name", "")
                )
            except (KeyError, TypeError, ValueError):
                pass
    t0 = min(float(e.get("ts", 0.0)) for e in xs)
    t1 = max(float(e.get("ts", 0.0)) + float(e.get("dur", 0.0)) for e in xs)
    span = (t1 - t0) or 1.0
    lanes = sorted({(int(e.get("pid", 0)), int(e.get("tid", 0)))
                    for e in xs})
    lane_h, label_w, pad = 22, 150, 4
    svg_h = pad * 2 + lane_h * len(lanes)
    parts = [
        f'<svg class="timeline" role="img" width="{width}" '
        f'height="{svg_h}" viewBox="0 0 {width} {svg_h}">'
        f"<title>span timeline, {span:.0f} µs across "
        f"{len(lanes)} track(s)</title>"
    ]
    plot_w = width - label_w - pad
    for i, (pid, tid) in enumerate(lanes):
        y = pad + i * lane_h
        label = names.get(pid) or f"pid {pid}"
        parts.append(
            f'<text x="0" y="{y + lane_h - 8}" class="lane-label">'
            f"{_esc(label)} / {tid}</text>"
        )
        parts.append(
            f'<line x1="{label_w}" y1="{y + lane_h - 4}" x2="{width - pad}" '
            f'y2="{y + lane_h - 4}" stroke="var(--grid)" stroke-width="1"/>'
        )
        lane_events = sorted(
            (e for e in xs
             if int(e.get("pid", 0)) == pid and int(e.get("tid", 0)) == tid),
            key=lambda e: (float(e.get("ts", 0.0)),
                           -float(e.get("dur", 0.0))),
        )
        open_until: List[float] = []  # enclosing spans' end times
        for e in lane_events:
            ts = float(e.get("ts", 0.0))
            dur = float(e.get("dur", 0.0))
            open_until = [end for end in open_until if end > ts]
            depth = min(len(open_until), 3)
            open_until.append(ts + dur)
            x = label_w + plot_w * (ts - t0) / span
            w = max(plot_w * dur / span, 1.0)
            h = max(lane_h - 8 - 3 * depth, 3)
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 3 * depth}" width="{w:.1f}" '
                f'height="{h}" rx="1.5" fill="var(--series-1)" '
                f'fill-opacity="{1.0 - 0.2 * depth:.1f}">'
                f"<title>{_esc(e.get('name', '?'))} "
                f"({dur:.0f} µs)</title></rect>"
            )
    parts.append("</svg>")
    top = sorted(xs, key=lambda e: -float(e.get("dur", 0.0)))[:max_rows]
    rows = [
        [
            f"<code>{_esc(e.get('name', '?'))}</code>",
            _esc(e.get("cat", "")),
            _esc(f"{int(e.get('pid', 0))}/{int(e.get('tid', 0))}"),
            _esc(f"{float(e.get('ts', 0.0)) - t0:.0f}"),
            _esc(f"{float(e.get('dur', 0.0)):.0f}"),
        ]
        for e in top
    ]
    table = _table(
        ["span", "category", "pid/tid", "start µs", "duration µs"],
        rows,
    )
    note = (
        f"{len(xs)} spans over {len(lanes)} track(s); bar depth = span "
        "nesting; table lists the longest spans"
    )
    return _section(
        "timeline", "Span timeline", "".join(parts) + table, note
    )


# ---------------------------------------------------------------------------
# the page
# ---------------------------------------------------------------------------

# Palette: the validated reference instance (light + dark as selected
# steps of the same hues).  Text wears text ink; series color only ever
# fills marks.  Dark mode follows the OS setting.
_CSS = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --text: #0b0b0b; --text-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --good: #0ca30c; --warn: #fab219; --bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --text: #ffffff; --text-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--text);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header h1 { font-size: 20px; margin: 0 0 2px; }
header .sub { color: var(--text-2); margin: 0 0 20px; }
section {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
}
h2 { font-size: 15px; margin: 0 0 8px; }
h3 { font-size: 13px; margin: 14px 0 6px; }
.note { color: var(--muted); font-size: 12px; margin: 0 0 8px; }
.empty { color: var(--muted); font-style: italic; margin: 4px 0; }
table { border-collapse: collapse; width: 100%; font-size: 12.5px; }
th {
  text-align: left; color: var(--text-2); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0;
}
td {
  border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
  font-variant-numeric: tabular-nums; vertical-align: middle;
}
code { font-size: 12px; }
.tiles { display: flex; gap: 24px; flex-wrap: wrap; margin: 4px 0 14px; }
.tile-v { font-size: 24px; font-weight: 600; }
.tile-l { color: var(--text-2); font-size: 12px; }
.spark, .timeline { display: block; }
.badge { color: var(--text); white-space: nowrap; }
.badge-ic { font-weight: 700; }
.b-ok .badge-ic { color: var(--good); }
.b-warn .badge-ic { color: var(--warn); }
.b-bad .badge-ic { color: var(--bad); }
.verdict { margin: 0 0 8px; }
.lane-label { font-size: 11px; fill: var(--text-2); }
.timeline text { font-family: inherit; }
footer { color: var(--muted); font-size: 12px; margin-top: 8px; }
"""


def render_dashboard(
    *,
    entries: Sequence = (),
    snapshot: Optional[Dict] = None,
    bench: Optional[Dict[str, Dict]] = None,
    drift=None,
    trace=None,
    title: str = "fpzc run dashboard",
    limit: int = 20,
    generated: str = "",
) -> str:
    """Render the full dashboard as one self-contained HTML document.

    ``entries`` are ledger entries (newest last, as read); ``snapshot``
    a metrics snapshot dict; ``bench`` a ``{name: parsed json}`` map of
    baseline files; ``drift`` a precomputed
    :class:`~repro.telemetry.drift.DriftReport` (computed from
    ``entries`` when omitted); ``trace`` a Chrome trace document.
    Every input is optional; absent ones render as empty states.
    """
    if drift is None and entries:
        from repro.telemetry.drift import drift_report

        drift = drift_report(entries)
    sections = [
        render_ledger_section(entries, limit=limit),
        render_drift_section(drift),
        render_service_section(entries, snapshot),
        render_cache_section(entries, snapshot),
        render_cluster_section(entries, snapshot),
        render_timeline_section(trace),
        render_bench_section(bench),
        render_metrics_section(snapshot),
    ]
    sub = "fixed-PSNR compression · accuracy-conformance observatory"
    if generated:
        sub += f" · generated {_esc(generated)}"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body><header><h1>{_esc(title)}</h1>"
        f'<p class="sub">{sub}</p></header>\n'
        + "\n".join(sections)
        + "\n<footer>self-contained report — no external resources"
        "</footer></body></html>\n"
    )


def load_bench_dir(directory) -> Dict[str, Dict]:
    """Read every ``BENCH_*.json`` under ``directory`` into the map
    :func:`render_dashboard` expects; unreadable files are skipped."""
    from pathlib import Path

    out: Dict[str, Dict] = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict):
            out[path.name] = doc
    return out
