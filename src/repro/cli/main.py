"""``fpzc`` -- fixed-PSNR scientific-data compressor CLI.

Subcommands
-----------
``compress``    compress a ``.npy`` array (fixed-PSNR/NRMSE/MSE, abs or
                rel bound, or a searched ``--ratio`` target)
``autotune``    search the error-bound space for a ratio/bit-rate/
                SSIM/max-error target (FRaZ-style trial loop)
``decompress``  reconstruct a ``.npy`` from a compressed container
``info``        print a container's metadata
``table1``      print the data-set inventory (paper Table I)
``sweep``       run a fixed-PSNR sweep over a data set (Table II rows)
``bench``       run the benchmark matrix; write or ``--check`` baselines
``ledger``      print recent entries of the run ledger
``drift``       chart PSNR conformance over ledger history
                (``--check`` exits 0 in-control / 1 drifting /
                2 insufficient history)
``report``      write the self-contained HTML run dashboard

Examples
--------
::

    fpzc compress field.npy -o field.fpz --psnr 80
    fpzc compress field.npy -o field.fpz --nrmse 1e-4
    fpzc compress field.npy -o field.fpz --ratio 10
    fpzc compress field.npy -o field.fpz --abs 1e-3 --codec transform
    fpzc autotune field.npy --ratio 10 --tol 0.05 -o field.fpz
    fpzc decompress field.fpz -o recon.npy
    fpzc sweep ATM --targets 40 80 120 --workers 4
    fpzc sweep ATM --workers 2 --trace --trace-perfetto trace.json
    fpzc drift --check && fpzc report --html run.html
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.codecs import ERROR_BOUNDED_CODECS
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    """Attach the shared-cache flag set (``--cache``/``--no-cache``,
    ``--cache-dir``, ``--cache-max-bytes``).

    The cache is opt-in (``--cache``); ``--no-cache`` exists so a
    wrapper script that defaults the flag on can still be overridden
    per invocation.  See :mod:`repro.cache` / ``docs/CACHING.md``.
    """
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=False,
        help="serve and record results through the content-addressed "
        "blob cache (default dir .fpzc/cache or $FPZC_CACHE)",
    )
    group.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="bypass the blob cache even when a wrapper enables it",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="cache directory (default .fpzc/cache or $FPZC_CACHE)",
    )
    p.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        dest="cache_max_bytes",
        metavar="N",
        help="LRU size bound for the cache; an eviction pass runs "
        "after every write (default: unbounded)",
    )


def _cache_store(args):
    """The :class:`repro.cache.CacheStore` the flags ask for, or None
    when caching is off."""
    if not getattr(args, "cache", False):
        return None
    from repro.cache import CacheStore, cache_path

    return CacheStore(
        root=str(cache_path(getattr(args, "cache_dir", None))),
        max_bytes=getattr(args, "cache_max_bytes", None),
    )


def _add_ledger_flag(p: argparse.ArgumentParser) -> None:
    """Attach ``--ledger PATH``, the run-ledger file."""
    p.add_argument(
        "--ledger",
        metavar="PATH",
        help="run-ledger file (default .fpzc/ledger.jsonl or $FPZC_LEDGER)",
    )


def _add_observed_flags(p: argparse.ArgumentParser) -> None:
    """Attach the flags of an observed run (``compress``, ``autotune``,
    ``sweep``): the stage tree, the Perfetto export, memory profiling
    and the run-ledger record.  ``--trace-perfetto``, ``--profile-mem``
    and ``--trace-json`` imply ``--trace`` (:func:`_traced`)."""
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the run's per-stage cost breakdown",
    )
    p.add_argument(
        "--trace-perfetto",
        metavar="PATH",
        help="export the trace as Chrome trace-event JSON (Perfetto/"
        "chrome://tracing); implies --trace",
    )
    p.add_argument(
        "--profile-mem",
        action="store_true",
        help="per-span peak-memory profiling via tracemalloc "
        "(slower; implies --trace)",
    )
    _add_ledger_flag(p)
    p.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this run to the ledger",
    )


def _add_export_flags(p: argparse.ArgumentParser) -> None:
    """Attach ``--trace-json`` and ``--metrics`` (``compress`` and
    ``autotune``)."""
    p.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write the full trace (schema v1 JSON) to PATH; implies --trace",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the process metrics snapshot to PATH "
        "(.prom -> Prometheus text, else JSON)",
    )


def _add_url_flag(p: argparse.ArgumentParser) -> None:
    """Attach ``--url``, the service a job-client command talks to."""
    p.add_argument(
        "--url",
        help="service URL (default $FPZC_SERVICE_URL or "
        "http://127.0.0.1:8077)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    from repro.version import __version__

    parser = argparse.ArgumentParser(
        prog="fpzc",
        description="Fixed-PSNR lossy compression for scientific data "
        "(Tao et al., CLUSTER 2018 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_c = sub.add_parser("compress", help="compress a .npy array")
    p_c.add_argument("input", help="input .npy file (float32/float64 array)")
    p_c.add_argument("-o", "--output", required=True, help="output container file")
    group = p_c.add_mutually_exclusive_group(required=True)
    group.add_argument("--psnr", type=float, help="target PSNR in dB (fixed-PSNR mode)")
    group.add_argument("--abs", type=float, dest="abs_bound", help="absolute error bound")
    group.add_argument(
        "--rel", type=float, dest="rel_bound", help="value-range-relative error bound"
    )
    group.add_argument(
        "--pw-rel",
        type=float,
        dest="pw_rel_bound",
        help="pointwise relative error bound (sz codec only)",
    )
    group.add_argument(
        "--bit-rate",
        type=float,
        dest="bit_rate",
        help="fixed-rate mode: bits per value (embedded codec)",
    )
    group.add_argument(
        "--nrmse",
        type=float,
        dest="nrmse",
        help="target NRMSE (fixed-NRMSE mode, Eq. 8 via Eq. 5)",
    )
    group.add_argument(
        "--mse",
        type=float,
        dest="mse",
        help="target MSE (fixed-MSE mode, Eq. 8 via Eq. 4)",
    )
    group.add_argument(
        "--ratio",
        type=float,
        dest="ratio",
        help="target compression ratio (autotune search; see "
        "`fpzc autotune` for the full knob set)",
    )
    p_c.add_argument(
        "--tol",
        type=float,
        default=0.05,
        help="relative tolerance for --ratio (default 0.05)",
    )
    p_c.add_argument(
        "--codec",
        choices=ERROR_BOUNDED_CODECS + ("embedded",),
        default="sz",
        help="compression codec",
    )
    p_c.add_argument(
        "--refine",
        action="store_true",
        help="histogram-refined bound derivation (fixed-PSNR mode only)",
    )
    p_c.add_argument(
        "--chunks",
        type=int,
        default=0,
        help="compress as N independent slabs (sz codec, --abs/--rel/"
        "--psnr modes); 0 = single container (default)",
    )
    p_c.add_argument(
        "--chunk-workers",
        type=int,
        default=0,
        dest="chunk_workers",
        help="worker processes for --chunks slabs (default 0 = sequential)",
    )
    _add_observed_flags(p_c)
    _add_export_flags(p_c)
    _add_cache_flags(p_c)

    p_at = sub.add_parser(
        "autotune",
        help="search the error-bound space for a measured target "
        "(fixed ratio / bit rate / SSIM / max error)",
    )
    p_at.add_argument("input", help="input .npy file (float32/float64 array)")
    p_at.add_argument(
        "-o", "--output",
        help="also write the container compressed at the converged bound",
    )
    at_group = p_at.add_mutually_exclusive_group(required=True)
    at_group.add_argument(
        "--ratio", type=float, help="target compression ratio"
    )
    at_group.add_argument(
        "--bitrate", type=float, help="target bits per value"
    )
    at_group.add_argument(
        "--ssim", type=float, help="target block SSIM in (0, 1]"
    )
    at_group.add_argument(
        "--max-error",
        type=float,
        dest="max_error",
        help="target maximum pointwise absolute error",
    )
    p_at.add_argument(
        "--codec",
        choices=ERROR_BOUNDED_CODECS,
        default="sz",
        help="error-bounded codec to tune",
    )
    p_at.add_argument(
        "--tol",
        type=float,
        default=0.05,
        help="relative convergence tolerance (default 0.05 = 5%%)",
    )
    p_at.add_argument(
        "--max-trials",
        type=int,
        default=12,
        dest="max_trials",
        help="trial-compression budget (default 12)",
    )
    p_at.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        dest="max_seconds",
        help="wall-clock budget per search phase (default: none)",
    )
    p_at.add_argument(
        "--workers",
        type=int,
        default=0,
        help="parallel pre-probe worker processes (default 0 = inline)",
    )
    p_at.add_argument(
        "--no-warm-start",
        action="store_true",
        help="ignore prior ledger runs when choosing the initial bound",
    )
    p_at.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_observed_flags(p_at)
    _add_export_flags(p_at)
    _add_cache_flags(p_at)

    p_d = sub.add_parser("decompress", help="decompress a container")
    p_d.add_argument("input", help="compressed container file")
    p_d.add_argument("-o", "--output", required=True, help="output .npy file")
    p_d.add_argument(
        "--chunk-workers",
        type=int,
        default=0,
        dest="chunk_workers",
        help="worker processes for chunked containers "
        "(default 0 = sequential)",
    )

    p_i = sub.add_parser("info", help="print container metadata")
    p_i.add_argument("input", help="compressed container file")

    sub.add_parser("table1", help="print the data-set inventory (Table I)")

    p_t2 = sub.add_parser(
        "table2", help="regenerate the paper's Table II across all data sets"
    )
    p_t2.add_argument(
        "--targets",
        type=float,
        nargs="+",
        default=[20.0, 40.0, 60.0, 80.0, 100.0, 120.0],
    )
    p_t2.add_argument("--workers", type=int, default=0)
    p_t2.add_argument(
        "--report",
        help="also write the summary to a file (.md -> Markdown, else CSV)",
    )

    p_g = sub.add_parser(
        "gen", help="generate a synthetic data-set field as .npy"
    )
    p_g.add_argument("dataset", choices=("NYX", "ATM", "Hurricane"))
    p_g.add_argument("field", help="field name (see `fpzc table1` / docs)")
    p_g.add_argument("-o", "--output", required=True, help="output .npy file")
    p_g.add_argument(
        "--scale", type=float, default=None, help="dimension scale in (0, 1]"
    )

    p_v = sub.add_parser(
        "verify", help="check a container's integrity (and optionally fidelity)"
    )
    p_v.add_argument("input", help="compressed container file")
    p_v.add_argument(
        "--original", help="original .npy to measure reconstruction fidelity"
    )
    p_v.add_argument(
        "--salvage",
        action="store_true",
        help="best-effort decode of a damaged container/archive: print "
        "a salvage report (exit 0 clean, 1 losses, 2 unrecoverable)",
    )

    p_a = sub.add_parser(
        "archive", help="compress a whole data-set snapshot into one archive"
    )
    p_a.add_argument("dataset", choices=("NYX", "ATM", "Hurricane"))
    p_a.add_argument("-o", "--output", required=True, help="output .fpza file")
    p_a.add_argument("--psnr", type=float, default=80.0, help="target PSNR")
    p_a.add_argument("--fields", nargs="*", default=None, help="subset of fields")

    p_x = sub.add_parser("extract", help="extract one field from an archive")
    p_x.add_argument("input", help="input .fpza archive")
    p_x.add_argument("field", nargs="?", help="field name (omit to list)")
    p_x.add_argument("-o", "--output", help="output .npy (required with a field)")

    p_s = sub.add_parser("sweep", help="fixed-PSNR sweep over a data set")
    p_s.add_argument("dataset", choices=("NYX", "ATM", "Hurricane"))
    p_s.add_argument(
        "--targets",
        type=float,
        nargs="+",
        default=[20.0, 40.0, 60.0, 80.0, 100.0, 120.0],
        help="target PSNRs in dB",
    )
    p_s.add_argument("--fields", nargs="*", default=None, help="subset of fields")
    p_s.add_argument("--workers", type=int, default=0, help="worker processes")
    p_s.add_argument(
        "--refine", action="store_true", help="histogram-refined derivation"
    )
    p_s.add_argument(
        "--max-retries",
        type=int,
        default=0,
        dest="max_retries",
        help="retry failing field tasks up to N times with exponential "
        "backoff before degrading them to a failed row (default 0)",
    )
    p_s.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        dest="task_timeout",
        help="per-task deadline in seconds; a slower attempt counts as "
        "a failure and is retried (default: none)",
    )
    p_s.add_argument(
        "--retry-seed",
        type=int,
        default=0,
        dest="retry_seed",
        help="seed for the backoff jitter RNG (default 0)",
    )
    p_s.add_argument("--json", action="store_true", help="emit JSON records")
    p_s.add_argument(
        "--report",
        help="also write the summary to a file (.md -> Markdown, else CSV)",
    )
    _add_observed_flags(p_s)
    p_s.add_argument(
        "--cluster",
        metavar="TOPOLOGY",
        help="scatter-gather the sweep across a cluster instead of "
        "local workers: shard (field, target) tasks over the member "
        "nodes in this JSON topology file by blob fingerprint, with "
        "failover (see docs/CLUSTER.md)",
    )
    _add_cache_flags(p_s)

    p_b = sub.add_parser(
        "bench",
        help="run the benchmark matrix; write or check committed baselines",
    )
    p_b.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against the committed baselines instead "
        "of rewriting them (exit 1 on deterministic drift)",
    )
    p_b.add_argument(
        "--time-factor",
        type=float,
        default=3.0,
        help="allowed wall-time drift factor before a warning (default 3.0)",
    )
    p_b.add_argument(
        "--dir",
        default=".",
        help="directory holding BENCH_*.json baselines (default: repo root)",
    )

    p_l = sub.add_parser("ledger", help="print recent run-ledger entries")
    _add_ledger_flag(p_l)
    p_l.add_argument(
        "--limit", type=int, default=20, help="show at most N entries"
    )
    p_l.add_argument("--json", action="store_true", help="emit raw JSON lines")

    p_dr = sub.add_parser(
        "drift",
        help="chart PSNR conformance (achieved vs Eq. 7/8 prediction) "
        "over ledger history",
    )
    _add_ledger_flag(p_dr)
    p_dr.add_argument(
        "--check",
        action="store_true",
        help="gate mode: exit 0 in-control, 1 drifting, 2 insufficient "
        "history (without --check the exit code is always 0)",
    )
    p_dr.add_argument("--json", action="store_true", help="emit a JSON report")
    p_dr.add_argument(
        "--min-history",
        type=int,
        default=2,
        dest="min_history",
        help="minimum runs per (dataset, codec, target) series before "
        "judging it (default 2)",
    )
    p_dr.add_argument(
        "--ewma-lambda",
        type=float,
        default=0.3,
        dest="ewma_lambda",
        help="EWMA smoothing weight in (0, 1] (default 0.3)",
    )
    p_dr.add_argument(
        "--sigma-limit",
        type=float,
        default=3.0,
        dest="sigma_limit",
        help="EWMA control limit in sigmas (default 3.0)",
    )

    p_r = sub.add_parser(
        "report",
        help="write the self-contained HTML run dashboard "
        "(ledger, drift, bench, metrics, timeline)",
    )
    p_r.add_argument(
        "--html", metavar="PATH", required=True, help="output HTML file"
    )
    _add_ledger_flag(p_r)
    p_r.add_argument(
        "--limit", type=int, default=20, help="ledger rows in the table"
    )
    p_r.add_argument(
        "--bench-dir",
        default=".",
        dest="bench_dir",
        help="directory holding BENCH_*.json baselines (default: .)",
    )
    p_r.add_argument(
        "--metrics",
        metavar="PATH",
        help="metrics snapshot JSON (from --metrics) to embed",
    )
    p_r.add_argument(
        "--trace",
        metavar="PATH",
        help="Chrome trace JSON (from --trace-perfetto) to embed as the "
        "span timeline",
    )
    p_r.add_argument(
        "--title", default="fpzc run dashboard", help="dashboard title"
    )

    # -- the compression service (repro.service) ------------------------
    p_sv = sub.add_parser(
        "serve",
        help="run the long-lived compression service (HTTP job API, "
        "warm worker pool, admission control; see docs/SERVICE.md)",
    )
    p_sv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_sv.add_argument(
        "--port", type=int, default=8077, help="bind port (0 = any free)"
    )
    p_sv.add_argument(
        "--workers", type=int, default=2, dest="workers",
        help="worker pool size (0 = inline execution); the service "
        "runs two dispatcher loops per worker",
    )
    p_sv.add_argument(
        "--pool",
        choices=("process", "thread", "inline"),
        default="process",
        help="worker pool kind",
    )
    p_sv.add_argument(
        "--queue-limit", type=int, default=64, dest="queue_limit",
        help="admission bound: jobs beyond this depth get 429",
    )
    p_sv.add_argument(
        "--grace", type=float, default=10.0, metavar="SECONDS",
        help="drain window after SIGTERM/SIGINT before forcing exit",
    )
    p_sv.add_argument(
        "--max-retries", type=int, default=1, dest="max_retries",
        help="per-job retry budget for failed attempts",
    )
    _add_ledger_flag(p_sv)
    p_sv.add_argument(
        "--no-ledger", action="store_true", dest="no_ledger",
        help="do not append job records to the run ledger",
    )
    p_sv.add_argument(
        "--trace-perfetto", metavar="PATH", dest="trace_perfetto",
        help="write a Chrome/Perfetto trace of requests and jobs at drain",
    )
    p_sv.add_argument(
        "--allow-faults", action="store_true", dest="allow_faults",
        help="accept deterministic fault specs in job payloads "
        "(testing only)",
    )
    _add_cache_flags(p_sv)

    # -- the cluster tier (repro.cluster) -------------------------------
    p_cl = sub.add_parser(
        "cluster",
        help="multi-node cluster: coordinator over N fpzc serve nodes "
        "(consistent-hash routing, failover; see docs/CLUSTER.md)",
    )
    cl_sub = p_cl.add_subparsers(dest="cluster_command", required=True)
    p_cls = cl_sub.add_parser(
        "serve",
        help="run the cluster coordinator in the foreground",
    )
    p_cls.add_argument(
        "--topology", metavar="FILE",
        help="JSON topology file (peers list + tuning keys)",
    )
    p_cls.add_argument(
        "--peers", nargs="+", metavar="URL",
        help="member node base URLs (alternative to --topology)",
    )
    p_cls.add_argument(
        "--host", default=None, help="bind address (default 127.0.0.1)"
    )
    p_cls.add_argument(
        "--port", type=int, default=None,
        help="bind port (default 8076, 0 = any free)",
    )
    p_cls.add_argument(
        "--vnodes", type=int, default=None,
        help="virtual nodes per member on the hash ring (default 64)",
    )
    p_cls.add_argument(
        "--probe-interval", type=float, default=None, dest="probe_interval",
        metavar="SECONDS",
        help="health probe interval for alive members (default 2.0)",
    )
    p_cls.add_argument(
        "--dead-after", type=int, default=None, dest="dead_after",
        help="consecutive probe failures before a member is declared "
        "dead and loses its ring ownership (default 3)",
    )
    p_cls.add_argument(
        "--max-retries", type=int, default=None, dest="max_retries",
        help="ring successors to fail a job over to (default 2)",
    )
    p_cls.add_argument(
        "--retry-seed", type=int, default=None, dest="retry_seed",
        help="seed for failover/probe backoff jitter (default 0)",
    )
    p_cls.add_argument(
        "--trace-perfetto", metavar="PATH", dest="trace_perfetto",
        help="write a Chrome/Perfetto trace at drain; each member node "
        "gets its own process lane",
    )
    p_clt = cl_sub.add_parser(
        "status",
        help="print a running coordinator's membership and ring state",
    )
    p_clt.add_argument(
        "--url", default=None,
        help="coordinator URL (default http://127.0.0.1:8076)",
    )
    p_clt.add_argument(
        "--json", action="store_true", help="emit raw JSON"
    )

    p_sub = sub.add_parser(
        "submit", help="submit a compression job to a running service"
    )
    p_sub.add_argument("dataset", help="data-set name (e.g. ATM, NYX)")
    p_sub.add_argument("field", help="field name within the data set")
    grp = p_sub.add_mutually_exclusive_group(required=True)
    grp.add_argument(
        "--psnr", type=float, help="target PSNR in dB (fixed-PSNR mode)"
    )
    grp.add_argument("--ratio", type=float, help="target compression ratio")
    grp.add_argument("--nrmse", type=float, help="target NRMSE")
    p_sub.add_argument("--codec", default="sz", help="codec (default sz)")
    p_sub.add_argument(
        "--refine", choices=("histogram",), help="bound refinement"
    )
    p_sub.add_argument("--scale", type=float, help="data-set scale factor")
    p_sub.add_argument(
        "--priority", type=int, default=5,
        help="queue priority (lower runs first; default 5)",
    )
    p_sub.add_argument(
        "--deadline", type=float, dest="deadline", metavar="SECONDS",
        help="per-job deadline; expired jobs finish as status=timeout",
    )
    p_sub.add_argument(
        "--no-wait", action="store_true", dest="no_wait",
        help="print the job id and return instead of polling",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=300.0,
        help="client-side wait budget with polling (default 300s)",
    )
    p_sub.add_argument(
        "--out", metavar="PATH", help="write the compressed blob here"
    )
    _add_url_flag(p_sub)

    p_st = sub.add_parser("status", help="print a service job's status")
    p_st.add_argument("job", help="job id (from submit)")
    _add_url_flag(p_st)

    p_f = sub.add_parser(
        "fetch", help="download a finished service job's blob"
    )
    p_f.add_argument("job", help="job id (from submit)")
    p_f.add_argument(
        "--out", metavar="PATH", required=True, help="output file"
    )
    _add_url_flag(p_f)

    p_cx = sub.add_parser("cancel", help="cancel a queued or running job")
    p_cx.add_argument("job", help="job id (from submit)")
    _add_url_flag(p_cx)
    return parser


#: Control modes whose achieved values ``compress`` measures (every
#: codec but ``embedded``).
_MEASURED = ("psnr", "nrmse", "mse", "ratio")
#: Control modes whose value is an error bound, not a target.
_BOUNDS = ("pw_rel", "abs", "rel")


def _control(args):
    """The control mode ``compress``'s flags ask for and its value, as
    the cache key names them: ``psnr``/``nrmse``/``mse``/``ratio``/
    ``rate`` with a target, ``pw_rel``/``abs``/``rel`` with a bound.

    Combinations no codec takes are a
    :class:`~repro.errors.ParameterError` before any cache lookup.
    """
    from repro.errors import ParameterError

    mode, value = next(
        (m, v)
        for m, v in (
            ("psnr", args.psnr),
            ("nrmse", args.nrmse),
            ("mse", args.mse),
            ("ratio", args.ratio),
            ("rate", args.bit_rate),
            ("pw_rel", args.pw_rel_bound),
            ("abs", args.abs_bound),
            ("rel", args.rel_bound),
        )
        if v is not None
    )
    codec, chunked = args.codec, args.chunks >= 1
    if chunked and codec != "sz":
        raise ParameterError("--chunks requires --codec sz")
    if chunked and mode not in ("psnr", "abs", "rel"):
        raise ParameterError(
            "--chunks supports --abs, --rel or --psnr control modes only"
        )
    if codec == "embedded" and mode in ("nrmse", "mse", "ratio"):
        raise ParameterError(f"--{mode} is not supported by --codec embedded")
    if codec == "embedded" and mode in ("abs", "rel"):
        raise ParameterError(
            "the embedded codec takes --bit-rate or --psnr, not error bounds"
        )
    if mode == "rate" and codec != "embedded":
        raise ParameterError("--bit-rate requires --codec embedded")
    if mode == "pw_rel" and codec != "sz":
        raise ParameterError("--pw-rel requires --codec sz")
    return mode, value


def _compress_blob(args, data, mode, value, store):
    """Compress ``data`` as :func:`_control` resolved, in every mode
    but the plain fixed-PSNR step (:func:`repro.cache.compress_psnr`).
    ``store`` feeds the ``--ratio`` autotune search's trial cache so
    repeated searches converge from prior probes."""
    refine = "histogram" if args.refine else None
    if args.chunks >= 1:
        from repro.parallel.chunking import compress_chunked

        if mode == "psnr":
            from repro.core.fixed_psnr import FixedPSNRCompressor

            comp = FixedPSNRCompressor(value, refine=refine)
            mode, value = "rel", float(comp.derive_bound(data))
        return compress_chunked(
            data,
            value,
            mode=mode,
            n_chunks=args.chunks,
            n_workers=args.chunk_workers,
        )
    if args.codec == "embedded":
        from repro.transform.embedded import EmbeddedTransformCompressor

        return EmbeddedTransformCompressor(
            mode="fixed_rate" if mode == "rate" else "fixed_psnr", rate=value
        ).compress(data)
    if mode in ("nrmse", "mse"):
        from repro.core import modes

        run = (
            modes.compress_fixed_nrmse
            if mode == "nrmse"
            else modes.compress_fixed_mse
        )
        return run(data, value, refine=refine, codec=args.codec)
    if mode == "ratio":
        from repro.autotune import autotune

        result = autotune(
            data,
            "ratio",
            value,
            codec=args.codec,
            tol=args.tol,
            keep_blob=True,
            store=store,
        )
        print(result.report(), file=sys.stderr)
        return result.blob
    from repro.core.codecs import make_compressor

    return make_compressor(args.codec, value, mode=mode).compress(data)


def _compress_through(args, data, mode, value, store):
    """:func:`_compress_blob` through the blob cache when ``store`` is
    given, measuring what the mode asks for.  Returns ``(blob, key,
    hit, achieved_psnr, achieved)``; the key holds every knob that can
    change the bytes."""
    from repro.cache import blob_key, blob_meta, data_digest, read_meta

    key = None
    if store is not None:
        key = blob_key(
            data_digest(data),
            codec=args.codec,
            mode=mode,
            tol=args.tol if mode == "ratio" else None,
            refine="histogram" if args.refine else None,
            chunks=args.chunks or None,
            **{("bound" if mode in _BOUNDS else "target"): value},
        )
        entry = store.get(key)
        if entry is not None:
            m = read_meta(entry.meta)
            return entry.payload, key, True, m["achieved_psnr"], m["achieved"]
    blob = _compress_blob(args, data, mode, value, store)
    achieved_psnr = achieved = None
    if mode in _MEASURED and args.codec != "embedded":
        from repro.metrics.distortion import mse, nrmse, psnr
        from repro.sz.compressor import reconstruction

        recon = reconstruction(data, blob)
        achieved_psnr = achieved = float(psnr(data, recon))
        if mode == "nrmse":
            achieved = float(nrmse(data, recon))
        elif mode == "mse":
            achieved = float(mse(data, recon))
        elif mode == "ratio":
            achieved = data.nbytes / len(blob)
    if store is not None:
        store.put(
            key,
            blob,
            blob_meta(
                data,
                blob,
                codec=args.codec,
                mode=mode,
                target=None if mode in _BOUNDS else value,
                achieved_psnr=achieved_psnr,
                achieved=achieved,
            ),
        )
    return blob, key, False, achieved_psnr, achieved


def _write_metrics(path: str) -> None:
    """Dump the process metrics registry to ``path`` (format by suffix)."""
    from repro.report import render_metrics_json, render_prometheus
    from repro.telemetry.registry import metrics

    snap = metrics().snapshot()
    text = (
        render_prometheus(snap)
        if path.endswith(".prom")
        else render_metrics_json(snap)
    )
    with open(path, "w") as fh:
        fh.write(text)
    print(f"metrics written to {path}")


def _traced(args) -> bool:
    """Whether the observed-run flags ask for a trace."""
    return bool(
        args.trace
        or getattr(args, "trace_json", None)
        or args.trace_perfetto
        or args.profile_mem
    )


@contextlib.contextmanager
def _observed(traced: bool, profile_mem: bool = False):
    """Yield the run's :class:`repro.observe.Trace`, installed as the
    current trace (under tracemalloc profiling with ``profile_mem``),
    or ``None`` when not ``traced``."""
    if not traced:
        yield None
        return
    from repro.observe import Trace, use_trace

    tr = Trace()
    with contextlib.ExitStack() as stack:
        stack.enter_context(use_trace(tr))
        if profile_mem:
            from repro.telemetry.memory import profile_memory

            stack.enter_context(profile_memory())
        yield tr


def _export_trace(args, tr, out=None, process_names=None) -> None:
    """The exports of an observed run: ``tr`` into the metrics
    registry, its stage tree (and ``--trace-json``) to ``out`` when
    given, and ``--trace-perfetto`` (``process_names`` names the
    lanes)."""
    from repro.telemetry.registry import metrics, record_trace

    record_trace(tr)
    if out is not None:
        print(file=out)
        print(tr.render(), file=out)
        if getattr(args, "trace_json", None):
            with open(args.trace_json, "w") as fh:
                fh.write(tr.to_json())
            print(f"trace written to {args.trace_json}", file=out)
    if args.trace_perfetto:
        from repro.telemetry.export import write_chrome_trace

        write_chrome_trace(
            tr,
            args.trace_perfetto,
            snapshot=metrics().snapshot(),
            process_names=process_names,
        )
        print(
            f"perfetto trace written to {args.trace_perfetto}",
            file=sys.stderr,
        )


def _append_ledger(args, kind: str, tr, **fields) -> None:
    """Append the observed run's ledger entry unless ``--no-ledger``."""
    if args.no_ledger:
        return
    from pathlib import Path

    from repro.telemetry.ledger import append_entry, entry_from_trace

    path = append_entry(
        entry_from_trace(kind, tr, **fields),
        path=Path(args.ledger) if args.ledger else None,
    )
    # stderr so `--json` stdout stays machine-parseable
    print(f"ledger entry appended to {path}", file=sys.stderr)


def _cmd_compress(args) -> int:
    data = np.load(args.input)
    mode, value = _control(args)
    target = None if mode in _BOUNDS else value
    store = _cache_store(args)
    eb_rel = None
    with _observed(_traced(args), args.profile_mem) as tr:
        if mode == "psnr" and args.codec != "embedded" and args.chunks < 1:
            from repro.cache import compress_psnr

            rec = compress_psnr(
                data,
                value,
                codec=args.codec,
                refine="histogram" if args.refine else None,
                store=store,
            )
            blob, key, hit, eb_rel = rec.blob, rec.key, rec.hit, rec.eb_rel
            achieved_psnr = achieved = rec.achieved_psnr
        else:
            blob, key, hit, achieved_psnr, achieved = _compress_through(
                args, data, mode, value, store
            )
        if hit and tr is not None:
            # A hit runs no codec: a traced warm run's one span.
            with tr.span("cache.hit") as sp:
                sp.set("bytes", len(blob))
    with open(args.output, "wb") as fh:
        fh.write(blob)
    ratio = data.nbytes / len(blob)
    print(f"{args.input}: {data.nbytes} -> {len(blob)} bytes (CR {ratio:.2f})")

    # When a quality (or ratio) target was requested, report how close
    # the run landed, measured on the reconstruction (the lattice snap
    # for sz, no decode; see repro.sz.compressor) -- or, on a cache
    # hit, as recorded when the identical blob was first compressed.
    if hit:
        print(f"cache: hit {key[:16]} ({store.root})", file=sys.stderr)
    if achieved_psnr is not None:
        line = f"achieved: PSNR {achieved_psnr:.2f} dB"
        if hit:
            line += f" (target {target:g}, cached)"
        else:
            if mode == "nrmse":
                line += f", NRMSE {achieved:.4g}"
            elif mode == "mse":
                line += f", MSE {achieved:.4g}"
            elif mode == "ratio":
                line += f", CR {ratio:.2f}"
            line += f" (target {target:g})"
        print(line)
    if store is not None and not hit:
        print(f"cache: miss, stored {key[:16]}", file=sys.stderr)

    if tr is not None:
        _export_trace(args, tr, sys.stdout)
        extra = {}
        if store is not None:
            extra["cache"] = {"hit": hit, "key": key}
        # Fixed-PSNR conformance: the Eq. 7/8 prediction at the derived
        # bound next to what the run measured (ledger schema 3).  Warm
        # runs never re-record it: the replayed measurement would
        # double-count the original run's point in the drift history.
        if not hit and eb_rel is not None:
            from repro.telemetry.drift import record_eq8_conformance

            extra["conformance"] = record_eq8_conformance(
                args.input, args.codec, [(value, eb_rel, achieved_psnr)]
            )[0]
        _append_ledger(
            args,
            "compress",
            tr,
            dataset=args.input,
            codec=args.codec,
            mode="bound" if mode in _BOUNDS else mode,
            target=target,
            achieved=achieved,
            target_psnr=args.psnr,
            achieved_psnr=achieved_psnr,
            ratio=ratio,
            raw_bytes=int(data.nbytes),
            compressed_bytes=len(blob),
            extra=extra,
        )
    if args.metrics:
        _write_metrics(args.metrics)
    return 0


def _cmd_autotune(args) -> int:
    """Search the error-bound space for a measured target and report
    the convergence trajectory.  Exit code 0 when the search converged
    within tolerance, 1 when a budget ran out first."""
    from repro.autotune import autotune

    data = np.load(args.input)
    objective, target = next(
        (name, getattr(args, name))
        for name in ("ratio", "bitrate", "ssim", "max_error")
        if getattr(args, name) is not None
    )

    ledger_entries = None
    if not args.no_warm_start:
        from repro.telemetry.ledger import read_entries

        try:
            ledger_entries, _ = read_entries(args.ledger)
        except OSError:
            ledger_entries = None

    store = _cache_store(args)

    # Always trace: the ledger record and --trace/--metrics output are
    # both built from the per-trial spans.
    with _observed(True, args.profile_mem) as tr:
        result = autotune(
            data,
            objective,
            target,
            codec=args.codec,
            tol=args.tol,
            max_trials=args.max_trials,
            max_seconds=args.max_seconds,
            n_workers=args.workers,
            ledger_entries=ledger_entries,
            keep_blob=args.output is not None,
            store=store,
        )

    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(result.report())
    if args.output is not None:
        with open(args.output, "wb") as fh:
            fh.write(result.blob)
        print(
            f"{args.output}: {data.nbytes} -> {len(result.blob)} bytes "
            f"(CR {data.nbytes / len(result.blob):.2f})",
            file=sys.stderr,
        )
    _export_trace(args, tr, sys.stderr if _traced(args) else None)
    extra = {
        "objective": result.objective,
        "eb_rel": result.eb_rel,
        "tolerance": result.tolerance,
        "converged": result.converged,
        "n_trials": result.n_trials,
        "cache_hits": result.cache_hits,
        "subsample_trials": result.subsample_trials,
        "stop_reason": result.stop_reason,
        "trajectory": result.search.as_dict()["trajectory"],
    }
    if store is not None:
        from repro.telemetry.registry import metrics

        m = metrics().get("autotune.store_hits_total")
        extra["cache"] = {
            "store": str(store.root),
            "store_hits": 0 if m is None else int(m.value),
        }
    _append_ledger(
        args,
        "autotune",
        tr,
        dataset=args.input,
        codec=args.codec,
        mode=result.objective,
        target=result.target,
        achieved=result.achieved,
        ratio=data.nbytes / len(result.blob) if result.blob else None,
        raw_bytes=int(data.nbytes),
        compressed_bytes=len(result.blob) if result.blob else None,
        extra=extra,
    )
    if args.metrics:
        _write_metrics(args.metrics)
    return 0 if result.converged else 1


def _cmd_decompress(args) -> int:
    from repro.sz.compressor import decompress

    with open(args.input, "rb") as fh:
        blob = fh.read()
    recon = decompress(blob, n_workers=args.chunk_workers)
    np.save(args.output, recon)
    print(f"{args.output}: shape {recon.shape}, dtype {recon.dtype}")
    return 0


def _cmd_info(args) -> int:
    from repro.io.container import Container

    with open(args.input, "rb") as fh:
        container = Container.from_bytes(fh.read())
    info = {
        "codec": container.codec,
        "meta": container.meta,
        "streams": [
            {"name": name, "bytes": len(payload)}
            for name, payload in container.streams
        ],
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_table1(_args) -> int:
    from repro.datasets.registry import table1_rows

    header = (
        f"{'Dataset':<10} {'Dimensions':>18} {'Fields':>7} "
        f"{'Snapshot':>12} {'Paper size':>11}"
    )
    print(header)
    print("-" * len(header))
    for row in table1_rows():
        size_gb = row["full_size_bytes"] / 1e9
        print(
            f"{row['dataset']:<10} {row['full_dimensions']:>18} "
            f"{row['n_fields']:>7} {size_gb:>9.1f} GB {row['paper_data_size']:>11}"
        )
    return 0


def _write_report(path: str, summaries) -> None:
    """Write per-target summaries to ``path`` (.md -> Markdown, else
    CSV): ``--report`` of ``sweep`` and ``table2``."""
    from repro.report import render_csv, render_markdown

    renderer = render_markdown if path.endswith(".md") else render_csv
    with open(path, "w") as fh:
        fh.write(renderer(summaries))
    print(f"\nreport written to {path}")


def _render_sweep_output(args, results, tr) -> int:
    """The reporting tail shared by the local and cluster sweep paths:
    row table (or ``--json``), per-target summary, failure table, stage
    breakdown, optional report file.  Exit 1 when any task failed."""
    from repro.report import render_text, summarize_by_target

    ok_results = [r for r in results if r.status == "ok"]
    failed = [r for r in results if r.status != "ok"]
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2))
        return 1 if failed else 0
    print(f"{'target':>8} {'field':<16} {'actual':>8} {'dev':>7} {'CR':>8}")
    for r in results:
        if r.status == "ok":
            print(
                f"{r.target_psnr:>8.1f} {r.field:<16} {r.actual_psnr:>8.2f} "
                f"{r.deviation:>+7.2f} {r.compression_ratio:>8.2f}"
            )
        else:
            print(
                f"{r.target_psnr:>8.1f} {r.field:<16} "
                f"FAILED [{r.error_code}] after {r.attempts} attempt(s)"
            )
    if ok_results:
        summaries = summarize_by_target(ok_results)
        print()
        print(
            render_text(summaries, title="Per-target summary (Table II layout)")
        )
    else:
        summaries = []
        print("\nno tasks succeeded; nothing to summarize", file=sys.stderr)
    if failed:
        from repro.report import render_sweep_failures

        print()
        print(render_sweep_failures(results), file=sys.stderr)
    if tr is not None:
        from repro.report import render_stage_breakdown

        print()
        print(render_stage_breakdown(results))
    if args.report and summaries:
        _write_report(args.report, summaries)
    return 1 if failed else 0


def _sweep_ledger(args, tr, results, extra) -> None:
    """Append a traced sweep's ledger entry: mean achieved PSNR and
    ratio over the successful rows, plus ``extra``."""
    ok = [r for r in results if r.status == "ok"]
    _append_ledger(
        args,
        "sweep",
        tr,
        dataset=args.dataset,
        field="*",
        codec="sz",
        achieved_psnr=(
            float(np.mean([r.actual_psnr for r in ok])) if ok else None
        ),
        ratio=(
            float(np.mean([r.compression_ratio for r in ok])) if ok else None
        ),
        extra={"targets": [float(t) for t in args.targets], **extra},
    )


def _cmd_sweep_cluster(args) -> int:
    """``fpzc sweep --cluster TOPOLOGY``: scatter-gather the sweep
    across the member nodes of a running cluster instead of local
    workers.  Tasks are sharded by blob fingerprint on the coordinator's
    consistent-hash ring, failed over to ring successors when a node
    dies mid-sweep, and the merged rows are bit-identical to the serial
    path (see docs/CLUSTER.md)."""
    from repro.cluster import ClusterConfig, build_router

    overrides = {}
    if args.max_retries > 0:
        overrides["max_retries"] = args.max_retries
    if args.retry_seed:
        overrides["retry_seed"] = args.retry_seed
    config = ClusterConfig.from_topology(args.cluster, **overrides)
    tr = None
    if _traced(args):
        from repro.observe import Trace

        tr = Trace()
    router = build_router(config, trace=tr)
    results = router.sweep(
        args.dataset,
        targets=args.targets,
        fields=args.fields,
        refine="histogram" if args.refine else None,
    )
    alive = sorted(
        url
        for url, st in router.membership.states().items()
        if st["status"] == "alive"
    )
    print(
        f"cluster: {len(results)} task(s) over {len(alive)} alive node(s) "
        f"({', '.join(alive) or 'none'})",
        file=sys.stderr,
    )
    if tr is not None:
        from repro.cluster.router import node_lane

        lanes = {node_lane(url): f"node {url}" for url in config.peers}
        _export_trace(args, tr, process_names=lanes)
        # No coordinator-side conformance records: each member node
        # already recorded its own for freshly compressed jobs, so
        # recording here would double-count the drift history.
        _sweep_ledger(
            args,
            tr,
            results,
            {
                "cluster": {
                    "topology": args.cluster,
                    "nodes": list(config.peers),
                    "alive": alive,
                }
            },
        )
    return _render_sweep_output(args, results, tr)


def _cmd_sweep(args) -> int:
    if args.cluster:
        return _cmd_sweep_cluster(args)
    from repro.parallel.executor import sweep_dataset

    retry = None
    if args.max_retries > 0 or args.task_timeout is not None:
        from repro.resilience.retry import RetryPolicy

        retry = RetryPolicy(
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            seed=args.retry_seed,
        )
    cache = _cache_store(args)
    # Tasks profile memory themselves (--profile-mem), so the parent
    # only installs the trace; with --trace-perfetto a parent span keeps
    # the coordinator track next to the worker tracks on the timeline.
    with _observed(_traced(args)) as tr, (
        tr.span("sweep") if args.trace_perfetto else contextlib.nullcontext()
    ):
        results = sweep_dataset(
            args.dataset,
            targets=args.targets,
            fields=args.fields,
            refine="histogram" if args.refine else None,
            n_workers=args.workers,
            collect_trace=tr is not None,
            profile_mem=args.profile_mem,
            retry=retry,
            cache=cache,
        )
    ok_results = [r for r in results if r.status == "ok"]
    extra = {}
    if cache is not None:
        hits = sum(1 for r in ok_results if r.cache_hit)
        print(
            f"cache: {hits} hit(s) / {len(ok_results) - hits} miss(es) "
            f"({cache.root})",
            file=sys.stderr,
        )
        extra["cache"] = {
            "store": str(cache.root),
            "hits": hits,
            "misses": len(ok_results) - hits,
        }
    if tr is not None:
        _export_trace(args, tr)
        # Cache hits replay previously recorded measurements, so only
        # freshly compressed fields feed the drift history.
        fresh = [
            (r.target_psnr, r.eb_rel, r.actual_psnr)
            for r in ok_results
            if not r.cache_hit
        ]
        if fresh:
            from repro.telemetry.drift import record_eq8_conformance

            extra["conformance"] = record_eq8_conformance(
                args.dataset, "sz", fresh
            )
        if retry is not None:
            from repro.telemetry.registry import metrics

            def _ctr(name):
                m = metrics().get(name)
                return 0 if m is None else m.value

            extra["resilience"] = {
                "max_retries": retry.max_retries,
                "task_timeout": retry.task_timeout,
                "failed_fields": [
                    {"field": r.field, "target": r.target_psnr,
                     "code": r.error_code, "attempts": r.attempts}
                    for r in results
                    if r.status != "ok"
                ],
                "retries": _ctr("resilience.retries_total"),
                "timeouts": _ctr("resilience.task_timeouts_total"),
            }
        _sweep_ledger(args, tr, results, extra)
    return _render_sweep_output(args, results, tr)


def _cmd_archive(args) -> int:
    from repro.core.fixed_psnr import FixedPSNRCompressor
    from repro.datasets.registry import get_dataset
    from repro.errors import ParameterError
    from repro.io.archive import Archive

    ds = get_dataset(args.dataset)
    names = args.fields if args.fields else ds.field_names
    unknown = set(names) - set(ds.field_names)
    if unknown:
        raise ParameterError(f"unknown fields: {sorted(unknown)}")
    raw = 0

    def fields():
        nonlocal raw
        for n in names:
            data = ds.field(n)
            raw += data.nbytes
            yield n, data

    arc = Archive.build(fields(), FixedPSNRCompressor(args.psnr))
    blob = arc.to_bytes()
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(
        f"{args.output}: {len(names)} fields, {raw} -> {len(blob)} bytes "
        f"(CR {raw / len(blob):.2f}) at {args.psnr:.1f} dB"
    )
    return 0


def _cmd_extract(args) -> int:
    from repro.errors import ParameterError
    from repro.io.archive import Archive

    with open(args.input, "rb") as fh:
        arc = Archive(fh.read())
    if args.field is None:
        for name in arc.names:
            print(name)
        return 0
    if args.output is None:
        raise ParameterError("-o/--output is required when extracting a field")
    data = arc.load(args.field)
    np.save(args.output, data)
    print(f"{args.output}: shape {data.shape}, dtype {data.dtype}")
    return 0


def _cmd_table2(args) -> int:
    from repro.parallel.executor import sweep_dataset
    from repro.report import render_text, summarize_by_target

    results = []
    for dataset in ("NYX", "ATM", "Hurricane"):
        results.extend(
            sweep_dataset(dataset, targets=args.targets, n_workers=args.workers)
        )
    summaries = summarize_by_target(results)
    print(render_text(summaries, title="Table II -- fixed-PSNR accuracy"))
    if args.report:
        _write_report(args.report, summaries)
    return 0


def _cmd_gen(args) -> int:
    from repro.datasets.registry import get_dataset

    ds = get_dataset(args.dataset, scale=args.scale)
    data = ds.field(args.field)
    np.save(args.output, data)
    print(
        f"{args.output}: {args.dataset}/{args.field}, shape {data.shape}, "
        f"dtype {data.dtype}"
    )
    return 0


def _cmd_verify(args) -> int:
    from repro.metrics.distortion import distortion_report
    from repro.sz.compressor import decompress

    with open(args.input, "rb") as fh:
        blob = fh.read()
    if args.salvage:
        return _verify_salvage(blob)
    # Container.from_bytes CRC-checks every stream; decompressing
    # exercises the full pipeline.
    recon = decompress(blob)
    print(f"{args.input}: OK (shape {recon.shape}, dtype {recon.dtype})")
    if args.original:
        original = np.load(args.original)
        if original.shape != recon.shape:
            print("error: original shape mismatch", file=sys.stderr)
            return 2
        rep = distortion_report(original, recon)
        print(
            f"vs {args.original}: PSNR {rep.psnr:.2f} dB, "
            f"max|err| {rep.max_abs_error:.3e}, NRMSE {rep.nrmse:.3e}"
        )
    return 0


def _verify_salvage(blob: bytes) -> int:
    """Best-effort decode for ``fpzc verify --salvage``: print the
    salvage report for a container or archive (sniffed by magic).
    Exit 0 when everything was recovered, 1 on partial loss, 2 when
    the identity header is unusable."""
    from repro.errors import FormatError
    from repro.report import render_salvage
    from repro.resilience.salvage import salvage_archive, salvage_container

    try:
        if blob[:4] == b"FPZA":
            _fields, report = salvage_archive(blob)
        else:
            _container, report = salvage_container(blob)
    except FormatError as exc:
        code = f" [{exc.code}]" if exc.code else ""
        print(f"unrecoverable:{code} {exc}", file=sys.stderr)
        return 2
    print(render_salvage(report))
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    from repro.telemetry.bench import check_baselines, write_baselines

    if not args.check:
        paths = write_baselines(args.dir)
        for p in paths:
            print(f"baseline written to {p}")
        return 0
    failures, warnings = check_baselines(
        args.dir, time_factor=args.time_factor
    )
    for w in warnings:
        print(f"warning: {w}")
    if failures:
        print(f"bench check FAILED ({len(failures)} deterministic drifts):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("bench check passed: deterministic baselines match")
    return 0


def _cmd_ledger(args) -> int:
    from repro.report import render_ledger_markdown
    from repro.telemetry.ledger import ledger_path, read_entries

    entries, skipped = read_entries(args.ledger)
    if args.json:
        for e in entries[-args.limit:]:
            print(json.dumps(e.as_dict(), sort_keys=True))
    else:
        print(f"ledger: {ledger_path(args.ledger)} ({len(entries)} entries)")
        print(render_ledger_markdown(entries, limit=args.limit))
    if skipped:
        print(f"warning: skipped {skipped} unparseable lines", file=sys.stderr)
    return 0


def _cmd_drift(args) -> int:
    from repro.telemetry.drift import drift_report
    from repro.telemetry.ledger import read_entries

    entries, skipped = read_entries(args.ledger)
    report = drift_report(
        entries,
        ewma_lambda=args.ewma_lambda,
        sigma_limit=args.sigma_limit,
        min_history=args.min_history,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if skipped:
        print(f"warning: skipped {skipped} unparseable lines", file=sys.stderr)
    return report.exit_code if args.check else 0


def _cmd_report(args) -> int:
    import datetime as _dt

    from repro.report import render_dashboard
    from repro.report.dashboard import load_bench_dir
    from repro.telemetry.ledger import read_entries

    entries, skipped = read_entries(args.ledger)
    def _load_json(path: str):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            from repro.errors import ParameterError

            raise ParameterError(f"{path} is not valid JSON: {exc}")

    snapshot = _load_json(args.metrics) if args.metrics else None
    trace_doc = _load_json(args.trace) if args.trace else None
    text = render_dashboard(
        entries=entries,
        snapshot=snapshot,
        bench=load_bench_dir(args.bench_dir),
        trace=trace_doc,
        title=args.title,
        limit=args.limit,
        generated=_dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
    )
    with open(args.html, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"dashboard written to {args.html}")
    if skipped:
        print(f"warning: skipped {skipped} unparseable lines", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, run_service

    store = _cache_store(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        kind=args.pool,
        queue_limit=args.queue_limit,
        grace_s=args.grace,
        max_retries=args.max_retries,
        ledger=args.ledger,
        no_ledger=args.no_ledger,
        allow_faults=args.allow_faults,
        trace_perfetto=args.trace_perfetto,
        cache_dir=None if store is None else str(store.root),
        cache_max_bytes=None if store is None else store.max_bytes,
    )
    print(
        f"fpzc service on http://{config.host}:{config.port} "
        f"({config.n_workers} {config.kind} workers, "
        f"queue limit {config.queue_limit})",
        flush=True,
    )
    return asyncio.run(run_service(config))


def _cmd_cluster(args) -> int:
    if args.cluster_command == "serve":
        from repro.cluster import ClusterConfig, run_coordinator

        overrides = {
            k: v
            for k, v in {
                "host": args.host,
                "port": args.port,
                "vnodes": args.vnodes,
                "probe_interval_s": args.probe_interval,
                "dead_after": args.dead_after,
                "max_retries": args.max_retries,
                "retry_seed": args.retry_seed,
                "trace_perfetto": args.trace_perfetto,
            }.items()
            if v is not None
        }
        if args.topology:
            config = ClusterConfig.from_topology(args.topology, **overrides)
        elif args.peers:
            config = ClusterConfig(peers=tuple(args.peers), **overrides)
        else:
            from repro.errors import ParameterError

            raise ParameterError(
                "cluster serve needs --topology FILE or --peers URL..."
            )
        # run_coordinator prints its own banner with the bound port
        # (which may differ from config.port when it is 0).
        return run_coordinator(config)
    if args.cluster_command == "status":
        from repro.service.client import ServiceClient

        client = ServiceClient(args.url or "http://127.0.0.1:8076")
        nodes = client._json("GET", "/cluster/nodes", None)
        ring = client._json("GET", "/cluster/ring", None)
        if args.json:
            print(json.dumps({"nodes": nodes, "ring": ring}, indent=2,
                             sort_keys=True))
            return 0
        print(f"{'node':<32} {'status':<9} {'owns':>7} {'failures':>9}")
        ownership = ring.get("ownership", {})
        for url, state in sorted(nodes.get("states", {}).items()):
            frac = ownership.get(url, 0.0)
            print(
                f"{url:<32} {state.get('status', '?'):<9} "
                f"{frac:>6.1%} {state.get('consecutive_failures', 0):>9}"
            )
        return 0
    raise AssertionError(f"unknown cluster command {args.cluster_command!r}")


def _submit_payload(args):
    if args.psnr is not None:
        mode, target = "psnr", args.psnr
    elif args.ratio is not None:
        mode, target = "ratio", args.ratio
    else:
        mode, target = "nrmse", args.nrmse
    payload = {
        "dataset": args.dataset,
        "field": args.field,
        "mode": mode,
        "target": target,
        "codec": args.codec,
        "priority": args.priority,
    }
    if args.refine:
        payload["refine"] = args.refine
    if args.scale is not None:
        payload["scale"] = args.scale
    if args.deadline is not None:
        payload["deadline_s"] = args.deadline
    return payload


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    job_id = client.submit("compress", _submit_payload(args))
    if args.no_wait:
        print(job_id)
        return 0
    doc = client.wait(job_id, timeout=args.timeout)
    state = doc.get("state")
    result = doc.get("result") or {}
    if state == "done":
        achieved = result.get("achieved_psnr")
        line = f"{job_id}: done"
        if achieved is not None:
            line += f"  achieved PSNR {achieved:.2f} dB"
        if result.get("ratio"):
            line += f"  ratio {result['ratio']:.2f}"
        print(line)
        if args.out:
            blob = client.fetch_blob(job_id)
            with open(args.out, "wb") as fh:
                fh.write(blob)
            print(f"wrote {len(blob)} bytes to {args.out}")
        return 0
    print(
        f"{job_id}: {state}"
        + (f" ({doc['error']})" if doc.get("error") else ""),
        file=sys.stderr,
    )
    return 1


def _cmd_status(args) -> int:
    from repro.service.client import ServiceClient

    doc = ServiceClient(args.url).status(args.job)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if doc.get("state") in ("queued", "running", "done") else 1


def _cmd_fetch(args) -> int:
    from repro.service.client import ServiceClient

    blob = ServiceClient(args.url).fetch_blob(args.job)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"wrote {len(blob)} bytes to {args.out}")
    return 0


def _cmd_cancel(args) -> int:
    from repro.service.client import ServiceClient

    doc = ServiceClient(args.url).cancel(args.job)
    print(f"{args.job}: {doc.get('state')}")
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "autotune": _cmd_autotune,
    "decompress": _cmd_decompress,
    "info": _cmd_info,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "sweep": _cmd_sweep,
    "archive": _cmd_archive,
    "extract": _cmd_extract,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "ledger": _cmd_ledger,
    "drift": _cmd_drift,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "cancel": _cmd_cancel,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
