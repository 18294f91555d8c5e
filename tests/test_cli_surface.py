"""The ``fpzc`` argument surface, pinned.

``ARGV`` touches every subcommand and every flag (each option string at
least once, every ``--no-*`` twin and every choice-restricted flag).
For each command line the parsed namespace, ``vars(build_parser().
parse_args(argv))``, is compared with ``tests/golden/cli_surface.json``,
and so is a dump of every parser action (option strings, dest,
default, choices, nargs).  A flag, dest, default or choice that is
added, removed or renamed shows up here as a diff.

Rewrite the fixture for the current build (only for a deliberate
change to the CLI surface, and say so) with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli.main import build_parser

FIXTURE = Path(__file__).parent / "golden" / "cli_surface.json"

_OBSERVED = [
    "--trace", "--trace-json", "t.json", "--trace-perfetto", "p.json",
    "--profile-mem", "--metrics", "m.prom", "--ledger", "l.jsonl",
    "--no-ledger",
]
_CACHE = ["--cache", "--cache-dir", "c", "--cache-max-bytes", "1024"]

ARGV = [
    # compress: every control mode and codec
    ["compress", "f.npy", "-o", "f.fpz", "--psnr", "60"],
    ["compress", "f.npy", "--output", "f.fpz", "--abs", "1e-3",
     "--codec", "transform"],
    ["compress", "f.npy", "-o", "f.fpz", "--rel", "1e-3", "--codec", "sz"],
    ["compress", "f.npy", "-o", "f.fpz", "--pw-rel", "1e-2"],
    ["compress", "f.npy", "-o", "f.fpz", "--bit-rate", "4",
     "--codec", "embedded"],
    ["compress", "f.npy", "-o", "f.fpz", "--nrmse", "1e-4",
     "--codec", "regression"],
    ["compress", "f.npy", "-o", "f.fpz", "--mse", "1e-6",
     "--codec", "hybrid", "--refine"],
    ["compress", "f.npy", "-o", "f.fpz", "--ratio", "10", "--tol", "0.1",
     "--codec", "interp"],
    ["compress", "f.npy", "-o", "f.fpz", "--psnr", "60", "--chunks", "4",
     "--chunk-workers", "2", *_OBSERVED, *_CACHE],
    ["compress", "f.npy", "-o", "f.fpz", "--psnr", "60", "--no-cache"],
    # autotune: every objective
    ["autotune", "f.npy", "--ratio", "10"],
    ["autotune", "f.npy", "-o", "f.fpz", "--bitrate", "2",
     "--codec", "transform"],
    ["autotune", "f.npy", "--output", "f.fpz", "--ssim", "0.99",
     "--codec", "regression"],
    ["autotune", "f.npy", "--max-error", "1e-3", "--codec", "hybrid",
     "--tol", "0.02", "--max-trials", "20", "--max-seconds", "5",
     "--workers", "2", "--no-warm-start", "--json", *_OBSERVED, *_CACHE],
    ["autotune", "f.npy", "--ratio", "8", "--codec", "interp",
     "--codec", "sz", "--no-cache"],
    # decompress / info / tables / gen / verify / archive / extract
    ["decompress", "f.fpz", "-o", "r.npy"],
    ["decompress", "f.fpz", "--output", "r.npy", "--chunk-workers", "2"],
    ["info", "f.fpz"],
    ["table1"],
    ["table2"],
    ["table2", "--targets", "40", "80", "--workers", "2",
     "--report", "t.md"],
    ["gen", "NYX", "temperature", "-o", "f.npy"],
    ["gen", "Hurricane", "TC", "--output", "f.npy", "--scale", "0.5"],
    ["verify", "f.fpz"],
    ["verify", "f.fpz", "--original", "f.npy", "--salvage"],
    ["archive", "ATM", "-o", "a.fpza"],
    ["archive", "NYX", "--output", "a.fpza", "--psnr", "60",
     "--fields", "temperature", "velocity_x"],
    ["extract", "a.fpza"],
    ["extract", "a.fpza", "CLDHGH", "-o", "f.npy"],
    ["extract", "a.fpza", "CLDHGH", "--output", "f.npy"],
    # sweep
    ["sweep", "ATM"],
    ["sweep", "NYX", "--targets", "40", "60", "--fields", "temperature",
     "--workers", "2", "--refine", "--max-retries", "3",
     "--task-timeout", "9.5", "--retry-seed", "7", "--json",
     "--report", "s.csv", "--trace", "--trace-perfetto", "p.json",
     "--profile-mem", "--ledger", "l.jsonl", "--no-ledger",
     "--cluster", "topo.json", *_CACHE],
    ["sweep", "Hurricane", "--fields", "--no-cache"],
    # bench / ledger / drift / report
    ["bench"],
    ["bench", "--check", "--time-factor", "10", "--dir", "d"],
    ["ledger"],
    ["ledger", "--ledger", "l.jsonl", "--limit", "5", "--json"],
    ["drift"],
    ["drift", "--ledger", "l.jsonl", "--check", "--json",
     "--min-history", "3", "--ewma-lambda", "0.5", "--sigma-limit", "2"],
    ["report", "--html", "r.html"],
    ["report", "--html", "r.html", "--ledger", "l.jsonl", "--limit", "3",
     "--bench-dir", "b", "--metrics", "m.json", "--trace", "t.json",
     "--title", "T"],
    # serve / cluster
    ["serve"],
    ["serve", "--host", "0.0.0.0", "--port", "0", "--workers", "0",
     "--pool", "inline", "--queue-limit", "8", "--grace", "1.5",
     "--max-retries", "2", "--ledger", "l.jsonl", "--no-ledger",
     "--trace-perfetto", "p.json", "--allow-faults", *_CACHE],
    ["serve", "--pool", "thread", "--no-cache"],
    ["serve", "--pool", "process"],
    ["cluster", "serve"],
    ["cluster", "serve", "--topology", "topo.json", "--peers",
     "http://a:1", "http://b:2", "--host", "0.0.0.0", "--port", "0",
     "--vnodes", "16", "--probe-interval", "0.5", "--dead-after", "2",
     "--max-retries", "1", "--retry-seed", "3",
     "--trace-perfetto", "p.json"],
    ["cluster", "status"],
    ["cluster", "status", "--url", "http://c:3", "--json"],
    # the job client
    ["submit", "ATM", "CLDHGH", "--psnr", "60"],
    ["submit", "ATM", "CLDHGH", "--ratio", "8", "--codec", "transform",
     "--refine", "histogram", "--scale", "0.5", "--priority", "1",
     "--deadline", "30", "--no-wait", "--timeout", "60",
     "--out", "j.fpz", "--url", "http://s:4"],
    ["submit", "NYX", "temperature", "--nrmse", "1e-4"],
    ["status", "j000001"],
    ["status", "j000001", "--url", "http://s:4"],
    ["fetch", "j000001", "--out", "j.fpz"],
    ["fetch", "j000001", "--out", "j.fpz", "--url", "http://s:4"],
    ["cancel", "j000001"],
    ["cancel", "j000001", "--url", "http://s:4"],
]


def _actions(parser, prefix=""):
    """Every action of ``parser`` and its subparsers as plain data."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_actions(sub, f"{prefix}{name} "))
            continue
        if isinstance(action, (argparse._HelpAction,
                               argparse._VersionAction)):
            continue
        key = prefix + ("/".join(action.option_strings) or action.dest)
        out[key] = {
            "dest": action.dest,
            "default": action.default,
            "choices": list(action.choices) if action.choices else None,
            "nargs": action.nargs,
            "kind": type(action).__name__,
        }
    return out


def _record():
    parser = build_parser()
    return {
        "actions": _actions(parser),
        "parsed": [
            {"argv": argv, "vars": vars(parser.parse_args(argv))}
            for argv in ARGV
        ],
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_every_flag_is_exercised():
    used = {tok for argv in ARGV for tok in argv if tok.startswith("-")}
    flags = {
        opt
        for key in _actions(build_parser())
        for opt in key.split(" ")[-1].split("/")
        if opt.startswith("-")
    }
    assert flags - used == set()


def test_actions_match_fixture(recorded):
    assert _actions(build_parser()) == recorded["actions"]


@pytest.mark.parametrize(
    "index", range(len(ARGV)), ids=[" ".join(a[:2]) for a in ARGV]
)
def test_namespace_matches_fixture(recorded, index):
    row = recorded["parsed"][index]
    assert row["argv"] == ARGV[index]
    assert vars(build_parser().parse_args(ARGV[index])) == row["vars"]


if __name__ == "__main__":
    doc = _record()

    def line(value):
        return json.dumps(value, sort_keys=True)

    actions = ",\n".join(
        f"  {line(k)}: {line(v)}" for k, v in sorted(doc["actions"].items())
    )
    parsed = ",\n".join(f"  {line(row)}" for row in doc["parsed"])
    FIXTURE.write_text(
        f'{{"actions": {{\n{actions}\n}},\n"parsed": [\n{parsed}\n]}}\n'
    )
    print(f"wrote {FIXTURE}")
