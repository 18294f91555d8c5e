"""Shared pieces of the benchmark: statistics, the pass/fail ledger,
peak memory and the leak check run after every workload."""

from __future__ import annotations

import math
import os
import resource
import signal
import socket
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

#: Prefix every shared-memory segment of a ``repro.parallel.shm``
#: arena starts with; the owner's pid follows in hex.
SHM_PREFIX = "fpz"
SHM_DIR = Path("/dev/shm")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def geomean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def timed_setup(fn, repeats: int = 5, between=None):
    """Run the set-up step ``fn`` ``repeats`` times; returns the last
    result and the median seconds (the ``setup_s`` metric).  The first
    repeat pays one-off costs (lazy imports, cold caches), so the
    median of five rests on four warm ones.  ``between``, when given,
    runs untimed before every repeat but the first."""
    seconds: List[float] = []
    out = None
    for k in range(repeats):
        if k and between is not None:
            between()
        t0 = time.perf_counter()
        out = fn()
        seconds.append(time.perf_counter() - t0)
    return out, median(seconds)


class Tally:
    """Operations attempted and failed, with the first few failure
    messages kept for stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def peak_rss_mb(include_children: int = 0) -> float:
    """Peak RSS of this process plus ``include_children`` times the
    largest reaped child's peak (a bound for a pool of that size)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + include_children * child) / 1024.0


def vm_hwm_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` (peak RSS) over live processes."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid`` (from ``/proc/<pid>/task/*/children``)."""
    out: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return out


def pid_alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def shm_segments(owner_pid: int) -> List[str]:
    prefix = f"{SHM_PREFIX}{owner_pid:x}x"
    try:
        return sorted(p.name for p in SHM_DIR.iterdir() if p.name.startswith(prefix))
    except OSError:
        return []


def _listening_inodes() -> set:
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            cols = line.split()
            if len(cols) > 9 and cols[3] == "0A":  # TCP_LISTEN
                inodes.add(cols[9])
    return inodes


def listening_sockets(pid: int) -> int:
    listening = _listening_inodes()
    count = 0
    for fd in Path(f"/proc/{pid}/fd").glob("*"):
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:[") and target[8:-1] in listening:
            count += 1
    return count


def port_open(port: int) -> bool:
    with socket.socket() as s:
        s.settimeout(0.5)
        return s.connect_ex(("127.0.0.1", port)) == 0


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker this process started
    (a shared-memory arena starts one) and wait for it to exit.

    Left alone it outlives this process by the moment it takes to see
    its pipe close, so a finished run would leave it behind.  A later
    arena in the same process starts a fresh one."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``).  A server subprocess's own resource
    tracker outlives the server by a moment; re-parented here instead
    of to the container's init, it can be waited for and reaped by
    :func:`reap_children`."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_children(timeout: float = 10.0) -> int:
    """Wait up to ``timeout`` seconds for every child of this process
    to exit, reaping each; kill what is still running then.  Returns
    how many had to be killed."""
    me = os.getpid()
    deadline = time.monotonic() + timeout
    while True:
        _reap()
        live = [p for p in children_of(me) if pid_alive(p)]
        if not live:
            return 0
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    for pid in live:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while children_of(me):
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    return len(live)


def leak_check(tally: Tally, extra_pids: Sequence[int] = (),
               extra_shm_owners: Sequence[int] = (), ports: Sequence[int] = ()) -> Dict[str, int]:
    """Count what a finished workload left behind; each kind of leak
    is one failed operation.

    Stops the resource tracker first (:func:`stop_resource_tracker`),
    then counts child processes of this process, ``extra_pids`` still
    alive, shared-memory segments of this process or
    ``extra_shm_owners``, and listening sockets of this process or on
    ``ports``."""
    me = os.getpid()
    stop_resource_tracker()
    deadline = time.monotonic() + 5.0
    while True:
        _reap()
        procs = [
            p for p in children_of(me) if pid_alive(p)
        ] + [p for p in extra_pids if pid_alive(p)]
        if not procs or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    segments = [s for owner in (me, *extra_shm_owners) for s in shm_segments(owner)]
    sockets = listening_sockets(me) + sum(1 for port in ports if port_open(port))
    found = {"processes": len(procs), "shm_segments": len(segments), "sockets": sockets}
    for kind, n in found.items():
        tally.record(n == 0, f"leaked {n} {kind}")
    return found
