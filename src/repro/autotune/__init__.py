"""Measurement-driven autotuning: fixed-ratio and fixed-quality modes.

The paper solves fixed-PSNR analytically (Eq. 8); this subsystem
covers everything Eq. 8 cannot: storage budgets (fixed compression
ratio / bit rate, FRaZ-style, arXiv:2001.06139) and non-l2 quality
targets (SSIM, max pointwise error, arbitrary user metrics,
arXiv:2310.14133) -- by running trial compressions and searching the
error-bound space until the *measured* quantity meets the target.

Layout
------
:mod:`~repro.autotune.search`
    Bracketing + log-log secant for monotone objectives, coarse scan +
    golden section for unknown shapes; iteration/wall budgets.
:mod:`~repro.autotune.objective`
    The pluggable objective protocol and the built-in
    ratio/bitrate/psnr/nrmse/mse/ssim/max-error objectives.
:mod:`~repro.autotune.cache`
    Trial memoization and ledger/Eq.-8 warm starts.
:mod:`~repro.autotune.driver`
    The front door: subsampled early trials, parallel pre-probes,
    telemetry, and the :func:`~repro.autotune.driver.autotune` entry
    point.

Quickstart
----------
>>> import numpy as np
>>> from repro.autotune import autotune
>>> data = np.cumsum(np.random.default_rng(0).normal(
...     size=10000)).reshape(100, 100)
>>> result = autotune(data, "ratio", 10.0, tol=0.05)
>>> result.converged and abs(result.achieved - 10.0) <= 0.5
True
"""

from repro.autotune.cache import TrialCache, warm_start
from repro.autotune.driver import AutotuneResult, autotune
from repro.autotune.objective import (
    BUILTIN_OBJECTIVES,
    MetricObjective,
    Objective,
    Trial,
    get_objective,
)
from repro.autotune.search import SearchBudget, SearchResult, search

__all__ = [
    "autotune",
    "AutotuneResult",
    "search",
    "SearchResult",
    "SearchBudget",
    "Objective",
    "MetricObjective",
    "Trial",
    "BUILTIN_OBJECTIVES",
    "get_objective",
    "TrialCache",
    "warm_start",
]
