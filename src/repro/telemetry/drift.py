"""Fixed-PSNR conformance monitoring: is Eq. 8 still holding?

The paper's headline claim (Section V, Eq. 7/8) is that the derived
error bound lands the achieved PSNR within 0.1-5.0 dB of the request,
tighter at high targets.  The ledger has recorded *achieved* values
since schema 1, but nothing compared them against the *prediction*
across runs -- a codec regression that silently widens the deviation
(a quantizer bias, a predictor bug that Eq. 7 no longer models) would
sail through ``fpzc bench --check``, which only guards bytes and wall
time.  This module closes that gap:

1. **At run time** :func:`record_conformance` stores the model's
   predicted PSNR next to the measured one -- as ``psnr.*`` metrics in
   the process registry and as an ``extra.conformance`` payload on the
   run's ledger entry (ledger schema 3; readers of either vintage
   tolerate the other).
2. **Over history** :func:`drift_report` groups conformance points
   per ``(dataset, codec, target)`` series and runs two standard
   control charts over each series' deviation (achieved - predicted,
   in dB):

   * **EWMA** (exponentially weighted moving average,
     ``z_i = lambda*x_i + (1-lambda)*z_{i-1}``) with the classic
     asymptotic control limit ``L * sigma * sqrt(lambda/(2-lambda))``
     -- sensitive to small sustained shifts;
   * **CUSUM** (tabular, in sigma units, slack ``k``, decision
     interval ``h``) -- sensitive to accumulating one-sided drift.

   The baseline mean/sigma come from the *first* half of the series
   (at least ``min_history`` points), so a recent regression cannot
   inflate its own yardstick.  Deterministic replays produce
   zero-variance series; ``sigma_floor`` (default 0.05 dB) keeps the
   limits finite and meaningfully tight.

3. **In CI** ``fpzc drift --check`` turns the verdict into an exit
   code: 0 in-control, 1 drifting, 2 insufficient history -- the
   accuracy-side sibling of ``fpzc bench --check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ParameterError

__all__ = [
    "ConformancePoint",
    "record_conformance",
    "record_eq8_conformance",
    "conformance_points",
    "SeriesVerdict",
    "DriftReport",
    "drift_report",
    "EXIT_IN_CONTROL",
    "EXIT_DRIFTING",
    "EXIT_INSUFFICIENT",
]

#: ``fpzc drift --check`` exit codes.
EXIT_IN_CONTROL = 0
EXIT_DRIFTING = 1
EXIT_INSUFFICIENT = 2


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def record_conformance(
    dataset: str,
    codec: str,
    target_psnr: float,
    predicted_psnr: float,
    achieved_psnr: float,
    n_fields: int = 1,
    registry=None,
) -> Dict:
    """Record one conformance observation; returns the JSON payload
    destined for the ledger entry's ``extra["conformance"]``.

    Metrics written (all deterministic -- the deviation is a function
    of the data and the codec, never of the clock):

    * gauge ``psnr.predicted_db`` / ``psnr.achieved_db`` -- the pair,
    * histogram ``psnr.deviation_db`` -- achieved minus predicted,
      signed dB buckets,
    * counter ``psnr.conformance_records_total``.
    """
    if n_fields < 1:
        raise ParameterError("n_fields must be >= 1")
    deviation = float(achieved_psnr) - float(predicted_psnr)
    from repro.telemetry.registry import DB_DEVIATION_BUCKETS, metrics

    reg = registry if registry is not None else metrics()
    reg.gauge(
        "psnr.predicted_db", help="Eq. 7/8 predicted PSNR of the last run"
    ).set(float(predicted_psnr))
    reg.gauge(
        "psnr.achieved_db", help="measured PSNR of the last run"
    ).set(float(achieved_psnr))
    reg.histogram(
        "psnr.deviation_db",
        buckets=DB_DEVIATION_BUCKETS,
        help="achieved minus predicted PSNR per conformance record",
    ).observe(deviation)
    reg.counter(
        "psnr.conformance_records_total",
        help="conformance observations recorded",
    ).inc()
    return {
        "dataset": str(dataset),
        "codec": str(codec),
        "target_psnr": float(target_psnr),
        "predicted_psnr": float(predicted_psnr),
        "achieved_psnr": float(achieved_psnr),
        "deviation_db": deviation,
        "n_fields": int(n_fields),
    }


def record_eq8_conformance(
    dataset: str,
    codec: str,
    runs: Iterable[Tuple[float, float, float]],
) -> List[Dict]:
    """Record the fixed-PSNR conformance of ``runs``, one
    ``(target_psnr, eb_rel, achieved_psnr)`` triple per freshly
    compressed field: per target, the mean Eq. 7/8 prediction at each
    field's bound against the mean achieved PSNR.

    Returns the :func:`record_conformance` payloads in target order --
    what a sweep stores; a single run stores element 0.  Means are
    ``sum / len`` in run order.
    """
    from repro.core.fixed_psnr import estimate_psnr_from_bound

    by_target: Dict[float, List[Tuple[float, float]]] = {}
    for target, eb_rel, achieved in runs:
        by_target.setdefault(float(target), []).append(
            (
                float(estimate_psnr_from_bound(eb_rel=float(eb_rel))),
                float(achieved),
            )
        )
    return [
        record_conformance(
            dataset,
            codec,
            target,
            sum(p for p, _ in pairs) / len(pairs),
            sum(a for _, a in pairs) / len(pairs),
            n_fields=len(pairs),
        )
        for target, pairs in sorted(by_target.items())
    ]


# ---------------------------------------------------------------------------
# reading history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformancePoint:
    """One historical conformance observation, flattened from a ledger
    entry's ``extra.conformance`` (a dict for ``compress`` runs, a list
    of per-target dicts for ``sweep`` runs)."""

    created: str
    dataset: str
    codec: str
    target_psnr: float
    predicted_psnr: float
    achieved_psnr: float
    deviation_db: float
    n_fields: int = 1

    @property
    def key(self) -> Tuple[str, str, float]:
        return (self.dataset, self.codec, self.target_psnr)


def _point_from_payload(created: str, doc: Dict) -> Optional[ConformancePoint]:
    try:
        return ConformancePoint(
            created=created,
            dataset=str(doc["dataset"]),
            codec=str(doc["codec"]),
            target_psnr=float(doc["target_psnr"]),
            predicted_psnr=float(doc["predicted_psnr"]),
            achieved_psnr=float(doc["achieved_psnr"]),
            deviation_db=float(
                doc.get(
                    "deviation_db",
                    float(doc["achieved_psnr"]) - float(doc["predicted_psnr"]),
                )
            ),
            n_fields=int(doc.get("n_fields", 1)),
        )
    except (KeyError, TypeError, ValueError):
        # A malformed payload (hand-edited ledger, foreign writer) is
        # skipped, never fatal -- same tolerance as the ledger reader.
        return None


def conformance_points(entries: Iterable) -> List[ConformancePoint]:
    """Extract every conformance observation from ledger ``entries``
    in file order.  Entries without one (schema <= 2, or untargeted
    runs) contribute nothing; malformed payloads are skipped."""
    points: List[ConformancePoint] = []
    for e in entries:
        payload = (getattr(e, "extra", None) or {}).get("conformance")
        if payload is None:
            continue
        docs = payload if isinstance(payload, (list, tuple)) else (payload,)
        for doc in docs:
            if isinstance(doc, dict):
                p = _point_from_payload(getattr(e, "created", ""), doc)
                if p is not None:
                    points.append(p)
    return points


# ---------------------------------------------------------------------------
# control charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesVerdict:
    """The chart state of one ``(dataset, codec, target)`` series."""

    dataset: str
    codec: str
    target_psnr: float
    n: int
    deviations: Tuple[float, ...]
    status: str  # "ok" | "drifting" | "insufficient"
    baseline_mean: float = 0.0
    baseline_sigma: float = 0.0
    latest: float = 0.0
    ewma: float = 0.0
    ewma_limit: float = 0.0
    cusum_pos: float = 0.0
    cusum_neg: float = 0.0
    cusum_limit: float = 0.0
    reason: str = ""

    @property
    def key(self) -> Tuple[str, str, float]:
        return (self.dataset, self.codec, self.target_psnr)

    def as_dict(self) -> Dict:
        return {
            "dataset": self.dataset,
            "codec": self.codec,
            "target_psnr": self.target_psnr,
            "n": self.n,
            "deviations": list(self.deviations),
            "status": self.status,
            "baseline_mean": self.baseline_mean,
            "baseline_sigma": self.baseline_sigma,
            "latest": self.latest,
            "ewma": self.ewma,
            "ewma_limit": self.ewma_limit,
            "cusum_pos": self.cusum_pos,
            "cusum_neg": self.cusum_neg,
            "cusum_limit": self.cusum_limit,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class DriftReport:
    """Every series' verdict plus the parameters that produced them."""

    series: Tuple[SeriesVerdict, ...]
    params: Dict = dc_field(default_factory=dict)

    @property
    def status(self) -> str:
        """``"drifting"`` if any series alarms; ``"insufficient"``
        when *no* series has enough history to judge (including an
        empty ledger); ``"ok"`` otherwise."""
        if any(s.status == "drifting" for s in self.series):
            return "drifting"
        if not any(s.status == "ok" for s in self.series):
            return "insufficient"
        return "ok"

    @property
    def exit_code(self) -> int:
        return {
            "ok": EXIT_IN_CONTROL,
            "drifting": EXIT_DRIFTING,
            "insufficient": EXIT_INSUFFICIENT,
        }[self.status]

    def as_dict(self) -> Dict:
        return {
            "status": self.status,
            "params": dict(self.params),
            "series": [s.as_dict() for s in self.series],
        }

    def render(self) -> str:
        """Fixed-width text table (what ``fpzc drift`` prints)."""
        if not self.series:
            return "drift: no conformance history in the ledger"
        header = (
            f"{'dataset':<14} {'codec':<9} {'target':>7} {'n':>4} "
            f"{'mean dev':>9} {'latest':>8} {'EWMA':>8} {'CUSUM+':>7} "
            f"{'CUSUM-':>7}  status"
        )
        lines = [
            f"PSNR conformance drift ({self.status})",
            header,
            "-" * len(header),
        ]
        for s in self.series:
            if s.status == "insufficient":
                tail = f"{'-':>9} {'-':>8} {'-':>8} {'-':>7} {'-':>7}"
            else:
                tail = (
                    f"{s.baseline_mean:>+9.3f} {s.latest:>+8.3f} "
                    f"{s.ewma:>+8.3f} {s.cusum_pos:>7.2f} {s.cusum_neg:>7.2f}"
                )
            line = (
                f"{s.dataset:<14.14} {s.codec:<9.9} {s.target_psnr:>7.1f} "
                f"{s.n:>4} {tail}  {s.status}"
            )
            if s.reason:
                line += f" ({s.reason})"
            lines.append(line)
        return "\n".join(lines)


def _mean_std(xs: Sequence[float]) -> Tuple[float, float]:
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    return mean, math.sqrt(var)


def _judge_series(
    key: Tuple[str, str, float],
    deviations: Sequence[float],
    *,
    ewma_lambda: float,
    sigma_limit: float,
    cusum_k: float,
    cusum_h: float,
    min_history: int,
    sigma_floor: float,
) -> SeriesVerdict:
    dataset, codec, target = key
    n = len(deviations)
    if n < min_history:
        return SeriesVerdict(
            dataset=dataset,
            codec=codec,
            target_psnr=target,
            n=n,
            deviations=tuple(deviations),
            status="insufficient",
            reason=f"need >= {min_history} runs, have {n}",
        )
    # Baseline window: the first half of the series, but never fewer
    # than min_history points.  A fresh regression only appears in the
    # *tail*, so it cannot widen the sigma it is judged against.
    baseline_n = max(min_history, n // 2)
    mean0, sigma0 = _mean_std(deviations[:baseline_n])
    sigma = max(sigma0, sigma_floor)
    ewma = deviations[0]
    for x in deviations[1:]:
        ewma = ewma_lambda * x + (1.0 - ewma_lambda) * ewma
    ewma_limit = (
        sigma_limit * sigma * math.sqrt(ewma_lambda / (2.0 - ewma_lambda))
    )
    s_pos = s_neg = 0.0
    for x in deviations:
        z = (x - mean0) / sigma
        s_pos = max(0.0, s_pos + z - cusum_k)
        s_neg = max(0.0, s_neg - z - cusum_k)
    reasons = []
    if abs(ewma - mean0) > ewma_limit:
        reasons.append(
            f"EWMA {ewma:+.3f} dB outside "
            f"{mean0:+.3f}+/-{ewma_limit:.3f} dB"
        )
    if max(s_pos, s_neg) > cusum_h:
        reasons.append(
            f"CUSUM {max(s_pos, s_neg):.2f} sigma > {cusum_h:g}"
        )
    return SeriesVerdict(
        dataset=dataset,
        codec=codec,
        target_psnr=target,
        n=n,
        deviations=tuple(deviations),
        status="drifting" if reasons else "ok",
        baseline_mean=mean0,
        baseline_sigma=sigma,
        latest=deviations[-1],
        ewma=ewma,
        ewma_limit=ewma_limit,
        cusum_pos=s_pos,
        cusum_neg=s_neg,
        cusum_limit=cusum_h,
        reason="; ".join(reasons),
    )


def drift_report(
    entries: Iterable,
    *,
    ewma_lambda: float = 0.3,
    sigma_limit: float = 3.0,
    cusum_k: float = 0.5,
    cusum_h: float = 5.0,
    min_history: int = 2,
    sigma_floor: float = 0.05,
) -> DriftReport:
    """Chart every conformance series found in ledger ``entries``.

    Parameters are the standard control-chart knobs: ``ewma_lambda``
    the EWMA smoothing weight in (0, 1], ``sigma_limit`` the EWMA
    limit in sigmas, ``cusum_k``/``cusum_h`` the CUSUM slack and
    decision interval in sigma units, ``min_history`` the minimum
    series length to judge at all, and ``sigma_floor`` the smallest
    usable sigma in dB (deterministic replays have zero variance).
    """
    if not (0.0 < ewma_lambda <= 1.0):
        raise ParameterError("ewma_lambda must be in (0, 1]")
    if sigma_limit <= 0 or cusum_h <= 0 or cusum_k < 0:
        raise ParameterError(
            "sigma_limit/cusum_h must be positive and cusum_k >= 0"
        )
    if min_history < 2:
        raise ParameterError(
            "min_history must be >= 2 (one point cannot chart)"
        )
    if sigma_floor <= 0:
        raise ParameterError("sigma_floor must be positive")
    groups: Dict[Tuple[str, str, float], List[float]] = {}
    for p in conformance_points(entries):
        groups.setdefault(p.key, []).append(p.deviation_db)
    params = {
        "ewma_lambda": ewma_lambda,
        "sigma_limit": sigma_limit,
        "cusum_k": cusum_k,
        "cusum_h": cusum_h,
        "min_history": min_history,
        "sigma_floor": sigma_floor,
    }
    series = tuple(
        _judge_series(
            key,
            groups[key],
            ewma_lambda=ewma_lambda,
            sigma_limit=sigma_limit,
            cusum_k=cusum_k,
            cusum_h=cusum_h,
            min_history=min_history,
            sigma_floor=sigma_floor,
        )
        for key in sorted(groups)
    )
    return DriftReport(series=series, params=params)
