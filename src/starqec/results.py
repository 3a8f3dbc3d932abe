"""Post-processing of simulation results: binomial intervals, the quadratic
fit and pseudo-threshold, the m-copy comparison and the results CSVs."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, astuple, dataclass
from pathlib import Path


def m_copy_failure(p_l: float, m: int) -> float:
    """Total failure probability of m independent copies: 1 - (1 - p_l)^m."""
    if not 0.0 <= p_l <= 1.0:
        raise ValueError("p_l must be in [0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1.0 - (1.0 - p_l) ** m


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class PointEstimate:
    p: float
    trials: int
    failures: int

    @property
    def p_l(self) -> float:
        return self.failures / self.trials

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.failures, self.trials)


@dataclass(frozen=True)
class LifetimeSummary:
    trajectories: int
    failures: int
    censored: int
    total_rounds: int
    max_rounds: int

    @property
    def mean_rounds(self) -> float:
        return self.total_rounds / self.trajectories


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares fit of p_L = c p^2 and the derived
    pseudo-threshold p* against the idle-failure curve p/10."""

    c: float
    c_ci: tuple[float, float]
    pstar: float
    pstar_ci: tuple[float, float]
    points_used: tuple[float, ...]
    crossing_pstar: float
    # (p, reason) per point the filter rejected: 'too few failures', 'p > p_max',
    # 'saturated', or 'used as fallback' (saturated, fitted as none was below the cap)
    dropped: tuple[tuple[float, str], ...] = ()

    def as_dict(self) -> dict:
        dropped = [{"p": p, "reason": reason} for p, reason in self.dropped]
        return {**asdict(self), "dropped": dropped}


def _bisect_crossing(c: float) -> float:
    """Numeric intersection of c p^2 with p/10, as a cross-check on 1/(10c)."""
    f = lambda p: c * p * p - p / 10.0
    lo, hi = 1e-15, 1.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def fit_quadratic(
    points: list[PointEstimate],
    min_failures: int = 20,
    p_max: float = 3e-3,
    saturation_cap: float = 0.04,
) -> FitResult:
    """Fit c from points in the quadratic regime: p <= p_max and an observed
    failure rate below ``saturation_cap`` (c p^2 must be small for the
    quadratic model to hold), carrying at least ``min_failures`` failures.
    If every such point is saturated, the saturated ones are fitted instead."""
    reasons = [
        "too few failures" if pt.failures < min_failures else "p > p_max" if pt.p > p_max
        else "saturated" if pt.p_l > saturation_cap else None
        for pt in points
    ]
    if None not in reasons:
        reasons = ["used as fallback" if r == "saturated" else r for r in reasons]
    usable = [pt for pt, r in zip(points, reasons) if r in (None, "used as fallback")]
    if not usable:
        raise FitError(
            "no point has enough failures for a fit; increase trials or use larger p"
        )
    swxy = 0.0
    swxx = 0.0
    for pt in usable:
        y = pt.p_l
        var = max(y * (1 - y) / pt.trials, 1e-300)
        x = pt.p * pt.p
        swxy += x * y / var
        swxx += x * x / var
    c = swxy / swxx
    se = 1.0 / math.sqrt(swxx)
    c_lo, c_hi = c - 1.96 * se, c + 1.96 * se
    pstar = 1.0 / (10.0 * c)
    pstar_ci = (1.0 / (10.0 * c_hi), 1.0 / (10.0 * max(c_lo, 1e-300)))
    return FitResult(
        c=c,
        c_ci=(c_lo, c_hi),
        pstar=pstar,
        pstar_ci=pstar_ci,
        points_used=tuple(pt.p for pt in usable),
        crossing_pstar=_bisect_crossing(c),
        dropped=tuple((pt.p, r) for pt, r in zip(points, reasons) if r),
    )


# --- results CSV ------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    code: str
    mode: str
    p: float
    trials: int
    failures: int
    p_l: float
    ci_low: float
    ci_high: float
    seed: int


CSV_COLUMNS = ["code", "mode", "p", "trials", "failures", "p_l", "ci_low", "ci_high", "seed"]


def write_results_csv(path: str | Path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(astuple, rows))  # the csv module writes a float as its repr


def write_lifetime_csv(
    path: str | Path, code: str, seed: int, summaries: list[tuple[float, LifetimeSummary]]
) -> None:
    """One row per (p, lifetime summary)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["code", "p", "trajectories", "failures", "censored", "mean_rounds",
                         "max_rounds", "seed"])
        for p, s in summaries:
            writer.writerow([code, repr(p), s.trajectories, s.failures, s.censored,
                             repr(s.mean_rounds), s.max_rounds, seed])


def read_results_csv(path: str | Path) -> list[ResultRow]:
    """The rows of a results CSV; a missing column or a field of the wrong
    type raises ValueError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"missing column(s): {', '.join(missing)}")
        for rec in reader:
            try:
                rows.append(
                    ResultRow(
                        code=rec["code"],
                        mode=rec["mode"],
                        p=float(rec["p"]),
                        trials=int(rec["trials"]),
                        failures=int(rec["failures"]),
                        p_l=float(rec["p_l"]),
                        ci_low=float(rec["ci_low"]),
                        ci_high=float(rec["ci_high"]),
                        seed=int(rec["seed"]),
                    )
                )
            except (TypeError, ValueError) as exc:  # TypeError: a short row's None
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return rows

