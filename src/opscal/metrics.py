"""Calibration error, sharpness, refinement, Brier score, and the
truth-referenced metrics available on synthetic streams.

All binned metrics use the shared epsilon-bins and depend only on per-bin
aggregates, so they are invariant to permutations of the time index.
With ybar the overall outcome mean, every report satisfies
ybar^2 <= SHP <= ybar, refinement = ybar - SHP, and
refinement <= Brier + eps + eps^2/4: identities the test suite fuzzes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinningScheme, BinStats


def _check_lengths(p, y):
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if p.shape != y.shape or p.ndim != 1 or len(p) == 0:
        raise ValueError("forecasts and outcomes must be equal-length nonempty 1-D arrays")
    return p, y


def _ce(stats: BinStats, T: int) -> float:
    return float(np.sum(stats.counts * np.abs(stats.forecast_means() - stats.outcome_means())) / T)


def _shp(stats: BinStats, T: int) -> float:
    return float(np.sum(stats.counts * stats.outcome_means() ** 2) / T)


def _refinement(stats: BinStats, T: int) -> float:
    ybars = stats.outcome_means()
    return float(np.sum(stats.counts * ybars * (1.0 - ybars)) / T)


def calibration_error(p, y, scheme: BinningScheme) -> float:
    """(1/T) sum_b N_b |pbar_b - ybar_b| over the epsilon-bins.

    Empty bins contribute zero (their N_b factor vanishes).
    """
    p, y = _check_lengths(p, y)
    return _ce(BinStats.from_arrays(p, y, scheme), len(p))


def sharpness(p, y, scheme: BinningScheme) -> float:
    """(1/T) sum_b N_b ybar_b^2; ybar_b = 0 on empty bins."""
    p, y = _check_lengths(p, y)
    return _shp(BinStats.from_arrays(p, y, scheme), len(p))


def refinement(p, y, scheme: BinningScheme) -> float:
    """(1/T) sum_b N_b ybar_b (1 - ybar_b)."""
    p, y = _check_lengths(p, y)
    return _refinement(BinStats.from_arrays(p, y, scheme), len(p))


def brier(p, y) -> float:
    """Unbinned mean squared forecast error."""
    p, y = _check_lengths(p, y)
    return float(np.mean((y - p) ** 2))


def true_ce(p, truth) -> float:
    """Mean |p_t - Pr(Y_t=1 | X_t)| against the known conditional
    probabilities (synthetic streams only)."""
    if truth is None:
        raise ValueError("true conditional probabilities are unavailable")
    p, truth = _check_lengths(p, truth)
    return float(np.mean(np.abs(p - truth)))


def true_accuracy(p, truth) -> float:
    """Expected 0/1 accuracy of thresholding at 0.5 under the known truth.

    A forecast of exactly 0.5 counts as predicting class 1.
    """
    if truth is None:
        raise ValueError("true conditional probabilities are unavailable")
    p, truth = _check_lengths(p, truth)
    return float(np.mean(np.where(p >= 0.5, truth, 1.0 - truth)))


@dataclass
class MetricReport:
    ce: float
    shp: float
    refinement: float
    brier: float
    ybar: float
    true_ce: float | None = None
    true_accuracy: float | None = None


def metric_report(p, y, scheme: BinningScheme, truth=None) -> MetricReport:
    """All metrics of one forecast column in a single pass."""
    p, y = _check_lengths(p, y)
    stats = BinStats.from_arrays(p, y, scheme)
    return MetricReport(
        ce=_ce(stats, len(p)),
        shp=_shp(stats, len(p)),
        refinement=_refinement(stats, len(p)),
        brier=brier(p, y),
        ybar=float(np.mean(y)),
        true_ce=None if truth is None else true_ce(p, truth),
        true_accuracy=None if truth is None else true_accuracy(p, truth),
    )


# guarantee right-hand sides for the calibeating wrappers; slack terms only,
# to be combined with the base forecaster's measured value


def tracking_sharpness_slack(epsilon: float, T: int) -> float:
    """SHP(tracked) >= SHP(base) - slack, deterministically per run."""
    return epsilon + epsilon**2 / 4.0 + (np.log(T) + 1.0) / (epsilon * T)


def hedging_sharpness_slack(epsilon: float, T: int) -> float:
    """E[SHP(hedged)] >= SHP(base) - slack."""
    return epsilon + (np.log(T) + 1.0) / (epsilon**2 * T)


def hedging_ce_bound(epsilon: float, T: int) -> float:
    """E[CE(hedged)] <= eps/2 + 2 sqrt(1/(eps^2 T)), any outcome process."""
    return epsilon / 2.0 + 2.0 * np.sqrt(1.0 / (epsilon**2 * T))


def hedging_brier_slack(epsilon: float, T: int) -> float:
    """E[BS(hedged)] <= BS(base) + slack."""
    return 2.0 * epsilon + epsilon**2 / 4.0 + (np.log(T) + 1.0) / (epsilon**2 * T)
