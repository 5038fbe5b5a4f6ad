"""Calibration error, sharpness, refinement, Brier score, and the
truth-referenced metrics available on synthetic streams.

All binned metrics use the shared epsilon-bins and depend only on per-bin
aggregates, so they are invariant to permutations of the time index.
With ybar the overall outcome mean, every report satisfies
ybar^2 <= SHP <= ybar, refinement = ybar - SHP, and
refinement <= Brier + eps + eps^2/4: identities the test suite fuzzes.

Every binned metric has one body, ``_tallies``: it routes the forecasts to
their bins once, tallies each bin over every requested prefix of the
stream, and evaluates the CE, SHP and refinement formulas over those
(prefix, bin) tallies. A scalar metric is its one-prefix case. Given
``prefixes``, ``metric_report`` returns CE, SHP and refinement over every
``p[:k]`` from that one pass (the curves the pipeline plots), together
with the whole-column Brier and truth metrics. Columns pass
``core.check_columns`` and must also be nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinningScheme, bins_of, check_columns


def _check_lengths(p, y):
    p, y = check_columns(p, y, "forecasts")
    if len(p) == 0:
        raise ValueError("forecasts and outcomes must be nonempty")
    return p, y


def _check_prefixes(prefixes, T: int) -> np.ndarray:
    ks = np.asarray(prefixes)
    if ks.ndim != 1 or len(ks) == 0:
        raise ValueError("prefixes must be a nonempty 1-D sequence of lengths")
    if ks.dtype.kind not in "iu":
        raise ValueError(f"prefixes must be integers, got dtype {ks.dtype}")
    ks = ks.astype(np.int64)
    if (np.diff(ks) <= 0).any():
        raise ValueError("prefixes must be strictly increasing")
    if ks[0] < 1 or ks[-1] > T:
        raise ValueError(f"prefixes must lie in [1, len(p)] = [1, {T}]")
    return ks


def _tallies(p, y, scheme: BinningScheme, prefixes):
    """(CE, SHP, refinement), each an array over the prefix lengths (the
    whole stream when ``prefixes`` is None).

    Counts come from one bincount over (segment, bin) ids, summed down the
    prefixes, so they are exact. The outcome and forecast sums run through
    the stream once: each segment between two prefixes is added onto the
    running per-bin sums by an unbuffered ``np.add.at``, element by element
    in time order from 0.0. That is the order in which ``np.bincount`` sums
    a prefix, so every (prefix, bin) entry equals the per-bin aggregate of
    that prefix alone bit for bit. Empty bins take ybar_b = 0 and pbar_b =
    the bin midpoint; their N_b factor is zero.
    """
    p, y = _check_lengths(p, y)
    ks = np.array([len(p)]) if prefixes is None else _check_prefixes(prefixes, len(p))
    m = scheme.m
    b = bins_of(p, scheme.epsilon, scheme.m)
    starts = np.concatenate(([0], ks[:-1]))
    segment = np.repeat(np.arange(len(ks)), ks - starts)
    counts = np.bincount(segment * m + b[: ks[-1]], minlength=len(ks) * m)
    counts = counts.reshape(len(ks), m).cumsum(axis=0).astype(float)
    outcome_sums, forecast_sums = np.empty((2, len(ks), m))
    running_y, running_p = np.zeros(m), np.zeros(m)
    for s, (lo, hi) in enumerate(zip(starts, ks)):
        np.add.at(running_y, b[lo:hi], y[lo:hi])
        np.add.at(running_p, b[lo:hi], p[lo:hi])
        outcome_sums[s], forecast_sums[s] = running_y, running_p
    nz = counts > 0
    safe = np.where(nz, counts, 1.0)
    ybars = np.where(nz, outcome_sums / safe, 0.0)
    pbars = np.where(nz, forecast_sums / safe, scheme.midpoints())
    ce = np.sum(counts * np.abs(pbars - ybars), axis=1) / ks
    shp = np.sum(counts * ybars**2, axis=1) / ks
    ref = np.sum(counts * ybars * (1.0 - ybars), axis=1) / ks
    return ce, shp, ref


def calibration_error(p, y, scheme: BinningScheme) -> float:
    """(1/T) sum_b N_b |pbar_b - ybar_b| over the epsilon-bins.

    Empty bins contribute zero (their N_b factor vanishes).
    """
    return float(_tallies(p, y, scheme, None)[0][0])


def sharpness(p, y, scheme: BinningScheme) -> float:
    """(1/T) sum_b N_b ybar_b^2; ybar_b = 0 on empty bins."""
    return float(_tallies(p, y, scheme, None)[1][0])


def refinement(p, y, scheme: BinningScheme) -> float:
    """(1/T) sum_b N_b ybar_b (1 - ybar_b)."""
    return float(_tallies(p, y, scheme, None)[2][0])


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


@dataclass(eq=False)
class MetricReport:
    ce: float | np.ndarray  # arrays over the prefixes when metric_report is given them
    shp: float | np.ndarray
    refinement: float | np.ndarray
    brier: float
    ybar: float
    true_ce: float | None = None
    true_accuracy: float | None = None


def metric_report(p, y, scheme: BinningScheme, truth=None, prefixes=None) -> MetricReport:
    """All metrics of one forecast column in a single pass.

    Given strictly increasing integer ``prefixes`` in [1, len(p)], CE, SHP
    and refinement are arrays of their values over each ``p[:k]``, and the
    entry at ``k = len(p)`` equals the scalar form bit for bit; Brier, ybar
    and the truth metrics always cover the whole column.
    """
    ce, shp, ref = _tallies(p, y, scheme, prefixes)
    if prefixes is None:
        ce, shp, ref = float(ce[0]), float(shp[0]), float(ref[0])
    return MetricReport(
        ce=ce,
        shp=shp,
        refinement=ref,
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
