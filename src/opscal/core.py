"""Shared probability primitives: link functions, epsilon-bins, log-loss.

Everything here is pure and value-typed; safe to share across threads.
Scores entering the library are clipped once, at ingestion, to
``[CLIP_LO, CLIP_HI] = [0.01, 0.99]`` — this bounds the online-Newton
feature norm and keeps every logit finite. Individual operations do not
re-clip except where documented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CLIP_LO = 0.01
CLIP_HI = 0.99

# floor applied inside log-loss so losses stay finite
LOGLOSS_EPS = 1e-12


def check_unit(x, noun: str) -> np.ndarray:
    """``x`` as a float array; raises ValueError naming ``noun`` unless every
    value lies in [0, 1] (NaN and infinities do not)."""
    a = np.asarray(x, dtype=float)
    if not ((a >= 0.0) & (a <= 1.0)).all():
        raise ValueError(f"{noun} must lie in [0, 1]")
    return a


def clip_score(score):
    """Clip raw base-model scores into [0.01, 0.99].

    Applied once at ingestion. Rejects values outside [0, 1].
    """
    out = np.clip(check_unit(score, "scores"), CLIP_LO, CLIP_HI)
    return float(out) if np.isscalar(score) or out.ndim == 0 else out


def sigmoid(z):
    """Numerically stable logistic function, scalar or array.

    One pass: with e = exp(-|z|), which lies in [0, 1] and so cannot
    overflow, it is 1/(1+e) where z >= 0 and e/(1+e) elsewhere. As -|z| is
    -z on the first side and z on the other, every element takes the same
    exp and the same division as the two-branch form 1/(1+exp(-z)),
    exp(z)/(1+exp(z)), so the results agree bit for bit.
    """
    z_arr = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z_arr))
    out = np.where(z_arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if np.isscalar(z) or out.ndim == 0 else out


def logit(p):
    """log(p / (1-p)) after clipping p into [0.01, 0.99].

    Values in [0, 0.01) or (0.99, 1] are clipped to the boundary first;
    values outside [0, 1] are rejected. Hence |logit(p)| <= log(99).
    """
    c = np.clip(check_unit(p, "probabilities"), CLIP_LO, CLIP_HI)
    out = np.log(c / (1.0 - c))
    return float(out) if np.isscalar(p) or out.ndim == 0 else out


def log_loss(p, y):
    """-y log p - (1-y) log(1-p), with p floored to [1e-12, 1 - 1e-12]."""
    p_arr = np.clip(np.asarray(p, dtype=float), LOGLOSS_EPS, 1.0 - LOGLOSS_EPS)
    y_arr = np.asarray(y, dtype=float)
    out = -(y_arr * np.log(p_arr) + (1.0 - y_arr) * np.log(1.0 - p_arr))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BinningScheme:
    """Uniform-width probability bins B_1=[0,eps), ..., B_m=[(m-1)eps, 1].

    Bins are left-closed/right-open except the last, which is closed at 1.
    m = ceil(1/eps), where a near-integer 1/eps snaps down so that
    eps = 0.05, 0.1, 0.2 give exactly m = 20, 10, 5. When eps does not
    divide 1 the last bin is cut short at 1, but its midpoint stays
    (m - 1/2) eps, and tracking and hedging forecast midpoints. So an eps
    whose last bin midpoint exceeds 1 is rejected here: 0.4 (m = 3, last
    midpoint 1.0) and 0.15 (m = 7) are accepted, 0.3 (m = 4, last midpoint
    1.05) is not. 1/k for an integer k is always accepted.
    """

    epsilon: float
    m: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        object.__setattr__(self, "m", int(math.ceil(1.0 / self.epsilon - 1e-9)))
        last_mid = (self.m - 0.5) * self.epsilon
        if last_mid > 1.0:
            raise ValueError(f"epsilon {self.epsilon} puts the last bin midpoint at {last_mid:.4g} > 1, where "
                             "tracking and hedging would forecast; 1/k for an integer k is safe")

    def midpoints(self) -> np.ndarray:
        """Midpoint of bin b is (b - 0.5) * eps, b = 1..m."""
        return (np.arange(self.m) + 0.5) * self.epsilon

    def midpoint(self, b: int) -> float:
        """Midpoint of 1-based bin index b."""
        if not 1 <= b <= self.m:
            raise ValueError("bin index out of range")
        return (b - 0.5) * self.epsilon


def bin_index(p, scheme: BinningScheme):
    """1-based index of the bin containing p; p = 1 maps to m.

    Left-closed convention: a forecast exactly on a boundary belongs to
    the upper bin; the vectorised, 1-based form of ``kernels.bin_of``.
    """
    p_arr = check_unit(p, "probabilities")
    idx = np.minimum(np.floor(p_arr / scheme.epsilon).astype(int) + 1, scheme.m)
    return int(idx) if idx.ndim == 0 else idx


@dataclass(eq=False)
class BinStats:
    """Per-bin aggregates: counts, outcome sums, forecast sums.

    ybar_b = outcome_sum/N_b and pbar_b = forecast_sum/N_b when N_b > 0;
    empty bins fall back to ybar_b = 0 and pbar_b = bin midpoint.
    """

    scheme: BinningScheme
    counts: np.ndarray
    outcome_sums: np.ndarray
    forecast_sums: np.ndarray

    @classmethod
    def from_arrays(cls, p: np.ndarray, y: np.ndarray, scheme: BinningScheme) -> "BinStats":
        p = np.asarray(p, dtype=float)
        y = np.asarray(y, dtype=float)
        if p.shape != y.shape:
            raise ValueError("forecasts and outcomes must have equal length")
        b = bin_index(p, scheme) - 1
        m = scheme.m
        counts = np.bincount(b, minlength=m).astype(float)
        outcome_sums = np.bincount(b, weights=y, minlength=m)
        forecast_sums = np.bincount(b, weights=p, minlength=m)
        return cls(scheme, counts, outcome_sums, forecast_sums)

    def outcome_means(self) -> np.ndarray:
        """ybar_b; zero on empty bins."""
        out = np.zeros(self.scheme.m)
        nz = self.counts > 0
        out[nz] = self.outcome_sums[nz] / self.counts[nz]
        return out

    def forecast_means(self) -> np.ndarray:
        """pbar_b; bin midpoint on empty bins."""
        out = self.scheme.midpoints().copy()
        nz = self.counts > 0
        out[nz] = self.forecast_sums[nz] / self.counts[nz]
        return out
