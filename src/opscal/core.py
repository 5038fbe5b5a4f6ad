"""Shared probability primitives: link functions, epsilon-bins, log-loss.

Everything here is pure and value-typed; safe to share across threads.
It owns the package's three input rules, each with one implementation:
  - values: every forecast, score and outcome passes ``check_unit`` (an
    array), ``unit_float`` (one value) or ``check_columns``, which raise
    "<noun> must lie in [0, 1]";
  - columns: ``check_columns`` takes a column and its outcomes, which must
    be 1-D of equal length (one step per entry);
  - counts: every count, size and seed entering a spec, a config or an
    entry passes ``check_count``, which raises "<noun> must be >= <least>"
    unless it is an integer (not a bool) of at least ``least``.
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


def unit_float(x, noun: str) -> float:
    """``x`` as a float; raises ValueError naming ``noun`` unless it lies in
    [0, 1] (NaN and infinities do not)."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{noun} must lie in [0, 1]")
    return x


def check_columns(p, y, noun: str):
    """``(p, y)`` as 1-D float arrays of one length, both in [0, 1]: ``p``
    is named by ``noun`` and ``y`` by "outcomes" in the error."""
    p, y = check_unit(p, noun), check_unit(y, "outcomes")
    if p.ndim != 1 or p.shape != y.shape:
        raise ValueError(f"{noun} and outcomes must be 1-D columns of equal length, "
                         f"got shapes {p.shape} and {y.shape}")
    return p, y


def check_count(x, noun: str, least: int) -> int:
    """``x`` as an int; raises ValueError naming ``noun`` unless it is an
    integer (a Python or numpy one, not a bool) of at least ``least``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < least:
        raise ValueError(f"{noun} must be >= {least}, an integer, got {x!r}")
    return int(x)


def clip_score(score):
    """Clip raw base-model scores into [0.01, 0.99].

    Applied once at ingestion. Rejects values outside [0, 1].
    """
    out = np.clip(check_unit(score, "scores"), CLIP_LO, CLIP_HI)
    return float(out) if np.isscalar(score) or out.ndim == 0 else out


def sigmoid(z, out=None):
    """Numerically stable logistic function, scalar or array.

    One pass: with e = exp(-|z|), which lies in [0, 1] and so cannot
    overflow, it is 1/(1+e) where z >= 0 and e/(1+e) elsewhere, one
    division of a selected numerator. As -|z| is -z on the first side and z
    on the other, every element takes the same exp and the same division as
    the two-branch form 1/(1+exp(-z)), exp(z)/(1+exp(z)), so the results
    agree bit for bit. ``out``, a float array of z's shape (z itself may
    be passed), receives the result and serves as the pass's scratch.
    """
    z_arr = np.asarray(z, dtype=float)
    pos = z_arr >= 0
    e = np.abs(z_arr, out=np.empty_like(z_arr) if out is None else out)
    np.exp(np.negative(e, out=e), out=e)
    num = np.where(pos, 1.0, e)
    out = np.divide(num, np.add(1.0, e, out=e), out=e)
    return float(out) if np.isscalar(z) or out.ndim == 0 else out


def logit(p):
    """log(p / (1-p)) after clipping p into [0.01, 0.99].

    Values in [0, 0.01) or (0.99, 1] are clipped to the boundary first;
    values outside [0, 1] are rejected. Hence |logit(p)| <= log(99).
    """
    c = np.clip(check_unit(p, "probabilities"), CLIP_LO, CLIP_HI)
    out = np.log(c / (1.0 - c))
    return float(out) if np.isscalar(p) or out.ndim == 0 else out


def _clip_loss(p, out=None):
    """p clipped into [LOGLOSS_EPS, 1 - LOGLOSS_EPS], into ``out`` if given;
    the same bits as ``np.clip``, NaN included."""
    return np.minimum(np.maximum(p, LOGLOSS_EPS, out=out), 1.0 - LOGLOSS_EPS, out=out)


def _log_likelihood(pc, y, y0, out=None, scratch=None):
    """y log pc + y0 log(1 - pc) per point, with y0 = 1 - y, into ``out``
    (pc itself may be passed) with ``scratch`` for the second log."""
    q = np.multiply(y0, np.log(np.subtract(1.0, pc, out=scratch), out=scratch), out=scratch)
    return np.add(np.multiply(y, np.log(pc, out=out), out=out), q, out=out)


def log_loss(p, y):
    """-y log p - (1-y) log(1-p), with p floored to [1e-12, 1 - 1e-12]."""
    y_arr = np.asarray(y, dtype=float)
    out = np.negative(_log_likelihood(_clip_loss(np.asarray(p, dtype=float)), y_arr, 1.0 - y_arr))
    return float(out) if out.ndim == 0 else out


def log_loss_constants(y):
    """``(1 - y, 2y - 1)`` for ``log_loss_sum``, computed once per set of
    outcomes; the second is None unless every outcome is 0 or 1."""
    y = np.asarray(y, dtype=float)
    binary = bool(((y == 0.0) | (y == 1.0)).all())
    return 1.0 - y, (2.0 * y - 1.0 if binary else None)


def log_loss_sum(p, y, y0, sign=None, out=None, scratch=None) -> float:
    """``float(np.sum(log_loss(p, y)))`` bit for bit, for 1-D p and y of one
    length, with ``(y0, sign) = log_loss_constants(y)``. The per-point work
    goes into the float buffers ``out`` (p itself may be passed) and, for
    the two-log form, ``scratch``, each of p's length; None allocates.

    With 0/1 outcomes (sign set) each point takes one log,
    log(y0 + sign * pc) for the clipped forecast pc, where ``log_loss``
    takes y log pc + (1 - y) log(1 - pc). This is exact: y0 + sign * pc is
    pc or 1 - pc rounded as ``log_loss`` rounds it, the other term is
    0 * (a negative log) = -0.0, and x + -0.0 = x. Pairwise summation is
    symmetric in sign, so negating the sum of the logs equals summing the
    negated terms. Other outcomes take the two-log form of ``log_loss``.
    """
    pc = _clip_loss(p, out=out)
    if sign is not None:
        return -float(np.sum(np.log(np.add(y0, np.multiply(sign, pc, out=pc), out=pc), out=pc)))
    return -float(np.sum(_log_likelihood(pc, y, y0, out=pc, scratch=scratch)))


@dataclass(frozen=True)
class BinningScheme:
    """Uniform-width probability bins B_0=[0,eps), ..., B_{m-1}=[(m-1)eps, 1],
    counted from 0 everywhere in the package.

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
        """The midpoint of bin b at entry b: (b + 0.5) * eps, b = 0..m-1."""
        return (np.arange(self.m) + 0.5) * self.epsilon


def bins_of(p, eps: float, m: int):
    """0-based int64 bins min(floor(p / eps), m - 1) of forecasts p: the
    array form of ``kernels.bin_of``, so p = 1 falls in the last bin and a
    forecast on a boundary in the upper bin. Raises ValueError unless every
    forecast lies in [0, 1] (NaN does not), so no bin is out of range."""
    return np.minimum(np.floor(check_unit(p, "probabilities") / eps).astype(np.int64), m - 1)

