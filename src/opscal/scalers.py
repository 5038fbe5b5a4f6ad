"""Post-hoc mapping families and their fixed / windowed / online learners.

Two logistic families share one damped-Newton core:
  - Platt: sigmoid(a logit(s) + b), features (logit s, 1)
  - beta:  sigmoid(a log s + b log(1-s) + c), features (log s, log(1-s), 1)
Each is one row of ``_FAMILIES``, a feature map and a default online-Newton
config. The feature map is the family's only arithmetic: the batch fit, the
online learner and every forecast of a fitted map (``_apply``) read it, and
a fit is one parameter array, the weights first and the bias last.
Histogram binning (uniform-mass bins with bin-mean predictions) joins them
only as a windowed learner.

Batch fits minimize the summed log-loss over the radius-100 parameter ball
(the same feasible set the online Newton learner projects onto, so batch
and online comparators live in one class). Windowed learners refit on the
full prefix every W steps; since their parameters are constant between
refits, ``windowed_run`` fits once per refit segment and applies that
segment's parameters in one vectorised call. The online learner advances
one Newton step per observation. Runs and fits check scores and outcomes
with ``core.check_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .core import (
    check_columns,
    check_count,
    check_unit,
    clip_score,
    log_loss_constants,
    log_loss_sum,
    logit,
    sigmoid,
)
from .ons import OnsConfig, OnsState, initial_theta, ons_advance

PARAM_RADIUS = 100.0
NEWTON_TOL, NEWTON_MAX_ITER = 1e-8, 200  # newton_logistic's gradient-norm stop and step cap


def platt_features(scores) -> np.ndarray:
    """(logit s, 1) rows; scores are clipped into [0.01, 0.99] by logit."""
    s = np.atleast_1d(np.asarray(scores, dtype=float))
    return np.column_stack([logit(s), np.ones(len(s))])


def beta_features(scores) -> np.ndarray:
    """(log s, log(1-s), 1) rows; scores are checked and clipped by
    clip_score."""
    s = clip_score(np.atleast_1d(scores))
    return np.column_stack([np.log(s), np.log(1.0 - s), np.ones(len(s))])


class _Family(NamedTuple):  # one mapping family, read by every learner
    features: Callable  # scores -> feature rows, bias column last
    config: OnsConfig  # default online-Newton config; dim is the feature width


_FAMILIES = {
    "platt": _Family(platt_features, OnsConfig.platt()),
    "beta": _Family(beta_features, OnsConfig.beta()),
}


def _family(name: str) -> _Family:
    row = _FAMILIES.get(name)
    if row is None:
        raise ValueError("family must be platt or beta")
    return row


def _apply(family: str, params, score):
    """sigmoid of the family's feature columns times ``params`` (weights
    first, the bias last), summed in column order; a float for a scalar
    score. The bias column is ones, so its product is the bias exactly."""
    features, config = _family(family)
    p = np.asarray(params, dtype=float)
    if p.shape != (config.dim,):
        raise ValueError(f"expected {config.dim} parameters, got shape {p.shape}")
    X = features(score)
    out = sigmoid(sum((X[:, j] * p[j] for j in range(1, config.dim)), X[:, 0] * p[0]))
    return float(out[0]) if np.ndim(score) == 0 else out


def platt_apply(params, score):
    """sigmoid(a logit(score) + b) for params (a, b)."""
    return _apply("platt", params, score)


def beta_apply(params, score):
    """sigmoid(a log(score) + b log(1-score) + c) for params (a, b, c); b = -a
    recovers Platt. The score is checked and clipped by clip_score."""
    return _apply("beta", params, score)


def _renorm_to_ball(theta: np.ndarray, radius: float | None) -> np.ndarray:
    if radius is None:
        return theta
    nrm = float(np.linalg.norm(theta))
    if nrm > radius:
        return theta * (radius / nrm)
    return theta


class _LossPass(NamedTuple):
    """``newton_logistic``'s per-fit constants and buffers for ``_fit_loss``."""

    X: np.ndarray
    y: np.ndarray
    y0: np.ndarray  # 1 - y
    sign: np.ndarray | None  # 2y - 1 when every outcome is 0 or 1, else None
    ridge: float
    clipped: np.ndarray  # log_loss_sum's buffer for the clipped forecasts
    other: np.ndarray  # its buffer for the two-log form's second log


def _fit_loss(fit: _LossPass, w: np.ndarray, p: np.ndarray) -> float:
    """Summed log-loss (``core.log_loss_sum``) of p = sigmoid(X w), plus
    ridge/2 ||w||^2; p is written in place."""
    sigmoid(np.matmul(fit.X, w, out=p), out=p)
    return log_loss_sum(p, fit.y, fit.y0, fit.sign, fit.clipped, fit.other) + 0.5 * fit.ridge * float(w @ w)


def newton_logistic(
    X: np.ndarray,
    y: np.ndarray,
    init: np.ndarray,
    ridge: float = 0.0,
    radius: float | None = None,
):
    """Damped Newton minimization of total log-loss (+ ridge/2 ||w||^2).

    Step-halving line search (at most 60 halvings); iterates outside the
    radius ball are radially renormalized to the boundary. The search ends
    early, and exactly, at the first halving where w - alpha*step rounds to
    w bit for bit: alpha halves by a power of two and rounding is monotone,
    so every later halving rounds to w as well and all remaining candidates
    are one point. That point is w itself, whose loss is the current one
    and so cannot be accepted, unless the renormalization moves it (w on
    the boundary with a norm that rounds above the radius); then it is
    tried once. So the search accepts the iterate the full 60 halvings
    would, with fewer loss evaluations.

    Every loss evaluation is one ``_fit_loss`` pass over buffers made once
    per fit: sigmoid(X w) in place, then ``core.log_loss_sum`` with
    ``1 - y`` (and, when every outcome is 0 or 1, ``2y - 1``) computed once
    per fit by ``core.log_loss_constants``. With 0/1 outcomes each point
    takes one log, log((1 - y) + (2y - 1) pc) for the clipped forecast pc,
    in place of y log pc + (1 - y) log(1 - pc). This is exact: the dropped
    term is 0 * (a negative log) = -0.0, x + -0.0 = x, and pairwise
    summation is symmetric in sign (``log_loss_sum`` gives the argument in
    full). Other outcomes keep the two-log form. The Hessian's rows of X,
    each scaled by p(1 - p), are written into a per-fit buffer through its
    transposed view, so their product with X is the same BLAS call on the
    same layout as the allocated form. The fit equals the allocating form
    bit for bit.

    When a radius is set and the final iterate separates the data (every
    point classified with strictly positive margin, so the unregularized
    loss keeps decreasing along that ray), the fit is renormalized to the
    boundary - the cap binds and ||w|| == radius exactly. Returns
    (weights, converged, n_iter). The Hessian solve carries a 1e-12-scaled
    jitter so rank-deficient designs stay solvable.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    w = _renorm_to_ball(np.asarray(init, dtype=float).copy(), radius)
    y0, sign = log_loss_constants(y)
    fit = _LossPass(X, y, y0, sign, ridge, np.empty(n), np.empty(n))
    scratch = fit.clipped  # free between loss passes
    p, spare = np.empty(n), np.empty(n)  # the accepted forecasts and a candidate's
    Xw = np.empty_like(X)  # Hessian rows, each scaled by its weight

    cur = _fit_loss(fit, w, p)
    converged = False
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        grad = X.T @ np.subtract(p, y, out=scratch) + ridge * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= NEWTON_TOL:
            converged = True
            break
        np.multiply(X.T, np.multiply(p, np.subtract(1.0, p, out=scratch), out=scratch), out=Xw.T)
        hess = Xw.T @ X + ridge * np.eye(d)
        jitter = 1e-12 * max(float(np.trace(hess)), 1.0)
        step = np.linalg.solve(hess + jitter * np.eye(d), grad)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            raw = w - alpha * step
            cand = _renorm_to_ball(raw, radius)
            # once the step rounds away, every smaller one does too
            stuck = raw.tobytes() == w.tobytes()
            if stuck and cand is raw:
                break
            cand_loss = _fit_loss(fit, cand, spare)
            if cand_loss < cur:
                w, cur = cand, cand_loss
                p, spare = spare, p
                accepted = True
                break
            if stuck:
                break
            alpha *= 0.5
        if not accepted:
            # no feasible descent left (boundary or flat optimum)
            converged = gnorm <= 1e-6 or (radius is not None and np.linalg.norm(w) >= radius - 1e-9)
            break
    if radius is not None:
        margins = (2.0 * y - 1.0) * (X @ w)
        nrm = float(np.linalg.norm(w))
        if np.all(margins > 0.0) and 0.0 < nrm < radius:
            w = w * (radius / nrm)
    return w, converged, it


def _fit_batch(family: str, scores, ys) -> np.ndarray:
    """Exact logistic regression over the family's features within the
    PARAM_RADIUS ball, started from ``initial_theta``; returns the weights,
    the bias last."""
    features, config = _family(family)
    scores, ys = check_columns(scores, ys, "scores")
    if len(scores) == 0:
        raise ValueError("empty data")
    return newton_logistic(features(scores), ys, init=initial_theta(config.dim), radius=PARAM_RADIUS)[0]


def fit_platt_batch(scores, ys) -> np.ndarray:
    """Exact logistic regression over (logit score, 1) within the 100-ball:
    the array (a, b)."""
    return _fit_batch("platt", scores, ys)


def fit_beta_batch(scores, ys) -> np.ndarray:
    """Three-parameter analogue of fit_platt_batch: the array (a, b, c)."""
    return _fit_batch("beta", scores, ys)


@dataclass(eq=False)
class HistogramBinningModel:
    """Uniform-mass score bins; each prediction is a stored bin mean."""

    boundaries: np.ndarray  # length n_bins + 1, nondecreasing from 0 to 1
    predictions: np.ndarray  # length n_bins, values in [0, 1]

    def __post_init__(self):
        self.predictions = check_unit(self.predictions, "predictions")
        edges = self.boundaries = np.asarray(self.boundaries, dtype=float)
        if self.predictions.ndim != 1 or edges.shape != (len(self.predictions) + 1,):
            raise ValueError("boundaries and predictions must be 1-D, with one more boundary than predictions")
        if not (edges[0] == 0.0 and edges[-1] == 1.0 and (np.diff(edges) >= 0.0).all()):
            raise ValueError("boundaries must run nondecreasing from 0 to 1")

    def predict(self, score):
        s = check_unit(score, "scores")
        idx = np.searchsorted(self.boundaries, s, side="right") - 1
        idx = np.clip(idx, 0, len(self.predictions) - 1)
        out = self.predictions[idx]
        return float(out) if np.isscalar(score) else out


def fit_histogram_binning(scores, ys, m: int = 10) -> HistogramBinningModel:
    """Equal-frequency bins at empirical score quantiles.

    Bin prediction = mean outcome of members; an empty bin predicts its own
    score midpoint. Requires m >= 1 and at least m points.
    """
    scores, ys = check_columns(scores, ys, "scores")
    m = check_count(m, "m", 1)
    if len(scores) < m:
        raise ValueError(f"need at least {m} points to fit {m} bins")
    inner = np.quantile(scores, np.arange(1, m) / m)
    boundaries = np.concatenate([[0.0], inner, [1.0]])
    idx = np.clip(np.searchsorted(boundaries, scores, side="right") - 1, 0, m - 1)
    counts = np.bincount(idx, minlength=m).astype(float)
    sums = np.bincount(idx, weights=ys, minlength=m)
    preds = 0.5 * (boundaries[:-1] + boundaries[1:])  # empty-bin fallback
    nz = counts > 0
    preds[nz] = sums[nz] / counts[nz]
    return HistogramBinningModel(boundaries=boundaries, predictions=preds)


@dataclass
class WindowedLearner:
    """Periodically refit batch learner: Platt, beta, or histogram binning.

    Parameters change only at the ``refit_times`` steps, at which point the
    model is refit on the full prefix (all history so far, not a sliding
    window). The first refit happens at t = t_cal + window; until then the
    initial (calibration-set) fit governs.
    """

    family: str  # "platt" | "beta" | "hb"
    window: int
    t_cal: int
    params: object = None
    hb_bins: int = 10
    refit_steps: list = field(default_factory=list)

    def __post_init__(self):
        if self.family not in _WINDOWED:
            raise ValueError("family must be platt, beta, or hb")
        for noun, least in (("window", 1), ("t_cal", 0), ("hb_bins", 1)):
            setattr(self, noun, check_count(getattr(self, noun), noun, least))


# windowed families: refit(scores, ys, hb_bins), only hb reading hb_bins, and apply(params, score)
_WINDOWED = {name: (lambda s, y, _, name=name: _fit_batch(name, s, y), partial(_apply, name))
             for name in _FAMILIES}
_WINDOWED["hb"] = (fit_histogram_binning, HistogramBinningModel.predict)


def refit_times(t_cal: int, window: int, T: int) -> range:
    """The windowed refit rule: the steps t_cal < t <= T with
    mod(t - t_cal, window) == 0. At each, the model is refit on the full
    prefix s <= t-1 before it forecasts t."""
    window = check_count(window, "window", 1)
    return range(check_count(t_cal, "t_cal", 0) + window, check_count(T, "T", 0) + 1, window)


def windowed_run(fit, apply, params, t_cal: int, window: int, scores, ys) -> np.ndarray:
    """Windowed forecasts for t = t_cal+1 .. T, where T = len(scores).

    ``params`` governs until the first refit; ``fit(scores, ys)`` refits on
    the prefix at each ``refit_times`` step. Parameters are constant between
    refits, so each segment [t_k, t_{k+1}) is served by one vectorised
    ``apply(params, scores)`` call. Equals a ``windowed_step`` replay
    element for element.
    """
    scores, ys = check_columns(scores, ys, "scores")
    T = len(scores)
    if isinstance(t_cal, (int, np.integer)) and not 0 <= t_cal <= T:
        raise ValueError(f"t_cal must lie in [0, len(scores)] = [0, {T}], got {t_cal}")
    t_cal = check_count(t_cal, "t_cal", 0)
    out = np.empty(T - t_cal)
    start = t_cal + 1
    for t in [*refit_times(t_cal, window, T), T + 1]:
        if t > start:
            out[start - t_cal - 1 : t - t_cal - 1] = apply(params, scores[start - 1 : t - 1])
        if t <= T:
            params = fit(scores[: t - 1], ys[: t - 1])
        start = t
    return out


def windowed_step(learner: WindowedLearner, t: int, hist_scores, hist_ys, score_t):
    """Forecast at time t (1-based); history holds all (score, y) with s <= t-1
    (longer histories are cut to that prefix).

    At ``refit_times`` steps the learner refits on the whole history before
    forecasting.
    """
    t = check_count(t, "t", learner.t_cal + 1)  # forecasts start after the calibration prefix
    if min(len(hist_scores), len(hist_ys)) < t - 1:
        raise ValueError(f"history must hold the t - 1 = {t - 1} points before t")
    fit, apply = _WINDOWED[learner.family]
    if t in refit_times(learner.t_cal, learner.window, t):
        learner.params = fit(np.asarray(hist_scores, dtype=float)[: t - 1],
                             np.asarray(hist_ys, dtype=float)[: t - 1], learner.hb_bins)
        learner.refit_steps.append(t)
    if learner.params is None:
        raise ValueError("learner has no parameters yet (initialize from the calibration fit)")
    return apply(learner.params, score_t)


def online_scaler_step(state: OnsState, score, y, family: str, config: OnsConfig | None = None):
    """Forecast with the pre-update parameters, then take one Newton step.

    Returns (forecast, new_state). The forecast equals apply(theta, score)
    computed before the update, sharing the kernel's arithmetic so that a
    step-by-step run replays a whole-stream kernel pass.
    """
    row = _family(family)
    return ons_advance(state, row.features([score])[0], y, row.config if config is None else config)


def online_scaler_run(scores, ys, family: str, config: OnsConfig | None = None):
    """Whole-stream online scaling via the batched kernel.

    Returns (forecasts, the ``OnsState`` after the last of the T steps, with
    t = T), from which ``online_scaler_step`` continues the stream exactly.
    Raises ValueError unless ``config.dim`` is the family's feature width.
    """
    row = _family(family)
    config = row.config if config is None else config
    if config.dim != row.config.dim:
        raise ValueError(f"config.dim must be {row.config.dim} for the {family} family, got {config.dim}")
    scores, ys = check_columns(scores, ys, "scores")
    probs, theta, A, A_inv = kernels.ons_pass(row.features(scores), ys, config.gamma, config.rho, config.radius,
                                              initial_theta(config.dim))
    return probs, OnsState(theta=theta, A=A, A_inv=A_inv, t=len(probs))
