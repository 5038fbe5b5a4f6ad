"""Post-hoc mapping families and their fixed / windowed / online learners.

Three families share one damped-Newton logistic core:
  - Platt: sigmoid(a logit(s) + b), features (logit s, 1)
  - beta:  sigmoid(a log s + b log(1-s) + c), features (log s, log(1-s), 1)
  - histogram binning: uniform-mass bins with bin-mean predictions

Batch fits minimize the summed log-loss over the radius-100 parameter ball
(the same feasible set the online Newton learner projects onto, so batch
and online comparators live in one class). Windowed learners refit on the
full prefix every W steps; since their parameters are constant between
refits, ``windowed_run`` fits once per refit segment and applies that
segment's parameters in one vectorised call. The online learner advances
one Newton step per observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import CLIP_HI, CLIP_LO, log_loss, logit, sigmoid
from .ons import OnsConfig, OnsState, initial_theta, ons_advance

PARAM_RADIUS = 100.0


@dataclass(frozen=True)
class PlattParams:
    a: float
    b: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b])


@dataclass(frozen=True)
class BetaParams:
    a: float
    b: float
    c: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def _params_array(params, n: int) -> np.ndarray:
    if isinstance(params, (PlattParams, BetaParams)):
        arr = params.as_array()
    else:
        arr = np.asarray(params, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} parameters, got shape {arr.shape}")
    return arr


def platt_features(scores) -> np.ndarray:
    """(logit s, 1) rows; scores are clipped into [0.01, 0.99] by logit."""
    s = np.atleast_1d(np.asarray(scores, dtype=float))
    return np.column_stack([logit(s), np.ones(len(s))])


def beta_features(scores) -> np.ndarray:
    """(log s, log(1-s), 1) rows over clipped scores."""
    s = np.clip(np.atleast_1d(np.asarray(scores, dtype=float)), CLIP_LO, CLIP_HI)
    return np.column_stack([np.log(s), np.log(1.0 - s), np.ones(len(s))])


def platt_apply(params, score):
    """sigmoid(a logit(score) + b)."""
    p = _params_array(params, 2)
    out = sigmoid(p[0] * logit(np.asarray(score, dtype=float)) + p[1])
    return float(out) if np.isscalar(score) else out


def beta_apply(params, score):
    """sigmoid(a log(score) + b log(1-score) + c); b = -a recovers Platt."""
    p = _params_array(params, 3)
    s = np.clip(np.asarray(score, dtype=float), CLIP_LO, CLIP_HI)
    out = sigmoid(p[0] * np.log(s) + p[1] * np.log(1.0 - s) + p[2])
    return float(out) if np.isscalar(score) else out


def _renorm_to_ball(theta: np.ndarray, radius: float | None) -> np.ndarray:
    if radius is None:
        return theta
    nrm = float(np.linalg.norm(theta))
    if nrm > radius:
        return theta * (radius / nrm)
    return theta


def newton_logistic(
    X: np.ndarray,
    y: np.ndarray,
    init: np.ndarray,
    ridge: float = 0.0,
    radius: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
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

    def loss(wv):
        pv = sigmoid(X @ wv)
        return float(np.sum(log_loss(pv, y))) + 0.5 * ridge * float(wv @ wv), pv

    cur, p = loss(w)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        grad = X.T @ (p - y) + ridge * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            converged = True
            break
        hess = (X * (p * (1.0 - p))[:, None]).T @ X + ridge * np.eye(d)
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
            cand_loss, cand_p = loss(cand)
            if cand_loss < cur:
                w, cur, p = cand, cand_loss, cand_p
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


def fit_platt_batch(scores, ys) -> PlattParams:
    """Exact logistic regression over (logit score, 1) within the 100-ball."""
    scores = np.asarray(scores, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(scores) == 0:
        raise ValueError("empty data")
    X = platt_features(scores)
    w, _, _ = newton_logistic(X, ys, init=np.array([1.0, 0.0]), radius=PARAM_RADIUS)
    return PlattParams(float(w[0]), float(w[1]))


def fit_beta_batch(scores, ys) -> BetaParams:
    """Three-parameter analogue of fit_platt_batch."""
    scores = np.asarray(scores, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(scores) == 0:
        raise ValueError("empty data")
    X = beta_features(scores)
    w, _, _ = newton_logistic(X, ys, init=np.array([1.0, 1.0, 0.0]), radius=PARAM_RADIUS)
    return BetaParams(float(w[0]), float(w[1]), float(w[2]))


@dataclass
class HistogramBinningModel:
    """Uniform-mass score bins; each prediction is a stored bin mean."""

    boundaries: np.ndarray  # length n_bins + 1, spans [0, 1]
    predictions: np.ndarray  # length n_bins, values in [0, 1]

    def predict(self, score):
        s = np.asarray(score, dtype=float)
        idx = np.searchsorted(self.boundaries, s, side="right") - 1
        idx = np.clip(idx, 0, len(self.predictions) - 1)
        out = self.predictions[idx]
        return float(out) if np.isscalar(score) else out


def fit_histogram_binning(scores, ys, m: int = 10) -> HistogramBinningModel:
    """Equal-frequency bins at empirical score quantiles.

    Bin prediction = mean outcome of members; an empty bin predicts its own
    score midpoint. Requires at least m points.
    """
    scores = np.asarray(scores, dtype=float)
    ys = np.asarray(ys, dtype=float)
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
        if self.family not in ("platt", "beta", "hb"):
            raise ValueError("family must be platt, beta, or hb")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def _fit(self, scores, ys):
        if self.family == "platt":
            return fit_platt_batch(scores, ys)
        if self.family == "beta":
            return fit_beta_batch(scores, ys)
        return fit_histogram_binning(scores, ys, self.hb_bins)

    def _apply(self, score):
        if self.family == "platt":
            return platt_apply(self.params, score)
        if self.family == "beta":
            return beta_apply(self.params, score)
        return self.params.predict(score)


def refit_times(t_cal: int, window: int, T: int) -> range:
    """The windowed refit rule: the steps t_cal < t <= T with
    mod(t - t_cal, window) == 0. At each, the model is refit on the full
    prefix s <= t-1 before it forecasts t."""
    if window < 1:
        raise ValueError("window must be >= 1")
    return range(t_cal + window, T + 1, window)


def windowed_run(fit, apply, params, t_cal: int, window: int, scores, ys) -> np.ndarray:
    """Windowed forecasts for t = t_cal+1 .. T, where T = len(scores).

    ``params`` governs until the first refit; ``fit(scores, ys)`` refits on
    the prefix at each ``refit_times`` step. Parameters are constant between
    refits, so each segment [t_k, t_{k+1}) is served by one vectorised
    ``apply(params, scores)`` call. Equals a ``windowed_step`` replay
    element for element.
    """
    scores = np.asarray(scores, dtype=float)
    ys = np.asarray(ys, dtype=float)
    T = len(scores)
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
    """Forecast at time t (1-based); history holds all (score, y) with s <= t-1.

    At ``refit_times`` steps the learner refits on the whole history before
    forecasting.
    """
    if t <= learner.t_cal:
        raise ValueError("windowed learners only forecast after the calibration prefix")
    if t in refit_times(learner.t_cal, learner.window, t):
        learner.params = learner._fit(np.asarray(hist_scores, dtype=float)[: t - 1],
                                      np.asarray(hist_ys, dtype=float)[: t - 1])
        learner.refit_steps.append(t)
    if learner.params is None:
        raise ValueError("learner has no parameters yet (initialize from the calibration fit)")
    return learner._apply(score_t)


# the online families: feature rows and the default online-Newton config
_ONLINE_FAMILIES = {"platt": (platt_features, OnsConfig.platt), "beta": (beta_features, OnsConfig.beta)}


def _online_family(family: str, config: OnsConfig | None):
    """(feature function, config) of an online family; ``config`` defaults
    to the family's own."""
    try:
        features, default = _ONLINE_FAMILIES[family]
    except KeyError:
        raise ValueError("family must be platt or beta") from None
    return features, default() if config is None else config


def family_features(family: str, scores) -> np.ndarray:
    return _online_family(family, None)[0](scores)


def online_scaler_step(state: OnsState, score, y, family: str, config: OnsConfig | None = None):
    """Forecast with the pre-update parameters, then take one Newton step.

    Returns (forecast, new_state). The forecast equals apply(theta, score)
    computed before the update, sharing the kernel's arithmetic so that a
    step-by-step run replays a whole-stream kernel pass.
    """
    features, config = _online_family(family, config)
    return ons_advance(state, features([score])[0], y, config)


def online_scaler_run(scores, ys, family: str, config: OnsConfig | None = None):
    """Whole-stream online scaling via the batched kernel.

    Returns (forecasts, theta_trace); theta_trace[t] is the parameter vector
    in force at 0-based step t.
    """
    features, config = _online_family(family, config)
    return kernels.ons_pass(features(scores), ys, config.gamma, config.rho, config.radius,
                            initial_theta(config.dim))
