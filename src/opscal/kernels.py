"""Hot sequential kernels: online Newton passes, tracking, hedging.

These per-step loops dominate experiment runtime. Each rule has one body,
using per-element indexing and float arithmetic only, with state in flat
buffers (a d x d matrix is d*d long, entry (i, j) at i*d + j). Under numba
(``opscal._accel``) the bodies are compiled and run on numpy arrays.
Without it they run on Python floats: the public passes call
``ndarray.tolist()`` on their inputs once per call and state buffers are
``[0.0] * n``, as reading a float out of a list is several times cheaper
than reading an ``np.float64`` out of an array. Python floats do IEEE
double arithmetic like ``np.float64`` and ``math.exp`` serves both, so the
two paths give bit-identical outputs, written into preallocated arrays.

Conventions:
  - features are (T, d) float64 with a trailing bias column of ones; the
    bodies see them flattened, step t at [t*d, (t+1)*d)
  - outcomes are float64 in [0, 1]
  - ``us`` are pre-drawn Uniform[0,1) variates, one per time step; hedging
    consumes exactly one per step whether or not it randomizes, so seeded
    replays align across step-by-step and whole-stream execution
  - bins are 0-based here (the public API is 1-based); bin width ``eps``
    and count ``m`` are passed explicitly and must come from the same
    BinningScheme the caller uses for metrics

State buffers: tracking keeps m bin counts and outcome sums; hedging
keeps one row of m bins per forecaster in flat m*m ``counts`` and
``sums`` (row r at [r*m, (r + 1)*m)) and a ``status`` buffer of the same
layout holding each bin's hedging status code: inside its bin (condition
A), excess, deficit, or none of these. The codes are floats, so every
buffer is a ``_zeros`` container.

Step bodies, which the passes and the step APIs all call:
  - ``ons_init``, ``ons_forecast`` and ``ons_update`` are the online-Newton
    start, forecast and update. The forecast and update are written out as
    straight-line scalar arithmetic for the two widths there are, d = 2
    (Platt) and d = 3 (beta), as on the pure path the interpreter's cost
    of loops over i and j was about half of a step. Every sum keeps the
    loop's start value and order, so the bits, signed zeros included, are
    the loop's; ``ons_init`` rejects any other width.
  - ``bin_of`` routes a forecast to bin min(floor(p / eps), m - 1)
  - ``bin_average`` is a bin's outcome mean, its midpoint while empty:
    tracking's forecast, and the average hedging classifies
  - ``cell_status`` classifies one bin; ``hedge_select`` picks the
    hedging distribution of a row by scanning its status codes;
    ``hedge_fold`` folds an outcome into the drawn bin and reclassifies
    that bin, the only one a step changes; ``hops_advance`` is one hedging
    step (select, draw with u, fold), which emits the drawn bin's
    midpoint (b + 0.5) * eps
  - ``status_of`` builds the status buffer of flat state by classifying
    every bin, once per pass and once per ``HopsState`` construction
  - ``adversary`` is the outcome adversary of both adversarial passes
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._accel import NUMBA_ENABLED, maybe_jit


class CalibeatingInvariantError(RuntimeError):
    """A structural guarantee (condition A-or-B, a theorem bound) failed."""


# a fresh buffer of n zeros in the platform's container
_zeros = np.zeros if NUMBA_ENABLED else [0.0].__mul__


def _flat(a):
    a = np.ascontiguousarray(a, dtype=np.float64).ravel()
    return a if NUMBA_ENABLED else a.tolist()


def _project_anorm(A, theta_tilde, radius):
    # argmin over the radius-ball of (theta_tilde - theta)^T A (theta_tilde - theta),
    # via eigendecomposition of A (flat or square) and bisection on the KKT multiplier.
    d = len(theta_tilde)
    nrm2 = 0.0
    for i in range(d):
        nrm2 += theta_tilde[i] * theta_tilde[i]
    if nrm2 <= radius * radius:
        return theta_tilde.copy()
    w, Q = np.linalg.eigh(np.asarray(A).reshape((d, d)))
    v = np.zeros(d)
    for j in range(d):
        s = 0.0
        for i in range(d):
            s += Q[i, j] * theta_tilde[i]
        v[j] = s
    # ||theta(lam)||^2 = sum_i (w_i v_i / (w_i + lam))^2 is strictly
    # decreasing in lam >= 0, from ||theta_tilde|| down to 0.
    lo = 0.0
    hi = 1.0
    while hi < 1e300:
        s = 0.0
        for i in range(d):
            zi = w[i] * v[i] / (w[i] + hi)
            s += zi * zi
        if s < radius * radius:
            break
        hi *= 2.0
    lam = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s = 0.0
        for i in range(d):
            zi = w[i] * v[i] / (w[i] + mid)
            s += zi * zi
        nrm = math.sqrt(s)
        lam = mid
        if abs(nrm - radius) <= 1e-10:
            break
        if nrm > radius:
            lo = mid
        else:
            hi = mid
    z = np.zeros(d)
    for i in range(d):
        z[i] = w[i] * v[i] / (w[i] + lam)
    out = np.zeros(d)
    for i in range(d):
        s = 0.0
        for j in range(d):
            s += Q[i, j] * z[j]
        out[i] = s
    return out


def _ons_init(theta0, rho):
    # Online-Newton start state: a copy of theta0, A = rho I and A^{-1}.
    # The forecast and update are written out for d = 2 and d = 3 only.
    d = len(theta0)
    if d != 2 and d != 3:
        raise ValueError("theta0 must have length 2 (Platt) or 3 (beta)")
    theta = _zeros(d)
    A = _zeros(d * d)
    Ainv = _zeros(d * d)
    for i in range(d):
        theta[i] = theta0[i]
        A[i * d + i] = rho
        Ainv[i * d + i] = 1.0 / rho
    return theta, A, Ainv


def _ons_forecast(theta, x, k):
    # sigmoid(theta . x[k:k+d]), evaluated on the side that cannot overflow.
    # The dot product sums from 0.0 in index order, as a loop would.
    if len(theta) == 2:
        z = 0.0 + theta[0] * x[k] + theta[1] * x[k + 1]
    else:
        z = 0.0 + theta[0] * x[k] + theta[1] * x[k + 1] + theta[2] * x[k + 2]
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _ons_update(theta, A, Ainv, x, k, r, gamma, radius):
    # The online-Newton update, in place, for the log-loss gradient
    # g = r * x[k:k+d] with r = forecast - outcome: A += g g^T; v = Ainv g
    # and denom = 1 + g . v; Ainv -= v v^T / denom (Sherman-Morrison, so the
    # hot path never solves a linear system); theta -= (v / denom) / gamma,
    # as (A + g g^T)^{-1} g == v / denom. Each sum starts from 0.0 (1.0 for
    # denom) and adds its terms in index order, so signed zeros come out as
    # from a loop over i and j.
    if len(theta) == 2:
        g0 = r * x[k]
        g1 = r * x[k + 1]
        A[0] += g0 * g0
        A[1] += g0 * g1
        A[2] += g1 * g0
        A[3] += g1 * g1
        v0 = 0.0 + Ainv[0] * g0 + Ainv[1] * g1
        v1 = 0.0 + Ainv[2] * g0 + Ainv[3] * g1
        denom = 1.0 + g0 * v0 + g1 * v1
        Ainv[0] -= v0 * v0 / denom
        Ainv[1] -= v0 * v1 / denom
        Ainv[2] -= v1 * v0 / denom
        Ainv[3] -= v1 * v1 / denom
        t0 = theta[0] - (v0 / denom) / gamma
        t1 = theta[1] - (v1 / denom) / gamma
        theta[0] = t0
        theta[1] = t1
        tnorm2 = 0.0 + t0 * t0 + t1 * t1
    else:
        g0 = r * x[k]
        g1 = r * x[k + 1]
        g2 = r * x[k + 2]
        A[0] += g0 * g0
        A[1] += g0 * g1
        A[2] += g0 * g2
        A[3] += g1 * g0
        A[4] += g1 * g1
        A[5] += g1 * g2
        A[6] += g2 * g0
        A[7] += g2 * g1
        A[8] += g2 * g2
        v0 = 0.0 + Ainv[0] * g0 + Ainv[1] * g1 + Ainv[2] * g2
        v1 = 0.0 + Ainv[3] * g0 + Ainv[4] * g1 + Ainv[5] * g2
        v2 = 0.0 + Ainv[6] * g0 + Ainv[7] * g1 + Ainv[8] * g2
        denom = 1.0 + g0 * v0 + g1 * v1 + g2 * v2
        Ainv[0] -= v0 * v0 / denom
        Ainv[1] -= v0 * v1 / denom
        Ainv[2] -= v0 * v2 / denom
        Ainv[3] -= v1 * v0 / denom
        Ainv[4] -= v1 * v1 / denom
        Ainv[5] -= v1 * v2 / denom
        Ainv[6] -= v2 * v0 / denom
        Ainv[7] -= v2 * v1 / denom
        Ainv[8] -= v2 * v2 / denom
        t0 = theta[0] - (v0 / denom) / gamma
        t1 = theta[1] - (v1 / denom) / gamma
        t2 = theta[2] - (v2 / denom) / gamma
        theta[0] = t0
        theta[1] = t1
        theta[2] = t2
        tnorm2 = 0.0 + t0 * t0 + t1 * t1 + t2 * t2
    if tnorm2 > radius * radius:
        tt = project_anorm(A, theta, radius)
        for i in range(len(theta)):
            theta[i] = tt[i]


def _ons_step_arrays(theta, A, Ainv, x, k, y, gamma, radius):
    # One online-Newton step on the features x[k:k+d] and outcome y, in
    # place. Returns the forecast made with the PRE-update theta.
    p = ons_forecast(theta, x, k)
    ons_update(theta, A, Ainv, x, k, p - y, gamma, radius)
    return p


def _ons_pass(feats, ys, gamma, rho, radius, theta0):
    # Full online-Newton pass. Returns per-step forecasts (made with the
    # pre-update parameters) and the parameter trace: thetas[t] is the
    # parameter vector IN FORCE at step t (0-based), thetas[T] the final.
    T = len(ys)
    theta, A, Ainv = ons_init(theta0, rho)
    d = len(theta)
    probs = np.zeros(T)
    thetas = np.zeros((T + 1, d))
    thetas[0] = theta0
    for t in range(T):
        probs[t] = ons_step_arrays(theta, A, Ainv, feats, t * d, ys[t], gamma, radius)
        for i in range(d):
            thetas[t + 1, i] = theta[i]
    return probs, thetas


def _bin_of(p, eps, m):
    # The 0-based bin of forecast p, floor(p / eps), with p = 1 clamped into
    # the last bin m - 1.
    b = int(math.floor(p / eps))
    return b if b < m else m - 1


def _bin_average(counts, sums, k, b, eps):
    # The running outcome mean in slot k of the state, which tallies bin b,
    # or the bin's midpoint while the slot is empty: tracking's forecast,
    # and the average hedging classifies.
    return sums[k] / counts[k] if counts[k] > 0.0 else (b + 0.5) * eps


def _tracking_pass(expert, ys, eps, m):
    # Per-bin past-outcome averages of the expert's bin. State sees
    # strictly-past steps only.
    T = len(expert)
    counts = _zeros(m)
    sums = _zeros(m)
    out = np.zeros(T)
    for t in range(T):
        b = bin_of(expert[t], eps, m)
        out[t] = bin_average(counts, sums, b, b, eps)
        counts[b] += 1.0
        sums[b] += ys[t]
    return out


def _cell_status(counts, sums, base, b, eps):
    # The hedging status code of bin b in the row at base, from its average
    # p_b: 0.0 inside the bin (condition A), 1.0 excess (p_b above the right
    # edge), 2.0 deficit (p_b below the left edge), 3.0 none of these (a NaN
    # average). An empty bin averages its midpoint, so it is inside.
    pb = bin_average(counts, sums, base + b, b, eps)
    if pb >= b * eps and pb <= (b + 1.0) * eps:
        return 0.0
    if pb - (b + 1.0) * eps > 0.0:
        return 1.0
    if b * eps - pb > 0.0:
        return 2.0
    return 3.0


def _status_of(counts, sums, eps, m):
    # A new status buffer for flat state of rows of m bins, every bin of
    # every row classified.
    status = _zeros(len(counts))
    for base in range(0, len(counts), m):
        for b in range(m):
            status[base + b] = cell_status(counts, sums, base, b, eps)
    return status


def _hedge_select(status, counts, sums, base, eps, m):
    # Hedging distribution for the forecaster whose m bins sit at
    # [base, base + m). Returns (lo_bin, hi_bin, prob_lo), 0-based bins: a
    # point mass has hi_bin == lo_bin and prob_lo == 1. Condition A (some
    # bin's average sits inside the bin) gives a deterministic forecast of
    # that bin; otherwise some adjacent (excess, deficit) pair exists and we
    # hedge between the two bins. Smallest index wins in both cases. Bins
    # off condition A are not empty, so their averages are sums / counts.
    for k in range(base, base + m):
        if status[k] == 0.0:
            b = k - base
            return b, b, 1.0
    for k in range(base, base + m - 1):
        if status[k] == 1.0 and status[k + 1] == 2.0:
            b = k - base
            eb = sums[k] / counts[k] - (b + 1.0) * eps
            db1 = (b + 1.0) * eps - sums[k + 1] / counts[k + 1]
            return b, b + 1, db1 / (db1 + eb)
    raise CalibeatingInvariantError("hedging invariant violated: neither condition holds")


def _hedge_fold(counts, sums, status, base, c, y, eps):
    # Fold outcome y into bin c of the row at base, the one bin whose
    # status can change, and reclassify it.
    counts[base + c] += 1.0
    sums[base + c] += y
    status[base + c] = cell_status(counts, sums, base, c, eps)


def _hops_advance(counts, sums, status, r, y, u, eps, m):
    # One step of the hedging forecaster for expert bin r (row r of the flat
    # m*m state), in place: announce the row's distribution, resolve it
    # with the uniform u, fold y into the drawn bin. Returns the drawn
    # bin's midpoint.
    base = r * m
    lo, hi, plo = hedge_select(status, counts, sums, base, eps, m)
    c = lo if u < plo else hi
    hedge_fold(counts, sums, status, base, c, y, eps)
    return (c + 0.5) * eps


def _hops_pass(expert, ys, us, eps, m):
    # One independent hedging forecaster per expert bin; each sees only the
    # outcome subsequence routed to it. us[t] resolves the (possible)
    # randomization at step t.
    T = len(expert)
    counts = _zeros(m * m)
    sums = _zeros(m * m)
    status = status_of(counts, sums, eps, m)
    out = np.zeros(T)
    for t in range(T):
        out[t] = hops_advance(counts, sums, status, bin_of(expert[t], eps, m), ys[t], us[t], eps, m)
    return out


def _adversary(x):
    # The outcome adversary's response to an announced forecast x (a point
    # forecast or a hedge distribution's mean): y = 1{x <= 1/2}, ties to 1.
    return 1.0 if x <= 0.5 else 0.0


def _ops_adversarial_pass(feats, gamma, rho, radius, theta0):
    # Deterministic forecaster versus the outcome adversary.
    # The adversary sees the forecast before the outcome, so the online-Newton
    # step runs as its two halves.
    theta, A, Ainv = ons_init(theta0, rho)
    d = len(theta)
    T = len(feats) // d
    probs = np.zeros(T)
    ys = np.zeros(T)
    for t in range(T):
        p = ons_forecast(theta, feats, t * d)
        y = adversary(p)
        ons_update(theta, A, Ainv, feats, t * d, p - y, gamma, radius)
        probs[t] = p
        ys[t] = y
    return probs, ys


def _hops_adversarial_pass(feats, us, eps, m, gamma, rho, radius, theta0):
    # Joint pass: online scaler + hedging, against an adversary that sees
    # the announced hedge distribution (not the draw) and responds to its
    # mean. The draw happens after y is fixed.
    theta, A, Ainv = ons_init(theta0, rho)
    d = len(theta)
    T = len(us)
    counts = _zeros(m * m)
    sums = _zeros(m * m)
    status = status_of(counts, sums, eps, m)
    ops = np.zeros(T)
    hops = np.zeros(T)
    ys = np.zeros(T)
    for t in range(T):
        p = ons_forecast(theta, feats, t * d)
        base = bin_of(p, eps, m) * m
        lo, hi, plo = hedge_select(status, counts, sums, base, eps, m)
        mean = plo * ((lo + 0.5) * eps) + (1.0 - plo) * ((hi + 0.5) * eps)
        y = adversary(mean)
        c = lo if us[t] < plo else hi
        hedge_fold(counts, sums, status, base, c, y, eps)
        ons_update(theta, A, Ainv, feats, t * d, p - y, gamma, radius)
        ops[t] = p
        hops[t] = (c + 0.5) * eps
        ys[t] = y
    return ops, hops, ys


def _entry(body, jit=True):
    """The public pass over ``body``: numpy arrays in and out. Array
    arguments are flattened into the platform's container once per call."""
    kernel = maybe_jit(body) if jit else body

    @functools.wraps(body)
    def run(*args):
        return kernel(*[_flat(a) if np.ndim(a) else a for a in args])

    return run


# jitted (or plain) step-level helpers; the bodies resolve these globals at
# call time, so under numba the whole call graph compiles together, and on
# the pure path a wrapper swapped in for one of them sees every call
project_anorm = maybe_jit(_project_anorm)
ons_init = maybe_jit(_ons_init)
ons_forecast = maybe_jit(_ons_forecast)
ons_update = maybe_jit(_ons_update)
ons_step_arrays = maybe_jit(_ons_step_arrays)
bin_of = maybe_jit(_bin_of)
bin_average = maybe_jit(_bin_average)
cell_status = maybe_jit(_cell_status)
status_of = maybe_jit(_status_of)
hedge_select = maybe_jit(_hedge_select)
hedge_fold = maybe_jit(_hedge_fold)
hops_advance = maybe_jit(_hops_advance)
adversary = maybe_jit(_adversary)

# public whole-stream passes
ons_pass = _entry(_ons_pass)
tracking_pass = _entry(_tracking_pass)
hops_pass = _entry(_hops_pass)
ops_adversarial_pass = _entry(_ops_adversarial_pass)
hops_adversarial_pass = _entry(_hops_adversarial_pass)

# un-jitted bodies over the same inputs (numba parity tests; under numba the
# helpers they call are still the compiled ones)
project_anorm_py = _project_anorm
ons_pass_py = _entry(_ons_pass, jit=False)
tracking_pass_py = _entry(_tracking_pass, jit=False)
hops_pass_py = _entry(_hops_pass, jit=False)
ops_adversarial_pass_py = _entry(_ops_adversarial_pass, jit=False)
hops_adversarial_pass_py = _entry(_hops_adversarial_pass, jit=False)
