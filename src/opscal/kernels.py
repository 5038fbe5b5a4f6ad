"""Hot sequential kernels: online Newton passes, tracking, hedging.

These passes dominate experiment runtime. Only work that depends on the
previous step stays in a per-step loop: the online-Newton passes, hedging
and the joint adversarial pass. Each rule has one body, using per-element
indexing and float arithmetic only, with state in flat buffers (a d x d
matrix is d*d long, entry (i, j) at i*d + j). The bodies run on Python
floats: the public passes call ``ndarray.tolist()`` on their inputs once
per call (``_flat``), and state and per-step outputs are ``_zeros``
buffers (``[0.0] * n``), as reading or writing a float in a list is
several times cheaper than in an array. Each pass turns its output
buffers into float64 arrays once per call. Python floats do the IEEE
double arithmetic of ``np.float64``, so the outputs are those of the
numpy-array kernels the bodies replaced.

Tracking feeds nothing back (its forecast is the mean of past outcomes in
the expert's bin), so ``tracking_pass`` is a closed form in plain numpy:
the column is routed once with ``core.bins_of`` and each bin's forecasts
are an exclusive running sum of its outcomes over the running count.
Hedging picks its forecaster row from the expert column alone, so
``hops_pass`` routes the column once and its loop takes integer rows.
Both routings reject an expert forecast outside [0, 1].

Conventions:
  - features are (T, d) float64 with a trailing bias column of ones; the
    bodies see them flattened, step t at [t*d, (t+1)*d)
  - outcomes are float64 in [0, 1]
  - ``us`` are pre-drawn Uniform[0,1) variates, one per time step; hedging
    consumes exactly one per step whether or not it randomizes, so seeded
    replays align across step-by-step and whole-stream execution
  - bins are 0-based; bin width ``eps`` and count ``m`` are passed
    explicitly and must come from the same BinningScheme the caller uses
    for metrics

State buffers: hedging keeps one row of m bins per forecaster in flat
m*m ``counts`` and ``sums`` (row r at [r*m, (r + 1)*m)), a ``status``
buffer of the same layout holding each bin's hedging status code: inside
its bin (condition A), excess, deficit, or none of these, as floats, an
index ``first`` holding each row's smallest inside bin, m if it has none,
and a bound ``low`` below which no (excess, deficit) pair of the row
starts, where its pair scan begins. The passes keep every buffer in a
``_zeros`` list and start from empty state, where every bin is inside,
every row's index is 0 and no row has a pair (bound 0); the step APIs
pass their numpy tallies, a status list and, from a ``HopsState``, its
kept index and bound. The online-Newton state is theta and the flat d*d
A and A^{-1}, symmetric bit for bit; no pass keeps a parameter trace, and
``ons_pass`` returns the state after its last step.

Step bodies, which the passes and the step APIs all call:
  - ``ons_init`` is the online-Newton start state and ``ons_run`` the one
    online-Newton body, run by ``ons_pass``, both adversarial passes and
    ``ons.ons_advance`` (one step). It keeps theta and the upper triangles
    of A and A^{-1} in local floats, written out for d = 2 (Platt) and
    d = 3 (beta), as loops over i and j and list subscripts were most of a
    step's cost. Every sum keeps the loop's start value and order, so the
    bits, signed zeros included, are the loop's; ``ons_init`` rejects any
    other width. It reads each outcome from ``ys[t]``, which an optional
    outcome source, resumed once per step after the forecast is written,
    writes first; so it knows nothing of bins, hedging or adversaries.
  - ``project_anorm`` is the A-norm projection, array code over one
    eigendecomposition; only its bracket doubling and bisection loop.
  - ``hedge_run`` is the one hedging body, a generator. Under ``GIVEN``
    it never yields: ``hops_pass`` and ``hops_advance`` (one step, from
    the state's index and bound) run it with one ``next(..., None)``. Under
    ``ADVERSARY_HEDGE`` it yields once per step, as soon as the step's
    outcome is in ``ys[t]``, and routes each step's forecast with
    ``bin_of`` itself: ``hops_adversarial_pass`` makes it over the
    forecast buffer of ``ons_run`` and hands it in as the outcome source,
    so ``ons_run`` writes each forecast before the step that routes it.
    It scans a row only to rescan a stale index or, while the index is m,
    for the pair, from the row's bound, with the condition-A scan
    ``hedge_inside`` and the pair scan ``hedge_pair``, which
    ``HopsState.distribution`` also runs from a state's kept bound.
    ``hedge_fold`` folds an outcome into one bin and reclassifies it with
    ``cell_status``, the one classify rule.
  - ``bin_of`` routes a forecast to bin min(floor(p / eps), m - 1)
  - ``bin_average`` is a bin's outcome mean, its midpoint while empty:
    the tracking step API's forecast, and the average ``status_of``
    classifies
  - ``status_of`` builds the status buffer of given tallies by classifying
    every bin, once per ``HopsState`` construction
  - ``adversary`` is the outcome adversary of both adversarial passes;
    ``point_responses``, the outcome source of ``ops_adversarial_pass``,
    answers each point forecast with it
"""

from __future__ import annotations

import functools
import math
from math import exp

import numpy as np

from .core import bins_of


class CalibeatingInvariantError(RuntimeError):
    """A structural guarantee (condition A-or-B, a theorem bound) failed."""


# a fresh buffer of n zeros
_zeros = [0.0].__mul__


def _flat(a):
    # the values of the array a as a flat list: ints for an integer array
    # (routed bins), floats otherwise
    a = np.asarray(a)
    return a.astype(np.int64 if a.dtype.kind in "iu" else np.float64, copy=False).ravel().tolist()


def _copy(a):
    # the values of the float array a as a flat list, which a body may
    # write; cheaper than _flat for the small state arrays of one step
    return a.ravel().tolist()


def project_anorm(A, theta_tilde, radius):
    # argmin over the radius-ball of (theta_tilde - theta)^T A (theta_tilde - theta),
    # via eigendecomposition of A (flat or square) and bisection on the KKT multiplier.
    # Every np.sum here adds its d terms in index order from 0.0, as a loop
    # over them does.
    theta_tilde = np.asarray(theta_tilde, dtype=np.float64)
    d = len(theta_tilde)
    if np.sum(theta_tilde * theta_tilde) <= radius * radius:
        return theta_tilde.copy()
    w, Q = np.linalg.eigh(np.asarray(A).reshape((d, d)))
    v = np.sum(Q * theta_tilde[:, None], axis=0)  # Q^T theta_tilde
    # ||theta(lam)||^2 = sum_i (w_i v_i / (w_i + lam))^2 is strictly
    # decreasing in lam >= 0, from ||theta_tilde|| down to 0.
    lo = 0.0
    hi = 1.0
    while hi < 1e300:
        z = w * v / (w + hi)
        if np.sum(z * z) < radius * radius:
            break
        hi *= 2.0
    lam = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = w * v / (w + mid)
        nrm = math.sqrt(np.sum(z * z))
        lam = mid
        if abs(nrm - radius) <= 1e-10:
            break
        if nrm > radius:
            lo = mid
        else:
            hi = mid
    z = w * v / (w + lam)
    return np.sum(Q * z, axis=1)  # Q z


def ons_init(theta0, rho):
    # Online-Newton start state (theta0, rho I, I / rho), of a width ons_run has.
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


def ons_run(x, ys, gamma, radius, theta, A, Ainv, probs, respond=None):
    # T = len(probs) steps from the state (theta, A, Ainv), left in those
    # buffers at the end. Step t forecasts probs[t] = p = sigmoid(theta .
    # x[t*d:(t+1)*d]), takes the outcome y = ys[t] and updates for the
    # gradient g = (p - y) x: A += g g^T; v = Ainv g and denom = 1 + g . v;
    # Ainv -= v v^T / denom (Sherman-Morrison); theta -= (v / denom) / gamma,
    # as (A + g g^T)^{-1} g == v / denom; then the A-norm projection if theta
    # left the radius ball. A and Ainv stay symmetric bit for bit (g_i g_j ==
    # g_j g_i, v_i v_j == v_j v_i), so their upper triangles are the locals,
    # written back to both triangles before the projection (``eigh`` reads
    # the lower one) and at the end. Every sum starts from 0.0 (1.0 for
    # denom) as in a loop. An outcome source ``respond`` (a generator, such
    # as ``point_responses`` or an adversarial ``hedge_run``) answers each
    # forecast: it is resumed once per step, after probs[t] is written, and
    # writes ys[t]; after the loop one more resumption finishes its last step.
    d = len(theta)
    t0, t1 = theta[0], theta[1]
    a00, a01, a11 = A[0], A[1], A[d + 1]
    i00, i01, i11 = Ainv[0], Ainv[1], Ainv[d + 1]
    t2 = x2 = a02 = a12 = a22 = i02 = i12 = i22 = 0.0
    if d == 3:
        t2 = theta[2]
        a02, a12, a22 = A[2], A[5], A[8]
        i02, i12, i22 = Ainv[2], Ainv[5], Ainv[8]
    rr = radius * radius
    for t in range(len(probs)):
        k = t * d
        x0, x1 = x[k], x[k + 1]
        if d == 2:
            z = 0.0 + t0 * x0 + t1 * x1
        else:
            x2 = x[k + 2]
            z = 0.0 + t0 * x0 + t1 * x1 + t2 * x2
        if z >= 0.0:  # the sigmoid on the side that cannot overflow
            p = 1.0 / (1.0 + exp(-z))
        else:
            ez = exp(z)
            p = ez / (1.0 + ez)
        probs[t] = p
        if respond is not None:
            next(respond)
        r = p - ys[t]
        if d == 2:
            g0 = r * x0
            g1 = r * x1
            a00 += g0 * g0
            a01 += g0 * g1
            a11 += g1 * g1
            v0 = 0.0 + i00 * g0 + i01 * g1
            v1 = 0.0 + i01 * g0 + i11 * g1
            denom = 1.0 + g0 * v0 + g1 * v1
            i00 -= v0 * v0 / denom
            i01 -= v0 * v1 / denom
            i11 -= v1 * v1 / denom
            t0 = t0 - (v0 / denom) / gamma
            t1 = t1 - (v1 / denom) / gamma
            tnorm2 = 0.0 + t0 * t0 + t1 * t1
        else:
            g0 = r * x0
            g1 = r * x1
            g2 = r * x2
            a00 += g0 * g0
            a01 += g0 * g1
            a02 += g0 * g2
            a11 += g1 * g1
            a12 += g1 * g2
            a22 += g2 * g2
            v0 = 0.0 + i00 * g0 + i01 * g1 + i02 * g2
            v1 = 0.0 + i01 * g0 + i11 * g1 + i12 * g2
            v2 = 0.0 + i02 * g0 + i12 * g1 + i22 * g2
            denom = 1.0 + g0 * v0 + g1 * v1 + g2 * v2
            i00 -= v0 * v0 / denom
            i01 -= v0 * v1 / denom
            i02 -= v0 * v2 / denom
            i11 -= v1 * v1 / denom
            i12 -= v1 * v2 / denom
            i22 -= v2 * v2 / denom
            t0 = t0 - (v0 / denom) / gamma
            t1 = t1 - (v1 / denom) / gamma
            t2 = t2 - (v2 / denom) / gamma
            tnorm2 = 0.0 + t0 * t0 + t1 * t1 + t2 * t2
        if tnorm2 > rr:  # theta and A reach it through the state buffers
            theta[0], theta[1] = t0, t1
            A[0], A[1], A[d], A[d + 1] = a00, a01, a01, a11
            if d == 3:
                theta[2] = t2
                A[2], A[5], A[6], A[7], A[8] = a02, a12, a02, a12, a22
            tt = project_anorm(A, theta, radius)
            t0, t1 = tt[0], tt[1]
            if d == 3:
                t2 = tt[2]
    if respond is not None:
        next(respond, None)
    theta[0], theta[1] = t0, t1
    A[0], A[1], A[d], A[d + 1] = a00, a01, a01, a11
    Ainv[0], Ainv[1], Ainv[d], Ainv[d + 1] = i00, i01, i01, i11
    if d == 3:
        theta[2] = t2
        A[2], A[5], A[6], A[7], A[8] = a02, a12, a02, a12, a22
        Ainv[2], Ainv[5], Ainv[6], Ainv[7], Ainv[8] = i02, i12, i02, i12, i22


def bin_of(p, eps, m):
    # The 0-based bin of forecast p, floor(p / eps), with p = 1 clamped into
    # the last bin m - 1.
    b = int(math.floor(p / eps))
    return b if b < m else m - 1


def bin_average(counts, sums, k, b, eps):
    # The running outcome mean in slot k of the state, which tallies bin b,
    # or the bin's midpoint while the slot is empty: the tracking step API's
    # forecast, and the average ``status_of`` classifies.
    return sums[k] / counts[k] if counts[k] > 0.0 else (b + 0.5) * eps


def cell_status(pb, b, eps):
    # The hedging status code of bin b from its average p_b: 0.0 inside the
    # bin (condition A), 1.0 excess (p_b above the right edge), 2.0 deficit
    # (p_b below the left edge), 3.0 none of these (a NaN average).
    if pb >= b * eps and pb <= (b + 1.0) * eps:
        return 0.0
    if pb - (b + 1.0) * eps > 0.0:
        return 1.0
    if b * eps - pb > 0.0:
        return 2.0
    return 3.0


def status_of(counts, sums, eps, m):
    # A new status buffer for flat state of rows of m bins, every bin of
    # every row classified.
    status = _zeros(len(counts))
    for base in range(0, len(counts), m):
        for b in range(m):
            status[base + b] = cell_status(bin_average(counts, sums, base + b, b, eps), b, eps)
    return status


def hedge_inside(status, base, b, m):
    # The condition-A scan: the smallest bin b' >= b of the row at base whose
    # status is inside, or m if there is none.
    for k in range(base + b, base + m):
        if status[k] == 0.0:
            return k - base
    return m


def hedge_pair(status, counts, sums, base, b0, eps, m):
    # The condition-B scan of a row with no inside bin, from bin b0: the
    # smallest adjacent (excess, deficit) pair (b, b + 1) with b >= b0,
    # hedged with prob_lo = d_{b+1} / (d_{b+1} + e_b) on b. Such bins are
    # not empty, so their averages are sums / counts.
    for k in range(base + b0, base + m - 1):
        if status[k] == 1.0 and status[k + 1] == 2.0:
            b = k - base
            eb = sums[k] / counts[k] - (b + 1.0) * eps
            db1 = (b + 1.0) * eps - sums[k + 1] / counts[k + 1]
            return b, b + 1, db1 / (db1 + eb)
    raise CalibeatingInvariantError("hedging invariant violated: neither condition holds")


def hedge_fold(counts, sums, status, base, c, y, eps):
    # Fold outcome y into bin c of the row at base, the one bin whose
    # status can change, and reclassify it from its average, which is
    # sums / counts as the bin is no longer empty.
    k = base + c
    counts[k] += 1.0
    sums[k] += y
    status[k] = cell_status(sums[k] / counts[k], c, eps)


# The outcome rules of ``hedge_run``: ys[t] as given, or the adversary on
# the mean of the hedge distribution announced for step t.
GIVEN, ADVERSARY_HEDGE = 0, 1


def hedge_run(rows, ys, outcome, us, out, counts, sums, status, first, low, eps, m):
    # Hedging steps over the whole input and the flat state, in place, as a
    # generator: under GIVEN it never yields, so one next(..., None) runs
    # every step; under ADVERSARY_HEDGE it yields once per step, as soon as
    # it has written ys[t], and finishes that step when resumed. Step t
    # hedges on row r = rows[t], a pre-routed bin under GIVEN; under
    # ADVERSARY_HEDGE rows[t] is a forecast, routed with ``bin_of`` as the
    # step starts, so the caller may write it until then. first[r] is row
    # r's smallest inside bin, m if none (then the row hedges its
    # hedge_pair), and low[r] a bound below which no (excess, deficit) pair
    # of row r starts, where its pair scan begins. Step t takes y by its
    # rule (GIVEN: ys[t]; ADVERSARY_HEDGE: the adversary on the announced
    # mean, written to ys[t]), draws bin c with us[t], folds y into c and
    # emits c's midpoint. Only bin c changes, so first[r] moves to c if c is
    # now inside below it, and is rescanned from c + 1 only if c was it and
    # left. No bin below low[r] is inside (the bound is raised only by a
    # scan of a row with none, and drops only to c - 1), so c >= low[r]:
    # the one pair that can appear below the bound is (c - 1, c), when c is
    # the bound and now deficit, and then the bound drops to c - 1 (c > 0,
    # as an average of outcomes in [0, 1] is never deficit in bin 0).
    for t in range(len(rows)):
        r = rows[t] if outcome == GIVEN else bin_of(rows[t], eps, m)
        base, a = r * m, first[r]
        if a < m:
            lo = hi = a
            plo = 1.0
        else:
            lo, hi, plo = hedge_pair(status, counts, sums, base, low[r], eps, m)
            low[r] = lo
        if outcome == GIVEN:
            y = ys[t]
        else:
            y = adversary(plo * ((lo + 0.5) * eps) + (1.0 - plo) * ((hi + 0.5) * eps))
            ys[t] = y
            yield
        c = lo if us[t] < plo else hi
        hedge_fold(counts, sums, status, base, c, y, eps)
        s = status[base + c]
        if s == 0.0:
            if c < a:
                first[r] = c
        else:
            if c == a:
                first[r] = hedge_inside(status, base, c + 1, m)
            if s == 2.0 and c == low[r]:
                low[r] = c - 1
        out[t] = (c + 0.5) * eps


def hops_advance(counts, sums, status, r, y, u, eps, m, first, low):
    # One hedging step for expert bin r (row r of the flat m*m state), in
    # place: ``hedge_run`` for one step. first and low are the state's
    # per-row condition-A index and pair bound, which the step advances.
    # Returns the drawn bin's midpoint.
    out = [0.0]
    next(hedge_run((r,), (y,), GIVEN, (u,), out, counts, sums, status, first, low, eps, m), None)
    return out[0]


def adversary(x):
    # The outcome adversary's response to an announced forecast x (a point
    # forecast or a hedge distribution's mean): y = 1{x <= 1/2}, ties to 1.
    return 1.0 if x <= 0.5 else 0.0


def point_responses(probs, ys):
    # The adversary on each point forecast, as an outcome source of ``ons_run``.
    for t in range(len(ys)):
        ys[t] = adversary(probs[t])
        yield


_array = functools.partial(np.asarray, dtype=np.float64)


def _hedge_start(m):
    # The empty hedging state of m rows of m bins: counts, sums, status, the
    # condition-A index and the pair bound. An empty bin averages its
    # midpoint, which lies inside the bin, so every status is 0.0, every
    # row's index is 0 and no row has a pair (bound 0).
    return _zeros(m * m), _zeros(m * m), _zeros(m * m), [0] * m, [0] * m


def ons_pass(feats, ys, gamma, rho, radius, theta0):
    """The online-Newton pass on given outcomes: (forecasts, theta, A,
    A_inv), the last three the state after the final step."""
    theta, A, Ainv = ons_init(_flat(theta0), rho)
    d = len(theta)
    probs = _zeros(len(ys))
    ons_run(_flat(feats), _flat(ys), gamma, radius, theta, A, Ainv, probs)
    return _array(probs), _array(theta), _array(A).reshape(d, d), _array(Ainv).reshape(d, d)


def ops_adversarial_pass(feats, gamma, rho, radius, theta0):
    """The pass against the adversary on each forecast: (forecasts, outcomes)."""
    theta, A, Ainv = ons_init(_flat(theta0), rho)
    x = _flat(feats)
    T = len(x) // len(theta)
    probs, ys = _zeros(T), _zeros(T)
    ons_run(x, ys, gamma, radius, theta, A, Ainv, probs, point_responses(probs, ys))
    return _array(probs), _array(ys)


def hops_adversarial_pass(feats, us, eps, m, gamma, rho, radius, theta0):
    """The joint pass, hedging on the forecasts' bins against the adversary
    on the hedge mean: (forecasts, hedged forecasts, outcomes)."""
    theta, A, Ainv = ons_init(_flat(theta0), rho)
    T = len(us)
    ops, hops, ys = _zeros(T), _zeros(T), _zeros(T)
    hedger = hedge_run(ops, ys, ADVERSARY_HEDGE, _flat(us), hops, *_hedge_start(m), eps, m)
    ons_run(_flat(feats), ys, gamma, radius, theta, A, Ainv, ops, hedger)
    return _array(ops), _array(hops), _array(ys)


def hops_pass(expert, ys, us, eps, m):
    """One independent hedging forecaster per expert bin over the whole
    stream; each sees only the outcome subsequence routed to it, and us[t]
    resolves step t's (possible) randomization. The expert column, which
    must lie in [0, 1], is routed to its 0-based bins once, so the per-step
    loop takes integer rows."""
    rows = _flat(bins_of(expert, eps, m))
    out = _zeros(len(rows))
    next(hedge_run(rows, _flat(ys), GIVEN, _flat(us), out, *_hedge_start(m), eps, m), None)
    return _array(out)


def tracking_pass(expert, ys, eps, m):
    """Tracking over the whole stream: at step t, the mean outcome of the
    strictly-past steps whose expert forecast, which must lie in [0, 1],
    fell in the same bin, or the bin's midpoint while there are none. Per
    bin, an exclusive running sum of its outcomes from 0.0 in time order
    (``np.cumsum`` adds sequentially, as the step loop did) over the
    running count."""
    bins = bins_of(np.ravel(expert), eps, m)
    ys = np.asarray(ys, dtype=np.float64).ravel()
    out = np.empty(len(bins))
    for b in range(m):
        idx = np.flatnonzero(bins == b)
        if len(idx):
            sums = np.cumsum(np.concatenate(([0.0], ys[idx[:-1]])))
            out[idx[0]] = (b + 0.5) * eps
            out[idx[1:]] = sums[1:] / np.arange(1, len(idx))
    return out
