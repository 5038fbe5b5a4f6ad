"""Tracking and hedging wrappers over an expert forecast stream.

Tracking replaces the expert's forecast with the average outcome observed
on past steps whose expert forecast fell in the same epsilon-bin (bin
midpoint while the bin is empty).

Hedging runs one randomized forecaster per expert bin. Each forecaster
keeps, for every bin b, the count of times it forecast that bin's midpoint
and the average outcome on those steps (initialized to the midpoint).
With left endpoint l_b and right endpoint r_b it defines
deficit d_b = l_b - p_b and excess e_b = p_b - r_b, and forecasts:

  - condition A: some b has d_b <= 0 and e_b <= 0 -> point mass on that
    bin's midpoint (smallest such b);
  - otherwise condition B: some b has e_b > 0 and d_{b+1} > 0 -> hedge on
    the two midpoints (m_b, m_{b+1}) with probabilities
    (d_{b+1}, e_b) / (d_{b+1} + e_b) (smallest such b).

One of the two always holds for valid state; the code asserts it. The
two-point distribution is announced BEFORE the outcome is committed, and
the realized draw happens after - adversaries get the distribution, never
the draw. Step functions consume one uniform per call (used or not) so
that step-by-step runs replay the batched kernels exactly.

The whole-stream runs (``tracking_run``, ``hops_run`` and ``f99_run``,
which is ``hops_run`` over a constant expert) are the one entry to the
tracking and hedging passes in ``opscal.kernels``; the pipeline and the
theorem checks call them. The step-level functions are thin wrappers over
the kernels' own step bodies, run on copies of the state, and the test
suite pins step-by-step replays to the whole-stream runs:

  - tracking calls ``kernels.bin_of`` and ``bin_average`` on a
    ``TrackingState``'s bin counts and outcome sums;
  - hedging has one state type, ``HopsState``: counts, outcome sums and a
    status buffer (each bin's hedging status code), which the state
    derives once at construction and each step advances by reclassifying
    the one bin it folds into. ``hops_step`` calls
    ``kernels.hops_advance`` on it; the covariate-free step API
    (``f99_distribution``, ``f99_forecast``, ``f99_update``) works on
    row 0, the forecaster ``f99_run`` drives, and folds with
    ``kernels.hedge_fold``;
  - ``HopsState.distribution`` reads the cached status of the routed row
    with ``kernels.hedge_select``, so no call classifies a bin again. A
    state is built from arrays, never edited in place.

Every entry point rejects an expert forecast or an outcome outside
[0, 1], NaN included; outcomes need not be 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import BinningScheme, check_unit
from .kernels import CalibeatingInvariantError  # noqa: F401 (re-exported)


def _route(p, scheme: BinningScheme) -> int:
    """The 0-based bin of one forecast, which must lie in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    return kernels.bin_of(float(p), scheme.epsilon, scheme.m)


def _outcome(y) -> float:
    """One outcome as a float; it must lie in [0, 1] (NaN does not)."""
    y = float(y)
    if not 0.0 <= y <= 1.0:
        raise ValueError("outcomes must lie in [0, 1]")
    return y


def _columns(expert_ps, ys):
    """The expert and outcome columns as float arrays of one length, both
    in [0, 1]."""
    expert_ps = check_unit(expert_ps, "probabilities")
    ys = check_unit(ys, "outcomes")
    if expert_ps.shape != ys.shape:
        raise ValueError("expert forecasts and outcomes must have equal length")
    return expert_ps, ys


@dataclass(eq=False)
class _Tallies:
    """Per-bin counts and outcome sums, zero unless given; given ones must
    be 1-D of the state's length."""

    scheme: BinningScheme
    counts: np.ndarray = None
    outcome_sums: np.ndarray = None

    def __post_init__(self):
        n = self._size()
        for name in ("counts", "outcome_sums"):
            a = getattr(self, name)
            if a is None:
                setattr(self, name, np.zeros(n))
            elif np.shape(a) != (n,):
                raise ValueError(f"{name} must be 1-D of length {n}, not of shape {np.shape(a)}")

    def _size(self) -> int:
        return self.scheme.m

    def _copy(self):
        # bypasses __post_init__, so nothing derived is computed again
        new = object.__new__(type(self))
        new.scheme, new.counts, new.outcome_sums = self.scheme, self.counts.copy(), self.outcome_sums.copy()
        return new


class TrackingState(_Tallies):
    """Per-bin counts and outcome sums over strictly-past expert steps."""


def tracking_forecast(state: TrackingState, expert_p: float) -> float:
    """Past outcome average of the expert's bin; its midpoint when empty."""
    b = _route(expert_p, state.scheme)
    return float(kernels.bin_average(state.counts, state.outcome_sums, b, b, state.scheme.epsilon))


def tracking_update(state: TrackingState, expert_p: float, y) -> TrackingState:
    """Fold (expert_p, y) into the expert bin's statistics; y must lie in
    [0, 1]."""
    b, y = _route(expert_p, state.scheme), _outcome(y)
    new = state._copy()
    new.counts[b] += 1.0
    new.outcome_sums[b] += y
    return new


def tracking_run(expert_ps, ys, scheme: BinningScheme) -> np.ndarray:
    """Whole-stream tracking via the batched kernel. Expert forecasts and
    outcomes must lie in [0, 1] and have one length."""
    return kernels.tracking_pass(*_columns(expert_ps, ys), scheme.epsilon, scheme.m)


@dataclass
class HedgeDistribution:
    """One- or two-point distribution on consecutive bin midpoints."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or len(self.support) not in (1, 2):
            raise ValueError("support and probs must both have length 1 or 2")
        if any(p < 0.0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")

    def sample(self, u: float) -> float:
        """Resolve the draw with a uniform variate u in [0, 1)."""
        if len(self.support) == 1 or u < self.probs[0]:
            return self.support[0]
        return self.support[1]


class HopsState(_Tallies):
    """m independent hedging forecasters, one per expert bin, in the
    kernels' layout: flat m*m counts and outcome sums, the forecaster of
    expert bin r at row r, [r*m, (r + 1)*m). Row 0 is also the
    covariate-free forecaster of the ``f99_*`` step API.

    ``status`` holds every bin's hedging status code (``kernels.cell_status``)
    in the kernels' container. It is derived from the tallies at
    construction, copied with the state and advanced by each step, so a
    step classifies only the bin it folds into. Build a new state rather
    than editing ``counts`` or ``outcome_sums`` in place."""

    def __post_init__(self):
        super().__post_init__()
        self.status = kernels.status_of(self.counts, self.outcome_sums, self.scheme.epsilon, self.scheme.m)

    def _size(self) -> int:
        return self.scheme.m * self.scheme.m

    def _copy(self):
        new = super()._copy()
        new.status = self.status.copy()
        return new

    def distribution(self, expert_p: float) -> HedgeDistribution:
        """The announced distribution of the instance routed by expert_p."""
        scheme = self.scheme
        base = _route(expert_p, scheme) * scheme.m
        lo, hi, plo = kernels.hedge_select(self.status, self.counts, self.outcome_sums, base,
                                           scheme.epsilon, scheme.m)
        mid = scheme.midpoint  # 1-based bins
        if hi == lo:
            return HedgeDistribution(support=(mid(lo + 1),), probs=(1.0,))
        return HedgeDistribution(support=(mid(lo + 1), mid(hi + 1)), probs=(plo, 1.0 - plo))


def f99_distribution(state: HopsState) -> HedgeDistribution:
    """The announced forecast distribution of the covariate-free forecaster
    (row 0) for the next step.

    Exposed separately from the draw so outcome generators may condition on
    it (they must commit y before the draw resolves).
    """
    return state.distribution(0.0)


def f99_forecast(state: HopsState, rng: np.random.Generator):
    """Announce the distribution, then draw the forecast from it.

    Consumes exactly one uniform from ``rng`` whether or not the
    distribution randomizes, so seeded runs replay bit-for-bit against the
    batched kernels.
    """
    dist = f99_distribution(state)
    u = float(rng.random())
    return dist, dist.sample(u)


def f99_update(state: HopsState, chosen: float, y) -> HopsState:
    """Fold the outcome, which must lie in [0, 1], into row 0's statistics
    of the forecast bin."""
    scheme = state.scheme
    c = _route(chosen, scheme)
    if abs(scheme.midpoint(c + 1) - chosen) > 1e-9:
        raise ValueError("chosen forecast is not a bin midpoint of this scheme")
    y = _outcome(y)
    new = state._copy()
    kernels.hedge_fold(new.counts, new.outcome_sums, new.status, 0, c, y, scheme.epsilon)
    return new


def f99_run(ys, scheme: BinningScheme, rng: np.random.Generator) -> np.ndarray:
    """Covariate-free hedging over an outcome sequence: ``hops_run`` over an
    expert that always sits in the first bin."""
    return hops_run(np.zeros(len(ys)), ys, scheme, rng)


def hops_step(state: HopsState, expert_p: float, y, rng: np.random.Generator):
    """Route to the expert-bin instance, forecast, then absorb the outcome.

    Returns (drawn forecast, new HopsState). The expert's bin is determined
    by the raw expert forecast. The outcome y must lie in [0, 1]. Consumes
    one uniform per call.
    """
    scheme = state.scheme
    r = _route(expert_p, scheme)
    y = _outcome(y)
    new = state._copy()
    u = float(rng.random())
    return kernels.hops_advance(new.counts, new.outcome_sums, new.status, r, y, u, scheme.epsilon, scheme.m), new


def hops_run(expert_ps, ys, scheme: BinningScheme, rng: np.random.Generator) -> np.ndarray:
    """Whole-stream hedging over an expert column (batched kernel); draws
    one uniform per step from ``rng``. Expert forecasts and outcomes must
    lie in [0, 1] and have one length."""
    expert_ps, ys = _columns(expert_ps, ys)
    return kernels.hops_pass(expert_ps, ys, rng.random(len(ys)), scheme.epsilon, scheme.m)
