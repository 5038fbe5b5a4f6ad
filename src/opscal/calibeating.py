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
  - hedging has one state type, ``HopsState``: counts, outcome sums, a
    status buffer (each bin's hedging status code) and the hedging body's
    per-row condition-A index and pair bound, which the state derives once
    at construction and each step advances by reclassifying the one bin
    it folds into. ``hops_step`` calls ``kernels.hops_advance``, one step
    of the hedging body ``kernels.hedge_run``, on it with the kept index
    and bound, so a step scans no row for its condition-A bin; the
    covariate-free step API (``f99_distribution``, ``f99_forecast``,
    ``f99_update``) works on row 0, the forecaster ``f99_run`` drives,
    folds a chosen bin with the body's fold, ``kernels.hedge_fold``, and
    rederives row 0's index with one scan and its bound as 0;
  - ``HopsState.distribution`` reads the routed row's kept index, and
    while it is m (no inside bin) scans the row's pair with
    ``kernels.hedge_pair`` from the kept bound, so no call classifies a bin
    again or scans the row from bin 0. A state is built from arrays, never
    edited in place.

Every entry point checks its values with ``core`` and rejects one outside
[0, 1], NaN included (outcomes need not be 0 or 1); a state rejects given
tallies that no such outcomes produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import BinningScheme, check_columns, unit_float
from .kernels import CalibeatingInvariantError  # noqa: F401 (re-exported)


def _route(p, scheme: BinningScheme) -> int:
    """The 0-based bin of one forecast, which must lie in [0, 1]."""
    return kernels.bin_of(unit_float(p, "probabilities"), scheme.epsilon, scheme.m)


@dataclass(eq=False)
class _Tallies:
    """Per-bin counts and outcome sums, zero unless given. Given ones must be
    1-D of the state's length, finite, and 0 <= outcome_sums <= counts in
    every bin, as outcomes in [0, 1] produce. The state keeps float copies,
    so an integer tally takes fractional outcomes and the caller's arrays
    are never written."""

    scheme: BinningScheme
    counts: np.ndarray = None
    outcome_sums: np.ndarray = None

    def __post_init__(self):
        n = self._size()
        for name in ("counts", "outcome_sums"):
            a = getattr(self, name)
            if a is not None and np.shape(a) != (n,):
                raise ValueError(f"{name} must be 1-D of length {n}, not of shape {np.shape(a)}")
            setattr(self, name, np.zeros(n) if a is None else np.array(a, dtype=float))
        counts, sums = self.counts, self.outcome_sums
        if not (np.isfinite(counts).all() and ((0.0 <= sums) & (sums <= counts)).all()):
            raise ValueError("tallies must be finite, with 0 <= outcome_sums <= counts in every bin")

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
    """Fold (expert_p, y), y in [0, 1], into the expert bin's statistics."""
    b, y = _route(expert_p, state.scheme), unit_float(y, "outcomes")
    new = state._copy()
    new.counts[b] += 1.0
    new.outcome_sums[b] += y
    return new


def tracking_run(expert_ps, ys, scheme: BinningScheme) -> np.ndarray:
    """Whole-stream tracking via the batched kernel. Expert forecasts and
    outcomes must lie in [0, 1] and have one length."""
    return kernels.tracking_pass(*check_columns(expert_ps, ys, "expert forecasts"), scheme.epsilon, scheme.m)


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
    in a list, as the kernels keep it; ``first`` each row's smallest
    inside bin (condition A), m if none, and ``low`` a bound below which no
    (excess, deficit) pair of the row starts, the hedging body's derived
    state. All three are derived from the tallies at construction (the
    index with one scan per row, the bound as 0), copied with the state
    and advanced by each step, so a step classifies only the bin it folds
    into and scans no row for its condition-A bin. Build a new state
    rather than editing ``counts`` or ``outcome_sums`` in place."""

    def __post_init__(self):
        super().__post_init__()
        m = self.scheme.m
        self.status = kernels.status_of(self.counts, self.outcome_sums, self.scheme.epsilon, m)
        self.first, self.low = [kernels.hedge_inside(self.status, r * m, 0, m) for r in range(m)], [0] * m

    def _size(self) -> int:
        return self.scheme.m * self.scheme.m

    def _copy(self):
        new = super()._copy()
        new.status, new.first, new.low = self.status.copy(), self.first.copy(), self.low.copy()
        return new

    def distribution(self, expert_p: float) -> HedgeDistribution:
        """The announced distribution of the instance routed by expert_p."""
        scheme = self.scheme
        r = _route(expert_p, scheme)
        mid = scheme.midpoint  # 1-based bins
        if self.first[r] < scheme.m:
            return HedgeDistribution(support=(mid(self.first[r] + 1),), probs=(1.0,))
        lo, hi, plo = kernels.hedge_pair(self.status, self.counts, self.outcome_sums, r * scheme.m, self.low[r],
                                         scheme.epsilon, scheme.m)
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
    """Fold the outcome y, in [0, 1], into row 0's tallies of the forecast bin."""
    scheme = state.scheme
    c = _route(chosen, scheme)
    if abs(scheme.midpoint(c + 1) - chosen) > 1e-9:
        raise ValueError("chosen forecast is not a bin midpoint of this scheme")
    y = unit_float(y, "outcomes")
    new = state._copy()
    kernels.hedge_fold(new.counts, new.outcome_sums, new.status, 0, c, y, scheme.epsilon)
    new.first[0], new.low[0] = kernels.hedge_inside(new.status, 0, 0, scheme.m), 0
    return new


def f99_run(ys, scheme: BinningScheme, rng: np.random.Generator) -> np.ndarray:
    """Covariate-free hedging over an outcome sequence: ``hops_run`` over an
    expert that always sits in the first bin."""
    return hops_run(np.zeros(np.shape(ys)), ys, scheme, rng)


def hops_step(state: HopsState, expert_p: float, y, rng: np.random.Generator):
    """Route to the expert-bin instance, forecast, then absorb the outcome.

    Returns (drawn forecast, new HopsState). The expert's bin is determined
    by the raw expert forecast. The outcome y must lie in [0, 1]. Consumes
    one uniform per call.
    """
    scheme = state.scheme
    r, y = _route(expert_p, scheme), unit_float(y, "outcomes")
    new = state._copy()
    u = float(rng.random())
    return kernels.hops_advance(new.counts, new.outcome_sums, new.status, r, y, u, scheme.epsilon, scheme.m,
                                new.first, new.low), new


def hops_run(expert_ps, ys, scheme: BinningScheme, rng: np.random.Generator) -> np.ndarray:
    """Whole-stream hedging over an expert column (batched kernel); draws
    one uniform per step from ``rng``. Expert forecasts and outcomes must
    lie in [0, 1] and have one length."""
    expert_ps, ys = check_columns(expert_ps, ys, "expert forecasts")
    return kernels.hops_pass(expert_ps, ys, rng.random(len(ys)), scheme.epsilon, scheme.m)
