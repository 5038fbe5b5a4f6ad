"""Online Newton Step for log-loss over sigmoid-linear models (d = 2 or 3).

The recursion, per step: accumulate A <- A + grad grad^T, take the damped
Newton step theta~ <- theta - (1/gamma) A^{-1} grad, then project onto the
Euclidean ball of the configured radius under the A-norm,
argmin_{||theta|| <= radius} (theta~ - theta)^T A (theta~ - theta).
The forecast at step t always uses the PRE-update parameters; the pair
(feature_t, y_t) then produces theta_{t+1}.

OnsState is a value: steps return fresh states, so distinct streams can run
in parallel with independent states. ``ons_advance`` runs one step of
``kernels.ons_run``, the body every whole-stream pass runs, so step-by-step
and batched execution replay identically; it rejects a malformed state, a
non-finite feature and a step whose successor overflows. ``regret``
compares a forecast column with a fixed comparator's forecasts. Both reject a value outside [0, 1] (``core``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import check_columns, check_count, check_unit, log_loss, unit_float


@dataclass(frozen=True)
class OnsConfig:
    """Hyperparameters; fixed per family, never tuned per dataset."""

    dim: int
    gamma: float = 0.1
    rho: float = 100.0
    radius: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "dim", check_count(self.dim, "dim", 2))
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 (Platt) or 3 (beta)")
        if not all(math.isfinite(v) and v > 0 for v in (self.gamma, self.rho, self.radius)):
            raise ValueError("gamma, rho, radius must be finite and positive")

    @classmethod
    def platt(cls) -> "OnsConfig":
        return cls(dim=2, gamma=0.1, rho=100.0, radius=100.0)

    @classmethod
    def beta(cls) -> "OnsConfig":
        return cls(dim=3, gamma=0.1, rho=25.0, radius=100.0)


def initial_theta(dim: int) -> np.ndarray:
    """Unit weights and a zero bias: (1, 0) for the 2-d Platt family, (1, 1, 0)
    for the 3-d beta family."""
    return np.append(np.ones(dim - 1), 0.0)


@dataclass(eq=False)
class OnsState:
    """Parameters theta, curvature A = rho I + sum grad grad^T and its
    Sherman-Morrison inverse (a cache), both symmetric bit for bit."""

    theta: np.ndarray
    A: np.ndarray
    A_inv: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, config: OnsConfig, theta0: np.ndarray | None = None) -> "OnsState":
        d = config.dim
        theta = initial_theta(d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
        if theta.shape != (d,):
            raise ValueError("theta0 has wrong dimension")
        theta, A, A_inv = kernels.ons_init(theta.tolist(), config.rho)
        return cls(theta=np.array(theta), A=np.reshape(A, (d, d)), A_inv=np.reshape(A_inv, (d, d)))


# the flat indices (i*d + j, j*d + i), i < j, of the mirrored entries of a d x d matrix
_MIRRORS = {2: ((1, 2),), 3: ((1, 3), (2, 6), (5, 7))}


def ons_advance(state: OnsState, feature, y, config: OnsConfig):
    """Forecast with ``state.theta``, then take one online Newton step.

    Returns (forecast, successor state) and leaves ``state`` untouched. The
    step is the whole-stream kernels' body ``kernels.ons_run``, run on copies
    of the state, so a replay of these steps equals a kernel pass exactly.
    Raises ValueError unless the feature and theta have length dim, A and
    A_inv are dim x dim and symmetric bit for bit, and the feature, state
    and successor are finite.
    """
    feature = np.asarray(feature, dtype=float)
    d = config.dim
    if feature.shape != (d,) or state.theta.shape != (d,) or state.A.shape != (d, d) or state.A_inv.shape != (d, d):
        raise ValueError(f"dimension mismatch: feature and theta must have length {d}, A and A_inv shape ({d}, {d})")
    y = unit_float(y, "outcomes")
    copy = kernels._copy
    x, theta, A, A_inv = copy(feature), copy(state.theta), copy(state.A), copy(state.A_inv)
    if not math.isfinite(sum(x) + sum(theta) + sum(A) + sum(A_inv)):
        raise ValueError("feature and state theta, A and A_inv must be finite")
    for M in (A, A_inv):  # symmetric bit for bit: == alone takes -0.0 for 0.0
        for i, j in _MIRRORS[d]:
            if M[i] != M[j] or (M[i] == 0.0 and math.copysign(1.0, M[i]) != math.copysign(1.0, M[j])):
                raise ValueError("state A and A_inv must be symmetric bit for bit")
    ys, probs = [y], kernels._zeros(1)
    kernels.ons_run(x, ys, config.gamma, config.radius, theta, A, A_inv, probs)
    if not math.isfinite(sum(theta) + sum(A) + sum(A_inv)):
        raise ValueError("the step overflowed: the successor's theta, A and A_inv are not finite")
    return float(probs[0]), OnsState(theta=np.array(theta), A=np.array(A).reshape(d, d),
                                     A_inv=np.array(A_inv).reshape(d, d), t=state.t + 1)


def project_ellipsoid(A, theta_tilde, radius: float) -> np.ndarray:
    """Project theta_tilde onto the Euclidean radius-ball under the A-norm.

    Returns theta_tilde unchanged when it is already feasible. A must be
    symmetric positive definite; solved exactly via eigendecomposition and
    bisection on the KKT multiplier (to ||theta(lam)|| within 1e-10).
    """
    A = np.asarray(A, dtype=float)
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != theta_tilde.shape[0]:
        raise ValueError("A must be square and match theta_tilde")
    if not np.allclose(A, A.T, atol=1e-8):
        raise ValueError("A must be symmetric")
    if np.linalg.eigvalsh(A)[0] <= 0:
        raise ValueError("A must be positive definite")
    return kernels.project_anorm(A, theta_tilde, float(radius))


def regret(probs, ys, comparator) -> float:
    """Summed log-loss of the forecasts ``probs`` minus that of the
    comparator's forecasts, both on the outcomes ``ys``."""
    probs, ys = check_columns(probs, ys, "forecasts")
    comparator = check_unit(comparator, "comparator forecasts")
    if ys.size == 0 or comparator.shape != ys.shape:
        raise ValueError("forecasts, outcomes and comparator forecasts must have one nonzero length")
    return float(np.sum(log_loss(probs, ys)) - np.sum(log_loss(comparator, ys)))


def ons_regret_bound(T: int, B: float) -> float:
    """Worst-case regret guarantee 2 (e^B + 10 B) log T + 1 for the online
    Newton scaler against the radius-B comparator ball, over T >= 1 steps
    with a finite B >= 1; raises ValueError otherwise."""
    T = check_count(T, "T", 1)
    B = float(B)
    if not (math.isfinite(B) and B >= 1.0):
        raise ValueError(f"B must be finite and >= 1, got {B!r}")
    return float(2.0 * (np.exp(B) + 10.0 * B) * np.log(T) + 1.0)
