"""Online Newton Step for log-loss over sigmoid-linear models (d = 2 or 3).

The recursion, per step: accumulate A <- A + grad grad^T, take the damped
Newton step theta~ <- theta - (1/gamma) A^{-1} grad, then project onto the
Euclidean ball of the configured radius under the A-norm,
argmin_{||theta|| <= radius} (theta~ - theta)^T A (theta~ - theta).
The forecast at step t always uses the PRE-update parameters; the pair
(feature_t, y_t) then produces theta_{t+1}.

OnsState is a value: steps return fresh states, so distinct streams can run
in parallel with independent states. The heavy lifting is shared with the
whole-stream kernel in ``opscal.kernels`` so step-by-step and batched
execution replay identically. A step rejects an outcome outside [0, 1].
``regret`` compares a forecast column with a fixed comparator's forecasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import log_loss


@dataclass(frozen=True)
class OnsConfig:
    """Hyperparameters; fixed per family, never tuned per dataset."""

    dim: int
    gamma: float = 0.1
    rho: float = 100.0
    radius: float = 100.0

    def __post_init__(self):
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
    """Parameters theta, curvature A = rho I + sum grad grad^T, and its
    inverse maintained by Sherman-Morrison (a cache, never authoritative)."""

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
        return cls(
            theta=theta,
            A=config.rho * np.eye(d),
            A_inv=np.eye(d) / config.rho,
            t=0,
        )


def ons_advance(state: OnsState, feature, y, config: OnsConfig):
    """Forecast with ``state.theta``, then take one online Newton step.

    Returns (forecast, successor state) and leaves ``state`` untouched. The
    arithmetic is the whole-stream kernel's own step body, run on copies of
    the state, so a replay of these steps equals a kernel pass exactly.
    """
    feature = np.asarray(feature, dtype=float)
    d = config.dim
    if feature.shape != (d,) or state.theta.shape != (d,):
        raise ValueError("feature/config dimension mismatch")
    y = float(y)
    if not 0.0 <= y <= 1.0:
        raise ValueError("outcomes must lie in [0, 1]")
    theta = state.theta.copy()
    A = state.A.flatten()
    A_inv = state.A_inv.flatten()
    forecast = kernels.ons_step_arrays(theta, A, A_inv, feature, 0, y, config.gamma, config.radius)
    return float(forecast), OnsState(theta=theta, A=A.reshape(d, d), A_inv=A_inv.reshape(d, d), t=state.t + 1)


def ons_step(state: OnsState, feature, y, config: OnsConfig) -> OnsState:
    """One online Newton update; returns the successor state.

    The caller makes its forecast from ``state.theta`` before invoking this.
    """
    return ons_advance(state, feature, y, config)[1]


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
    return kernels.project_anorm(np.ascontiguousarray(A), np.ascontiguousarray(theta_tilde), float(radius))


def regret(probs, ys, comparator) -> float:
    """Summed log-loss of the forecasts ``probs`` minus that of the
    comparator's forecasts, both on the outcomes ``ys``."""
    probs, ys, comparator = (np.asarray(a, dtype=float) for a in (probs, ys, comparator))
    if ys.size == 0 or not probs.shape == ys.shape == comparator.shape:
        raise ValueError("forecasts, outcomes and comparator forecasts must have one nonzero length")
    return float(np.sum(log_loss(probs, ys)) - np.sum(log_loss(comparator, ys)))


def ons_regret_bound(T: int, B: float) -> float:
    """Worst-case regret guarantee 2 (e^B + 10 B) log T + 1 for the online
    Newton scaler against the radius-B comparator ball (B >= 1, T >= 10)."""
    return 2.0 * (np.exp(B) + 10.0 * B) * np.log(T) + 1.0
