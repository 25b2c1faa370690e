"""Exact Gaussian (covariance-matrix) solver for the linear coupled dynamics.

The two-mode system is linear in the mode operators, so first and second
quadrature moments close on themselves: means follow d<r>/dt = A <r> and the
covariance follows dV/dt = A V + V A^T + D.  Quadratures are
X = (c + c^dag)/sqrt(2), P = -i(c - c^dag)/sqrt(2) with [X, P] = i and vacuum
variance 1/2, ordered as (X_a, P_a, X_b, P_b).

The moment equations are linear with constant coefficients, so trajectories
are propagated exactly by matrix exponentials rather than integrated
numerically (see :func:`evolve`).

The :class:`~modcool.model.SystemSpec` carries ordinary frequencies in Hz;
the drift and diffusion matrices are assembled in angular units (1/s) so
trajectories are parameterised by laboratory time in seconds.  Decay rates
come from the drift spectrum (:func:`stability`) and are converted back to Hz
by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .model import SystemSpec, _require_finite, angular_rates

# Symplectic form for the quadrature ordering (X_a, P_a, X_b, P_b).
SYMPLECTIC_FORM = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

# Tolerances of the physicality and solver contracts.
PHYSICALITY_TOL = 1e-9
LYAPUNOV_RTOL = 1e-10
# Refinement of a Lyapunov solution that misses LYAPUNOV_RTOL: at most this
# many correction solves, accepted once a correction is below this share of V.
_LYAPUNOV_REFINEMENTS = 3
_LYAPUNOV_CORRECTION_RTOL = 1e-12
_SYMMETRY_TOL = 1e-12

# (X, P) positions of each mode in the quadrature ordering.
_MODE_QUADRATURES = {"a": (0, 1), "b": (2, 3)}


class StabilityError(RuntimeError):
    """The drift matrix is not Hurwitz, so no stationary state exists."""


@dataclass(frozen=True)
class DriftModel:
    """Drift and diffusion matrices (angular units, 1/s) of one spec."""

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self) -> None:
        drift = np.asarray(self.drift, dtype=float)
        diffusion = np.asarray(self.diffusion, dtype=float)
        if drift.shape != (4, 4) or diffusion.shape != (4, 4):
            raise ValueError("drift and diffusion must be 4x4")
        if not np.array_equal(diffusion, diffusion.T):
            raise ValueError("diffusion must be symmetric")
        if np.any(np.diag(diffusion) < 0):
            raise ValueError("diffusion must be positive semi-definite")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)


@dataclass(frozen=True)
class CovarianceState:
    """Gaussian state: quadrature means and covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise ValueError("mean must be length 4 and covariance 4x4")
        asym = np.max(np.abs(cov - cov.T))
        if asym > _SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise ValueError(f"covariance asymmetric by {asym:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class StabilityReport:
    """Drift eigenvalues (1/s) with the Hurwitz verdict.

    The slowest second moment decays at -2 ``margin``, and ``mechanical_weight``
    is the share of (X_a, P_a) in the eigenvector of the slowest eigenvalue:
    1 for a bare beam mode, 0.5 where beam and circuit hybridise.
    """

    eigenvalues: np.ndarray
    hurwitz: bool
    margin: float             # largest real part; negative when Hurwitz
    mechanical_weight: float  # in [0, 1]; see above


@dataclass(frozen=True)
class Trajectory:
    """Time series of Gaussian states produced by :func:`evolve`.

    Snapshot k has quadrature means ``means[k]`` and covariance
    ``covariances[k]`` at ``times[k]``.
    """

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.times)
        if self.means.shape != (n, 4) or self.covariances.shape != (n, 4, 4):
            raise ValueError("need one length-4 mean and one 4x4 covariance "
                             "per time")

    def occupations(self, mode: str) -> np.ndarray:
        """Occupation of one mode at every snapshot (see :func:`occupation`)."""
        return _occupations(self.means, self.covariances, mode)


def build_drift(spec: SystemSpec) -> DriftModel:
    """Assemble the quadrature drift and diffusion matrices of a spec.

    The drift realises
        dX_a = omega_a P_a - gamma0/2 X_a,
        dP_a = -omega_a X_a - gamma0/2 P_a - 2 g X_b,
        dX_b = -delta P_b - kappa0/2 X_b,
        dP_b = delta X_b - 2 g X_a - kappa0/2 P_b,
    and the diffusion is diag(gamma0 (n_a0 + 1/2), ..., kappa0 (n_b0 + 1/2)),
    which anchors the uncoupled steady state at the bath occupations.  All
    entries carry the 2*pi of the Hz -> angular conversion.
    """
    omega_a, delta, g, gamma0, kappa0 = angular_rates(spec)
    drift = np.array([
        [-gamma0 / 2.0, omega_a, 0.0, 0.0],
        [-omega_a, -gamma0 / 2.0, -2.0 * g, 0.0],
        [0.0, 0.0, -kappa0 / 2.0, -delta],
        [-2.0 * g, 0.0, delta, -kappa0 / 2.0],
    ])
    diffusion = np.diag([
        gamma0 * (spec.n_a0 + 0.5),
        gamma0 * (spec.n_a0 + 0.5),
        kappa0 * (spec.n_b0 + 0.5),
        kappa0 * (spec.n_b0 + 0.5),
    ])
    return DriftModel(drift=drift, diffusion=diffusion)


def stability(model: DriftModel) -> StabilityReport:
    """Eigenpairs of the drift matrix: Hurwitz flag, margin, mechanical weight."""
    eigenvalues, vectors = np.linalg.eig(model.drift)
    slowest = int(np.argmax(eigenvalues.real))
    margin = float(eigenvalues.real[slowest])
    return StabilityReport(
        eigenvalues=eigenvalues,
        hurwitz=bool(margin < 0),
        margin=margin,
        mechanical_weight=float(np.sum(np.abs(vectors[:2, slowest]) ** 2)),
    )


def physicality_margin(state: CovarianceState) -> float:
    """Smallest eigenvalue of V + i Omega / 2; >= -1e-9 for a physical state."""
    return float(_margins(state.covariance[np.newaxis])[0])


def _margins(covariances: np.ndarray) -> np.ndarray:
    """Physicality margin of each covariance of a stack, in one ``eigvalsh``."""
    return np.linalg.eigvalsh(covariances + 0.5j * SYMPLECTIC_FORM)[:, 0]


def thermal_state(n_a: float, n_b: float) -> CovarianceState:
    """Product of thermal states with the given occupations (zero means)."""
    _require_finite(n_a=n_a, n_b=n_b)
    if n_a < 0 or n_b < 0:
        raise ValueError("occupations must be non-negative")
    cov = np.diag([n_a + 0.5, n_a + 0.5, n_b + 0.5, n_b + 0.5])
    return CovarianceState(mean=np.zeros(4), covariance=cov)


def occupation(state: CovarianceState, mode: str) -> float:
    """Mean quantum number <c^dag c> of one mode of a Gaussian state.

    Raises ValueError when the state violates the uncertainty bound by more
    than ``PHYSICALITY_TOL``.
    """
    return _occupations(state.mean[np.newaxis], state.covariance[np.newaxis],
                        mode)[0]


def _occupations(means: np.ndarray, covariances: np.ndarray,
                 mode: str) -> np.ndarray:
    """Occupations of one mode over a stack of means and covariances.

    The physicality check is one batched ``eigvalsh`` over the whole stack.
    """
    if mode not in _MODE_QUADRATURES:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    margin = float(np.min(_margins(covariances)))
    if margin < -PHYSICALITY_TOL:
        raise ValueError(
            f"covariance violates the uncertainty bound by {margin:.3e}")
    x, p = _MODE_QUADRATURES[mode]
    return 0.5 * (covariances[:, x, x] + covariances[:, p, p]
                  + means[:, x] ** 2 + means[:, p] ** 2 - 1.0)


def steady_state(model: DriftModel) -> CovarianceState:
    """Stationary Gaussian state solving A V + V A^T + D = 0.

    Raises :class:`StabilityError` when the drift is not Hurwitz.  The
    returned covariance satisfies the Lyapunov equation to within
    1e-10 * ||D||_F, or else is refined until a correction moves it by at
    most 1e-12 * ||V||_F (``RuntimeError`` after three that do not), and
    it meets the physicality bound V + i Omega/2 >= 0.
    """
    report = stability(model)
    if not report.hurwitz:
        worst = report.eigenvalues[np.argmax(report.eigenvalues.real)]
        raise StabilityError(
            f"drift is not Hurwitz: eigenvalue {worst:.6g} has "
            f"non-negative real part")
    a, d = model.drift, model.diffusion
    v = solve_continuous_lyapunov(a, -d)
    v = 0.5 * (v + v.T)
    settled = (np.linalg.norm(a @ v + v @ a.T + d)
               <= LYAPUNOV_RTOL * np.linalg.norm(d))
    # The residual cannot fall below its rounding floor, about eps ||A|| ||V||,
    # which can exceed that test where rates are far apart; a correction that
    # no longer moves V then marks the solution as exact.
    refinements = 0
    while not settled:
        if refinements == _LYAPUNOV_REFINEMENTS:
            raise RuntimeError(f"Lyapunov refinement did not settle within "
                               f"{refinements} corrections")
        correction = solve_continuous_lyapunov(a, -(a @ v + v @ a.T + d))
        v = 0.5 * ((v + correction) + (v + correction).T)
        refinements += 1
        settled = (np.linalg.norm(correction)
                   <= _LYAPUNOV_CORRECTION_RTOL * np.linalg.norm(v))
    state = CovarianceState(mean=np.zeros(4), covariance=v)
    margin = physicality_margin(state)
    if margin < -PHYSICALITY_TOL:
        raise RuntimeError(
            f"stationary covariance violates physicality by {margin:.3e}")
    return state


def evolve(model: DriftModel, initial: CovarianceState, duration: float,
           num_points: int = 400) -> Trajectory:
    """Propagate means and covariance exactly over ``duration`` seconds.

    Returns ``num_points`` evenly spaced snapshots starting at t = 0.  The
    moment equations have constant coefficients, so one step dt of the
    output grid is exact:

        m <- E m,    V <- E V E^T + Q,

    with E = expm(A dt) and Q = int_0^dt expm(A s) D expm(A^T s) ds.  Over a
    short step h both come from one Van Loan block exponential,
    expm([[-A, D], [0, A^T]] h) = [[., F], [0, E(h)^T]] and Q(h) = E(h) F
    (C. F. Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  The -A
    block grows where A decays, so Q(h) cancels terms of size
    exp(||A|| h); h = dt / 2**s is therefore chosen with ||A||_1 h <= 1 and
    doubled back up s times with Q(2h) = E(h) Q(h) E(h)^T + Q(h),
    E(2h) = E(h)^2.  This holds for any drift, Hurwitz or not, and for any
    output spacing.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if num_points < 2:
        raise ValueError("num_points must be at least 2")
    a, d = model.drift, model.diffusion
    times = np.linspace(0.0, duration, num_points)
    dt = duration / (num_points - 1)
    # frexp's exponent s is the least with ||A||_1 dt < 2**s (0 for 0).
    squarings = max(0, math.frexp(float(np.linalg.norm(a, 1)) * dt)[1])
    block = np.zeros((8, 8))
    block[:4, :4] = -a
    block[:4, 4:] = d
    block[4:, 4:] = a.T
    exp_block = expm(block * math.ldexp(dt, -squarings))
    step = exp_block[4:, 4:].T
    increment = step @ exp_block[:4, 4:]
    for _ in range(squarings):
        increment = step @ increment @ step.T + increment
        increment = 0.5 * (increment + increment.T)
        step = step @ step
    means = np.empty((num_points, 4))
    covariances = np.empty((num_points, 4, 4))
    mean, v = initial.mean, initial.covariance
    for k in range(num_points):
        v = 0.5 * (v + v.T)
        means[k], covariances[k] = mean, v
        mean = step @ mean
        v = step @ v @ step.T + increment
    return Trajectory(times=times, means=means, covariances=covariances)

