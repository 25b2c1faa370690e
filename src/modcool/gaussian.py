"""Exact Gaussian (covariance-matrix) solver for the linear coupled dynamics.

The two-mode system is linear in the mode operators, so first and second
quadrature moments close on themselves: means follow d<r>/dt = A <r> and the
covariance follows dV/dt = A V + V A^T + D.  Quadratures are
X = (c + c^dag)/sqrt(2), P = -i(c - c^dag)/sqrt(2) with [X, P] = i and vacuum
variance 1/2, ordered as (X_a, P_a, X_b, P_b).

The steady state and the trajectories share one vectorised moment operator
K = A (x) I + I (x) A, the 16 x 16 matrix with K vec V = vec(A V + V A^T)
(row-major vec), written by broadcasting.  The steady state is one LU solve
K vec V = -vec D (see :func:`steady_state`), and the moment equations,
linear with constant coefficients, are propagated exactly by one matrix
exponential of a generator built around K rather than integrated
numerically (see :func:`evolve`).

Each quantity is computed once per object that owns it.  A
:class:`DriftModel` holds read-only copies of its matrices and computes its
:class:`StabilityReport` (one ``eig``) on first use; a
:class:`CovarianceState` or :class:`Trajectory` holds read-only copies of its
moments and computes its physicality verdict (one ``eigvalsh``, batched over
a trajectory) on first use.  No memo outlives its object, so one sweep point
makes one ``eig`` and two ``eigvalsh`` (the diffusion's check and the state's).

The :class:`~modcool.model.SystemSpec` carries ordinary frequencies in Hz;
the drift and diffusion matrices are assembled in angular units (1/s) so
trajectories are parameterised by laboratory time in seconds.  Decay rates
come from the drift spectrum (:func:`stability`) and are converted back to Hz
by the caller.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

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
LYAPUNOV_RTOL = 1e-12
_PSD_RTOL = 1e-12
_SYMMETRY_TOL = 1e-12

# (X, P) positions of each mode in the quadrature ordering.
_MODE_QUADRATURES = {"a": (0, 1), "b": (2, 3)}

logger = logging.getLogger(__name__)


class StabilityError(RuntimeError):
    """The drift matrix is not Hurwitz, so no stationary state exists."""


@dataclass(frozen=True)
class DriftModel:
    """Drift and diffusion matrices (angular units, 1/s) of one spec."""

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self) -> None:
        drift = _read_only(self.drift)
        diffusion = _read_only(self.diffusion)
        if drift.shape != (4, 4) or diffusion.shape != (4, 4):
            raise ValueError("drift and diffusion must be 4x4")
        for name, value in (("drift", drift), ("diffusion", diffusion)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if not np.array_equal(diffusion, diffusion.T):
            raise ValueError("diffusion must be symmetric")
        if (np.linalg.eigvalsh(diffusion)[0]
                < -_PSD_RTOL * np.max(np.abs(diffusion))):
            raise ValueError("diffusion must be positive semi-definite")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)

    @cached_property
    def _stability(self) -> StabilityReport:
        """:func:`stability` of this model, made once."""
        eigenvalues, vectors = np.linalg.eig(self.drift)
        eigenvalues.flags.writeable = False
        slowest = int(np.argmax(eigenvalues.real))
        margin = float(eigenvalues.real[slowest])
        return StabilityReport(
            eigenvalues=eigenvalues,
            hurwitz=bool(margin < 0),
            margin=margin,
            mechanical_weight=float(np.sum(np.abs(vectors[:2, slowest]) ** 2)),
        )


@dataclass(frozen=True)
class CovarianceState:
    """Gaussian state: quadrature means and covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = _read_only(self.mean)
        cov = _read_only(self.covariance)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise ValueError("mean must be length 4 and covariance 4x4")
        for name, value in (("mean", mean), ("covariance", cov)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        asym = np.max(np.abs(cov - cov.T))
        if asym > _SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise ValueError(f"covariance asymmetric by {asym:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @cached_property
    def _violation(self) -> float | None:
        """:func:`_worst_violation` of this covariance, made once."""
        return _worst_violation(self.covariance[np.newaxis])


def _read_only(value) -> np.ndarray:
    """A float copy of ``value`` that cannot be written to."""
    array = np.array(value, dtype=float)
    array.flags.writeable = False
    return array


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
        names = ("times", "means", "covariances")
        times, means, covs = (_read_only(getattr(self, n)) for n in names)
        if means.shape != (len(times), 4) or covs.shape != (len(times), 4, 4):
            raise ValueError("need one length-4 mean and one 4x4 covariance "
                             "per time")
        for name, value in zip(names, (times, means, covs)):
            object.__setattr__(self, name, value)

    @cached_property
    def _violation(self) -> float | None:
        """:func:`_worst_violation` of the whole stack, made once."""
        return _worst_violation(self.covariances)

    def occupations(self, mode: str) -> np.ndarray:
        """Occupation of one mode at every snapshot (see :func:`occupation`);
        both modes share the stack's one batched physicality ``eigvalsh``."""
        return _occupation(self.means, self.covariances, self._violation, mode)


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
    """Eigenpairs of the drift matrix: Hurwitz flag, margin, mechanical weight.

    Each model computes its report once, on first use, and returns the same
    read-only report to every later call.
    """
    return model._stability


def physicality_margin(state: CovarianceState) -> float:
    """Smallest eigenvalue of V + i Omega / 2; >= -1e-9 for a physical state
    (or a rounding of V's size, when larger: see :func:`_worst_violation`)."""
    return float(_margins(state.covariance[np.newaxis])[0])


def _margins(covariances: np.ndarray) -> np.ndarray:
    """Physicality margin of each covariance of a stack, in one ``eigvalsh``."""
    return np.linalg.eigvalsh(covariances + 0.5j * SYMPLECTIC_FORM)[:, 0]


def _worst_violation(covariances: np.ndarray) -> float | None:
    """Least margin of a stack that breaks the uncertainty bound, or None.

    A margin breaks it below -max(PHYSICALITY_TOL, 64 eps max|V_ij|):
    ``eigvalsh`` finds an eigenvalue of V + i Omega / 2 to a few eps
    ||V||_2, and 64 eps max|V_ij| bounds 16 eps ||V||_2 for a 4 x 4 matrix,
    so a large covariance is not rejected for its rounding.
    """
    margins = _margins(covariances)
    rounding = 64 * np.finfo(float).eps * np.abs(covariances).max(axis=(1, 2))
    below = margins[margins < -np.maximum(PHYSICALITY_TOL, rounding)]
    return float(below.min()) if below.size else None


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
    than ``PHYSICALITY_TOL`` or the rounding of V (:func:`_worst_violation`).
    The state computes that verdict once, so :func:`steady_state`'s check
    and every later call here share one ``eigvalsh``.
    """
    return _occupation(state.mean, state.covariance, state._violation, mode)


def _occupation(means: np.ndarray, covariances: np.ndarray,
                violation: float | None, mode: str):
    """Occupation of mode ``'a'`` or ``'b'`` of one state or of a stack (the
    transposes index both alike); ValueError if their :func:`_worst_violation`
    verdict ``violation`` fails."""
    if mode not in _MODE_QUADRATURES:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    if violation is not None:
        raise ValueError(
            f"covariance violates the uncertainty bound by {violation:.3e}")
    (x, p), v, m = _MODE_QUADRATURES[mode], covariances.T, means.T
    return 0.5 * (v[x, x] + v[p, p] + m[x] ** 2 + m[p] ** 2 - 1.0)


def _moment_operator(drift: np.ndarray) -> np.ndarray:
    """K = A (x) I + I (x) A, so that K vec V = vec(A V + V A^T).

    K[(i, j), (k, l)] = A[i, k] I[j, l] + I[i, k] A[j, l], written by
    broadcasting: the same products and sums as two ``np.kron`` calls, so
    the same bits, without their overhead.
    """
    n = len(drift)
    identity = np.eye(n)
    operator = (drift[:, None, :, None] * identity[None, :, None, :]
                + identity[:, None, :, None] * drift[None, :, None, :])
    return operator.reshape(n * n, n * n)


def steady_state(model: DriftModel) -> CovarianceState:
    """Stationary Gaussian state solving A V + V A^T + D = 0.

    Raises :class:`StabilityError` when the drift is not Hurwitz.  V comes
    from one LU solve of K vec V = -vec D with the moment operator
    K = A (x) I + I (x) A, and is symmetrised.  Its backward error must
    meet ||A V + V A^T + D||_F <= 1e-12 (2 ||A||_F ||V||_F + ||D||_F)
    (``RuntimeError`` otherwise), and it meets the physicality bound
    V + i Omega/2 >= 0.  The Hurwitz check reads the model's one
    :func:`stability` report, and the returned state keeps its physicality
    verdict, so :func:`occupation` repeats neither.  One DEBUG line on the
    ``modcool.gaussian`` logger gives the backward error over its scale, the
    margin and whether the physicality check passed.
    """
    report = stability(model)
    if not report.hurwitz:
        worst = report.eigenvalues[np.argmax(report.eigenvalues.real)]
        raise StabilityError(
            f"drift is not Hurwitz: eigenvalue {worst:.6g} has "
            f"non-negative real part")
    a, d = model.drift, model.diffusion
    v = np.linalg.solve(_moment_operator(a), -d.ravel()).reshape(4, 4)
    v = 0.5 * (v + v.T)
    residual = np.linalg.norm(a @ v + v @ a.T + d)
    scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d)
    if not residual <= LYAPUNOV_RTOL * scale:
        raise RuntimeError(f"Lyapunov backward error {residual / scale:.3e} "
                           f"exceeds {LYAPUNOV_RTOL:.0e}")
    state = CovarianceState(mean=np.zeros(4), covariance=v)
    worst = state._violation
    logger.debug("steady state: backward_error=%.3e margin=%.3e physical=%s",
                 residual / scale, report.margin, worst is None)
    if worst is not None:
        raise RuntimeError(
            f"stationary covariance violates physicality by {worst:.3e}")
    return state


def evolve(model: DriftModel, initial: CovarianceState, duration: float,
           num_points: int = 400) -> Trajectory:
    """Propagate means and covariance exactly over ``duration`` seconds.

    Returns ``num_points`` evenly spaced snapshots starting at t = 0.  The
    column (m, vec V, 1) obeys one linear ODE with constant generator

        G = [[A, 0, 0], [0, K, vec D], [0, 0, 0]]    (21 x 21),

    K = A (x) I + I (x) A, so one step dt of the output grid is exactly
    expm(G dt), taken once and applied ``num_points - 1`` times.  This holds
    for any drift, Hurwitz or not, and for any output spacing.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if num_points < 2:
        raise ValueError("num_points must be at least 2")
    a, d = model.drift, model.diffusion
    generator = np.zeros((21, 21))
    generator[:4, :4] = a
    generator[4:20, 4:20] = _moment_operator(a)
    generator[4:20, 20] = d.ravel()
    dt = duration / (num_points - 1)
    step = expm(generator * dt)
    columns = np.empty((num_points, 21))
    columns[0] = np.concatenate([initial.mean, initial.covariance.ravel(), [1.0]])
    # An unstable drift may outgrow float range: fail, not fill with inf.
    with np.errstate(over="raise", invalid="raise"):
        for k in range(1, num_points):
            columns[k] = step @ columns[k - 1]
    covariances = columns[:, 4:20].reshape(num_points, 4, 4)
    covariances = 0.5 * (covariances + covariances.transpose(0, 2, 1))
    return Trajectory(times=np.linspace(0.0, duration, num_points),
                      means=columns[:, :4], covariances=covariances)
