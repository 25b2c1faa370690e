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
trajectories are parameterised by laboratory time in seconds.  Decay rates,
from the drift spectrum or from a fit, are converted back to Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.optimize import curve_fit

from .model import TWO_PI, SystemSpec, _require_finite, angular_rates

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
_SYMMETRY_TOL = 1e-12
# Decay amplitudes at or below this fraction of the occupation scale are
# rounding error, not decay.
_FLAT_TRACE_RTOL = 1e-9

# (X, P) positions of each mode in the quadrature ordering.
_MODE_QUADRATURES = {"a": (0, 1), "b": (2, 3)}


class StabilityError(RuntimeError):
    """The drift matrix is not Hurwitz, so no stationary state exists."""


class FitError(RuntimeError):
    """A decay-rate fit could not be carried out on the given trajectory."""


@dataclass(frozen=True)
class DriftModel:
    """Drift and diffusion matrices (angular units, 1/s) of one spec."""

    spec: SystemSpec
    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self) -> None:
        drift = np.asarray(self.drift, dtype=float)
        diffusion = np.asarray(self.diffusion, dtype=float)
        if drift.shape != (4, 4) or diffusion.shape != (4, 4):
            raise ValueError("drift and diffusion must be 4x4")
        if not np.allclose(diffusion, diffusion.T, atol=0, rtol=0):
            raise ValueError("diffusion must be symmetric")
        if np.any(np.diag(diffusion) < 0):
            raise ValueError("diffusion must be positive semi-definite")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)


@dataclass(frozen=True)
class CovarianceState:
    """Gaussian state: quadrature means, covariance matrix and a timestamp."""

    mean: np.ndarray
    covariance: np.ndarray
    time: float

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
    model: DriftModel

    def __post_init__(self) -> None:
        n = len(self.times)
        if self.means.shape != (n, 4) or self.covariances.shape != (n, 4, 4):
            raise ValueError("need one length-4 mean and one 4x4 covariance "
                             "per time")

    @property
    def states(self) -> tuple[CovarianceState, ...]:
        return tuple(CovarianceState(mean=m, covariance=v, time=float(t))
                     for t, m, v in zip(self.times, self.means,
                                        self.covariances))

    def occupations(self, mode: str) -> np.ndarray:
        """Occupation of one mode at every snapshot (see :func:`occupation`)."""
        return _occupations(self.means, self.covariances, mode)


@dataclass(frozen=True)
class CoolingFit:
    """Result of an exponential decay fit of a mechanical occupation trace."""

    rate: float                  # Hz
    n_initial: float
    n_final: float
    residual: float              # rms residual over the decay amplitude
    window: tuple[float, float]  # seconds
    flagged: bool                # residual above threshold (oscillatory decay)


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
    return DriftModel(spec=spec, drift=drift, diffusion=diffusion)


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


def thermal_state(n_a: float, n_b: float, time: float = 0.0) -> CovarianceState:
    """Product of thermal states with the given occupations (zero means)."""
    _require_finite(n_a=n_a, n_b=n_b, time=time)
    if n_a < 0 or n_b < 0:
        raise ValueError("occupations must be non-negative")
    cov = np.diag([n_a + 0.5, n_a + 0.5, n_b + 0.5, n_b + 0.5])
    return CovarianceState(mean=np.zeros(4), covariance=cov, time=time)


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
    1e-10 * ||D||_F and the physicality bound V + i Omega/2 >= 0.
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
    d_scale = np.linalg.norm(d)
    # One refinement pass keeps the residual contract comfortable even for
    # badly scale-separated rates.
    for _ in range(2):
        residual = a @ v + v @ a.T + d
        if np.linalg.norm(residual) <= LYAPUNOV_RTOL * d_scale:
            break
        correction = solve_continuous_lyapunov(a, -residual)
        v = 0.5 * ((v + correction) + (v + correction).T)
    else:
        residual = a @ v + v @ a.T + d
        if np.linalg.norm(residual) > LYAPUNOV_RTOL * d_scale:
            raise RuntimeError(
                f"Lyapunov residual {np.linalg.norm(residual):.3e} exceeds "
                f"{LYAPUNOV_RTOL:.1e} * ||D||")
    state = CovarianceState(mean=np.zeros(4), covariance=v, time=math.inf)
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
    return Trajectory(times=times, means=means, covariances=covariances,
                      model=model)


def fit_cooling_rate(trajectory: Trajectory, mode: str = "a",
                     transient: float | None = None,
                     residual_threshold: float = 0.05,
                     min_decay: float = 10.0) -> CoolingFit:
    """Fit n(t) = n_f + (n_i - n_f) exp(-Gamma t) to an occupation trace.

    The first ``transient`` seconds are discarded before fitting; the
    default is three circuit lifetimes, 3/(2 pi kappa0), so the fast cavity
    settling does not contaminate the mechanical envelope.  The excess
    occupation must decay by at least ``min_decay`` over the fit window,
    otherwise :class:`FitError` is raised; so is a trace whose drop over the
    window is at rounding level (1e-9 of its largest value).  A fit whose
    rms residual exceeds ``residual_threshold`` of the decay amplitude is
    returned with ``flagged`` set -- the signature of oscillatory
    strong-coupling decay that a single exponential cannot represent.

    Returns the decay rate as an ordinary frequency (Hz).
    """
    times = trajectory.times
    values = trajectory.occupations(mode)
    if transient is None:
        kappa0 = trajectory.model.spec.kappa0
        transient = 3.0 / (TWO_PI * kappa0) if kappa0 > 0 else 0.0
    mask = times >= times[0] + transient
    if np.count_nonzero(mask) < 8:
        raise ValueError("fewer than 8 samples remain after the transient cut")
    t = times[mask] - times[mask][0]
    n = values[mask]
    if not np.all(np.isfinite(n)):
        raise FitError("occupation trace contains non-finite values")
    # A drop at rounding level is no decay: a flat trace that happens to end
    # a few ulps lower would otherwise pass the min_decay check below, whose
    # tail n[-1] - n_f is then non-positive.
    if n[0] - n[-1] <= _FLAT_TRACE_RTOL * max(1.0, float(np.max(np.abs(n)))):
        raise FitError(
            f"trajectory does not decay: n(t0) = {n[0]:.6g}, "
            f"n(t1) = {n[-1]:.6g}")

    n_f0 = float(n[-1])
    amp0 = float(n[0] - n_f0)
    below = np.nonzero(n - n_f0 <= amp0 / math.e)[0]
    rate0 = 1.0 / t[below[0]] if below.size and t[below[0]] > 0 else 3.0 / t[-1]

    def decay(tt, n_f, amp, rate):
        return n_f + amp * np.exp(-rate * tt)

    try:
        params, _ = curve_fit(decay, t, n, p0=[n_f0, amp0, rate0],
                              bounds=([0.0, 0.0, 0.0], [np.inf] * 3),
                              maxfev=20000)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"exponential fit did not converge: {exc}") from exc
    n_f, amp, rate = map(float, params)
    residual = float(np.sqrt(np.mean((n - decay(t, *params)) ** 2))
                     / max(amp, 1e-300))
    tail = n[-1] - n_f
    factor = math.inf if tail <= 0 else (n[0] - n_f) / tail
    if factor < min_decay:
        raise FitError(
            f"excess occupation decays by factor {factor:.3g} < {min_decay} "
            f"over the fit window; extend the trajectory")
    return CoolingFit(
        rate=rate / TWO_PI,
        n_initial=float(n[0]),
        n_final=n_f,
        residual=residual,
        window=(float(times[mask][0]), float(times[-1])),
        flagged=bool(residual > residual_threshold),
    )
