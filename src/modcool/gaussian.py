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

Every step of the stationary solve works on a stack of points.
:func:`steady_states` takes a grid of specs as (N, 4, 4) drifts and
diffusions and makes one ``eig``, one ``solve`` over the Hurwitz points and
two ``eigvalsh`` (the diffusions' check and the states' verdicts) for the
whole grid; :class:`DriftModel`, :func:`stability` and :func:`steady_state`
run the same steps on a stack of one.  A point that a check refuses, or on
which LAPACK fails, keeps its own exception and leaves the other points
alone.

Each quantity is computed once per object that owns it.  A
:class:`DriftModel` holds read-only copies of its matrices and computes its
:class:`StabilityReport` on first use; a :class:`CovarianceState` or
:class:`Trajectory` holds read-only copies of its moments and computes its
physicality verdict (one ``eigvalsh``, batched over a trajectory) on first
use.  No memo outlives its object.

The :class:`~modcool.model.SystemSpec` carries ordinary frequencies in Hz;
the drift and diffusion matrices are assembled in angular units (1/s) so
trajectories are parameterised by laboratory time in seconds.  Decay rates
come from the drift spectrum (:func:`stability`) and are converted back to Hz
by the caller.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
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
        _on_one(_check_models, drift[np.newaxis], diffusion[np.newaxis])
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)

    @cached_property
    def _stability(self) -> StabilityReport:
        """:func:`stability` of this model, made once."""
        return _on_one(_reports, self.drift[np.newaxis])


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
        _on_one(_check_states, mean[np.newaxis], cov[np.newaxis])
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


# The stationary solve, one stage at a time.  A stage takes ``errors``, one
# entry per point of its stacks, and works on the points whose entry is
# still None; a point it refuses gets the exception that the one-point API
# raises for it.


def _live(errors: list) -> np.ndarray:
    """Indices of the points of a stack that no stage has refused."""
    return np.array([k for k, error in enumerate(errors) if error is None],
                    dtype=np.intp)


def _refuse(errors: list, live: np.ndarray, broken, error) -> None:
    """Refuse each point ``live[i]`` where ``broken[i]`` holds, with the
    exception ``error(i)``."""
    for i in np.nonzero(broken)[0]:
        errors[live[i]] = error(i)


def _each_alone(step, errors: list, live: np.ndarray, *stacks):
    """``step(*stacks)``, one numpy call over the ``live`` points.

    ``stacks`` hold the live points in order.  numpy refuses a whole stack
    when LAPACK fails on one of its points; then each point takes the step
    alone, on a stack of one, and a point that fails again keeps its
    ``LinAlgError``.  The rest take the step again as one stack.  Returns
    the points the step succeeded on and its result for them.
    """
    try:
        return live, step(*stacks)
    except np.linalg.LinAlgError:
        kept = []
        for i, k in enumerate(live):
            try:
                step(*(stack[i:i + 1] for stack in stacks))
            except np.linalg.LinAlgError as exc:
                errors[k] = exc
            else:
                kept.append(i)
    return live[kept], step(*(stack[kept] for stack in stacks))


def _on_one(stage, *stacks):
    """``stage`` on stacks of one point: its result for the point, or the
    exception it refused the point with, raised."""
    errors = [None]
    results = stage(errors, *stacks)
    if errors[0] is not None:
        raise errors[0]
    return None if results is None else results[0]


def _refuse_non_finite(errors: list, **stacks: np.ndarray) -> None:
    """Refuse each point with a non-finite entry, naming the first stack
    (in keyword order) that has one."""
    for name, stack in stacks.items():
        live = _live(errors)
        finite = np.isfinite(stack[live]).all(axis=tuple(range(1, stack.ndim)))
        _refuse(errors, live, ~finite,
                lambda _: ValueError(f"{name} must be finite"))


def _check_models(errors: list, drifts: np.ndarray,
                  diffusions: np.ndarray) -> None:
    """Refuse the models :class:`DriftModel` refuses: non-finite matrices, or
    a diffusion that is not symmetric and positive semi-definite (one
    ``eigvalsh`` over the diffusions that pass the other checks)."""
    _refuse_non_finite(errors, drift=drifts, diffusion=diffusions)
    live = _live(errors)
    d = diffusions[live]
    _refuse(errors, live, ~(d == d.transpose(0, 2, 1)).all(axis=(1, 2)),
            lambda _: ValueError("diffusion must be symmetric"))
    live = _live(errors)
    live, spectra = _each_alone(np.linalg.eigvalsh, errors, live,
                                diffusions[live])
    scale = np.abs(diffusions[live]).max(axis=(1, 2))
    _refuse(errors, live, spectra[:, 0] < -_PSD_RTOL * scale,
            lambda _: ValueError("diffusion must be positive semi-definite"))


def _check_states(errors: list, means: np.ndarray,
                  covariances: np.ndarray) -> None:
    """Refuse the states :class:`CovarianceState` refuses: non-finite
    moments, or a covariance asymmetric beyond its rounding."""
    _refuse_non_finite(errors, mean=means, covariance=covariances)
    live = _live(errors)
    v = covariances[live]
    asym = np.abs(v - v.transpose(0, 2, 1)).max(axis=(1, 2))
    bound = _SYMMETRY_TOL * np.maximum(1.0, np.abs(v).max(axis=(1, 2)))
    _refuse(errors, live, asym > bound,
            lambda i: ValueError(f"covariance asymmetric by {asym[i]:.3e}"))


def _reports(errors: list, drifts: np.ndarray) -> list:
    """The :class:`StabilityReport` of each live drift of a stack (None for
    the others), from one ``eig``."""
    live = _live(errors)
    live, (eigenvalues, vectors) = _each_alone(np.linalg.eig, errors, live,
                                               drifts[live])
    eigenvalues.flags.writeable = False
    slowest = np.argmax(eigenvalues.real, axis=1)
    at = np.arange(len(live))
    margins = eigenvalues.real[at, slowest]
    weights = np.sum(np.abs(vectors[at, :2, slowest]) ** 2, axis=1)
    # eig of one matrix is real where its whole spectrum is.
    real = ~eigenvalues.imag.any(axis=1)
    reports = [None] * len(drifts)
    for i, k, margin, weight in zip(at.tolist(), live.tolist(),
                                    margins.tolist(), weights.tolist()):
        reports[k] = StabilityReport(
            eigenvalues=eigenvalues[i].real if real[i] else eigenvalues[i],
            hurwitz=margin < 0,
            margin=margin,
            mechanical_weight=weight,
        )
    return reports


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, summed as
    ``np.linalg.norm`` sums one matrix (a BLAS dot of its entries), so the
    same bits."""
    rows = stack.reshape(len(stack), 1, math.prod(stack.shape[1:]))
    return np.sqrt((rows @ rows.transpose(0, 2, 1))[:, 0, 0])


def _not_hurwitz(report: StabilityReport) -> StabilityError:
    worst = report.eigenvalues[np.argmax(report.eigenvalues.real)]
    return StabilityError(f"drift is not Hurwitz: eigenvalue {worst:.6g} has "
                          f"non-negative real part")


def _stationary(errors: list, drifts: np.ndarray, diffusions: np.ndarray,
                reports: list) -> list:
    """The stationary :class:`CovarianceState` of each live model of a
    stack, given its stability report (None for the others).

    The checks and the DEBUG line are :func:`steady_state`'s.  The Hurwitz
    points take one ``solve`` and the states one ``eigvalsh``.
    """
    live = _live(errors)
    _refuse(errors, live, [not reports[k].hurwitz for k in live],
            lambda i: _not_hurwitz(reports[live[i]]))
    live = _live(errors)
    live, solved = _each_alone(np.linalg.solve, errors, live,
                               _moment_operator(drifts[live]),
                               -diffusions[live].reshape(-1, 16, 1))
    v = solved.reshape(-1, 4, 4)
    v = 0.5 * (v + v.transpose(0, 2, 1))
    a, d = drifts[live], diffusions[live]
    residual = _frobenius(a @ v + v @ a.transpose(0, 2, 1) + d)
    scale = 2.0 * _frobenius(a) * _frobenius(v) + _frobenius(d)
    _refuse(errors, live, ~(residual <= LYAPUNOV_RTOL * scale),
            lambda i: RuntimeError(
                f"Lyapunov backward error {residual[i] / scale[i]:.3e} "
                f"exceeds {LYAPUNOV_RTOL:.0e}"))
    covariances = np.zeros((len(drifts), 4, 4))
    covariances[live] = v
    backward = dict(zip(live.tolist(), residual / scale))
    means = np.zeros((len(drifts), 4))
    _check_states(errors, means, covariances)
    live = _live(errors)
    live, violations = _each_alone(_violations, errors, live,
                                   covariances[live])
    for k, worst in zip(live, violations):
        logger.debug("steady state: backward_error=%.3e margin=%.3e "
                     "physical=%s", backward[k], reports[k].margin,
                     bool(np.isnan(worst)))
    _refuse(errors, live, ~np.isnan(violations),
            lambda i: RuntimeError(f"stationary covariance violates "
                                   f"physicality by {violations[i]:.3e}"))
    covariances.flags.writeable = means.flags.writeable = False
    return [None if error is not None else _checked_state(means[k],
                                                          covariances[k])
            for k, error in enumerate(errors)]


def _checked_state(mean: np.ndarray, covariance: np.ndarray
                   ) -> CovarianceState:
    """The state of read-only rows of stacks that :func:`_check_states` and
    :func:`_violations` passed: its checks are made and its verdict known,
    so it is not made again."""
    state = object.__new__(CovarianceState)
    vars(state).update(mean=mean, covariance=covariance, _violation=None)
    return state


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
    drifts, diffusions = _assemble([spec])
    return DriftModel(drift=drifts[0], diffusion=diffusions[0])


def _assemble(specs: Sequence[SystemSpec]) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 4, 4) drift and diffusion stacks of :func:`build_drift`.

    An entry that overflows is left infinite, without a warning, as the
    Python arithmetic of one spec leaves it: :func:`_check_models` refuses
    it.
    """
    omega_a, delta, g, gamma0, kappa0 = np.array(
        [angular_rates(spec) for spec in specs]).reshape(-1, 5).T
    n_a0, n_b0 = np.array([(spec.n_a0, spec.n_b0)
                           for spec in specs]).reshape(-1, 2).T
    drifts = np.zeros((len(specs), 4, 4))
    diffusions = np.zeros((len(specs), 4, 4))
    with np.errstate(over="ignore"):
        drifts[:, 0, 0] = drifts[:, 1, 1] = -gamma0 / 2.0
        drifts[:, 0, 1] = omega_a
        drifts[:, 1, 0] = -omega_a
        drifts[:, 1, 2] = drifts[:, 3, 0] = -2.0 * g
        drifts[:, 2, 2] = drifts[:, 3, 3] = -kappa0 / 2.0
        drifts[:, 2, 3] = -delta
        drifts[:, 3, 2] = delta
        diffusions[:, 0, 0] = diffusions[:, 1, 1] = gamma0 * (n_a0 + 0.5)
        diffusions[:, 2, 2] = diffusions[:, 3, 3] = kappa0 * (n_b0 + 0.5)
    return drifts, diffusions


def stability(model: DriftModel) -> StabilityReport:
    """Eigenpairs of the drift matrix: Hurwitz flag, margin, mechanical weight.

    Each model computes its report once, on first use, and returns the same
    read-only report to every later call.
    """
    return model._stability


def physicality_margin(state: CovarianceState) -> float:
    """Smallest eigenvalue of V + i Omega / 2; >= -1e-9 for a physical state
    (or a rounding of V's size, when larger: see :func:`_violations`)."""
    return float(_margins(state.covariance[np.newaxis])[0])


def _margins(covariances: np.ndarray) -> np.ndarray:
    """Physicality margin of each covariance of a stack, in one ``eigvalsh``."""
    return np.linalg.eigvalsh(covariances + 0.5j * SYMPLECTIC_FORM)[:, 0]


def _violations(covariances: np.ndarray) -> np.ndarray:
    """The margin of each covariance of a stack that breaks the uncertainty
    bound, NaN where the bound holds.

    A margin breaks it below -max(PHYSICALITY_TOL, 64 eps max|V_ij|):
    ``eigvalsh`` finds an eigenvalue of V + i Omega / 2 to a few eps
    ||V||_2, and 64 eps max|V_ij| bounds 16 eps ||V||_2 for a 4 x 4 matrix,
    so a large covariance is not rejected for its rounding.
    """
    margins = _margins(covariances)
    rounding = 64 * np.finfo(float).eps * np.abs(covariances).max(axis=(1, 2))
    return np.where(margins < -np.maximum(PHYSICALITY_TOL, rounding),
                    margins, np.nan)


def _worst_violation(covariances: np.ndarray) -> float | None:
    """Least of a stack's :func:`_violations`, or None where none breaks."""
    violations = _violations(covariances)
    below = violations[~np.isnan(violations)]
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
    than ``PHYSICALITY_TOL`` or the rounding of V (:func:`_violations`).
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
    """K = A (x) I + I (x) A, so that K vec V = vec(A V + V A^T), of one
    drift or of each drift of a stack.

    K[(i, j), (k, l)] = A[i, k] I[j, l] + I[i, k] A[j, l], written by
    broadcasting: the same products and sums as two ``np.kron`` calls, so
    the same bits, without their overhead.
    """
    n = drift.shape[-1]
    identity = np.eye(n)
    operator = (drift[..., :, None, :, None] * identity[None, :, None, :]
                + identity[:, None, :, None] * drift[..., None, :, None, :])
    return operator.reshape(*drift.shape[:-2], n * n, n * n)


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
    margin and whether the physicality check passed.  These are the steps
    of :func:`steady_states`, on a stack of one.
    """
    return _on_one(_stationary, model.drift[np.newaxis],
                   model.diffusion[np.newaxis], [stability(model)])


def steady_states(specs: Sequence[SystemSpec]
                  ) -> list[tuple[StabilityReport, CovarianceState]
                            | Exception]:
    """:func:`stability` and :func:`steady_state` of :func:`build_drift` at
    every spec, solved as one stack.

    Each point gets its report and state, or the exception those calls
    raise for it: ``ValueError`` for a refused model,
    :class:`StabilityError`, ``RuntimeError`` for a failed check of the
    solve, or ``LinAlgError`` where LAPACK fails on the point.  The grid
    makes one ``eig``, one ``solve`` over its Hurwitz points and two
    ``eigvalsh`` (the diffusions' check and the states' verdicts), and each
    point that reaches the physicality check logs :func:`steady_state`'s
    DEBUG line.
    """
    drifts, diffusions = _assemble(specs)
    errors = [None] * len(specs)
    _check_models(errors, drifts, diffusions)
    reports = _reports(errors, drifts)
    states = _stationary(errors, drifts, diffusions, reports)
    return [(report, state) if error is None else error
            for error, report, state in zip(errors, reports, states)]


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
