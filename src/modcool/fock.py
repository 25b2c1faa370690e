"""Brute-force master-equation oracle on a truncated two-mode Fock space.

The rotating-frame Hamiltonian with the bilinear coupling (optionally with
its pair-creation part dropped) and local thermal dissipators is assembled
as a sparse Liouvillian acting on column-stacked density matrices.  The
module exists to verify the Gaussian solver and the closed-form results by a
completely independent route.  Stationary states come from GMRES in the
even-k sector preconditioned by the LU factor of the RWA Liouvillian (own LU
where that is too weak); trajectories are ``expm(L t) rho0`` on a time grid,
propagated in each parity sector of ``rho0`` separately.

Frequencies in the :class:`~modcool.model.SystemSpec` are ordinary (Hz) and
are converted to angular units here; evolution times are seconds.  Stationary
states are invariant under that overall scale.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (LinearOperator, eigs, expm_multiply, gmres,
                                 splu)

from .model import SystemSpec, _require_finite, angular_rates

# Contract tolerances for returned density matrices.
TRACE_TOL = 1e-10
RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-8

# Stationary route.  A solve needing more GMRES iterations than the budget
# marks a weak preconditioner: at dims (14, 7) the even block's LU then costs
# less (it matches 20-50 iterations per gap solve).  The odd block's LU costs
# about 500, so its one solve gets ten budgets, cut short once a restart
# cycle's residual reduction projects past them (at g = 0.3 ten cycles reach
# only 2e-4).  The gap's Krylov dimension needs the fewest solves over
# g = 0.02-0.05 there.
_GMRES_RTOL = 1e-13
_GAP_SOLVE_RTOL = 1e-10
_GMRES_BUDGET = 30
_GAP_NCV = 13
_GAP_TOL = 1e-10
# Minimum degree on A + A^T, diagonal pivots: a third less fill than COLAMD.
_LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1,
               "options": {"SymmetricMode": True}}

logger = logging.getLogger(__name__)


class TruncationError(RuntimeError):
    """Fock truncation too small: the highest level carries real population."""


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian has a (near-)degenerate stationary subspace."""


@dataclass(frozen=True)
class OracleConfig:
    """Truncation sizes and model switches for the oracle.

    ``include_counter_rotating`` keeps the full bilinear coupling
    g (a + a^dag)(b + b^dag); switching it off retains only the excitation-
    exchange part g (a^dag b + a b^dag).  ``tail_threshold`` bounds the
    population allowed in the highest Fock level of either mode before a
    result is rejected.
    """

    dims: tuple[int, int]
    include_counter_rotating: bool = True
    tail_threshold: float = 1e-6

    def __post_init__(self) -> None:
        n_a, n_b = self.dims
        if n_a < 2 or n_b < 2:
            raise ValueError(f"truncation dims must be >= 2, got {self.dims}")
        if not 0.0 < self.tail_threshold < 1.0:
            raise ValueError("tail_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class DensityState:
    """Density matrix on the truncated two-mode space, index (n_a * N_b + n_b)."""

    dims: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = self.dims[0] * self.dims[1]
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} != {(n, n)}")
        herm = np.max(np.abs(matrix - matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix deviates from Hermitian by {herm:.3e}")
        trace = matrix.trace().real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {trace} deviates from 1 beyond {TRACE_TOL}")
        object.__setattr__(self, "matrix", matrix)

    def eigenvalue_floor(self) -> float:
        """Smallest eigenvalue; >= -1e-8 for an acceptable state."""
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True)
class TailReport:
    """Populations of the highest retained Fock level of each mode."""

    tail_a: float
    tail_b: float
    threshold: float
    ok: bool


@dataclass(frozen=True)
class FockGenerator:
    """Sparse Liouvillian of one spec/config pair (angular units, 1/s)."""

    spec: SystemSpec
    config: OracleConfig
    matrix: sp.csr_matrix

    @cached_property
    def rwa(self) -> FockGenerator:
        """This model without the pair-creation term; kept, with its LUs."""
        return build_generator(self.spec, replace(
            self.config, include_counter_rotating=False))

    @cached_property
    def _factors(self) -> list:
        return [splu(block, **_LU_OPTIONS)
                for _, block in _pinned_sectors(self)]


@dataclass(frozen=True)
class FockTrajectory:
    """Time series of density matrices produced by :func:`evolve`."""

    times: np.ndarray
    states: tuple[DensityState, ...]


def _destroy(n: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n)), 1, format="csr", dtype=complex)


def _mode_operators(dims: tuple[int, int]) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    n_a, n_b = dims
    a = sp.kron(_destroy(n_a), sp.identity(n_b, dtype=complex, format="csr"),
                format="csr")
    b = sp.kron(sp.identity(n_a, dtype=complex, format="csr"), _destroy(n_b),
                format="csr")
    return a, b


def _dissipator(c: sp.csr_matrix, identity: sp.csr_matrix) -> sp.csr_matrix:
    """Superoperator of D[c] rho = c rho c^dag - {c^dag c, rho}/2 (column stacking)."""
    cdc = (c.conj().T @ c).tocsr()
    return (sp.kron(c.conj(), c, format="csr")
            - 0.5 * sp.kron(identity, cdc, format="csr")
            - 0.5 * sp.kron(cdc.T, identity, format="csr"))


def build_generator(spec: SystemSpec, config: OracleConfig) -> FockGenerator:
    """Assemble the sparse Liouvillian for a spec on the truncated space.

    Hamiltonian (angular units): omega_a a^dag a - delta b^dag b plus the
    bilinear coupling, full or excitation-exchange-only depending on
    ``config.include_counter_rotating``.  Dissipators: local thermal damping
    of each mode at gamma0 and kappa0 with bath occupations n_a0, n_b0.
    """
    return FockGenerator(spec=spec, config=config,
                         matrix=_liouvillian(spec, config))


def _liouvillian(spec: SystemSpec, config: OracleConfig) -> sp.csr_matrix:
    a, b = _mode_operators(config.dims)
    identity = sp.identity(config.dims[0] * config.dims[1], dtype=complex,
                           format="csr")
    omega_a, delta, g, gamma0, kappa0 = angular_rates(spec)

    hamiltonian = omega_a * (a.conj().T @ a) - delta * (b.conj().T @ b)
    if config.include_counter_rotating:
        hamiltonian = hamiltonian + g * ((a + a.conj().T) @ (b + b.conj().T))
    else:
        hamiltonian = hamiltonian + g * (a.conj().T @ b + a @ b.conj().T)
    hamiltonian = hamiltonian.tocsr()

    liouvillian = -1j * (sp.kron(identity, hamiltonian, format="csr")
                         - sp.kron(hamiltonian.T, identity, format="csr"))
    for rate, op in (
        (gamma0 * (spec.n_a0 + 1.0), a),
        (gamma0 * spec.n_a0, a.conj().T.tocsr()),
        (kappa0 * (spec.n_b0 + 1.0), b),
        (kappa0 * spec.n_b0, b.conj().T.tocsr()),
    ):
        if rate > 0:
            liouvillian = liouvillian + rate * _dissipator(op, identity)
    return liouvillian.tocsr()


def _vec(matrix: np.ndarray) -> np.ndarray:
    return matrix.reshape(-1, order="F")


def _unvec(vector: np.ndarray, n: int) -> np.ndarray:
    return vector.reshape((n, n), order="F")


def _populations(state: DensityState) -> np.ndarray:
    n_a, n_b = state.dims
    return state.matrix.diagonal().real.reshape(n_a, n_b)


def mode_occupation(state: DensityState, mode: str) -> float:
    """Mean quantum number Tr(rho c^dag c) of one mode."""
    pops = _populations(state)
    if mode == "a":
        return float(np.arange(state.dims[0]) @ pops.sum(axis=1))
    if mode == "b":
        return float(pops.sum(axis=0) @ np.arange(state.dims[1]))
    raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")


def truncation_check(state: DensityState,
                     threshold: float = 1e-6) -> TailReport:
    """Population of the highest retained Fock level of each mode."""
    pops = _populations(state)
    tail_a = float(pops[-1, :].sum())
    tail_b = float(pops[:, -1].sum())
    return TailReport(tail_a=tail_a, tail_b=tail_b, threshold=threshold,
                      ok=bool(tail_a <= threshold and tail_b <= threshold))


def thermal_density(dims: tuple[int, int], n_a: float,
                    n_b: float) -> DensityState:
    """Product of truncated thermal states, renormalised on the kept levels."""
    _require_finite(n_a=n_a, n_b=n_b)
    if n_a < 0 or n_b < 0:
        raise ValueError("occupations must be non-negative")

    def weights(dim: int, n: float) -> np.ndarray:
        if n == 0:
            w = np.zeros(dim)
            w[0] = 1.0
            return w
        w = (n / (n + 1.0)) ** np.arange(dim)
        return w / w.sum()

    diag = np.outer(weights(dims[0], n_a), weights(dims[1], n_b)).reshape(-1)
    return DensityState(dims=dims, matrix=np.diag(diag.astype(complex)))


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def _check_positive(state: DensityState) -> None:
    floor = state.eigenvalue_floor()
    if floor < -POSITIVITY_TOL:
        raise RuntimeError(
            f"density matrix has eigenvalue {floor:.3e} below -{POSITIVITY_TOL}")


def _check_gap(spec: SystemSpec, gap: float, what: str) -> None:
    omega_a, _, _, gamma0, kappa0 = angular_rates(spec)
    rates = [r for r in (gamma0, kappa0) if r > 0]
    reference = min(rates) if rates else omega_a
    if not gap >= 1e-7 * reference:
        raise DegenerateSteadyStateError(
            f"stationary subspace is degenerate: {what} {gap:.3e} 1/s "
            f"(slowest dissipation scale {reference:.3e} 1/s)")


class _KrylovFailed(Exception):
    """A preconditioned solve did not converge within the GMRES budget."""


def _sectors(generator: FockGenerator) -> list[tuple[np.ndarray, sp.csr_matrix]]:
    """Index and block of ``L`` for even and odd k = N(i) - N(j) of |i><j|
    (N counts both modes' excitations; ``L`` moves k by 0 or +-2: B. Buca and
    T. Prosen, New J. Phys. 14, 073007 (2012)), so ``L`` is their direct sum.
    Every |i><i| is even, |0><0| first."""
    n_a, n_b = generator.config.dims
    excitations = np.add.outer(np.arange(n_a), np.arange(n_b)).ravel()
    odd = np.add.outer(excitations, excitations).ravel() % 2 == 1
    rows, cols = generator.matrix.nonzero()
    if np.any(odd[rows] != odd[cols]):
        raise ValueError("the Liouvillian couples the even and odd sectors")
    return [(index, generator.matrix[index][:, index])
            for index in (np.flatnonzero(~odd), np.flatnonzero(odd))]


def _pinned_sectors(
        generator: FockGenerator) -> list[tuple[np.ndarray, sp.csc_matrix]]:
    """:func:`_sectors` as solved: row 0 of the even block becomes the trace."""
    n = generator.config.dims[0] * generator.config.dims[1]
    (even, even_block), (odd, odd_block) = _sectors(generator)
    trace_row = sp.csr_matrix(np.eye(n).reshape(1, -1)[:, even])
    return [(even, sp.vstack([trace_row, even_block[1:]], format="csc")),
            (odd, odd_block.tocsc())]


def _gmres_solver(pinned: sp.csc_matrix, factor, iterations: list[int]):
    """``solve(rhs, rtol)`` by GMRES preconditioned by ``factor``; appends
    the inner iterations to ``iterations`` and gives up past the budget, or
    on starting a restart cycle when the last cycle's residual reduction,
    repeated, would not reach ``rtol`` within it."""
    preconditioner = LinearOperator(pinned.shape, matvec=factor.solve,
                                    dtype=complex)

    def solve(rhs: np.ndarray, rtol: float, budget: int = _GMRES_BUDGET):
        iterations.append(0)
        ends: list[float] = []  # residual at the end of each cycle

        def count(residual) -> None:
            done = iterations[-1]
            iterations[-1] += 1
            if iterations[-1] > budget:
                raise _KrylovFailed
            if done % _GMRES_BUDGET == 0 and len(ends) >= 2:
                rate = math.log(ends[-1] / ends[-2])
                if not rate < 0 or (done + _GMRES_BUDGET
                                    * math.log(rtol / ends[-1]) / rate
                                    > budget):
                    raise _KrylovFailed
            if iterations[-1] % _GMRES_BUDGET == 0:
                ends.append(residual)

        solution, info = gmres(pinned, rhs, rtol=rtol, restart=_GMRES_BUDGET,
                               M=preconditioner, callback=count,
                               callback_type="pr_norm")
        if info != 0:
            raise _KrylovFailed
        return solution

    return solve


def _sector_solve(generator: FockGenerator, parity: int,
                  block: sp.csc_matrix, iterations: list[int], job):
    """Route and ``job(solve)`` on one sector block: its RWA factor ("lu"),
    GMRES preconditioned by it ("krylov"), else its own LU ("lu-fallback")."""
    full = generator.config.include_counter_rotating
    rwa = generator.rwa if full else generator  # an RWA model is its own
    for route in (["krylov", "lu-fallback"] if full else ["lu"]):
        try:
            factor = (splu(block, **_LU_OPTIONS) if route == "lu-fallback"
                      else rwa._factors[parity])
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            continue
        solve = (_gmres_solver(block, factor, iterations) if route == "krylov"
                 else lambda rhs, *_, lu=factor: lu.solve(rhs))
        try:
            return route, job(solve)
        except _KrylovFailed:
            continue
    raise DegenerateSteadyStateError(
        "stationary subspace is degenerate: the trace-pinned Liouvillian "
        "is exactly singular")


def _stationary(solve, size: int,
                check_unique: bool) -> tuple[np.ndarray, float | None]:
    """Stationary vector and optional gap, with ``solve(rhs, rtol) = A^-1 rhs``.

    ``B(v) = A^-1 [0; v[1:]]`` is ``L^-1`` on traceless vectors and maps all
    vectors to traceless ones, so its largest |eigenvalue| is 1/gap.  The
    all-ones Arnoldi start vector reaches every coherence sector of A.
    """
    vector = solve(np.eye(1, size, dtype=complex)[0], _GMRES_RTOL)
    if not check_unique:
        return vector, None

    def deflated(v: np.ndarray) -> np.ndarray:
        return solve(np.concatenate(([0.0], v.ravel()[1:])), _GAP_SOLVE_RTOL)

    operator = LinearOperator((size, size), matvec=deflated, dtype=complex)
    value = eigs(operator, k=1, which="LM", ncv=_GAP_NCV, tol=_GAP_TOL,
                 v0=np.ones(size, dtype=complex), return_eigenvectors=False)[0]
    return vector, 1.0 / abs(value)


def steady_state(generator: FockGenerator,
                 check_unique: bool = True) -> DensityState:
    """Stationary density matrix of the Liouvillian ``L``.

    The state lies in the even-k block of ``L`` (:func:`_sectors`): ``A x =
    e_0`` (that block, row 0 the trace) is solved by GMRES preconditioned by
    the LU of the same block of the RWA part of ``L`` (P. D. Nation,
    arXiv:1504.06768), exact without a pair-creation term, else by the LU of
    ``A``.  With ``check_unique`` the gap comes from the same solves, and
    ``x = L_oo^-1 v``, ``v`` a seeded complex Gaussian of size m, bounds
    sigma_min(L_oo) >= (theta |v| - |v - L_oo x|) / |x| but for a chance
    below m theta^2 = 1e-6 (J. D. Dixon, SIAM J. Numer. Anal. 20, 812
    (1983)).  A gap or bound under 1e-7 of the slowest dissipation rate, or a
    singular LU, raises :class:`DegenerateSteadyStateError`.  The state must
    meet ``||L(rho)||_tr <= RESIDUAL_TOL`` (relative to max |L|) and the tail
    check; route, iterations, residual, gap, sectors and bound go to DEBUG.
    """
    config = generator.config
    (even, even_block), (odd, odd_block) = _pinned_sectors(generator)
    iterations: list[int] = []
    route, (vector, gap) = _sector_solve(
        generator, 0, even_block, iterations,
        lambda solve: _stationary(solve, even.size, check_unique))
    odd_bound = None
    if check_unique:
        _check_gap(generator.spec, gap, "spectral gap")
        v = np.random.default_rng(0).standard_normal(2 * odd.size).view(complex)
        _, x = _sector_solve(generator, 1, odd_block, iterations, lambda solve:
                             solve(v, _GAP_SOLVE_RTOL, 10 * _GMRES_BUDGET))
        theta = math.sqrt(1e-6 / odd.size)  # 1e-6: the failure probability
        odd_bound = float((theta * np.linalg.norm(v) - np.linalg.norm(
            v - odd_block @ x)) / np.linalg.norm(x))
        _check_gap(generator.spec, odd_bound, "odd-sector singular value")
    n = config.dims[0] * config.dims[1]
    rho = np.zeros(n * n, dtype=complex)
    rho[even] = vector
    rho = _hermitize(_unvec(rho, n))
    rho = rho / rho.trace().real
    tolerance = RESIDUAL_TOL * max(1.0, np.abs(generator.matrix.data).max())
    resid = float(np.linalg.svd(_unvec(generator.matrix @ _vec(rho), n),
                                compute_uv=False).sum())
    logger.debug("steady state: route=%s gmres_iterations=%d residual=%.3e "
                 "gap=%s sectors=%d/%d odd_bound=%s", route, sum(iterations),
                 resid, gap, even.size, odd.size, odd_bound)
    if not resid <= tolerance:
        raise RuntimeError(
            f"stationary residual {resid:.3e} exceeds {tolerance:.3e}")
    state = DensityState(dims=config.dims, matrix=rho)
    _check_positive(state)
    tails = truncation_check(state, config.tail_threshold)
    if not tails.ok:
        raise TruncationError(
            f"stationary state leaks into the highest Fock levels: "
            f"tail_a = {tails.tail_a:.3e}, tail_b = {tails.tail_b:.3e} "
            f"(threshold {tails.threshold:.1e}); enlarge dims")
    return state


def evolve(generator: FockGenerator, initial: DensityState, duration: float,
           num_points: int = 100) -> FockTrajectory:
    """``expm(L t) rho0`` at ``num_points`` uniform times in [0, duration] s.

    ``L`` is the direct sum of its parity blocks (:func:`_sectors`), so each
    block with a nonzero part of ``rho0`` is exponentiated on that part alone
    by :func:`scipy.sparse.linalg.expm_multiply`; the other stays exactly
    zero.  A diagonal ``rho0`` is all even.  The initial state must fit the
    truncation.  Trace conservation is verified to 1e-8 before snapshots are
    renormalised; a larger drift raises.  Sector sizes and the sectors
    evolved go to DEBUG.
    """
    if not duration > 0 or not math.isfinite(duration):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if initial.dims != generator.config.dims:
        raise ValueError(
            f"initial dims {initial.dims} != generator dims "
            f"{generator.config.dims}")
    tails = truncation_check(initial, generator.config.tail_threshold)
    if not tails.ok:
        raise TruncationError(
            f"initial state does not fit the truncation: tail_a = "
            f"{tails.tail_a:.3e}, tail_b = {tails.tail_b:.3e}")
    n = initial.matrix.shape[0]
    times = np.linspace(0.0, duration, num_points)
    start = _vec(initial.matrix)
    sectors = _sectors(generator)
    parts = {name: (index, expm_multiply(block, start[index], start=0.0,
                                         stop=duration, num=num_points,
                                         endpoint=True))
             for name, (index, block) in zip(("even", "odd"), sectors)
             if np.any(start[index])}
    logger.debug("evolve: sectors=%d/%d evolved=%s", sectors[0][0].size,
                 sectors[1][0].size, ",".join(parts))
    states = []
    for k in range(num_points):
        vector = np.zeros(n * n, dtype=complex)
        for index, snapshots in parts.values():
            vector[index] = snapshots[k]
        rho = _hermitize(_unvec(vector, n))
        trace = rho.trace().real
        if abs(trace - 1.0) > TRACE_DRIFT_TOL:
            raise RuntimeError(
                f"trace drifted to {trace} at t = {times[k]:.3e} s "
                f"(allowed deviation {TRACE_DRIFT_TOL})")
        state = DensityState(dims=initial.dims, matrix=rho / trace)
        _check_positive(state)
        states.append(state)
    return FockTrajectory(times=times, states=tuple(states))
