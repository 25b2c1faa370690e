"""Brute-force master-equation oracle on a truncated two-mode Fock space.

The rotating-frame Hamiltonian H with the bilinear coupling and the local
thermal jumps c at rates r_c form one sparse Liouvillian on column-stacked
density matrices, ``L = -i (I (x) H_eff - conj(H_eff) (x) I) + sum_c r_c
conj(c) (x) c`` with the non-Hermitian ``H_eff = H - (i/2) sum_c r_c c^dag
c``.  Its entries that keep k = N(i) - N(j) of |i><j| form the
exchange-only (RWA) model, the coupling's pair-creation part dropped.  The
module exists to verify the Gaussian solver and the closed-form results by
a completely independent route.  Stationary states come from GMRES in the
even-k sector preconditioned by the LU factor of the RWA Liouvillian (own
LU where that is too weak), one solve per right-hand side: one for the
state, and one seeded solve in each parity sector whose Dixon bound on the
smallest singular value certifies that the state is unique.  The RWA model
is the direct sum of its k-blocks, and its k < 0 blocks are the complex
conjugates of their k > 0 mirrors, so only the k >= 0 blocks are factored:
about half the fill of the whole sectors (0.20M against 0.36M nonzeros for
both sectors at (14, 7)).
Trajectories are ``expm(L t) rho0`` on a time grid, propagated in each
parity sector of ``rho0`` separately and in real arithmetic: ``L`` preserves
Hermiticity, so on the real coordinates of a Hermitian ``rho`` (diagonal, Re
and Im of each upper coherence) it is a real matrix.  The stationary route
keeps the complex blocks, because that basis pairs k with -k and so merges
the RWA's k-blocks: the LU fill of the (14, 7) RWA even sector would rise
from 0.11M to 0.79M.

Frequencies in the :class:`~modcool.model.SystemSpec` are ordinary (Hz) and
are converted to angular units here; evolution times are seconds.  The
stationary solve has no unit of its own: its trace row is weighted by omega_a,
so a common rescaling of the rates by a power of two leaves the state, the
route and the iteration counts bit-identical.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .model import SystemSpec, _require_finite, angular_rates

# Contract tolerances for returned density matrices.
TRACE_TOL = 1e-10
RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-8

# Stationary route.  A state solve needing more GMRES iterations than the
# budget marks a weak preconditioner: at dims (14, 7) the even block's LU then
# costs less (it matches 20-50 iterations).  A bound solve gets ten budgets,
# cut short once a restart cycle's residual reduction projects past them: its
# random right-hand side excites every slow mode (36 iterations at g = 0.1
# and (14, 7), where the state takes 15), and the odd block's LU costs about
# 500 (at g = 0.3 ten cycles reach only 2e-4).  A bound solve's residual is
# subtracted in the bound itself (see steady_state), so 1e-10 of |v| lowers
# it by at most 1e-7 sqrt(m) of theta |v| / |x|, m the sector size: 1e-5 at
# m = 1e4.
_GMRES_RTOL = 1e-13
_BOUND_SOLVE_RTOL = 1e-10
_GMRES_BUDGET = 30
# Minimum degree on A + A^T, diagonal pivots: a third less fill than COLAMD.
_LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1,
               "options": {"SymmetricMode": True}}
# Trajectories: Taylor degree cap and its norm bound theta_55 (A. H. Al-Mohy
# and N. J. Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1).
_TAYLOR_DEGREE = 55
_TAYLOR_THETA = 9.9

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
        n_a, n_b = dims = tuple(map(operator.index, self.dims))
        if n_a < 2 or n_b < 2:
            raise ValueError(f"truncation dims must be >= 2, got {self.dims}")
        if not 0.0 < self.tail_threshold < 1.0:
            raise ValueError("tail_threshold must lie in (0, 1)")
        object.__setattr__(self, "dims", dims)


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
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix must be finite")
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
        """This model without the pair-creation term (:func:`_exchange_part`
        of ``matrix``); kept, with its factors."""
        config = replace(self.config, include_counter_rotating=False)
        return FockGenerator(spec=self.spec, config=config,
                             matrix=_exchange_part(self.matrix, config.dims))

    @cached_property
    def _exact_solve(self) -> tuple[list, _SectorSolution | str]:
        """Sector factors (:func:`_mirror_factor`) of this model without a
        pair-creation term, and its sector solution or the reason it is
        degenerate.  One split of ``L`` serves both and is released after."""
        sectors = _pinned_sectors(self)
        factors = [_mirror_factor(index, block, self.config.dims)
                   for index, block in sectors]
        try:
            return factors, _solve_sectors(self, sectors, factors)
        except DegenerateSteadyStateError as error:
            return factors, str(error)  # no traceback: it would hold self


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


def build_generator(spec: SystemSpec, config: OracleConfig) -> FockGenerator:
    """Assemble the sparse Liouvillian for a spec on the truncated space.

    ``L rho = -i (H_eff rho - rho H_eff^dag) + sum_c r_c c rho c^dag``,
    ``H_eff = H - (i/2) sum_c r_c c^dag c`` (Dalibard, Castin and Molmer, PRL
    68, 580 (1992)).  H (angular units): omega_a a^dag a - delta b^dag b plus
    the bilinear coupling g (a + a^dag)(b + b^dag).  Jumps c: local thermal
    damping at gamma0 and kappa0, bath occupations n_a0 and n_b0, where r_c >
    0.  Without ``config.include_counter_rotating`` only the
    excitation-exchange part of the coupling stays: :func:`_exchange_part`.
    """
    matrix = _liouvillian(spec, config.dims)
    if not config.include_counter_rotating:
        matrix = _exchange_part(matrix, config.dims)
    return FockGenerator(spec=spec, config=config, matrix=matrix)


def _excitation_difference(dims: tuple[int, int]) -> np.ndarray:
    """k = N(i) - N(j) of each |i><j| in column stacking, N counting both
    modes' excitations."""
    excitations = np.add.outer(np.arange(dims[0]), np.arange(dims[1])).ravel()
    return np.subtract.outer(excitations, excitations).ravel(order="F")


def _exchange_part(matrix: sp.csr_matrix,
                   dims: tuple[int, int]) -> sp.csr_matrix:
    """The entries of a Liouvillian that keep k (see
    :func:`_excitation_difference`).

    The pair-creation terms a b and a^dag b^dag move k by +-2 and every
    other term of :func:`_liouvillian` keeps it, so on the full Liouvillian
    these are exactly the entries of the exchange-only (RWA) model.
    """
    k = _excitation_difference(dims)
    matrix = matrix.tocsr()
    keep = np.repeat(k, np.diff(matrix.indptr)) == k[matrix.indices]
    kept = np.concatenate(([0], np.cumsum(keep)))  # entries kept before each
    return sp.csr_matrix(
        (matrix.data[keep], matrix.indices[keep], kept[matrix.indptr]),
        shape=matrix.shape)


def _liouvillian(spec: SystemSpec, dims: tuple[int, int]) -> sp.csr_matrix:
    a, b = _mode_operators(dims)
    a_dag, b_dag = a.conj().T.tocsr(), b.conj().T.tocsr()
    identity = sp.identity(dims[0] * dims[1], dtype=complex, format="csr")
    omega_a, delta, g, gamma0, kappa0 = angular_rates(spec)
    jumps = [(rate, c) for rate, c in (
        (gamma0 * (spec.n_a0 + 1.0), a),
        (gamma0 * spec.n_a0, a_dag),
        (kappa0 * (spec.n_b0 + 1.0), b),
        (kappa0 * spec.n_b0, b_dag),
    ) if rate > 0]

    h_eff = (omega_a * (a_dag @ a) - delta * (b_dag @ b)
             + g * ((a + a_dag) @ (b + b_dag))
             - 0.5j * sum(rate * (c.conj().T @ c) for rate, c in jumps))
    return (-1j * (sp.kron(identity, h_eff, format="csr")
                   - sp.kron(h_eff.conj(), identity, format="csr"))
            + sum(rate * sp.kron(c.conj(), c, format="csr")
                  for rate, c in jumps)).tocsr()


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


def _check_bound(spec: SystemSpec, bound: float, what: str) -> None:
    omega_a, _, _, gamma0, kappa0 = angular_rates(spec)
    rates = [r for r in (gamma0, kappa0) if r > 0]
    reference = min(rates) if rates else omega_a
    if not bound >= 1e-7 * reference:
        raise DegenerateSteadyStateError(
            f"stationary subspace is degenerate: {what} bound {bound:.3e} "
            f"1/s (slowest dissipation scale {reference:.3e} 1/s)")


class _KrylovFailed(Exception):
    """A preconditioned solve did not converge within the GMRES budget."""


def _parity_index(generator: FockGenerator) -> tuple[np.ndarray, np.ndarray]:
    """Positions in vec(rho) of even and odd k = N(i) - N(j) of |i><j| (N
    counts both modes' excitations; ``L`` moves k by 0 or +-2: B. Buca and T.
    Prosen, New J. Phys. 14, 073007 (2012)), so ``L`` is the direct sum of
    its two sector blocks.  Every |i><i| is even, |0><0| first."""
    odd = _excitation_difference(generator.config.dims) % 2 == 1
    rows, cols = generator.matrix.nonzero()
    if np.any(odd[rows] != odd[cols]):
        raise ValueError("the Liouvillian couples the even and odd sectors")
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def _sectors(generator: FockGenerator) -> list[tuple[np.ndarray, sp.csr_matrix]]:
    """Index (:func:`_parity_index`) and block of ``L`` for each sector."""
    return [(index, generator.matrix[index][:, index])
            for index in _parity_index(generator)]


def _pinned_sectors(
        generator: FockGenerator) -> list[tuple[np.ndarray, sp.csc_matrix]]:
    """:func:`_sectors` as solved: row 0 of the even block becomes the trace,
    weighted by omega_a so that it scales with the rates of the other rows."""
    n = generator.config.dims[0] * generator.config.dims[1]
    matrix = generator.matrix.tocsr()
    start = matrix.indptr[1]  # the end of row 0, replaced by the trace
    pinned = sp.csr_matrix(
        (np.concatenate([np.full(n, generator.spec.omega_a, dtype=complex),
                         matrix.data[start:]]),
         np.concatenate([np.arange(n) * (n + 1), matrix.indices[start:]]),
         np.concatenate([[0], matrix.indptr[1:] + n - start])),
        shape=matrix.shape).tocsc()
    return [(index, pinned[:, index][index])
            for index in _parity_index(generator)]


def _real_form(index: np.ndarray, block: sp.csr_matrix,
               n: int) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """``(T, P, (P block T).real)`` for one sector of :func:`_sectors`.

    ``T`` maps real coordinates to ``vec(rho)[index]`` of a Hermitian
    ``rho``: coordinate c is rho_ii at a diagonal position c of ``index``,
    Re rho_ij at an upper one (i < j, i the row) and Im rho_ji at a lower
    one.  ``index`` is closed under i <-> j (k and -k share a parity), and
    ``P = diag(1/|T_c|^2) T^H`` is the left inverse of ``T``.  A ``block``
    that preserves Hermiticity makes ``P block T`` real; an imaginary part
    above 1e-12 max|L| raises ``ValueError``.
    """
    rows, cols = index % n, index // n
    mirror = np.searchsorted(index, cols + n * rows)  # position of rho_ji
    off = np.flatnonzero(rows != cols)
    own = np.arange(index.size)
    basis = sp.csr_matrix(
        (np.concatenate([np.where(rows > cols, -1j, 1.0),
                         np.where(rows[off] < cols[off], 1.0, 1j)]),
         (np.concatenate([own, mirror[off]]), np.concatenate([own, off]))),
        shape=(index.size, index.size))
    inverse = (sp.diags(np.where(rows == cols, 1.0, 0.5))
               @ basis.conj().T).tocsr()
    product = (inverse @ block @ basis).tocsr()
    imaginary = np.abs(product.data.imag).max(initial=0.0)
    if imaginary > 1e-12 * np.abs(block.data).max(initial=0.0):
        raise ValueError(f"the Liouvillian does not preserve Hermiticity: "
                         f"imaginary part {imaginary:.3e} in the real basis")
    real = product.real
    real.eliminate_zeros()
    return basis, inverse, real


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


@dataclass(frozen=True)
class _SectorSolution:
    """What :func:`steady_state` takes from one model's sector blocks."""

    route: str
    even: np.ndarray  # the even sector's positions in vec(rho)
    vector: np.ndarray  # its stationary vector, before normalisation
    iterations: int  # GMRES iterations of both sectors
    even_bound: float
    odd_bound: float


def _factor(block: sp.csc_matrix):
    """SuperLU factor of ``block``, or ``None`` if exactly singular."""
    try:
        return splu(block, **_LU_OPTIONS)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None


@dataclass(frozen=True)
class _MirrorFactor:
    """LU of one parity sector of the RWA Liouvillian from its k >= 0 blocks.

    That model keeps k, so the sector block is the direct sum of its
    k-blocks.  Any Lindbladian maps rho^dag to L(rho)^dag, so with mirror(
    rho_ij) = rho_ji the k < 0 block, in the mirror order of the k > 0
    positions, is the complex conjugate of the k > 0 block: a solve there
    is ``conj(plus.solve(conj(b)))``.  One solve is then the k = 0 block's
    (even sector only; the trace row lies in it) and one two-column solve of
    the union of the k > 0 blocks.
    """

    zero: np.ndarray  # sector positions with k = 0
    plus: np.ndarray  # sector positions with k > 0
    minus: np.ndarray  # the positions of their mirrors, in the same order
    zero_lu: object  # SuperLU of the k = 0 block; None in the odd sector
    plus_lu: object  # SuperLU of the union of the k > 0 blocks

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        solution = np.empty(rhs.shape, dtype=complex)
        if self.zero_lu is not None:
            solution[self.zero] = self.zero_lu.solve(rhs[self.zero])
        pair = self.plus_lu.solve(
            np.column_stack([rhs[self.plus], rhs[self.minus].conj()]))
        solution[self.plus] = pair[:, 0]
        solution[self.minus] = pair[:, 1].conj()
        return solution


def _mirror_factor(index: np.ndarray, block: sp.csc_matrix,
                   dims: tuple[int, int]) -> _MirrorFactor | None:
    """:class:`_MirrorFactor` of the RWA sector ``block`` at the positions
    ``index`` of vec(rho) (:func:`_pinned_sectors`), or ``None`` if a
    factored part is exactly singular."""
    n = dims[0] * dims[1]
    k = _excitation_difference(dims)[index]
    zero, plus = np.flatnonzero(k == 0), np.flatnonzero(k > 0)
    rows, cols = index[plus] % n, index[plus] // n
    minus = np.searchsorted(index, cols + n * rows)
    zero_lu = _factor(block[:, zero][zero]) if zero.size else None
    plus_lu = _factor(block[:, plus][plus])
    if plus_lu is None or (zero.size and zero_lu is None):
        return None
    return _MirrorFactor(zero=zero, plus=plus, minus=minus, zero_lu=zero_lu,
                         plus_lu=plus_lu)


def _sector_solve(full: bool, factor, block: sp.csc_matrix,
                  iterations: list[int], job):
    """Route and ``job(solve)`` on one sector block: GMRES preconditioned by
    the RWA ``factor`` of that sector ("krylov") for the full model, falling
    back to the block's own LU ("lu-fallback"); the RWA model uses ``factor``
    itself ("lu").  ``factor`` is ``None`` if singular."""
    if full and factor is not None:
        try:
            return "krylov", job(_gmres_solver(block, factor, iterations))
        except _KrylovFailed:
            pass
    route, factor = ("lu-fallback", _factor(block)) if full else ("lu", factor)
    if factor is None:
        raise DegenerateSteadyStateError(
            "stationary subspace is degenerate: the trace-pinned Liouvillian "
            "is exactly singular")
    return route, job(lambda rhs, *_: factor.solve(rhs))


def _dixon_bound(spec: SystemSpec, block: sp.csc_matrix, solve,
                 sector: str) -> float:
    """Lower bound on sigma_min(``block``) from one seeded solve (see
    :func:`steady_state`), tested by :func:`_check_bound`."""
    v = np.random.default_rng(0).standard_normal(
        2 * block.shape[0]).view(complex)
    if sector == "even":
        v[0] = 0.0  # the trace row's entry
    x = solve(v, _BOUND_SOLVE_RTOL, 10 * _GMRES_BUDGET)
    theta = math.sqrt(1e-6 / v.size)  # 1e-6: the failure probability
    bound = float((theta * np.linalg.norm(v) - np.linalg.norm(
        v - block @ x)) / np.linalg.norm(x))
    _check_bound(spec, bound, f"{sector}-sector singular value")
    return bound


def _solve_sectors(generator: FockGenerator, sectors: list,
                   factors: list) -> _SectorSolution:
    """The even sector's state and both sectors' bounds (see
    :func:`steady_state`) on the pinned ``sectors``, with the RWA model's
    sector ``factors``."""
    full, spec = generator.config.include_counter_rotating, generator.spec
    (even, even_block), (_, odd_block) = sectors
    iterations: list[int] = []
    route, (vector, even_bound) = _sector_solve(
        full, factors[0], even_block, iterations, lambda solve: (
            solve(np.eye(1, even.size, dtype=complex)[0], _GMRES_RTOL),
            _dixon_bound(spec, even_block, solve, "even")))
    _, odd_bound = _sector_solve(
        full, factors[1], odd_block, iterations,
        lambda solve: _dixon_bound(spec, odd_block, solve, "odd"))
    return _SectorSolution(route=route, even=even, vector=vector,
                           iterations=sum(iterations),
                           even_bound=even_bound, odd_bound=odd_bound)


def steady_state(generator: FockGenerator) -> DensityState:
    """Stationary density matrix of the Liouvillian ``L``.

    The state lies in the even-k block of ``L`` (:func:`_sectors`): ``A x =
    e_0`` (that block, row 0 omega_a times the trace) is solved by GMRES
    preconditioned by the LU of the same block of the RWA part of ``L`` (P.
    D. Nation, arXiv:1504.06768), exact without a pair-creation term, else by
    the LU of ``A``.  Of the RWA block only the k >= 0 part is factored; its
    k < 0 blocks are the complex conjugates of their mirrors
    (:class:`_MirrorFactor`).  The RWA model solves its sectors once, beside
    its factors (``steady_state(g.rwa)`` reuses that).  Each sector then takes
    one more solve: ``x = B^-1 v`` for its block ``B`` (``A``, or the odd block
    ``L_oo``) of size m and a seeded complex Gaussian ``v`` (its trace entry
    zero for ``A``) bounds sigma_min(B) >= (theta |v| - |v - B x|) / |x| but
    for a chance below m theta^2 = 1e-6 (J. D. Dixon, SIAM J. Numer. Anal. 20,
    812 (1983)).  The zero trace entry keeps that chance wherever sigma_min(A)
    is small against omega_a: the direction ``A^-1`` stretches most is then
    nearly traceless, since ``A^-1 e_0`` is rho / omega_a, of norm at most
    1 / omega_a.  A bound under 1e-7 of the slowest dissipation rate, or a
    singular LU, raises :class:`DegenerateSteadyStateError`; a returned state
    certifies sigma_min(A) and sigma_min(L_oo) each at least 1e-7 of that
    rate, each but for a chance below 1e-6.  No eigensolver runs.  The state
    must meet ``||L(rho)||_tr <= RESIDUAL_TOL`` (relative to max |L|) and the
    tail check; route, iterations, residual, sectors and both bounds go to
    DEBUG.
    """
    config = generator.config
    if config.include_counter_rotating:
        factors, _ = generator.rwa._exact_solve
        solution = _solve_sectors(generator, _pinned_sectors(generator),
                                  factors)
    else:
        _, solution = generator._exact_solve
        if isinstance(solution, str):
            raise DegenerateSteadyStateError(solution)
    n = config.dims[0] * config.dims[1]
    rho = np.zeros(n * n, dtype=complex)
    rho[solution.even] = solution.vector
    rho = _hermitize(_unvec(rho, n))
    rho = rho / rho.trace().real
    tolerance = RESIDUAL_TOL * np.abs(generator.matrix.data).max()
    resid = float(np.linalg.svd(_unvec(generator.matrix @ _vec(rho), n),
                                compute_uv=False).sum())
    logger.debug("steady state: route=%s gmres_iterations=%d residual=%.3e "
                 "sectors=%d/%d even_bound=%s odd_bound=%s", solution.route,
                 solution.iterations, resid, solution.even.size,
                 n * n - solution.even.size, solution.even_bound,
                 solution.odd_bound)
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


def _taylor_steps(real: sp.csr_matrix, v: np.ndarray, dt: float,
                  num_points: int) -> tuple[np.ndarray, int, int]:
    """``expm(real k dt) v`` for k < ``num_points``, with the substeps per
    step and the matrix-vector products it took.

    The truncated Taylor method of A. H. Al-Mohy and N. J. Higham (SIAM J.
    Sci. Comput. 33, 488 (2011)), its rule fixed once for the uniform step:
    ``A = real - mu I`` with mu = tr(real)/n, s = ceil(dt |A|_1 / theta_55)
    substeps of at most 55 terms, each ended when the last two terms fall
    below 2^-53 of the partial sum in the max norm.
    """
    n = v.size
    mu = real.diagonal().sum() / n
    shifted = (real - mu * sp.identity(n, format="csr")).tocsr()
    norm = float(abs(shifted).sum(axis=0).max())
    substeps = max(1, math.ceil(dt * norm / _TAYLOR_THETA))
    h = dt / substeps
    scale = math.exp(mu * h)
    snapshots = np.empty((num_points, n))
    snapshots[0] = v
    total = v.copy()
    matvecs = 0
    for k in range(1, num_points):
        for _ in range(substeps):
            term = total
            previous = np.abs(term).max()
            for j in range(1, _TAYLOR_DEGREE + 1):
                term = shifted @ term
                term *= h / j
                matvecs += 1
                current = np.abs(term).max()
                total += term
                if previous + current <= 2.0 ** -53 * np.abs(total).max():
                    break
                previous = current
            total *= scale
        snapshots[k] = total
    return snapshots, substeps, matvecs


def evolve(generator: FockGenerator, initial: DensityState, duration: float,
           num_points: int = 100) -> FockTrajectory:
    """``expm(L t) rho0`` at ``num_points`` uniform times in [0, duration] s.

    ``L`` is the direct sum of its parity blocks (:func:`_sectors`), so each
    block with a nonzero part of ``rho0`` is exponentiated on that part alone
    by :func:`_taylor_steps`, Al-Mohy and Higham's truncated Taylor method
    (SIAM J. Sci. Comput. 33, 488 (2011)) with its substep count and degree
    cap fixed once for the output step; the other block stays exactly zero.  A
    diagonal ``rho0`` is all even.  Each block is propagated as the real
    matrix of :func:`_real_form` on the real coordinates of ``rho0``'s
    Hermitian part, about half the work of the complex block, so every
    snapshot is Hermitian by construction; a block that does not preserve
    Hermiticity raises ``ValueError``.  The stationary route stays complex:
    the real basis pairs k with -k, which merges the RWA's k-blocks and
    multiplies LU fill 4-8 times.  The initial state must fit the truncation.
    Trace conservation is verified to 1e-8 before snapshots are renormalised;
    a larger drift raises.  Sector sizes, the sectors evolved, their substeps
    per output step and the matrix-vector products in all go to DEBUG.  At the
    CLI's scaled point, (14, 7), 50 points over 5/kappa0, that is 6,596
    products, where ``expm_multiply`` takes about 7,280.
    """
    if num_points < 2:
        raise ValueError("num_points must be at least 2")
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
    times, dt = np.linspace(0.0, duration, num_points, retstep=True)
    start = _vec(initial.matrix)
    sectors = _sectors(generator)
    parts, substeps, matvecs = {}, [], 0
    for name, (index, block) in zip(("even", "odd"), sectors):
        if not np.any(start[index]):
            continue
        basis, inverse, real = _real_form(index, block, n)
        snapshots, steps, products = _taylor_steps(
            real, (inverse @ start[index]).real, dt, num_points)
        parts[name] = (index, basis, snapshots)
        substeps.append(str(steps))
        matvecs += products
    logger.debug("evolve: sectors=%d/%d evolved=%s substeps=%s matvecs=%d",
                 sectors[0][0].size, sectors[1][0].size, ",".join(parts),
                 ",".join(substeps), matvecs)
    states = []
    for k in range(num_points):
        vector = np.zeros(n * n, dtype=complex)
        for index, basis, snapshots in parts.values():
            vector[index] = basis @ snapshots[k]
        rho = _unvec(vector, n)
        trace = rho.trace().real
        if abs(trace - 1.0) > TRACE_DRIFT_TOL:
            raise RuntimeError(
                f"trace drifted to {trace} at t = {times[k]:.3e} s "
                f"(allowed deviation {TRACE_DRIFT_TOL})")
        state = DensityState(dims=initial.dims, matrix=rho / trace)
        _check_positive(state)
        states.append(state)
    return FockTrajectory(times=times, states=tuple(states))
