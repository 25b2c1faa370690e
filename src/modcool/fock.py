"""Brute-force master-equation oracle on a truncated two-mode Fock space.

The rotating-frame Hamiltonian H with the bilinear coupling and the local
thermal jumps c at rates r_c form one sparse Liouvillian ``L rho = -i (H_eff
rho - rho H_eff^dag) + sum_c r_c c rho c^dag``, ``H_eff = H - (i/2) sum_c r_c
c^dag c``, on column-stacked density matrices, summed from shifted diagonals
written by index arithmetic; the exchange-only (RWA) model drops the pair-
creation terms, so it is the part of the full ``L`` that keeps k = N(i) -
N(j) of |i><j|.  The module verifies the Gaussian solver and the closed
forms by a completely independent route.  ``L`` is the direct sum of its
even-k and odd-k blocks, each laid out as [k = 0 | k > 0 | mirrors of k >
0].  Each model splits its own ``L``; the RWA model keeps its LU, factored in
its k >= 0 parts only (the k < 0 parts are their conjugate mirrors), which
right-preconditions the module's own GMRES, one factor solve per iteration,
in every block of both models (one iteration per request in the RWA one);
only a stalled request or a singular factor takes the block's LU.  One
seeded solve per block certifies uniqueness, and one residual bound,
sqrt(n) ||L(rho)||_F <= RESIDUAL_TOL max|L|, never below the trace norm of
L(rho), accepts the state.
Trajectories are ``expm(L t) rho0``, propagated per block in real arithmetic.
The stationary route stays complex, as the real basis pairs k with -k and
merges the RWA k-blocks (LU fill 0.11M to 0.79M in the (14, 7) even block).

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
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import idamax
from scipy.sparse.linalg import splu

from .model import SystemSpec, _require_finite, angular_rates

# Contract tolerances for returned density matrices.
TRACE_TOL = 1e-10
# Bounds sqrt(n) ||L(rho)||_F, never below the trace norm ||L(rho)||_tr, in
# units of max|L|: the one residual test of a stationary state.
RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-8

# Stationary route.  GMRES restarts every _GMRES_BUDGET iterations, and
# every request, the state's and each bound's, gets ten such budgets, cut
# short once a restart cycle's residual reduction projects past them; only
# then does the whole block's LU take over.  That LU of the even block costs
# as much as 600-870 iterations at (14, 7) and 3,800-4,000 at (25, 8), and
# 50-60 at (8, 4), where ten budgets cost at most 25 ms more.  A bound
# solve's residual is subtracted in the bound itself (see steady_state), so
# it stops at theta |v| / 2, which at most halves the bound.
_GMRES_RTOL = 1e-13
_GMRES_BUDGET = 30
# The chance m theta^2 that a Dixon bound passes a block below it.
_DIXON_CHANCE = 1e-6
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
    """Sparse Liouvillian of one spec/config pair (angular units, 1/s): the
    pair is the model, and ``matrix`` is assembled from it
    (:func:`_liouvillian`)."""

    spec: SystemSpec
    config: OracleConfig
    matrix: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _liouvillian(self.spec, self.config))

    @cached_property
    def rwa(self) -> FockGenerator:
        """This model without the pair-creation term; kept, with its factors."""
        return FockGenerator(self.spec, replace(
            self.config, include_counter_rotating=False))

    @cached_property
    def _sectors(self) -> list[_Sector]:
        """The pinned sectors (:func:`_split`) of this model; made once."""
        return _split(self)

    @cached_property
    def _factors(self) -> list[_MirrorFactor | None]:
        """The :func:`_mirror_factor` of each RWA sector, which precondition
        both models; made once, on the RWA model, and shared by the full."""
        if self.config.include_counter_rotating:
            return self.rwa._factors
        return [_mirror_factor(sector) for sector in self._sectors]


@dataclass(frozen=True)
class FockTrajectory:
    """Time series of density matrices produced by :func:`evolve`."""

    times: np.ndarray
    states: tuple[DensityState, ...]


def build_generator(spec: SystemSpec, config: OracleConfig) -> FockGenerator:
    """Assemble the sparse Liouvillian for a spec on the truncated space.

    ``L rho = -i (H_eff rho - rho H_eff^dag) + sum_c r_c c rho c^dag``,
    ``H_eff = H - (i/2) sum_c r_c c^dag c`` (Dalibard, Castin and Molmer, PRL
    68, 580 (1992)).  H (angular units): omega_a a^dag a - delta b^dag b plus
    the bilinear coupling g (a + a^dag)(b + b^dag), or without
    ``config.include_counter_rotating`` only its excitation-exchange part g
    (a^dag b + a b^dag).  Jumps c: local thermal damping at gamma0 and
    kappa0, bath occupations n_a0 and n_b0, where r_c > 0.  L is summed
    from one shifted diagonal per term (:func:`_liouvillian`).
    """
    return FockGenerator(spec, config)


def _liouvillian(spec: SystemSpec, config: OracleConfig) -> sp.csr_matrix:
    """:func:`build_generator`'s L as the sum of its shifted diagonals.

    A ladder operator c has one entry per row s, ``amp[s]`` at column s +
    shift (zero past the truncation).  With E the diagonal of H_eff and C the
    coupling, each term moves |i><j|, at p = i + n j of vec(rho), by one
    shift: -i (E_i - conj(E_j)) at p; -i g C_{i,i+o} at p + o and i g
    C_{j,j+o} at p + n o for each shift o of C; r_c c_{i,i+o} c_{j,j+o} at p
    + (n + 1) o for a jump of shift o.  The shifts are distinct, so each is
    one diagonal: 13 of them, 9 without the pair-creation terms a b and
    a^dag b^dag, whose two shifts have the same sign.
    """
    (n_a, n_b), n = config.dims, config.dims[0] * config.dims[1]
    omega_a, delta, g, gamma0, kappa0 = angular_rates(spec)
    level_a, level_b = np.divmod(np.arange(n), n_b)
    a, a_dag, b, b_dag = (
        (n_b, np.sqrt(np.where(level_a < n_a - 1, level_a + 1.0, 0.0))),
        (-n_b, np.sqrt(level_a)),
        (1, np.sqrt(np.where(level_b < n_b - 1, level_b + 1.0, 0.0))),
        (-1, np.sqrt(level_b)))
    jumps = [(rate, c) for rate, c in (
        (gamma0 * (spec.n_a0 + 1.0), a), (gamma0 * spec.n_a0, a_dag),
        (kappa0 * (spec.n_b0 + 1.0), b), (kappa0 * spec.n_b0, b_dag))
        if rate > 0]
    # c^dag c is diagonal, amp[s]^2 at s + shift; np.roll wraps only zeros.
    energy = omega_a * level_a - delta * level_b - 0.5j * sum(
        rate * np.roll(amp ** 2, shift) for rate, (shift, amp) in jumps)
    # Each term's value at |i><j| is its [j, i] entry, broadcast.
    terms = [(0, -1j * (energy - energy.conj()[:, None]))]
    for shift_a, amp_a in (a, a_dag):
        for shift_b, amp_b in (b, b_dag):
            pair_creation = (shift_a > 0) == (shift_b > 0)  # a b, a^dag b^dag
            if pair_creation and not config.include_counter_rotating:
                continue
            coupling, shift = g * amp_a * amp_b, shift_a + shift_b
            terms += [(shift, -1j * coupling),
                      (n * shift, 1j * coupling[:, None])]
    terms += [((n + 1) * shift, rate * np.outer(amp, amp))
              for rate, (shift, amp) in jumps]
    # Row p of the diagonal at offset o holds the value of p; the rows whose
    # column p + o falls outside L, where the values are zero, are cut off.
    diagonals = [np.broadcast_to(value, (n, n)).ravel()[
        max(0, -shift):n * n - max(0, shift)] for shift, value in terms]
    matrix = sp.diags(diagonals, [shift for shift, _ in terms],
                      shape=(n * n, n * n), format="csr", dtype=complex)
    matrix.eliminate_zeros()
    return matrix


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


def _check_positive(state: DensityState) -> None:
    """``RuntimeError`` if ``state`` has an eigenvalue below -POSITIVITY_TOL.
    A Cholesky factor of rho + POSITIVITY_TOL I proves there is none in a
    fifth of an eigenvalue solve's time; only where it fails is the floor
    computed (:meth:`DensityState.eigenvalue_floor`)."""
    try:
        np.linalg.cholesky(state.matrix
                           + POSITIVITY_TOL * np.eye(len(state.matrix)))
    except np.linalg.LinAlgError:
        floor = state.eigenvalue_floor()
        if floor < -POSITIVITY_TOL:
            raise RuntimeError(f"density matrix has eigenvalue {floor:.3e} "
                               f"below -{POSITIVITY_TOL}") from None


class _KrylovFailed(Exception):
    """A preconditioned solve did not converge within the GMRES budget."""


@dataclass(frozen=True)
class _Sector:
    """One parity block of ``L`` in the order of :func:`_layout`."""

    index: np.ndarray  # the position in vec(rho) of each row and column
    k: np.ndarray  # their k
    block: sp.csr_matrix


@lru_cache(maxsize=4)
def _layout(dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """k = N(i) - N(j) of each |i><j| in vec(rho) (N counts both modes'
    excitations), its place in its parity sector, and ``(index, k)`` of the
    even and the odd sector: positions in vec(rho) in the order [k = 0 | k >
    0 | the mirrors |j><i| of the k > 0 part, in the same order], |0><0|
    first.  ``L`` moves k by 0 or +-2 (B. Buca and T. Prosen, New J. Phys.
    14, 073007 (2012)): it is the direct sum of the two sector blocks."""
    n = dims[0] * dims[1]
    excitations = np.add.outer(np.arange(dims[0]), np.arange(dims[1])).ravel()
    k = np.subtract.outer(excitations, excitations).ravel(order="F")
    mirror = np.arange(n * n).reshape(n, n).ravel(order="F")  # of each |i><j|
    local, sectors = np.empty(n * n, dtype=np.int32), []
    for odd in (0, 1):
        plus = np.flatnonzero((k % 2 == odd) & (k > 0))
        index = np.concatenate([np.flatnonzero((k % 2 == odd) & (k == 0)),
                                plus, mirror[plus]])
        local[index] = np.arange(index.size)
        sectors.append((index, k[index]))
    for array in (k, local, *(a for sector in sectors for a in sector)):
        array.flags.writeable = False  # shared by every call
    return k, local, tuple(sectors)


def _split(generator: FockGenerator, parities: tuple[int, ...] = (0, 1),
           pinned: bool = True) -> list[_Sector]:
    """CSR blocks of ``L`` on the sectors ``parities`` (0 even, 1 odd) of
    :func:`_layout`; with ``pinned``, row 0 of the even block is omega_a times
    the trace, to scale with the rest.  ``ValueError`` if they are coupled."""
    n = generator.config.dims[0] * generator.config.dims[1]
    k, local, layout = _layout(generator.config.dims)
    odd, matrix = k % 2, generator.matrix.tocsr()
    if np.any(np.repeat(odd, np.diff(matrix.indptr)) != odd[matrix.indices]):
        raise ValueError("the Liouvillian couples the even and odd sectors")
    sectors = []
    for parity in parities:
        index, labels = layout[parity]
        rows = matrix[index]
        data, indices, indptr = rows.data, local[rows.indices], rows.indptr
        if pinned and not parity:  # row 0, |0><0|, becomes the trace
            start, weight = indptr[1], generator.spec.omega_a
            data = np.concatenate([np.full(n, weight, complex), data[start:]])
            indices = np.concatenate([local[::n + 1], indices[start:]])
            indptr = np.concatenate([[0], indptr[1:] + n - start])
        sectors.append(_Sector(index, labels, sp.csr_matrix(
            (data, indices, indptr), shape=(index.size, index.size))))
    return sectors


def _real_form(index: np.ndarray, block: sp.csr_matrix,
               n: int) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """``(T, P, (P block T).real)`` for one unpinned sector (:func:`_split`).

    ``T`` maps real coordinates to ``vec(rho)[index]`` of a Hermitian
    ``rho``: coordinate c is rho_ii at a diagonal position c of ``index``,
    Re rho_ij at an upper one (i < j, i the row) and Im rho_ji at a lower
    one.  ``index`` is closed under i <-> j (k and -k share a parity), and
    ``P = diag(1/|T_c|^2) T^H`` is the left inverse of ``T``.  A ``block``
    that preserves Hermiticity makes ``P block T`` real; an imaginary part
    above 1e-12 max|L| raises ``ValueError``.
    """
    rows, cols, order = index % n, index // n, np.argsort(index)
    mirror = order[np.searchsorted(index, cols + n * rows, sorter=order)]
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


def _gmres_solver(block: sp.csr_matrix, factor, iterations: list[int]):
    """``solve(rhs, rtol, budget)`` of ``block x = rhs`` by restarted GMRES
    right-preconditioned by ``factor`` (Y. Saad and M. H. Schultz, SIAM J.
    Sci. Stat. Comput. 7, 856 (1986)), restarted every 30 iterations.

    It keeps ``Z_j = M^-1 v_j`` beside the Arnoldi basis ``v_j``, so each
    iteration makes one ``factor.solve`` and ``x = Z y`` needs none, and it
    orthogonalises by two block classical Gram-Schmidt passes.  A cycle ends
    when its Givens estimate of |rhs - B x| meets rtol |rhs|, or after 30
    iterations; the solve returns once the true residual, computed there,
    does.  Where the first iteration finds |v_0 - B Z_0| <= rtol, as an
    exact factor does, it returns ``|rhs| Z_0`` once one true-residual
    product confirms the stop, with no Gram-Schmidt, rotation or triangular
    solve.  Each iteration adds one to ``iterations[-1]``.  It raises
    :class:`_KrylovFailed` at ``budget`` iterations, or on starting a cycle
    when the last cycle's reduction of the residual, repeated, would not
    reach rtol |rhs| within the budget: the residual is in the unit of rhs,
    so that stop is the same in any frequency unit."""
    m, size = _GMRES_BUDGET, block.shape[0]
    v = np.empty((m + 1, size), dtype=complex)  # the Arnoldi basis
    z = np.empty((m, size), dtype=complex)  # M^-1 of each v_j

    def solve(rhs: np.ndarray, rtol: float, budget: int):
        iterations.append(0)
        x, r = np.zeros(size, dtype=complex), rhs
        ends = [float(np.linalg.norm(rhs))]  # |r| at the start, each cycle end
        target = rtol * ends[0]
        while ends[-1] > target:
            done = iterations[-1]
            if done >= budget:
                raise _KrylovFailed
            if len(ends) > 2:  # the early stop, from the third cycle on
                rate = math.log(ends[-1] / ends[-2])
                if not rate < 0 or (done + m * math.log(target / ends[-1])
                                    / rate > budget):
                    raise _KrylovFailed
            v[0] = r / ends[-1]
            g, rotations, columns = [complex(ends[-1])], [], []
            for j in range(min(m, budget - done)):
                iterations[-1] += 1
                z[j] = factor.solve(v[j])
                w = block @ z[j]
                if (j == 0 and len(ends) == 1
                        and np.linalg.norm(v[0] - w) <= rtol):
                    first = ends[0] * z[0]  # as from an exact factor
                    if np.linalg.norm(rhs - block @ first) <= target:
                        return first
                h = (v[:j + 1] @ w.conj()).conj()
                w -= h @ v[:j + 1]
                again = (v[:j + 1] @ w.conj()).conj()
                w -= again @ v[:j + 1]
                height = float(np.linalg.norm(w))
                column = (h + again).tolist()  # R's column j, rotated below
                for i, (c, s) in enumerate(rotations):
                    column[i], column[i + 1] = (
                        c * column[i] + s * column[i + 1],
                        c * column[i + 1] - s.conjugate() * column[i])
                radius = math.hypot(abs(column[j]), height)
                if radius == 0:  # B Z_j = 0: the block is singular
                    raise _KrylovFailed
                phase = column[j] / abs(column[j]) if column[j] else 1.0
                c, s = abs(column[j]) / radius, phase * height / radius
                rotations.append((c, s))
                column[j] = phase * radius
                columns.append(column + [0.0] * (m - j - 1))
                g.append(-s.conjugate() * g[j])
                g[j] *= c
                if abs(g[j + 1]) <= target:
                    break
                v[j + 1] = w / height
            k = len(columns)
            y = solve_triangular(np.array(columns)[:, :k].T, g[:k])
            x += y @ z[:k]
            r = rhs - block @ x
            ends.append(float(np.linalg.norm(r)))
        return x

    return solve


def _factor(block: sp.spmatrix):
    """SuperLU factor of ``block``, or ``None`` if exactly singular."""
    try:
        return splu(block.tocsc(), **_LU_OPTIONS)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None


@dataclass(frozen=True)
class _MirrorFactor:
    """LU of one parity sector of the RWA Liouvillian from its k >= 0 blocks.

    That model's sector block (:func:`_layout`) is the direct sum of its k = 0
    part (even sector only; it holds the trace row), its k > 0 part and the
    mirrors of that, which, as any Lindbladian maps rho^dag to L(rho)^dag, is
    the conjugate of the second: ``conj(plus.solve(conj(b)))`` solves it."""

    zero: int  # size of the k = 0 part
    zero_lu: object  # SuperLU of the k = 0 part; None in the odd sector
    plus_lu: object  # SuperLU of the k > 0 part

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        solution = np.empty(rhs.shape, dtype=complex)
        if self.zero_lu is not None:
            solution[:self.zero] = self.zero_lu.solve(rhs[:self.zero])
        plus, minus = rhs[self.zero:].reshape(2, -1)
        pair = self.plus_lu.solve(np.column_stack([plus, minus.conj()]))
        solution[self.zero:] = np.concatenate([pair[:, 0], pair[:, 1].conj()])
        return solution


def _mirror_factor(sector: _Sector) -> _MirrorFactor | None:
    """:class:`_MirrorFactor` of an RWA ``sector``, or ``None`` if a
    factored part is exactly singular.  A mirror part that is not the
    conjugate of the k > 0 part to 1e-12 max|L| raises ``ValueError``."""
    zero, plus = np.count_nonzero(sector.k == 0), np.count_nonzero(sector.k > 0)
    block, mirrors = sector.block, slice(zero + plus, None)
    part = block[zero:zero + plus, zero:zero + plus]
    mismatch = (block[mirrors, mirrors] - part.conj()).data
    if np.abs(mismatch).max(initial=0.0) > 1e-12 * np.abs(block.data).max():
        raise ValueError("the Liouvillian does not preserve Hermiticity: its "
                         "k < 0 blocks are not the conjugates of their mirrors")
    zero_lu = _factor(block[:zero, :zero]) if zero else None
    plus_lu = _factor(part)
    if plus_lu is None or (zero and zero_lu is None):
        return None
    return _MirrorFactor(zero=zero, zero_lu=zero_lu, plus_lu=plus_lu)


def _sector_solve(factor, sector: _Sector, requests: list,
                  iterations: list[int]) -> tuple[str, list[np.ndarray]]:
    """Route and ``B^-1 rhs`` for each ``(rhs, rtol)`` of ``requests`` on
    one sector of either model: GMRES preconditioned by the RWA ``factor``
    (``None`` if singular), ten budgets per request ("krylov"), exact for
    the RWA model, so one iteration each there; only a stalled request or a
    singular factor hands the sector to the block's own LU ("lu-fallback").
    ``iterations`` gets one count per request, 0 where GMRES did not run."""
    start = len(iterations)
    if factor is not None:
        solve = _gmres_solver(sector.block, factor, iterations)
        try:
            return "krylov", [solve(rhs, rtol, 10 * _GMRES_BUDGET)
                              for rhs, rtol in requests]
        except _KrylovFailed:
            pass
    iterations += [0] * (start + len(requests) - len(iterations))
    order = np.argsort(sector.index)  # vec(rho) order, factored 1.5-2x faster
    factor, back = _factor(sector.block[order][:, order]), np.argsort(order)
    if factor is None:
        raise DegenerateSteadyStateError(
            "stationary subspace is degenerate: the trace-pinned Liouvillian "
            "is exactly singular")
    return "lu-fallback", [factor.solve(rhs[order])[back]
                           for rhs, _ in requests]


@lru_cache(maxsize=4)
def _dixon_probe(size: int, even: bool) -> tuple[np.ndarray, float]:
    """The seeded request ``(v, theta / 2)`` of :func:`_dixon_bound` on a
    sector of ``size``; ``v`` is read-only, as every call with the same
    arguments shares it."""
    v = np.random.default_rng(0).standard_normal(2 * size).view(complex)
    if even:
        v[0] = 0.0  # the trace row's entry
    v.flags.writeable = False
    return v, math.sqrt(_DIXON_CHANCE / v.size) / 2


def _dixon_bound(spec: SystemSpec, block: sp.csr_matrix,
                 probe: tuple[np.ndarray, float], x: np.ndarray,
                 sector: str) -> float:
    """Lower bound on sigma_min(``block``) from the solve ``x`` of the probe
    request ``(v, theta / 2)`` (:func:`steady_state`);
    :class:`DegenerateSteadyStateError` if it is under 1e-7 of the slowest
    dissipation rate."""
    v, half_theta = probe
    bound = float((2 * half_theta * np.linalg.norm(v) - np.linalg.norm(
        v - block @ x)) / np.linalg.norm(x))
    omega_a, _, _, gamma0, kappa0 = angular_rates(spec)
    rates = [r for r in (gamma0, kappa0) if r > 0]
    reference = min(rates) if rates else omega_a
    if not bound >= 1e-7 * reference:
        raise DegenerateSteadyStateError(
            f"stationary subspace is degenerate: {sector}-sector singular "
            f"value bound {bound:.3e} 1/s (slowest dissipation scale "
            f"{reference:.3e} 1/s)")
    return bound


def steady_state(generator: FockGenerator) -> DensityState:
    """Stationary density matrix of the Liouvillian ``L``.

    The state lies in the even-k block of ``L`` (:func:`_split`): ``A x =
    e_0`` (that block, row 0 omega_a times the trace) is solved, in either
    model, by GMRES right-preconditioned by the LU of the RWA model's even
    block (P. D. Nation, arXiv:1504.06768), exact without a pair-creation
    term: there each request takes one iteration, and the RWA state meets
    the same stop as the full one.  That GMRES (:func:`_gmres_solver`) makes
    one factor solve per iteration and stops on the true residual
    |rhs - B x|; every request gets the same budget, and only a stalled one,
    or a singular factor, falls back to the LU of the whole block.  Each
    model splits its own ``L`` once; the RWA blocks, the full ones' k-keeping
    entries, are factored once in their k >= 0 parts only
    (:class:`_MirrorFactor`) and kept on ``g.rwa``, and each model solves
    only its own right-hand sides.  Each sector's block ``B`` (``A`` or
    ``L_oo``) of size m takes one more solve: ``x = B^-1 v`` for a seeded
    complex Gaussian ``v`` (its trace entry zero for ``A``: ``A^-1 e_0`` =
    rho / omega_a is short, so where sigma_min(A) is small the direction
    ``A^-1`` stretches most is nearly traceless) bounds sigma_min(B) >=
    (theta |v| - |v - B x|) / |x| but for a chance below m theta^2 = 1e-6
    (J. D. Dixon, SIAM J. Numer. Anal. 20, 812 (1983)); as that holds for
    any x, the solve stops at |v - B x| <= theta |v| / 2.  A bound under 1e-7
    of the slowest dissipation rate, or a singular LU, raises
    :class:`DegenerateSteadyStateError`: a returned state certifies
    sigma_min(A) and sigma_min(L_oo) each at least 1e-7 of that rate, each
    but for a chance below 1e-6.  No eigensolver runs.  The state must meet
    one residual test, sqrt(n) ||L(rho)||_F <= RESIDUAL_TOL max |L| (that
    bound is never below the trace norm of L(rho)), and the tail check.
    Route, GMRES iterations (one RWA factor solve each) in all and per
    request (state, even bound, odd bound), the residual bound, sectors and
    bounds go to DEBUG.
    """
    config, spec = generator.config, generator.spec
    (even, odd), factors = generator._sectors, generator._factors
    iterations: list[int] = []
    probe = _dixon_probe(even.index.size, even=True)
    route, (vector, x) = _sector_solve(factors[0], even, [
        (np.eye(1, even.index.size, dtype=complex)[0], _GMRES_RTOL), probe],
        iterations)
    even_bound = _dixon_bound(spec, even.block, probe, x, "even")
    probe = _dixon_probe(odd.index.size, even=False)
    _, (x,) = _sector_solve(factors[1], odd, [probe], iterations)
    odd_bound = _dixon_bound(spec, odd.block, probe, x, "odd")
    n = config.dims[0] * config.dims[1]
    rho = np.zeros(n * n, dtype=complex)
    rho[even.index] = vector
    rho = _unvec(rho, n)
    rho = (rho + rho.conj().T) / (2 * rho.trace().real)
    tolerance = RESIDUAL_TOL * np.abs(generator.matrix.data).max()
    resid = math.sqrt(n) * float(np.linalg.norm(generator.matrix @ _vec(rho)))
    logger.debug("steady state: route=%s gmres_iterations=%d requests=%s "
                 "residual=%.3e sectors=%d/%d even_bound=%s odd_bound=%s",
                 route, sum(iterations), ",".join(map(str, iterations)),
                 resid, even.index.size, odd.index.size, even_bound, odd_bound)
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


def _max_abs(x: np.ndarray) -> float:
    """max|x| of a real ``x`` in one pass, with no |x| temporary; for a
    finite ``x`` the same float as ``max(x.max(), -x.min())``."""
    return abs(x[idamax(x)])


def _taylor_steps(real: sp.csr_matrix, v: np.ndarray, dt: float,
                  num_points: int) -> tuple[np.ndarray, int, int]:
    """``expm(real k dt) v`` for k < ``num_points``, with the substeps per
    step and the matrix-vector products it took.

    The truncated Taylor method of A. H. Al-Mohy and N. J. Higham (SIAM J.
    Sci. Comput. 33, 488 (2011)), its rule fixed once for the uniform step:
    ``A = real - mu I`` with mu = tr(real)/n, s = ceil(dt |A|_1 / theta_55)
    substeps of at most 55 terms, each ended when the last two terms fall
    below 2^-53 of the partial sum in the max norm.  Each term costs one
    product and one max-norm pass: ``bound`` = max|start| + the sum of
    max|term| bounds the partial sum's max norm (the factor 2 below covers
    the rounding of the running sum), so where ``previous + current > 2^-52
    bound`` the stop fails, and that norm is taken only elsewhere.
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
            previous = bound = _max_abs(term)
            for j in range(1, _TAYLOR_DEGREE + 1):
                term = shifted @ term
                term *= h / j
                matvecs += 1
                current = _max_abs(term)
                total += term
                bound += current
                if (previous + current <= 2.0 ** -52 * bound
                        and previous + current <= 2.0 ** -53 * _max_abs(total)):
                    break
                previous = current
            total *= scale
        snapshots[k] = total
    return snapshots, substeps, matvecs


def evolve(generator: FockGenerator, initial: DensityState, duration: float,
           num_points: int = 100) -> FockTrajectory:
    """``expm(L t) rho0`` at ``num_points`` uniform times in [0, duration] s.

    Only the parity blocks (:func:`_split`) where ``rho0`` has a nonzero
    part are built (a diagonal ``rho0`` is all even), each run on that part
    by :func:`_taylor_steps` as the real matrix of :func:`_real_form`: about
    half the work of the complex block, and every snapshot is Hermitian by
    construction.  A block that does not preserve Hermiticity raises
    ``ValueError``.  ``rho0`` must fit the truncation, and the trace hold to
    1e-8 before snapshots are renormalised.  Sector sizes, sectors evolved,
    substeps per output step and matrix-vector products go to DEBUG.
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
    layout = _layout(initial.dims)[2]
    parities = tuple(odd for odd, (index, _) in enumerate(layout)
                     if np.any(start[index]))
    parts, substeps, matvecs = [], [], 0
    for sector in _split(generator, parities, pinned=False):
        basis, inverse, real = _real_form(sector.index, sector.block, n)
        snapshots, steps, products = _taylor_steps(
            real, (inverse @ start[sector.index]).real, dt, num_points)
        parts.append((sector.index, basis, snapshots))
        substeps.append(str(steps))
        matvecs += products
    logger.debug("evolve: sectors=%d/%d evolved=%s substeps=%s matvecs=%d",
                 layout[0][0].size, layout[1][0].size,
                 ",".join(("even", "odd")[odd] for odd in parities),
                 ",".join(substeps), matvecs)
    states = []
    for k in range(num_points):
        vector = np.zeros(n * n, dtype=complex)
        for index, basis, snapshots in parts:
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
