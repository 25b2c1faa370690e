from fractions import Fraction

import pytest

from modcool import CircuitParams, SystemSpec

# Cooling benchmark of the detuning-sweep figures: 20 MHz beam driven on the
# first red sideband of a 4 MHz-linewidth circuit.
BENCHMARK = SystemSpec(omega_a=20e6, delta=-20e6, g=2e6, gamma0=2e3,
                       kappa0=4e6, n_a0=20.0, n_b0=0.0)

# Same physics in units of the mechanical frequency with a one-quantum bath,
# small enough for Fock-space solvers.
SCALED = SystemSpec(omega_a=1.0, delta=-1.0, g=0.02, gamma0=1e-3, kappa0=0.2,
                    n_a0=1.0, n_b0=0.0)

# Rates many decades apart: gamma0/omega_a = 2.7e-12, g/kappa0 = 2.7e-5.
FAR_APART = SystemSpec(omega_a=0.2, delta=-0.1842, g=3.24e-7, gamma0=5.49e-13,
                       kappa0=0.01204, n_a0=0.00487, n_b0=2.09e-4)


def exact_occupation(model):
    """Beam occupation of the exact solution of A V + V A^T + D = 0.

    A stdlib ``fractions`` elimination of the 16 x 16 vectorised system,
    (AV + VA^T)[i, k] = sum_j A[i, j] V[j, k] + V[i, j] A[k, j], at the float
    drift and diffusion, so it shares no rounding with the solver.
    """
    a = [[Fraction(x) for x in row] for row in model.drift.tolist()]
    rows = []
    for i in range(4):
        for k in range(4):
            row = [Fraction(0)] * 17
            for j in range(4):
                row[4 * j + k] += a[i][j]
                row[4 * i + j] += a[k][j]
            row[16] = -Fraction(model.diffusion[i, k])
            rows.append(row)
    for col in range(16):
        pivot = next(r for r in range(col, 16) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, 16):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    v = [Fraction(0)] * 16
    for r in reversed(range(16)):
        known = sum(rows[r][c] * v[c] for c in range(r + 1, 16))
        v[r] = (rows[r][16] - known) / rows[r][r]
    return float((v[0] + v[5] - 1) / 2)


def benchmark_circuit(v_c: float = 0.025) -> CircuitParams:
    """Hardware realisation of the benchmark: 7.5 GHz LC circuit, 16 Mohm
    dissipation (4 MHz linewidth), gate drive tuned for a 2 MHz coupling."""
    return CircuitParams(
        c_x0=0.6e-15,
        c_sigma0=2.5e-15,
        inductance=1.0 / (2.5e-15 * (2.0 * 3.141592653589793 * 7.5e9) ** 2),
        d0=100e-9,
        delta_x0=2.8023e-13,
        v_c=v_c,
        resistance=1.59155e7,
        t0=0.020,
    )


@pytest.fixture
def benchmark() -> SystemSpec:
    return BENCHMARK


@pytest.fixture
def scaled() -> SystemSpec:
    return SCALED
