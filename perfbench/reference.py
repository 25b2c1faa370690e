"""Expected values computed without the program under test.

Every function here takes a spec-like object (attributes ``omega_a``,
``delta``, ``g``, ``gamma0``, ``kappa0``, ``n_a0``, ``n_b0``; frequencies in
Hz) and uses numpy/scipy only, so a change to ``modcool`` cannot move the
numbers its outputs are gated against.

* Closed forms: the cooling rate, backaction floor and stationary occupations
  of the analytic layer, and the semiclassical circuit rate.
* Exact Gaussian algebra: the Lyapunov steady state of the quadrature drift,
  with the full bilinear coupling or only its excitation-exchange part (the
  exact partner of the Fock oracle's RWA run), its slowest relaxation rate,
  and the closed-form relaxation V(t) = E (V0 - Vinf) E^T + Vinf.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

TWO_PI = 2.0 * math.pi


def cooling_rate(spec) -> float:
    num = 4.0 * spec.g ** 2 * spec.kappa0 * abs(spec.delta) * spec.omega_a
    den = ((spec.delta ** 2 - spec.omega_a ** 2 + spec.kappa0 ** 2 / 4.0) ** 2
           + spec.omega_a ** 2 * spec.kappa0 ** 2)
    return num / den


def backaction_floor(spec) -> float:
    return spec.kappa0 ** 2 / (16.0 * spec.omega_a ** 2)


def final_occupation(spec) -> float:
    rate = cooling_rate(spec)
    return ((rate * backaction_floor(spec) + spec.gamma0 * spec.n_a0)
            / (rate + spec.gamma0))


def rwa_final_occupation(spec) -> float:
    bracket = 1.0 + ((4.0 * (spec.omega_a + spec.delta) ** 2 + spec.kappa0 ** 2)
                     / (4.0 * spec.g ** 2))
    return bracket * (spec.gamma0 / spec.kappa0) * spec.n_a0


def semiclassical_rate(spec, omega_b: float) -> float:
    """Circuit rate with the drive at omega_b + delta and coupling g."""
    f_up = omega_b + spec.delta + spec.omega_a
    num = 4.0 * spec.g ** 2 * f_up ** 3 * spec.kappa0 / omega_b
    den = (f_up ** 2 - omega_b ** 2) ** 2 + f_up ** 2 * spec.kappa0 ** 2
    return num / den


def semiclassical_occupation(spec, omega_b: float) -> float:
    """Zero-floor rate balance gamma0 n_a0 / (gamma0 + Gamma_c)."""
    return (spec.gamma0 * spec.n_a0
            / (spec.gamma0 + semiclassical_rate(spec, omega_b)))


def drift(spec, counter_rotating: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature drift A and diffusion D (angular units), order X_a, P_a, X_b, P_b.

    The full coupling g (a + a^dag)(b + b^dag) is 2 g X_a X_b; its
    excitation-exchange part g (a^dag b + a b^dag) is g (X_a X_b + P_a P_b).
    """
    w_a, d, g, ga, ka = (TWO_PI * x for x in (spec.omega_a, spec.delta, spec.g,
                                              spec.gamma0, spec.kappa0))
    a = np.array([
        [-ga / 2.0, w_a, 0.0, 0.0],
        [-w_a, -ga / 2.0, 0.0, 0.0],
        [0.0, 0.0, -ka / 2.0, -d],
        [0.0, 0.0, d, -ka / 2.0],
    ])
    if counter_rotating:
        a[1, 2] = a[3, 0] = -2.0 * g
    else:
        a[0, 3] = a[2, 1] = g
        a[1, 2] = a[3, 0] = -g
    diffusion = np.diag([ga * (spec.n_a0 + 0.5)] * 2
                        + [ka * (spec.n_b0 + 0.5)] * 2)
    return a, diffusion


def _occupation_a(covariance: np.ndarray) -> float:
    return 0.5 * (covariance[0, 0] + covariance[1, 1] - 1.0)


def stationary_covariance(spec, counter_rotating: bool = True) -> np.ndarray:
    a, diffusion = drift(spec, counter_rotating)
    v = solve_continuous_lyapunov(a, -diffusion)
    return 0.5 * (v + v.T)


def lyapunov_occupation(spec, counter_rotating: bool = True) -> float:
    """Exact stationary mechanical occupation of the Gaussian model."""
    return _occupation_a(stationary_covariance(spec, counter_rotating))


def spectral_rate(spec) -> float:
    """Slowest decay rate of second moments, -2 max Re(eig A) / 2 pi, in Hz."""
    a, _ = drift(spec)
    return -2.0 * float(np.max(np.linalg.eigvals(a).real)) / TWO_PI


def relaxation_trace(spec, n_a: float, n_b: float, duration: float,
                     num_points: int) -> np.ndarray:
    """Mechanical occupation n_a(t) from a product thermal state, exactly."""
    a, _ = drift(spec)
    v_inf = stationary_covariance(spec)
    excess = np.diag([n_a + 0.5] * 2 + [n_b + 0.5] * 2) - v_inf
    trace = []
    for t in np.linspace(0.0, duration, num_points):
        e = expm(a * t)
        trace.append(_occupation_a(e @ excess @ e.T + v_inf))
    return np.array(trace)
