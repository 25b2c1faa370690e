"""Closed-form cooling theory for the modulated bilinear coupling.

Every function takes the reduced :class:`~modcool.model.SystemSpec` and
returns ordinary frequencies (Hz) or occupation numbers.  All expressions are
homogeneous in frequency, so rates in Hz produce rates in Hz.
"""

from __future__ import annotations

import math

from .model import SystemSpec

# Relative tolerance for deciding that the drive sits on the first red
# sideband (delta = -omega_a), where the resonant specialisations apply.
_SIDEBAND_RTOL = 1e-9


def _require_on_sideband(spec: SystemSpec, who: str) -> None:
    if not math.isclose(spec.delta, -spec.omega_a, rel_tol=_SIDEBAND_RTOL):
        raise ValueError(
            f"{who} applies only on the first red sideband "
            f"(delta = -omega_a); got delta = {spec.delta:.6g} Hz with "
            f"omega_a = {spec.omega_a:.6g} Hz")


def cooling_rate(spec: SystemSpec) -> float:
    """Backaction cooling rate of the mechanical mode, in Hz.

    Gamma_c = -4 g^2 kappa0 delta omega_a /
              [ (delta^2 - omega_a^2 + kappa0^2/4)^2 + omega_a^2 kappa0^2 ]

    Valid in the weak-coupling regime; finite for every admissible spec,
    zero for g = 0, +0.0 at zero detuning, and negative (heating) for a
    blue drive, delta > 0.
    """
    if spec.kappa0 <= 0:
        raise ValueError("cooling_rate requires kappa0 > 0")
    num = 4.0 * spec.g ** 2 * spec.kappa0 * (0.0 - spec.delta) * spec.omega_a
    den = ((spec.delta ** 2 - spec.omega_a ** 2 + spec.kappa0 ** 2 / 4.0) ** 2
           + spec.omega_a ** 2 * spec.kappa0 ** 2)
    return num / den


def resonant_cooling_rate(spec: SystemSpec) -> float:
    """Cooling rate on the first red sideband: 4 g^2 / kappa0 / (1 + kappa0^2/16 omega_a^2).

    This is the on-sideband specialisation of :func:`cooling_rate`; calling
    it off the sideband raises.
    """
    if spec.kappa0 <= 0:
        raise ValueError("resonant_cooling_rate requires kappa0 > 0")
    _require_on_sideband(spec, "resonant_cooling_rate")
    return (4.0 * spec.g ** 2 / spec.kappa0
            / (1.0 + spec.kappa0 ** 2 / (16.0 * spec.omega_a ** 2)))


def backaction_floor(spec: SystemSpec) -> float:
    """Quantum backaction occupation floor n_0 = kappa0^2 / (16 omega_a^2)."""
    return spec.kappa0 ** 2 / (16.0 * spec.omega_a ** 2)


def final_occupation(spec: SystemSpec) -> float:
    """Stationary mechanical occupation from the rate balance.

    n_f = (Gamma_c n_0 + gamma0 n_a0) / (Gamma_c + gamma0), with the cooling
    rate from :func:`cooling_rate` and the floor from
    :func:`backaction_floor`.  This exact rate-balance form remains
    well-defined when the cooling rate is comparable to the intrinsic
    linewidth; it raises where gamma0 + Gamma_c <= 0 (no stationary state).
    """
    return _rate_balance(spec, cooling_rate(spec))


def _rate_balance(spec: SystemSpec, rate: float) -> float:
    """:func:`final_occupation` at the cooling rate ``rate`` of ``spec``."""
    if not rate + spec.gamma0 > 0:
        raise ValueError("no stationary occupation: gamma0 + Gamma_c <= 0")
    return ((rate * backaction_floor(spec) + spec.gamma0 * spec.n_a0)
            / (rate + spec.gamma0))


def sideband_rates(spec: SystemSpec) -> tuple[float, float]:
    """On-sideband transition rates (A_minus, A_plus) in Hz.

    A_minus = 4 g^2 / kappa0 is the resonant quantum-exchange (cooling)
    rate; A_plus = g^2 kappa0 / (4 omega_a^2) is the off-resonant
    pair-creation (heating) rate responsible for the backaction floor via
    n_0 = A_plus / (A_minus - A_plus).
    """
    if spec.kappa0 <= 0:
        raise ValueError("sideband_rates requires kappa0 > 0")
    _require_on_sideband(spec, "sideband_rates")
    a_minus = 4.0 * spec.g ** 2 / spec.kappa0
    a_plus = spec.g ** 2 * spec.kappa0 / (4.0 * spec.omega_a ** 2)
    return a_minus, a_plus


def rwa_final_occupation(spec: SystemSpec) -> float:
    """Stationary occupation with the pair-creation coupling term dropped.

    n_f = (1 + (4 (omega_a + delta)^2 + kappa0^2) / (4 g^2)) (gamma0/kappa0) n_a0

    First order in gamma0.  Without the counter-rotating term there is no
    backaction floor, so the result is proportional to gamma0 and diverges
    as g -> 0 (no cooling channel); g = 0 therefore raises.  The expression
    is exposed for any detuning but is derived near the red sideband.
    """
    if spec.g <= 0:
        raise ValueError("rwa_final_occupation requires g > 0")
    if spec.kappa0 <= 0:
        raise ValueError("rwa_final_occupation requires kappa0 > 0")
    bracket = 1.0 + ((4.0 * (spec.omega_a + spec.delta) ** 2 + spec.kappa0 ** 2)
                     / (4.0 * spec.g ** 2))
    return bracket * (spec.gamma0 / spec.kappa0) * spec.n_a0
