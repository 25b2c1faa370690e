"""Semiclassical circuit theory of the dynamical backaction force.

The gate drive at frequency f_d mixes with the beam motion at f_a and drives
the island at the sidebands f_d +/- f_a.  The resulting voltage reacts back
on the beam through the capacitor force; expanding that force to first order
in the displacement yields a spring-constant shift and a friction term whose
rate is the semiclassical cooling rate.  The model carries no quantum noise,
so it predicts a zero occupation floor: its stationary occupation
gamma0 n_a0 / (gamma0 + Gamma_c) goes to zero as the cooling rate grows.

Phasor convention: the drive is the real voltage 2 v_c sin(2 pi f_d t),
i.e. each rotating component has amplitude v_c, and products of real fields
are averaged over the fast drive period keeping the terms at the mechanical
frequency.  The circuit fixes the device: eps0 S0 = c_x0 d0, and the beam
mass is the one its zero-point spread implies at f_a.  The friction is then
exactly :func:`circuit_cooling_rate` at the upper sideband less the lower
one, so 4 g_l^2 / kappa0 on the first red sideband less a small correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    TWO_PI,
    CircuitParams,
    _require_finite,
    circuit_damping_rate,
    implied_mass,
    lc_frequency,
)


@dataclass(frozen=True)
class SemiclassicalParams:
    """The circuit driven at ``drive_frequency``, the beam at ``mech_frequency``."""

    circuit: CircuitParams
    drive_frequency: float
    mech_frequency: float

    def __post_init__(self) -> None:
        _require_finite(drive_frequency=self.drive_frequency,
                        mech_frequency=self.mech_frequency)
        if self.drive_frequency <= 0 or self.mech_frequency <= 0:
            raise ValueError("drive and mechanical frequencies must be positive")


@dataclass(frozen=True)
class BackactionCoefficients:
    """First-order expansion of the backaction force F ~ lambda x - m Gamma_c dx/dt.

    ``spring_shift`` (N/m) softens the beam and ``friction_rate`` (Hz) is
    positive for net cooling.
    """

    spring_shift: float
    friction_rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.spring_shift):
            raise ValueError("spring_shift must be finite")
        if not math.isfinite(self.friction_rate):
            raise ValueError("friction_rate must be finite")


def _island_transfer(circuit: CircuitParams, omega: float) -> complex:
    """Island response v_b / (v_c x / d0) at angular frequency omega.

    The sign is that of the island equation of motion
    v_b'' + kappa0 v_b' + w_b^2 v_b = -(C_x0/C_sigma0 d0) (v_c x)'',
    which makes red-detuned driving produce friction:
    w^2 C_x0 / [C_sigma0 (w_b^2 - w^2 + i kappa0 w)], all rates angular.
    """
    omega_b = TWO_PI * lc_frequency(circuit)
    kappa0 = TWO_PI * circuit_damping_rate(circuit)
    return (omega ** 2) * circuit.c_x0 / (
        circuit.c_sigma0 * (omega_b ** 2 - omega ** 2 + 1j * kappa0 * omega))


def island_voltage(params: SemiclassicalParams,
                   x_amplitude: float) -> complex:
    """Upper-sideband island voltage phasor driven by the beam motion.

    The island transfer at w_d + w_a times v_c x / d0, for the motion
    x cos(w_a t) and the phasor convention v_b = Im(V exp(i w t)).  At the
    pole w_d + w_a = w_b the magnitude is w_b C_x0 |x| v_c /
    (C_sigma0 d0 kappa0) and the phasor sits in quadrature with the motion
    (its ratio to x is -i times a positive number); far below the pole the
    ratio is positive real.
    """
    circuit = params.circuit
    omega = TWO_PI * (params.drive_frequency + params.mech_frequency)
    return (_island_transfer(circuit, omega) * circuit.v_c * x_amplitude
            / circuit.d0)


def backaction_coefficients(params: SemiclassicalParams) -> BackactionCoefficients:
    """Expand the capacitor force to first order in the beam displacement.

    The force -eps0 S0 (V_c - V_b)^2 / (2 (d0 + x)^2), with eps0 S0 =
    c_x0 d0, is averaged over the fast drive period keeping the components
    at the mechanical frequency.  Both mixing sidebands f_d +/- f_a are
    retained: the upper one cools and the lower one heats, so the net
    friction changes sign between red- and blue-detuned driving.  The
    constant (x-independent) pull is discarded.
    """
    circuit = params.circuit
    omega_plus = TWO_PI * (params.drive_frequency + params.mech_frequency)
    omega_minus = TWO_PI * (params.drive_frequency - params.mech_frequency)
    resp_plus = _island_transfer(circuit, omega_plus)
    resp_minus = _island_transfer(circuit, omega_minus)
    prefactor = circuit.c_x0 * circuit.v_c ** 2 / circuit.d0 ** 2
    spring_shift = prefactor * (2.0 + (resp_plus + resp_minus).real)
    mass = implied_mass(params.mech_frequency, circuit.delta_x0)
    omega_a = TWO_PI * params.mech_frequency
    friction_angular = (-prefactor * (resp_plus - resp_minus).imag
                        / (mass * omega_a))
    return BackactionCoefficients(spring_shift=spring_shift,
                                  friction_rate=friction_angular / TWO_PI)


def circuit_cooling_rate(g_l: float, f_b: float, kappa0: float, f_d: float,
                         f_a: float) -> float:
    """Closed-form semiclassical cooling rate, in Hz.

    Gamma_c = 4 g_l^2 (f_d + f_a)^3 kappa0 / f_b /
              [ ((f_d + f_a)^2 - f_b^2)^2 + (f_d + f_a)^2 kappa0^2 ]

    Homogeneous of degree one in frequency, so ordinary frequencies in give
    an ordinary frequency out.  Reduces to 4 g_l^2 / kappa0 exactly at
    f_d + f_a = f_b (drive on the first red sideband).
    """
    if kappa0 <= 0:
        raise ValueError("circuit_cooling_rate requires kappa0 > 0")
    if f_b <= 0:
        raise ValueError("f_b must be positive")
    if f_d <= 0:
        raise ValueError("f_d must be positive")
    f_up = f_d + f_a
    num = 4.0 * g_l ** 2 * f_up ** 3 * kappa0 / f_b
    den = (f_up ** 2 - f_b ** 2) ** 2 + f_up ** 2 * kappa0 ** 2
    return num / den

