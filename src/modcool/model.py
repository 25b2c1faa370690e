"""Physical parameter sets and derived quantities for the modulated-coupling model.

Unit conventions used throughout the package:

* frequencies, detunings and damping rates are ordinary frequencies in Hz
  (mode quanta are counted with E = h*f),
* temperatures in K, lengths in m, capacitances in F, inductances in H,
* occupation numbers are dimensionless.

The dynamical solvers convert to angular units internally; every quantity a
user passes in or reads out is an ordinary frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.constants import h, hbar, k as k_B

# Largest zero-point-spread to gap ratio for which the first-order expansion
# of the motion-dependent capacitance is trusted.
_MAX_DISPLACEMENT_RATIO = 0.01

# The one Hz -> angular conversion factor of the package.
TWO_PI = 2.0 * math.pi


def _si(unit: str, **kwargs):
    """A field in SI ``unit``, which config files read; others are numbers."""
    return field(metadata={"unit": unit}, **kwargs)


def _require_finite(**values) -> None:
    """Reject NaN and infinite values among named numbers (``None`` passes)."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def thermal_occupation(frequency: float, temperature: float) -> float:
    """Mean thermal quantum number of a mode.

    Parameters
    ----------
    frequency : float
        Mode frequency in Hz (ordinary frequency; the quantum of energy is
        h*frequency).
    temperature : float
        Bath temperature in K.

    Returns
    -------
    float
        1/(exp(x) - 1) with x = h f / k_B T, written exp(-x)/(1 - exp(-x))
        so that no x overflows and both factors keep full relative
        precision.  Exactly 0.0 at zero temperature.  An x that underflows
        to 0 raises ``ValueError``: there the occupation k_B T / (h f)
        overflows.
    """
    _require_finite(frequency=frequency, temperature=temperature)
    if frequency <= 0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if temperature == 0:
        return 0.0
    x = h * frequency / (k_B * temperature)
    if x == 0:
        raise ValueError(
            f"h f / k_B T underflows to 0 at frequency {frequency} Hz and "
            f"temperature {temperature} K: the occupation overflows")
    return math.exp(-x) / -math.expm1(-x)


@dataclass(frozen=True)
class CircuitParams:
    """Physical quantities of the capacitively coupled beam/LC-circuit device.

    Attributes
    ----------
    c_x0 : float
        Rest capacitance of the motion-dependent coupling capacitor (F).
    c_sigma0 : float
        Total island capacitance (F); must exceed ``c_x0``.
    inductance : float
        Circuit inductance (H).
    d0 : float
        Rest gap of the coupling capacitor (m).
    delta_x0 : float
        Zero-point spread of the mechanical mode (m).  The ratio
        ``delta_x0/d0`` must stay below 1e-2 for the linearised capacitance
        to be meaningful.
    v_c : float
        Gate drive amplitude on the coupling capacitor (V).
    resistance : float
        Dissipative element setting the circuit linewidth (ohm).
    t0 : float
        Bath temperature (K).
    """

    c_x0: float = _si("F")
    c_sigma0: float = _si("F")
    inductance: float = _si("H")
    d0: float = _si("m")
    delta_x0: float = _si("m")
    v_c: float = _si("V")
    resistance: float = _si("ohm")
    t0: float = _si("K")

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        for name in ("c_x0", "c_sigma0", "inductance", "d0", "delta_x0",
                     "resistance", "t0"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.v_c < 0:
            raise ValueError(f"v_c must be non-negative, got {self.v_c}")
        if self.c_x0 >= self.c_sigma0:
            raise ValueError(
                f"c_x0 ({self.c_x0}) must be smaller than c_sigma0 "
                f"({self.c_sigma0})")
        ratio = self.delta_x0 / self.d0
        if ratio > _MAX_DISPLACEMENT_RATIO:
            raise ValueError(
                f"delta_x0/d0 = {ratio:.3g} is outside the linearised-"
                f"capacitance regime (limit {_MAX_DISPLACEMENT_RATIO})")


@dataclass(frozen=True)
class ModeParams:
    """Frequency, linewidth and bath occupation of one harmonic mode.

    ``bath_occupation`` may be left as None, in which case it is derived
    from the circuit bath temperature when the reduced system is built.
    """

    frequency: float = _si("Hz")
    damping: float = _si("Hz")
    bath_occupation: float | None = None

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if self.damping < 0:
            raise ValueError(f"damping must be non-negative, got {self.damping}")
        if self.bath_occupation is not None and self.bath_occupation < 0:
            raise ValueError("bath_occupation must be non-negative")


@dataclass(frozen=True)
class CouplingConstants:
    """Magnitudes of the two capacitive coupling channels, in Hz.

    ``g_r`` multiplies the photon-number (radiation-pressure-like) coupling,
    ``g_l`` the bilinear quadrature coupling that the gate drive switches on.
    Signs/phases are a global gauge with no effect on occupations, so only
    magnitudes are stored.
    """

    g_r: float
    g_l: float

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        if self.g_r < 0 or self.g_l < 0:
            raise ValueError("coupling magnitudes must be non-negative")


@dataclass(frozen=True)
class SystemSpec:
    """Reduced rotating-frame model of the coupled beam/LC system.

    Attributes
    ----------
    omega_a : float
        Mechanical frequency (Hz), > 0.
    delta : float
        LC detuning in the drive rotating frame (Hz); negative for a drive
        below the circuit resonance (red detuning).
    g : float
        Bilinear coupling magnitude (Hz).
    gamma0 : float
        Mechanical linewidth (Hz).
    kappa0 : float
        Circuit linewidth (Hz).  Zero is accepted so closed-system checks
        can be expressed; rate formulas that divide by kappa0 then raise.
    n_a0, n_b0 : float
        Bath occupations of the mechanical and circuit modes; ``n_b0``
        defaults to 0, a circuit cold enough to hold no thermal quanta.
    """

    omega_a: float = _si("Hz")
    delta: float = _si("Hz")
    g: float = _si("Hz")
    gamma0: float = _si("Hz")
    kappa0: float = _si("Hz")
    n_a0: float
    n_b0: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        if self.omega_a <= 0:
            raise ValueError(f"omega_a must be positive, got {self.omega_a}")
        if self.g < 0:
            raise ValueError(f"g must be non-negative, got {self.g}")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 must be non-negative, got {self.gamma0}")
        if self.kappa0 < 0:
            raise ValueError(f"kappa0 must be non-negative, got {self.kappa0}")
        if self.n_a0 < 0 or self.n_b0 < 0:
            raise ValueError("bath occupations must be non-negative")


def angular_rates(spec: SystemSpec) -> tuple[float, float, float, float,
                                              float]:
    """(omega_a, delta, g, gamma0, kappa0) of a spec in angular units (1/s)."""
    return (TWO_PI * spec.omega_a, TWO_PI * spec.delta, TWO_PI * spec.g,
            TWO_PI * spec.gamma0, TWO_PI * spec.kappa0)


def lc_frequency(params: CircuitParams) -> float:
    """Resonance frequency of the LC circuit in Hz, (1/2pi)/sqrt(L C_sigma0)."""
    return 1.0 / (TWO_PI * math.sqrt(params.inductance * params.c_sigma0))


def circuit_damping_rate(params: CircuitParams) -> float:
    """Circuit linewidth kappa0 in Hz set by the dissipative element.

    The energy decay rate of the island mode is 1/(R C_sigma0) in angular
    units; dividing by 2pi expresses it as an ordinary frequency.
    """
    return 1.0 / (TWO_PI * params.resistance * params.c_sigma0)


def coupling_constants(params: CircuitParams) -> CouplingConstants:
    """Magnitudes of the photon-number and bilinear couplings, in Hz.

    Both are the first-order-in-displacement coupling energies of the
    expanded island Hamiltonian divided by h.  The bilinear coupling is
    linear in the gate amplitude ``v_c`` and vanishes with it; the
    photon-number coupling does not involve the gate at all.  Their ratio is
    ``v_c * sqrt(2 c_sigma0 / (hbar omega_b))`` with omega_b angular.
    """
    omega_b = TWO_PI * lc_frequency(params)
    ratio = params.delta_x0 / params.d0
    g_r = (hbar * omega_b / 2.0) * (params.c_x0 / params.c_sigma0) * ratio / h
    g_l = (params.c_x0 * params.v_c
           * math.sqrt(hbar * omega_b / (2.0 * params.c_sigma0)) * ratio / h)
    return CouplingConstants(g_r=g_r, g_l=g_l)


def build_system(circuit: CircuitParams, mech: ModeParams,
                 drive_frequency: float) -> SystemSpec:
    """Reduce circuit and mechanical parameters to a rotating-frame spec.

    ``delta`` is the drive frequency minus the LC resonance, so driving
    below resonance gives a negative detuning; the bilinear coupling
    magnitude, circuit linewidth and bath occupations are derived from the
    circuit quantities.  ``mech.bath_occupation`` overrides the thermal
    value when set.
    """
    if drive_frequency <= 0:
        raise ValueError(f"drive_frequency must be positive, got {drive_frequency}")
    f_b = lc_frequency(circuit)
    if mech.bath_occupation is not None:
        n_a0 = mech.bath_occupation
    else:
        n_a0 = thermal_occupation(mech.frequency, circuit.t0)
    return SystemSpec(
        omega_a=mech.frequency,
        delta=drive_frequency - f_b,
        g=coupling_constants(circuit).g_l,
        gamma0=mech.damping,
        kappa0=circuit_damping_rate(circuit),
        n_a0=n_a0,
        n_b0=thermal_occupation(f_b, circuit.t0),
    )


def effective_temperature(spec: SystemSpec, t0: float, f_b: float) -> float:
    """Effective bath temperature seen by the mechanical mode, T0 |delta| / f_b.

    In the drive rotating frame the circuit sits at the detuning frequency
    while keeping its thermal occupation, so it acts as a reservoir at a
    temperature reduced by |delta|/f_b.  Undefined at zero detuning.
    """
    _require_finite(t0=t0, f_b=f_b)
    if spec.delta == 0:
        raise ValueError("effective temperature is undefined at zero detuning")
    if f_b <= 0:
        raise ValueError(f"f_b must be positive, got {f_b}")
    if t0 < 0:
        raise ValueError(f"t0 must be non-negative, got {t0}")
    return t0 * abs(spec.delta) / f_b


def implied_mass(frequency: float, delta_x0: float) -> float:
    """Effective mass (kg) implied by a zero-point spread at a mode frequency.

    Inverts delta_x0 = sqrt(hbar / (2 m omega)) with omega = 2 pi frequency.
    """
    _require_finite(frequency=frequency, delta_x0=delta_x0)
    if frequency <= 0 or delta_x0 <= 0:
        raise ValueError("frequency and delta_x0 must be positive")
    return hbar / (2.0 * (TWO_PI * frequency) * delta_x0 ** 2)
