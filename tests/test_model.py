import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.constants import h, hbar, k as k_B

from modcool import (
    CircuitParams,
    CouplingConstants,
    ModeParams,
    SystemSpec,
    build_system,
    circuit_damping_rate,
    coupling_constants,
    effective_temperature,
    implied_mass,
    lc_frequency,
    thermal_occupation,
)

from conftest import benchmark_circuit


def test_thermal_occupation_reference_values():
    assert thermal_occupation(20e6, 0.020) == pytest.approx(20.34, abs=0.01)
    assert thermal_occupation(7.5e9, 0.020) == pytest.approx(1.527e-8, rel=1e-3)


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(1e6, 0.0) == 0.0
    assert thermal_occupation(1e12, 0.0) == 0.0


def test_thermal_occupation_branch_agreement():
    # One expression from x = 1e-300 to 700, through the old switch points
    # at 1e-6 and 30, within 1e-15 relative of the exact Bose factor.
    for x in (1e-300, 1e-8, 9e-7, 1e-6, 1e-6 * (1 - 1e-9), 30.0,
              30.0 + 1e-9, 100.0, 700.0):
        # A hot bath keeps h f = x k_B T a normal float at x = 1e-300.
        temperature = 0.020 if x > 1e-200 else 1e18
        frequency = x * k_B * temperature / h
        exact = 1.0 / math.expm1(h * frequency / (k_B * temperature))
        assert thermal_occupation(frequency, temperature) == pytest.approx(
            exact, rel=1e-15)


def test_thermal_occupation_monotonicity():
    freqs = np.logspace(5, 11, 40)
    values = [thermal_occupation(f, 0.050) for f in freqs]
    assert all(a > b for a, b in zip(values, values[1:]))
    temps = np.linspace(0.001, 1.0, 40)
    values_t = [thermal_occupation(1e9, t) for t in temps]
    assert all(a < b for a, b in zip(values_t, values_t[1:]))


def test_thermal_occupation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 0.02)
    with pytest.raises(ValueError):
        thermal_occupation(-1e6, 0.02)
    with pytest.raises(ValueError):
        thermal_occupation(1e6, -0.1)


def test_thermal_occupation_rejects_an_underflowing_ratio():
    # h f / k_B T underflows to 0: the occupation k_B T / (h f) overflows.
    with pytest.raises(ValueError, match=r"4e-292 Hz .* 0\.02 K"):
        thermal_occupation(4e-292, 0.02)


def test_lc_frequency_benchmark_circuit():
    # Inductance inverted from f_b = 7.5 GHz at C_sigma0 = 2.5 fF.
    circuit = benchmark_circuit()
    assert lc_frequency(circuit) == pytest.approx(7.5e9, rel=1e-12)


def test_lc_frequency_scalings():
    c1 = benchmark_circuit()
    c2 = CircuitParams(c_x0=c1.c_x0, c_sigma0=c1.c_sigma0,
                       inductance=2 * c1.inductance, d0=c1.d0,
                       delta_x0=c1.delta_x0, v_c=c1.v_c,
                       resistance=c1.resistance, t0=c1.t0)
    assert lc_frequency(c2) == pytest.approx(lc_frequency(c1) / math.sqrt(2),
                                             rel=1e-12)
    unit = CircuitParams(c_x0=0.1, c_sigma0=1.0, inductance=1.0, d0=1.0,
                         delta_x0=1e-3, v_c=0.0, resistance=1.0, t0=1.0)
    assert lc_frequency(unit) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


def test_coupling_ratio_benchmark_value():
    couplings = coupling_constants(benchmark_circuit())
    assert couplings.g_l / couplings.g_r == pytest.approx(793.0, abs=1.0)


def test_coupling_ratio_identity():
    circuit = benchmark_circuit()
    couplings = coupling_constants(circuit)
    omega_b = 2 * math.pi * lc_frequency(circuit)
    identity = circuit.v_c * math.sqrt(2 * circuit.c_sigma0 / (hbar * omega_b))
    assert couplings.g_l / couplings.g_r == pytest.approx(identity, rel=1e-12)


def test_coupling_scaling_in_drive_and_spread():
    base = coupling_constants(benchmark_circuit(v_c=0.025))
    doubled = coupling_constants(benchmark_circuit(v_c=0.050))
    assert doubled.g_l == pytest.approx(2 * base.g_l, rel=1e-12)
    assert doubled.g_r == pytest.approx(base.g_r, rel=1e-12)
    zero = coupling_constants(benchmark_circuit(v_c=0.0))
    assert zero.g_l == 0.0
    assert zero.g_r == base.g_r


def test_coupling_magnitude_from_inverted_spread():
    # Choose the zero-point spread so the bilinear coupling comes out at
    # exactly 2 MHz, then confirm the round trip.
    circuit = benchmark_circuit()
    omega_b = 2 * math.pi * lc_frequency(circuit)
    per_ratio = (circuit.c_x0 * circuit.v_c
                 * math.sqrt(hbar * omega_b / (2 * circuit.c_sigma0)) / h)
    ratio = 2e6 / per_ratio
    assert ratio == pytest.approx(2.8e-6, rel=1e-2)
    tuned = CircuitParams(c_x0=circuit.c_x0, c_sigma0=circuit.c_sigma0,
                          inductance=circuit.inductance, d0=circuit.d0,
                          delta_x0=ratio * circuit.d0, v_c=circuit.v_c,
                          resistance=circuit.resistance, t0=circuit.t0)
    assert coupling_constants(tuned).g_l == pytest.approx(2e6, rel=1e-9)


def test_build_system_benchmark():
    circuit = benchmark_circuit()
    mech = ModeParams(frequency=20e6, damping=2e3)
    f_b = lc_frequency(circuit)
    spec = build_system(circuit, mech, f_b - 20e6)
    assert spec.delta == pytest.approx(-20e6, rel=1e-9)
    assert spec.omega_a == 20e6
    assert spec.gamma0 == 2e3
    assert spec.kappa0 == pytest.approx(4e6, rel=1e-4)
    assert spec.g == pytest.approx(2e6, rel=1e-4)
    assert spec.n_a0 == pytest.approx(20.34, abs=0.01)
    assert spec.n_b0 == pytest.approx(1.53e-8, rel=1e-2)


def test_build_system_round_trip_and_zero_detuning():
    circuit = benchmark_circuit()
    mech = ModeParams(frequency=20e6, damping=2e3)
    f_b = lc_frequency(circuit)
    for drive in (f_b, f_b - 20e6, f_b + 5e6):
        spec = build_system(circuit, mech, drive)
        assert spec.delta + f_b == drive
    assert build_system(circuit, mech, f_b).delta == 0.0


def test_build_system_occupation_override():
    circuit = benchmark_circuit()
    mech = ModeParams(frequency=20e6, damping=2e3, bath_occupation=20.0)
    spec = build_system(circuit, mech, lc_frequency(circuit) - 20e6)
    assert spec.n_a0 == 20.0


def test_effective_temperature():
    spec = SystemSpec(omega_a=20e6, delta=-20e6, g=2e6, gamma0=2e3,
                      kappa0=4e6, n_a0=20, n_b0=0)
    assert effective_temperature(spec, 0.020, 7.5e9) == pytest.approx(
        53.33e-6, abs=0.1e-6)
    full = SystemSpec(omega_a=20e6, delta=-7.5e9, g=2e6, gamma0=2e3,
                      kappa0=4e6, n_a0=20, n_b0=0)
    assert effective_temperature(full, 0.020, 7.5e9) == pytest.approx(
        0.020, rel=1e-12)
    half = SystemSpec(omega_a=20e6, delta=-10e6, g=2e6, gamma0=2e3,
                      kappa0=4e6, n_a0=20, n_b0=0)
    assert effective_temperature(half, 0.020, 7.5e9) == pytest.approx(
        0.5 * effective_temperature(spec, 0.020, 7.5e9), rel=1e-12)
    zero = SystemSpec(omega_a=20e6, delta=0.0, g=2e6, gamma0=2e3,
                      kappa0=4e6, n_a0=20, n_b0=0)
    with pytest.raises(ValueError):
        effective_temperature(zero, 0.020, 7.5e9)


def test_circuit_params_validation():
    with pytest.raises(ValueError):
        # spread/gap ratio outside the linearised regime
        CircuitParams(c_x0=0.6e-15, c_sigma0=2.5e-15, inductance=1e-7,
                      d0=100e-9, delta_x0=2e-9, v_c=0.025,
                      resistance=1e7, t0=0.02)
    with pytest.raises(ValueError):
        CircuitParams(c_x0=3e-15, c_sigma0=2.5e-15, inductance=1e-7,
                      d0=100e-9, delta_x0=1e-13, v_c=0.025,
                      resistance=1e7, t0=0.02)
    ok = CircuitParams(c_x0=0.6e-15, c_sigma0=2.5e-15, inductance=1e-7,
                       d0=100e-9, delta_x0=1e-13, v_c=0.025,
                       resistance=1e7, t0=0.02)
    assert ok.c_sigma0 == 2.5e-15


def test_system_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(omega_a=0.0, delta=-1, g=0.1, gamma0=0, kappa0=0.1,
                   n_a0=0, n_b0=0)
    with pytest.raises(ValueError):
        SystemSpec(omega_a=1.0, delta=-1, g=-0.1, gamma0=0, kappa0=0.1,
                   n_a0=0, n_b0=0)
    with pytest.raises(ValueError):
        SystemSpec(omega_a=1.0, delta=-1, g=0.1, gamma0=0, kappa0=0.1,
                   n_a0=-1, n_b0=0)


NON_FINITE = (math.nan, math.inf, -math.inf)
VALID_SPEC = SystemSpec(omega_a=1.0, delta=-1.0, g=0.1, gamma0=0.01,
                        kappa0=0.1, n_a0=1.0, n_b0=0.1)
VALID_CIRCUIT = CircuitParams(c_x0=0.6e-15, c_sigma0=2.5e-15, inductance=1e-7,
                              d0=100e-9, delta_x0=1e-13, v_c=0.025,
                              resistance=1e7, t0=0.02)
VALID_MODE = ModeParams(frequency=20e6, damping=2e3, bath_occupation=20.0)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", [f.name for f in fields(SystemSpec)])
def test_system_spec_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        replace(VALID_SPEC, **{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", [f.name for f in fields(CircuitParams)])
def test_circuit_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        replace(VALID_CIRCUIT, **{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", [f.name for f in fields(ModeParams)])
def test_mode_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        replace(VALID_MODE, **{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", [f.name for f in fields(CouplingConstants)])
def test_coupling_constants_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        replace(CouplingConstants(g_r=1e3, g_l=2e6), **{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["frequency", "temperature"])
def test_thermal_occupation_rejects_non_finite(name, value):
    arguments = {"frequency": 7.5e9, "temperature": 0.02, name: value}
    with pytest.raises(ValueError, match="must be finite"):
        thermal_occupation(**arguments)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("function, arguments, name", [
    (effective_temperature, {"spec": VALID_SPEC, "t0": 0.02, "f_b": 7.5e9},
     "t0"),
    (effective_temperature, {"spec": VALID_SPEC, "t0": 0.02, "f_b": 7.5e9},
     "f_b"),
    (implied_mass, {"frequency": 20e6, "delta_x0": 1e-13}, "frequency"),
    (implied_mass, {"frequency": 20e6, "delta_x0": 1e-13}, "delta_x0"),
])
def test_derived_quantities_reject_non_finite(function, arguments, name,
                                              value):
    with pytest.raises(ValueError, match="must be finite"):
        function(**{**arguments, name: value})


def test_implied_mass_round_trip():
    mass = implied_mass(20e6, 2.8023e-13)
    spread = math.sqrt(hbar / (2 * mass * 2 * math.pi * 20e6))
    assert spread == pytest.approx(2.8023e-13, rel=1e-12)


def test_circuit_damping_rate():
    circuit = benchmark_circuit()
    expected = 1.0 / (2 * math.pi * circuit.resistance * circuit.c_sigma0)
    assert circuit_damping_rate(circuit) == expected
