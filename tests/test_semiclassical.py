import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from modcool import (
    CircuitParams,
    SystemSpec,
    analytic,
    circuit_damping_rate,
    coupling_constants,
    implied_mass,
    lc_frequency,
)
from modcool.semiclassical import (
    SemiclassicalParams,
    backaction_coefficients,
    circuit_cooling_rate,
    island_voltage,
)

from conftest import benchmark_circuit

TWO_PI = 2 * math.pi


def params_at(circuit, drive_frequency, mech_frequency=20e6):
    return SemiclassicalParams(circuit=circuit, drive_frequency=drive_frequency,
                               mech_frequency=mech_frequency)


def test_island_voltage_at_the_pole():
    circuit = benchmark_circuit()
    f_b = lc_frequency(circuit)
    params = params_at(circuit, f_b - 20e6)
    x = 1e-12
    voltage = island_voltage(params, x)
    kappa_angular = 1.0 / (circuit.resistance * circuit.c_sigma0)
    expected = (TWO_PI * f_b * circuit.c_x0 * x * circuit.v_c
                / (circuit.c_sigma0 * circuit.d0 * kappa_angular))
    assert abs(voltage) == pytest.approx(expected, rel=1e-9)
    # response sits in quadrature with the motion at the pole
    assert cmath.phase(voltage / x) == pytest.approx(-math.pi / 2, abs=1e-9)


def test_island_voltage_low_frequency_limit():
    circuit = benchmark_circuit()
    v1 = island_voltage(params_at(circuit, 50e6), 1e-12)
    v2 = island_voltage(params_at(circuit, 120e6), 1e-12)
    ratio = abs(v2) / abs(v1)
    assert ratio == pytest.approx(((120e6 + 20e6) / (50e6 + 20e6)) ** 2,
                                  rel=1e-3)
    # the island follows the motion in phase far below resonance
    assert cmath.phase(v1 / 1e-12) == pytest.approx(0.0, abs=1e-3)


def test_island_voltage_vanishes_without_drive():
    circuit = benchmark_circuit(v_c=0.0)
    params = params_at(circuit, lc_frequency(circuit) - 20e6)
    assert island_voltage(params, 1e-12) == 0.0


def test_friction_at_the_red_sideband_matches_exchange_rate():
    circuit = benchmark_circuit()
    f_b = lc_frequency(circuit)
    params = params_at(circuit, f_b - 20e6)
    coefficients = backaction_coefficients(params)
    g_l = coupling_constants(circuit).g_l
    kappa0 = circuit_damping_rate(circuit)
    # lower mixing sideband steats a ~kappa0^2-sized fraction of the pole value
    assert coefficients.friction_rate == pytest.approx(4 * g_l ** 2 / kappa0,
                                                       rel=1e-2)
    assert circuit_cooling_rate(g_l, f_b, kappa0, f_b - 20e6,
                                20e6) == pytest.approx(4 * g_l ** 2 / kappa0,
                                                       rel=1e-9)


@st.composite
def circuits(draw):
    """Valid circuits: 1-20 GHz resonance, quality factor 10 to 1e5."""
    c_sigma0 = draw(st.floats(1e-16, 1e-13))
    f_b = draw(st.floats(1e9, 2e10))
    kappa0 = f_b / draw(st.floats(10.0, 1e5))
    d0 = draw(st.floats(1e-8, 1e-6))
    return CircuitParams(
        c_x0=c_sigma0 * draw(st.floats(0.01, 0.9)), c_sigma0=c_sigma0,
        inductance=1.0 / ((TWO_PI * f_b) ** 2 * c_sigma0), d0=d0,
        delta_x0=d0 * draw(st.floats(1e-7, 1e-2)),
        v_c=draw(st.floats(0.0, 1.0)),
        resistance=1.0 / (TWO_PI * kappa0 * c_sigma0),
        t0=draw(st.floats(1e-3, 1.0)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(circuit=circuits(), f_a=st.floats(1e5, 2e7),
       detuning=st.floats(-40.0, 40.0))
@example(circuit=benchmark_circuit(), f_a=20e6, detuning=-1.0)
@example(circuit=benchmark_circuit(), f_a=20e6, detuning=-1.75)
@example(circuit=benchmark_circuit(), f_a=20e6, detuning=1.0)
@example(circuit=benchmark_circuit(), f_a=20e6, detuning=0.35)
def test_friction_equals_closed_form_sideband_difference(circuit, f_a,
                                                         detuning):
    # The phasor expansion keeps both mixing sidebands, so for any circuit
    # it is the closed-form rate at the upper sideband less the same
    # expression at the lower one.  The drive sits ``detuning`` mechanical
    # frequencies from the circuit resonance, always above f_a.  Near the
    # resonance the two sidebands cancel, so there the rounding is bounded
    # by 1e-9 of their sum.
    f_b = lc_frequency(circuit)
    f_d = f_b + detuning * f_a
    g_l = coupling_constants(circuit).g_l
    kappa0 = circuit_damping_rate(circuit)
    friction = backaction_coefficients(params_at(circuit, f_d, f_a)).friction_rate
    upper = circuit_cooling_rate(g_l, f_b, kappa0, f_d, f_a)
    lower = circuit_cooling_rate(g_l, f_b, kappa0, f_d - 2 * f_a, f_a)
    assert friction == pytest.approx(upper - lower, rel=1e-9,
                                     abs=1e-9 * (upper + lower))


def test_friction_sign_flips_across_the_resonance():
    circuit = benchmark_circuit()
    f_b = lc_frequency(circuit)
    red = backaction_coefficients(params_at(circuit, f_b - 20e6))
    blue = backaction_coefficients(params_at(circuit, f_b + 20e6))
    assert red.friction_rate > 0
    assert blue.friction_rate < 0


def test_no_drive_means_no_backaction():
    circuit = benchmark_circuit(v_c=0.0)
    params = params_at(circuit, lc_frequency(circuit) - 20e6)
    coefficients = backaction_coefficients(params)
    assert coefficients.spring_shift == 0.0
    assert coefficients.friction_rate == 0.0


def test_pole_identity_of_the_two_rate_forms():
    # closed-form circuit rate / quantum rate = 1 + kappa0^2/(16 omega_a^2)
    # exactly on the first red sideband, for any parameters.
    rng = np.random.default_rng(7)
    for _ in range(20):
        f_a = float(rng.integers(10, 40))
        kappa0 = float(rng.uniform(0.05, 0.45)) * f_a
        g = float(rng.uniform(0.5, 3.0))
        f_b = float(rng.integers(300, 900)) * f_a
        spec = SystemSpec(omega_a=f_a, delta=-f_a, g=g, gamma0=1e-4,
                          kappa0=kappa0, n_a0=1.0, n_b0=0.0)
        ratio = (circuit_cooling_rate(g, f_b, kappa0, f_b - f_a, f_a)
                 / analytic.cooling_rate(spec))
        assert ratio == pytest.approx(1 + kappa0 ** 2 / (16 * f_a ** 2),
                                      rel=1e-12)


def test_rate_forms_overlap_across_the_sweep():
    # Over the +-50% detuning band at kappa0/omega_a = 0.2 the circuit-theory
    # and quantum rate curves coincide to better than 1% of the peak rate
    # (the two closed forms differ in shape far down the flanks, where both
    # are ~20x below peak).
    f_a, kappa0, g, f_b = 20e6, 4e6, 2e6, 7.5e9
    grid = np.linspace(-1.5, -0.5, 201) * f_a
    quantum = np.array([analytic.cooling_rate(
        SystemSpec(omega_a=f_a, delta=d, g=g, gamma0=2e3, kappa0=kappa0,
                   n_a0=20, n_b0=0)) for d in grid])
    circuit = np.array([circuit_cooling_rate(g, f_b, kappa0, f_b + d, f_a)
                        for d in grid])
    assert np.max(np.abs(circuit - quantum)) / quantum.max() < 0.01


def test_island_response_peaks_at_the_damped_resonance():
    circuit = benchmark_circuit()
    f_b = lc_frequency(circuit)
    kappa0 = circuit_damping_rate(circuit)
    f_up = np.linspace(f_b - 5 * kappa0, f_b + 5 * kappa0, 2001)
    magnitudes = [abs(island_voltage(params_at(circuit, f - 20e6), 1e-12))
                  for f in f_up]
    peak = f_up[int(np.argmax(magnitudes))]
    damped = math.sqrt(f_b ** 2 - kappa0 ** 2 / 2)
    step = f_up[1] - f_up[0]
    assert abs(peak - damped) <= step


def test_semiclassical_floor_is_zero():
    # gamma0 n_a0 / (gamma0 + Gamma) -> 0 as the friction rate grows: the
    # circuit theory carries no backaction noise floor.
    gamma0, n_a0 = 2e3, 20.0
    balances = [gamma0 * n_a0 / (gamma0 + rate)
                for rate in (1e6, 1e9, 1e12)]
    assert balances[-1] < 1e-6 * n_a0
    assert all(a > b for a, b in zip(balances, balances[1:]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["drive_frequency", "mech_frequency"])
def test_semiclassical_params_reject_non_finite(name, value):
    circuit = benchmark_circuit()
    valid = params_at(circuit, lc_frequency(circuit) - 20e6)
    with pytest.raises(ValueError, match="must be finite"):
        replace(valid, **{name: value})


def test_force_expansion_against_time_domain_lock_in():
    """Brute-force check of the spring and friction coefficients.

    Drive the island equation of motion with the real modulated gate voltage
    2 v_c sin(w_d t) and a prescribed beam motion x0 cos(w_a t), evaluate the
    unexpanded capacitor force on the resulting trajectory, and lock in on
    its components at the mechanical frequency.  The island trajectory
    itself is locked in at the upper sideband w_d + w_a, which pins the
    sign of the island-voltage phasor.  No phasor algebra is shared with
    the implementation under test.
    """
    f_a, f_b, kappa0 = 1e6, 25e6, 0.2e6
    circuit = CircuitParams(
        c_x0=0.6e-15, c_sigma0=2.5e-15,
        inductance=1.0 / ((TWO_PI * f_b) ** 2 * 2.5e-15),
        d0=100e-9, delta_x0=1e-13, v_c=0.010,
        resistance=1.0 / (TWO_PI * kappa0 * 2.5e-15), t0=0.02)
    f_d = f_b - f_a
    params = SemiclassicalParams(circuit=circuit, drive_frequency=f_d,
                                 mech_frequency=f_a)
    predicted = backaction_coefficients(params)
    # the parallel-plate capacitor of c_x0, and the beam of delta_x0
    eps0_area = circuit.c_x0 * circuit.d0
    mass = implied_mass(f_a, circuit.delta_x0)

    w_a, w_d, w_b = TWO_PI * f_a, TWO_PI * f_d, TWO_PI * f_b
    kappa_angular = 1.0 / (circuit.resistance * circuit.c_sigma0)
    x0 = 1e-10

    def gate(t):
        return 2 * circuit.v_c * np.sin(w_d * t)

    def motion(t):
        return x0 * np.cos(w_a * t)

    def source_accel(t):
        # d^2/dt^2 [gate(t) * motion(t)], written out for the integrator
        return -2 * circuit.v_c * x0 * (
            (w_d + w_a) ** 2 / 2 * np.sin((w_d + w_a) * t)
            + (w_d - w_a) ** 2 / 2 * np.sin((w_d - w_a) * t))

    def rhs(t, y):
        v_b, dv_b = y
        forcing = -(circuit.c_x0 / (circuit.c_sigma0 * circuit.d0)) \
            * source_accel(t)
        return [dv_b, -kappa_angular * dv_b - w_b ** 2 * v_b + forcing]

    settle, window = 20e-6, 10e-6
    solution = solve_ivp(rhs, (0.0, settle + window), [0.0, 0.0],
                         method="DOP853", rtol=1e-11, atol=1e-14,
                         dense_output=True)
    assert solution.success
    times = np.linspace(settle, settle + window, 120001)
    island = solution.sol(times)[0]
    force = (-eps0_area * (gate(times) - island) ** 2
             / (2 * (circuit.d0 + motion(times)) ** 2))
    spring = 2 / (window * x0) * np.trapezoid(
        force * np.cos(w_a * times), times)
    friction = 2 / (window * x0 * mass * w_a) * np.trapezoid(
        force * np.sin(w_a * times), times) / TWO_PI
    assert spring == pytest.approx(predicted.spring_shift, rel=5e-3)
    assert friction == pytest.approx(predicted.friction_rate, rel=1e-3)
    # v_b = Im(V exp(i w t)) at w = w_d + w_a gives V = 2i/W int v_b e^{-iwt}
    w_up = w_d + w_a
    locked = 2j / window * np.trapezoid(island * np.exp(-1j * w_up * times),
                                        times)
    phasor = island_voltage(params, x0)
    assert abs(locked) == pytest.approx(abs(phasor), rel=1e-3)
    assert cmath.phase(locked / phasor) == pytest.approx(0.0, abs=1e-3)
