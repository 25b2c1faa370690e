import math
from dataclasses import replace

import numpy as np
import pytest

from modcool import SystemSpec, analytic, gaussian
from modcool.model import TWO_PI

from conftest import BENCHMARK, SCALED


def test_cooling_rate_benchmark_value():
    # 4 g^2 k0 |d| wa / [(d^2-wa^2+k0^2/4)^2 + wa^2 k0^2]
    # = 25600/6416 MHz at the benchmark.
    assert analytic.cooling_rate(BENCHMARK) == pytest.approx(
        25600.0 / 6416.0 * 1e6, rel=1e-12)


def test_cooling_rate_trivial_limits():
    assert analytic.cooling_rate(replace(BENCHMARK, g=0.0)) == 0.0
    assert analytic.cooling_rate(replace(BENCHMARK, delta=0.0)) == 0.0


def test_cooling_rate_static_coupling():
    static = replace(BENCHMARK, delta=-7.5e9)
    rate = analytic.cooling_rate(static)
    # large-detuning reduction: 4 g^2 k0 wa / wb^3
    reduction = 4 * 2e6 ** 2 * 4e6 * 20e6 / 7.5e9 ** 3
    assert rate == pytest.approx(reduction, rel=1e-2)
    assert rate == pytest.approx(3.0e-3, rel=2e-2)
    assert rate < 1e-6 * BENCHMARK.gamma0 * 1e3  # utterly negligible vs 2 kHz


def test_resonant_rate_equals_general_form_on_sideband():
    rng = np.random.default_rng(11)
    for _ in range(20):
        omega_a = rng.uniform(1.0, 50.0)
        spec = SystemSpec(omega_a=omega_a, delta=-omega_a,
                          g=rng.uniform(0.01, 2.0),
                          gamma0=rng.uniform(0, 0.01),
                          kappa0=rng.uniform(0.05, 0.5) * omega_a,
                          n_a0=1.0, n_b0=0.0)
        assert analytic.resonant_cooling_rate(spec) == pytest.approx(
            analytic.cooling_rate(spec), rel=1e-12)


def test_resonant_rate_benchmark_and_limits():
    assert analytic.resonant_cooling_rate(BENCHMARK) == pytest.approx(
        25600.0 / 6416.0 * 1e6, rel=1e-12)
    # narrow-linewidth limit at fixed g^2/kappa0
    narrow = SystemSpec(omega_a=20e6, delta=-20e6, g=2e3, gamma0=0.0,
                        kappa0=4.0, n_a0=0, n_b0=0)
    assert analytic.resonant_cooling_rate(narrow) == pytest.approx(
        4 * narrow.g ** 2 / narrow.kappa0, rel=1e-12)


def test_resonant_rate_rejects_off_sideband():
    with pytest.raises(ValueError):
        analytic.resonant_cooling_rate(replace(BENCHMARK, delta=-19e6))
    with pytest.raises(ValueError):
        analytic.sideband_rates(replace(BENCHMARK, delta=-21e6))


def test_backaction_floor():
    assert analytic.backaction_floor(BENCHMARK) == pytest.approx(0.0025,
                                                                 rel=1e-12)
    assert analytic.backaction_floor(replace(BENCHMARK, kappa0=0.0)) == 0.0


def test_backaction_floor_matches_rate_route():
    a_minus, a_plus = analytic.sideband_rates(BENCHMARK)
    rate_route = a_plus / (a_minus - a_plus)
    floor = analytic.backaction_floor(BENCHMARK)
    assert rate_route == pytest.approx(floor, rel=5e-3)


def test_sideband_rates_benchmark():
    a_minus, a_plus = analytic.sideband_rates(BENCHMARK)
    assert a_minus == pytest.approx(4e6, rel=1e-12)
    assert a_plus == pytest.approx(1e4, rel=1e-12)
    assert analytic.sideband_rates(replace(BENCHMARK, g=0.0)) == (0.0, 0.0)


def test_final_occupation_benchmark():
    assert analytic.final_occupation(BENCHMARK) == pytest.approx(0.01252,
                                                                 abs=1e-5)


def test_final_occupation_affine_in_bath_occupation():
    def occupation(n_a0):
        return analytic.final_occupation(replace(BENCHMARK, n_a0=n_a0))

    slope = occupation(1.0) - occupation(0.0)
    assert occupation(0.0) + slope * BENCHMARK.n_a0 == pytest.approx(
        occupation(BENCHMARK.n_a0), rel=1e-12)


def test_final_occupation_limits():
    assert analytic.final_occupation(replace(BENCHMARK, gamma0=0.0)) == \
        pytest.approx(analytic.backaction_floor(BENCHMARK), rel=1e-12)
    assert analytic.final_occupation(replace(BENCHMARK, g=0.0)) == \
        pytest.approx(BENCHMARK.n_a0, rel=1e-12)
    dead = SystemSpec(omega_a=1.0, delta=-1.0, g=0.0, gamma0=0.0, kappa0=0.1,
                      n_a0=1.0, n_b0=0.0)
    with pytest.raises(ValueError):
        analytic.final_occupation(dead)


def test_final_occupation_monotone_in_coupling():
    # Larger cooling rate always lowers the stationary occupation, which
    # stays above the floor whenever the bath sits above it.
    values = [analytic.final_occupation(replace(BENCHMARK, g=g))
              for g in np.linspace(0.1e6, 3e6, 25)]
    assert all(a > b for a, b in zip(values, values[1:]))
    floor = analytic.backaction_floor(BENCHMARK)
    assert all(v > floor for v in values)
    assert all(v < BENCHMARK.n_a0 for v in values)


def test_rwa_final_occupation_values():
    assert analytic.rwa_final_occupation(BENCHMARK) == pytest.approx(
        0.020, abs=1e-4)
    assert analytic.rwa_final_occupation(replace(BENCHMARK, g=1e6)) == \
        pytest.approx(0.050, abs=1e-4)
    strong = analytic.rwa_final_occupation(replace(BENCHMARK, g=1e12))
    assert strong == pytest.approx(
        BENCHMARK.gamma0 / BENCHMARK.kappa0 * BENCHMARK.n_a0, rel=1e-6)
    with pytest.raises(ValueError):
        analytic.rwa_final_occupation(replace(BENCHMARK, g=0.0))


def test_rwa_reduces_to_rate_balance_without_floor():
    weak = replace(BENCHMARK, g=BENCHMARK.kappa0 / 20.0)
    rwa = analytic.rwa_final_occupation(weak)
    no_floor = weak.gamma0 / analytic.cooling_rate(weak) * weak.n_a0
    assert rwa == pytest.approx(no_floor, rel=0.10)


def test_cooling_rate_peak_location():
    for kappa0 in (4e6, 8e6):
        spec = replace(BENCHMARK, kappa0=kappa0)
        grid = np.linspace(0.5, 1.5, 4001) * spec.omega_a
        rates = [analytic.cooling_rate(replace(spec, delta=-d)) for d in grid]
        peak = grid[int(np.argmax(rates))] / spec.omega_a
        width = kappa0 ** 2 / spec.omega_a ** 2
        assert 1.0 - width <= peak <= 1.0 + width


def test_static_coupling_means_no_cooling():
    static = replace(BENCHMARK, delta=-7.5e9)
    assert analytic.final_occupation(static) / BENCHMARK.n_a0 > 0.999



def test_blue_drive_heats_at_the_drift_spectrum_rate():
    # On the blue sideband the bilinear coupling heats the beam: the rate is
    # negative and matches the net decay of the slowest second moment,
    # -2 margin / 2 pi - gamma0, and the beam ends above its bath.
    blue = replace(SCALED, delta=SCALED.omega_a, g=0.005)
    rate = analytic.cooling_rate(blue)
    margin = gaussian.stability(gaussian.build_drift(blue)).margin
    assert rate < 0
    assert rate == pytest.approx(-2.0 * margin / TWO_PI - blue.gamma0,
                                 rel=0.01)
    assert analytic.final_occupation(blue) > blue.n_a0


def test_final_occupation_refuses_net_heating():
    # gamma0 + Gamma_c < 0: the drift is not Hurwitz and no state is left.
    blue = replace(SCALED, delta=SCALED.omega_a, g=0.01)
    assert not gaussian.stability(gaussian.build_drift(blue)).hurwitz
    with pytest.raises(ValueError, match="no stationary occupation"):
        analytic.final_occupation(blue)


def test_cooling_rate_is_positive_zero_at_zero_detuning():
    rate = analytic.cooling_rate(replace(SCALED, delta=0.0))
    assert rate == 0.0 and math.copysign(1.0, rate) == 1.0
