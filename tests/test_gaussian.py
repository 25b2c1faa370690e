import logging
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov

import modcool
from modcool import SystemSpec, analytic, cli, gaussian, sweep
from modcool.cli import FIGURE_BASE
from modcool.gaussian import (
    SYMPLECTIC_FORM,
    CovarianceState,
    DriftModel,
    StabilityError,
    Trajectory,
    build_drift,
    evolve,
    occupation,
    physicality_margin,
    stability,
    steady_state,
    thermal_state,
)

from conftest import BENCHMARK, FAR_APART, SCALED, exact_occupation

TWO_PI = 2 * math.pi


def random_spec(rng):
    return SystemSpec(omega_a=1.0, delta=float(-rng.uniform(0.5, 1.5)),
                      g=float(rng.uniform(0.02, 0.25)),
                      gamma0=float(rng.uniform(0.005, 0.05)),
                      kappa0=float(rng.uniform(0.1, 0.5)),
                      n_a0=float(rng.uniform(0.0, 3.0)),
                      n_b0=float(rng.uniform(0.0, 0.5)))


def test_drift_structure():
    model = build_drift(BENCHMARK)
    a = model.drift
    g_ang = TWO_PI * BENCHMARK.g
    assert a[1, 2] == pytest.approx(-2 * g_ang, rel=1e-12)
    assert a[3, 0] == pytest.approx(-2 * g_ang, rel=1e-12)
    assert a[0, 1] == pytest.approx(TWO_PI * BENCHMARK.omega_a, rel=1e-12)
    assert a[2, 3] == pytest.approx(-TWO_PI * BENCHMARK.delta, rel=1e-12)
    assert a[3, 2] == pytest.approx(TWO_PI * BENCHMARK.delta, rel=1e-12)
    # positions that must stay empty: coupling enters only via X-quadratures
    for i, j in [(0, 2), (0, 3), (1, 3), (2, 0), (2, 1), (3, 1)]:
        assert a[i, j] == 0.0
    d = np.diag(model.diffusion)
    assert d[0] == pytest.approx(TWO_PI * 2e3 * 20.5, rel=1e-12)
    assert d[2] == pytest.approx(TWO_PI * 4e6 * 0.5, rel=1e-12)


def test_drift_model_rejects_an_indefinite_diffusion():
    # Non-negative diagonal, but the top-left block has eigenvalue -1.
    diffusion = np.zeros((4, 4))
    diffusion[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ValueError, match="positive semi-definite"):
        DriftModel(drift=-np.eye(4), diffusion=diffusion)


def test_drift_model_accepts_a_correlated_psd_diffusion():
    diffusion = np.zeros((4, 4))
    diffusion[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    model = DriftModel(drift=-np.eye(4), diffusion=diffusion)
    assert np.array_equal(model.diffusion, diffusion)


@pytest.mark.parametrize("matrix, position, value", [
    ("drift", (1, 2), math.nan),
    ("diffusion", (3, 3), math.nan),
    ("diffusion", (0, 0), math.inf),
], ids=["nan-drift", "nan-diffusion", "inf-diffusion"])
def test_drift_model_rejects_non_finite(matrix, position, value):
    # Each used to pass or fail later, under another name: a NaN drift in
    # stability's eig, a NaN diffusion as "symmetric", an infinite one in
    # eigvalsh's convergence.
    arguments = {"drift": -np.eye(4), "diffusion": np.eye(4)}
    arguments[matrix][position] = value
    with pytest.raises(ValueError, match=f"^{matrix} must be finite$"):
        DriftModel(**arguments)


def test_build_drift_rejects_an_overflowing_spec():
    # 2 pi 1e308 overflows to inf in the drift's angular frequencies.
    spec = SystemSpec(omega_a=1e308, delta=-1e308, g=1.0, gamma0=1.0,
                      kappa0=1.0, n_a0=0.0, n_b0=0.0)
    with pytest.raises(ValueError, match="^drift must be finite$"):
        build_drift(spec)


def counted(monkeypatch, module, name):
    """A list that gets one entry per call of ``module.name``."""
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_sweep_point_computes_each_quantity_once(monkeypatch):
    # A point and a grid alike make one eig (the models' reports), one
    # solve over the Hurwitz points, two eigvalsh (the diffusions' PSD
    # check and the states' physicality verdicts) and no kron: the rate,
    # the Hurwitz check and the occupation share what they read.  From red
    # to blue detuning the blue points are not Hurwitz and stay out of the
    # solve.
    grid = np.linspace(-1.5, 1.5, 11) * BENCHMARK.omega_a
    hurwitz = sum(stability(build_drift(replace(BENCHMARK, delta=delta))).hurwitz
                  for delta in grid.tolist())
    assert 0 < hurwitz < grid.size
    eig = counted(monkeypatch, np.linalg, "eig")
    solve = counted(monkeypatch, np.linalg, "solve")
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    kron = counted(monkeypatch, np, "kron")

    def stacks():
        shapes = [[args[0].shape for args in calls]
                  for calls in (eig, solve, eigvalsh, kron)]
        for calls in (eig, solve, eigvalsh):
            calls.clear()
        return shapes

    row = sweep.solve_point(BENCHMARK, ("gaussian",), None, None, 0.0)
    assert row.occupations["gaussian"] is not None
    assert stacks() == [[(1, 4, 4)], [(1, 16, 16)], [(1, 4, 4)] * 2, []]
    rows = sweep.run_sweep(sweep.SweepSpec(
        base=BENCHMARK, parameter="delta", grid=grid, solvers=("gaussian",)))
    assert sum(r.occupations["gaussian"] is not None for r in rows) == hurwitz
    assert stacks() == [[(11, 4, 4)], [(hurwitz, 16, 16)],
                        [(11, 4, 4), (hurwitz, 4, 4)], []]
    model = build_drift(BENCHMARK)
    assert stability(model) is stability(model)
    for array in (model.drift, model.diffusion,
                  stability(model).eigenvalues):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_drift_model_copies_its_inputs():
    # The cached report stays true to the matrices: the model keeps copies,
    # and the caller's arrays stay writable.
    drift, diffusion = -np.eye(4), np.eye(4)
    model = DriftModel(drift=drift, diffusion=diffusion)
    before = stability(model).margin
    drift[0, 0] = 1.0
    assert drift.flags.writeable
    assert stability(model).margin == before == -1.0


def test_state_physicality_verdict_is_shared(monkeypatch):
    state = steady_state(build_drift(SCALED))
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    assert occupation(state, "a") == occupation(state, "a")
    assert occupation(state, "b") >= 0
    assert eigvalsh == []
    assert not state.covariance.flags.writeable
    assert not state.mean.flags.writeable


def test_evolve_command_checks_the_trajectory_once(tmp_path, monkeypatch):
    # Both modes' occupations share the trajectory's one batched verdict
    # over its 400 covariances.
    config = tmp_path / "sys.ini"
    config.write_text("[system]\nomega_a = 20 MHz\ndelta = -20 MHz\n"
                      "g = 2 MHz\ngamma0 = 2 kHz\nkappa0 = 4 MHz\nn_a0 = 20\n")
    eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
    assert cli.main(["evolve", "--config", str(config), "--duration", "5e-7",
                     "--out", str(tmp_path / "trajectory.csv")]) == 0
    stacks = [args[0].shape for args in eigvalsh if args[0].ndim == 3]
    assert stacks.count((400, 4, 4)) == 1


def test_trajectory_copies_its_inputs():
    means, covariances = np.zeros((2, 4)), np.stack([np.eye(4)] * 2)
    trajectory = Trajectory(times=np.arange(2.0), means=means,
                            covariances=covariances)
    covariances[1, 0, 0] = 0.0
    assert trajectory.covariances[1, 0, 0] == 1.0
    for array in (trajectory.times, trajectory.means, trajectory.covariances):
        assert not array.flags.writeable
    assert trajectory._violation is trajectory._violation is None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.one_of(st.just(0.0), st.just(-0.0),
              st.floats(-1e6, 1e6, allow_subnormal=False)),
    min_size=n * n, max_size=n * n)))
def test_moment_operator_is_the_kronecker_sum(entries):
    n = math.isqrt(len(entries))
    a = np.array(entries).reshape(n, n)
    identity = np.eye(n)
    k = gaussian._moment_operator(a)
    kron = np.kron(a, identity) + np.kron(identity, a)
    assert np.array_equal(k, kron)
    assert np.array_equal(np.signbit(k), np.signbit(kron))
    v = np.arange(1.0, n * n + 1).reshape(n, n) / n
    scale = np.abs(a).max() * np.abs(v).max() * n
    assert np.allclose(k @ v.ravel(), (a @ v + v @ a.T).ravel(),
                       rtol=0, atol=1e-13 * scale)


def test_steady_state_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="modcool.gaussian"):
        steady_state(build_drift(BENCHMARK))
    (message,) = [r.getMessage() for r in caplog.records
                  if r.name == "modcool.gaussian"]
    fields = dict(item.split("=") for item in message.split(": ")[1].split())
    assert message.startswith("steady state: ")
    assert float(fields["backward_error"]) <= gaussian.LYAPUNOV_RTOL
    assert float(fields["margin"]) == pytest.approx(
        stability(build_drift(BENCHMARK)).margin, rel=1e-3)
    assert fields["physical"] == "True"


def test_steady_state_is_silent_by_default(caplog):
    steady_state(build_drift(BENCHMARK))
    assert [r for r in caplog.records if r.name == "modcool.gaussian"] == []


def test_drift_uncoupled_is_block_diagonal():
    a = build_drift(replace(BENCHMARK, g=0.0)).drift
    assert np.all(a[:2, 2:] == 0.0)
    assert np.all(a[2:, :2] == 0.0)


def test_drift_closed_system_is_symplectic_generator():
    spec = SystemSpec(omega_a=1.0, delta=-0.7, g=0.0, gamma0=0.0, kappa0=0.0,
                      n_a0=0.0, n_b0=0.0)
    a = build_drift(spec).drift
    assert np.max(np.abs(a @ SYMPLECTIC_FORM + SYMPLECTIC_FORM @ a.T)) == 0.0


def test_steady_state_detailed_balance_at_zero_coupling():
    spec = replace(BENCHMARK, g=0.0, n_b0=0.3)
    state = steady_state(build_drift(spec))
    assert occupation(state, "a") == pytest.approx(spec.n_a0, abs=1e-10)
    assert occupation(state, "b") == pytest.approx(spec.n_b0, abs=1e-10)


def test_steady_state_weak_coupling_matches_rate_balance():
    weak = replace(BENCHMARK, g=0.2e6)
    state = steady_state(build_drift(weak))
    predicted = analytic.final_occupation(weak)
    assert predicted == pytest.approx(0.957, abs=1e-3)
    assert occupation(state, "a") == pytest.approx(predicted, rel=0.05)


def test_steady_state_benchmark_regression():
    # Exact stationary occupation of the full linear model at g/kappa0 = 0.5,
    # pinned after cross-validation against the Fock-space master equation
    # (the two agree to 1e-12; the weak-coupling rate balance sits 2.2x lower
    # at this coupling).
    state = steady_state(build_drift(BENCHMARK))
    assert occupation(state, "a") == pytest.approx(0.0278177, rel=1e-4)


def test_lyapunov_residual_contract():
    rng = np.random.default_rng(3)
    count = 0
    while count < 20:
        spec = random_spec(rng)
        model = build_drift(spec)
        if not stability(model).hurwitz:
            continue
        count += 1
        state = steady_state(model)
        v = state.covariance
        residual = model.drift @ v + v @ model.drift.T + model.diffusion
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(
            model.diffusion)
        assert physicality_margin(state) >= -1e-9


def relative_error(spec):
    model = build_drift(spec)
    exact = exact_occupation(model)
    return abs(occupation(steady_state(model), "a") - exact) / exact


def test_steady_state_is_exact_where_rates_are_far_apart():
    # gamma0 is 2.7e-12 of omega_a: a Bartels-Stewart solve returned n_a
    # 7.9e-4 low here while meeting a residual test relative to ||D||.
    assert relative_error(FAR_APART) <= 1e-12


def test_steady_state_matches_exact_solve_on_realistic_draws():
    # Log-uniform over gamma0/omega_a 1e-8..1e-3, kappa0/omega_a 0.01..3,
    # g/kappa0 1e-4..0.2, n_a0 1..1e4 and red detuning 0.3..3 omega_a.
    rng = np.random.default_rng(0)
    errors = []
    while len(errors) < 60:
        kappa0 = 10 ** rng.uniform(-2, math.log10(3))
        spec = SystemSpec(
            omega_a=1.0, delta=-10 ** rng.uniform(math.log10(0.3),
                                                  math.log10(3)),
            g=kappa0 * 10 ** rng.uniform(-4, math.log10(0.2)),
            gamma0=10 ** rng.uniform(-8, -3), kappa0=kappa0,
            n_a0=10 ** rng.uniform(0, 4), n_b0=0.0)
        if stability(build_drift(spec)).hurwitz:
            errors.append(relative_error(spec))
    assert max(errors) <= 1e-9


def test_steady_state_keeps_digits_with_rates_seven_decades_apart():
    # The residual's rounding floor, about eps ||A|| ||V||, is far above
    # 1e-10 ||D|| here; the solve is accurate all the same.
    spec = SystemSpec(omega_a=20e6, delta=-25e6, g=100, gamma0=2,
                      kappa0=2e3, n_a0=2000)
    state = steady_state(build_drift(spec))
    assert occupation(state, "a") == pytest.approx(
        analytic.final_occupation(spec), rel=1e-8)


def test_steady_state_rejects_a_large_backward_error(monkeypatch):
    # A doubled moment operator returns V / 2, whose residual is D / 2.
    operator = gaussian._moment_operator
    monkeypatch.setattr(gaussian, "_moment_operator",
                        lambda drift: 2.0 * operator(drift))
    with pytest.raises(RuntimeError, match="backward error"):
        steady_state(build_drift(SCALED))


def test_steady_state_requires_hurwitz():
    blue = replace(BENCHMARK, delta=+20e6)
    with pytest.raises(StabilityError) as err:
        steady_state(build_drift(blue))
    assert "eigenvalue" in str(err.value)


def test_stability_report():
    report = stability(build_drift(BENCHMARK))
    assert report.hurwitz
    assert report.eigenvalues.shape == (4,)
    closed = SystemSpec(omega_a=1.0, delta=-1.0, g=0.0, gamma0=0.0,
                        kappa0=0.0, n_a0=0, n_b0=0)
    report_closed = stability(build_drift(closed))
    assert not report_closed.hurwitz
    assert np.all(report_closed.eigenvalues.real == 0.0)
    # On the sideband at 2 MHz the slowest eigenmode is half beam, half
    # circuit; weakly coupled far from it, it is the bare beam mode.
    assert stability(build_drift(BENCHMARK)).mechanical_weight == pytest.approx(
        0.5, abs=0.01)
    detuned = replace(BENCHMARK, g=0.2e6, delta=-1.5 * BENCHMARK.omega_a)
    assert stability(build_drift(detuned)).mechanical_weight > 0.99


def test_blue_detuning_instability_sets_in_with_coupling():
    blue = replace(BENCHMARK, delta=+20e6)
    flags = [stability(build_drift(replace(blue, g=g))).hurwitz
             for g in np.logspace(3, 6.5, 30)]
    assert flags[0] is True
    assert flags[-1] is False
    assert any(flags) and not all(flags)


def test_occupation_values():
    assert occupation(thermal_state(0.0, 0.0), "a") == 0.0
    assert occupation(thermal_state(3.2, 0.7), "a") == pytest.approx(3.2)
    assert occupation(thermal_state(3.2, 0.7), "b") == pytest.approx(0.7)
    displaced = CovarianceState(mean=np.array([1.0, 1.0, 0.0, 0.0]),
                                covariance=np.diag([0.5] * 4))
    assert occupation(displaced, "a") == pytest.approx(1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mean", "covariance"])
def test_covariance_state_rejects_non_finite(field, value):
    arguments = {"mean": np.zeros(4), "covariance": np.diag([0.5] * 4)}
    arguments[field][0] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CovarianceState(**arguments)


def test_occupation_rejects_unphysical_covariance():
    squeezed_below_vacuum = CovarianceState(
        mean=np.zeros(4), covariance=np.diag([0.1, 0.1, 0.5, 0.5]))
    with pytest.raises(ValueError):
        occupation(squeezed_below_vacuum, "a")


def test_evolve_fixed_point_is_stationary():
    model = build_drift(SCALED)
    fixed = steady_state(model)
    start = CovarianceState(mean=fixed.mean, covariance=fixed.covariance)
    trajectory = evolve(model, start, duration=10.0 / SCALED.gamma0 / TWO_PI,
                        num_points=60)
    drift = np.abs(trajectory.occupations("a") - occupation(fixed, "a"))
    assert np.max(drift) < 1e-9


def test_evolve_decays_to_steady_state_with_monotone_envelope():
    model = build_drift(BENCHMARK)
    report = stability(model)
    duration = 20.0 / np.min(np.abs(report.eigenvalues.real))
    trajectory = evolve(model, thermal_state(20.0, 0.0), duration,
                        num_points=400)
    final = trajectory.occupations("a")[-1]
    target = occupation(steady_state(model), "a")
    assert final == pytest.approx(target, abs=1e-6)
    # windowed maxima of the occupation must decrease until the floor
    n = trajectory.occupations("a")
    windows = [n[i:i + 40].max() for i in range(0, 360, 40)]
    drops = np.diff(windows)
    assert np.all(drops < 1e-9)


def test_evolve_closed_system_conserves_occupations():
    spec = SystemSpec(omega_a=1.0, delta=-1.0, g=0.0, gamma0=0.0, kappa0=0.0,
                      n_a0=0.0, n_b0=0.0)
    model = build_drift(spec)
    start = thermal_state(1.3, 0.4)
    trajectory = evolve(model, start, duration=30.0, num_points=100)
    assert np.max(np.abs(trajectory.occupations("a") - 1.3)) < 1e-6
    assert np.max(np.abs(trajectory.occupations("b") - 0.4)) < 1e-6


def test_evolve_agrees_with_steady_state_on_random_specs():
    rng = np.random.default_rng(42)
    count = 0
    while count < 20:
        spec = random_spec(rng)
        model = build_drift(spec)
        report = stability(model)
        if not report.hurwitz:
            continue
        count += 1
        duration = 20.0 / np.min(np.abs(report.eigenvalues.real))
        trajectory = evolve(model, thermal_state(spec.n_a0, spec.n_b0),
                            duration, num_points=40)
        target = occupation(steady_state(model), "a")
        assert trajectory.occupations("a")[-1] == pytest.approx(target,
                                                                abs=1e-6)
        for m, v in zip(trajectory.means[::13], trajectory.covariances[::13]):
            state = CovarianceState(mean=m, covariance=v)
            assert physicality_margin(state) >= -1e-9


def test_evolve_matches_closed_form_on_hurwitz_specs():
    # For a Hurwitz drift, V(t) = E(t) (V0 - Vinf) E(t)^T + Vinf and
    # m(t) = E(t) m0 with E(t) = expm(A t).
    rng = np.random.default_rng(7)
    count = 0
    while count < 10:
        spec = random_spec(rng)
        model = build_drift(spec)
        report = stability(model)
        if not report.hurwitz:
            continue
        count += 1
        v_inf = steady_state(model).covariance
        start = CovarianceState(
            mean=rng.normal(size=4),
            covariance=thermal_state(float(rng.uniform(0, 5)),
                                     float(rng.uniform(0, 1))).covariance)
        duration = 5.0 / np.min(np.abs(report.eigenvalues.real))
        trajectory = evolve(model, start, duration, num_points=40)
        for t, m, v in zip(trajectory.times, trajectory.means,
                           trajectory.covariances):
            e = expm(model.drift * t)
            v_ref = e @ (start.covariance - v_inf) @ e.T + v_inf
            assert np.max(np.abs(v - v_ref)) <= 1e-9
            assert np.max(np.abs(m - e @ start.mean)) <= 1e-9


@pytest.mark.parametrize("g", [2e6, 1e5])
@pytest.mark.parametrize("duration,num_points", [(1e-3, 20), (3e-2, 400)])
def test_evolve_matches_closed_form_on_coarse_grids(g, duration, num_points):
    # Output steps of 53 and 75 us, where exp(pi kappa0 dt) of the figure
    # parameters is about 1e287 and past overflow: the block exponential
    # must not be taken over a whole step.  The weak coupling leaves the
    # mechanical mode slow, so the step keeps a sizeable E.
    spec = replace(FIGURE_BASE, g=g)
    model = build_drift(spec)
    v_inf = steady_state(model).covariance
    start = CovarianceState(mean=np.array([3.0, -2.0, 1.0, 0.5]),
                            covariance=thermal_state(spec.n_a0,
                                                     spec.n_b0).covariance)
    trajectory = evolve(model, start, duration, num_points=num_points)
    for t, m, v in zip(trajectory.times, trajectory.means,
                       trajectory.covariances):
        e = expm(model.drift * t)
        v_ref = e @ (start.covariance - v_inf) @ e.T + v_inf
        assert np.max(np.abs(v - v_ref)) <= 1e-9 * np.max(np.abs(v_ref))
        assert np.max(np.abs(m - e @ start.mean)) <= 1e-9


def test_evolve_matches_reference_integration_for_unstable_drift():
    # Blue detuning with strong coupling: the drift has an eigenvalue with
    # positive real part, so there is no steady state to relax towards and
    # the exact propagator is checked against a tightly integrated ODE.
    spec = SystemSpec(omega_a=1.0, delta=1.0, g=0.08, gamma0=0.01,
                      kappa0=0.1, n_a0=1.0, n_b0=0.2)
    model = build_drift(spec)
    assert not stability(model).hurwitz
    start = CovarianceState(mean=np.array([0.3, -0.2, 0.1, 0.0]),
                            covariance=thermal_state(1.0, 0.2).covariance)
    duration = 20.0
    trajectory = evolve(model, start, duration, num_points=81)
    a, d = model.drift, model.diffusion

    def rhs(_t, y):
        v = y[4:].reshape(4, 4)
        return np.concatenate([a @ y[:4], (a @ v + v @ a.T + d).ravel()])

    reference = solve_ivp(rhs, (0.0, duration),
                          np.concatenate([start.mean,
                                          start.covariance.ravel()]),
                          method="DOP853", rtol=1e-12, atol=1e-12,
                          t_eval=trajectory.times)
    assert reference.success
    n_ref = np.array([0.5 * (y[4] + y[9] + y[0] ** 2 + y[1] ** 2 - 1.0)
                      for y in reference.y.T])
    n = trajectory.occupations("a")
    assert n[-1] > 10.0 * n[0]
    assert np.max(np.abs(n - n_ref) / n_ref) < 1e-9
    covs = trajectory.covariances.reshape(-1, 16)
    scale = np.max(np.abs(reference.y[4:]), axis=0)
    assert np.max(np.abs(covs - reference.y[4:].T).max(axis=1) / scale) < 1e-9


# Blue detuning, weak coupling: the drift margin is +0.127 1/s, so the
# covariance grows as exp(0.254 t) and soon dwarfs the vacuum variance.
RUNAWAY = SystemSpec(omega_a=1.0, delta=1.0, g=0.05, gamma0=1e-3,
                     kappa0=0.2, n_a0=1.0, n_b0=0.0)


def test_evolve_follows_a_runaway_past_the_rounding_of_its_covariance():
    # At t = 200, ||V||_2 ~ 3e22: the margin of V + i Omega / 2 is rounding
    # of that size, not a violation of the uncertainty bound.
    model = build_drift(RUNAWAY)
    assert stability(model).margin == pytest.approx(0.127, abs=1e-3)
    start = thermal_state(1.0, 0.0)
    trajectory = evolve(model, start, 200.0, num_points=5)
    n_a = trajectory.occupations("a")
    assert np.all(np.isfinite(n_a)) and n_a[-1] > 1e21
    # V(t) = e^{At} (V0 - X) e^{A^T t} + X with A X + X A^T + D = 0, which
    # has a solution (no two drift eigenvalues sum to zero) though the drift
    # is not Hurwitz.
    x = solve_continuous_lyapunov(model.drift, -model.diffusion)
    for t, n in zip(trajectory.times, n_a):
        e = expm(model.drift * t)
        v = e @ (start.covariance - x) @ e.T + x
        assert n == pytest.approx(0.5 * (v[0, 0] + v[1, 1] - 1.0), rel=1e-9)


def test_evolve_overflow_is_an_arithmetic_error_without_warnings():
    model = build_drift(RUNAWAY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError):
            evolve(model, thermal_state(1.0, 0.0), 1e4, num_points=5)


def test_rounding_floor_still_rejects_squeezing_below_vacuum():
    # A hot circuit mode raises the floor only to 1.4e-8, far short of the
    # -0.4 by which the squeezed beam breaks the bound.
    squeezed = np.diag([0.1, 0.1, 1e6, 1e6])
    with pytest.raises(ValueError, match="uncertainty bound by -4"):
        occupation(CovarianceState(mean=np.zeros(4), covariance=squeezed), "a")
    trajectory = Trajectory(times=np.arange(2.0), means=np.zeros((2, 4)),
                            covariances=np.stack([np.diag([0.5] * 4), squeezed]))
    with pytest.raises(ValueError, match="uncertainty bound"):
        trajectory.occupations("b")


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
def test_evolve_rejects_bad_duration(duration):
    with pytest.raises(ValueError, match="duration"):
        evolve(build_drift(SCALED), thermal_state(1.0, 0.0), duration)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["n_a", "n_b"])
def test_thermal_state_rejects_non_finite(name, value):
    arguments = {"n_a": 1.0, "n_b": 0.0, name: value}
    with pytest.raises(ValueError, match="must be finite"):
        thermal_state(**arguments)


def test_frequency_scaling_leaves_covariance_invariant():
    spec = SystemSpec(omega_a=1.0, delta=-1.0, g=0.1, gamma0=0.01,
                      kappa0=0.2, n_a0=2.0, n_b0=0.1)
    scaled10 = SystemSpec(omega_a=10.0, delta=-10.0, g=1.0, gamma0=0.1,
                          kappa0=2.0, n_a0=2.0, n_b0=0.1)
    v1 = steady_state(build_drift(spec)).covariance
    v2 = steady_state(build_drift(scaled10)).covariance
    assert np.max(np.abs(v1 - v2)) < 1e-12


def spectral_rate(spec):
    """Energy relaxation rate (Hz) of the slowest drift eigenvalue."""
    return -2.0 * stability(build_drift(spec)).margin / TWO_PI


def test_spectral_rate_scales_with_frequency():
    spec = SystemSpec(omega_a=1.0, delta=-1.0, g=0.05, gamma0=1e-3,
                      kappa0=0.2, n_a0=2.0, n_b0=0.0)
    scaled10 = SystemSpec(omega_a=10.0, delta=-10.0, g=0.5, gamma0=1e-2,
                          kappa0=2.0, n_a0=2.0, n_b0=0.0)
    assert spectral_rate(scaled10) == pytest.approx(10.0 * spectral_rate(spec),
                                                    rel=1e-12)


def test_spectral_rate_weak_coupling_matches_rate_formula():
    weak = replace(BENCHMARK, g=0.2e6)
    assert spectral_rate(weak) == pytest.approx(
        analytic.cooling_rate(weak) + weak.gamma0, rel=0.02)


def test_spectral_rate_is_bare_damping_at_zero_coupling():
    spec = SystemSpec(omega_a=1.0, delta=-1.0, g=0.0, gamma0=0.01,
                      kappa0=0.2, n_a0=1.0, n_b0=0.0)
    assert spectral_rate(spec) == pytest.approx(spec.gamma0, rel=1e-12)


def test_import_leaves_optimize_and_integrate_unloaded():
    # Rates come from the drift spectrum and trajectories from matrix
    # exponentials, so modcool needs neither a curve fit nor an integrator.
    code = ("import sys, modcool; print(sorted(m for m in sys.modules "
            "if m in ('scipy.optimize', 'scipy.integrate')))")
    env = {**os.environ,
           "PYTHONPATH": str(Path(modcool.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
