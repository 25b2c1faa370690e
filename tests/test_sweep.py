import math
from dataclasses import replace

import numpy as np
import pytest

from modcool import SystemSpec, analytic, fock, gaussian, sweep
from modcool.sweep import (
    ConfigError,
    SweepSpec,
    compare,
    load_config,
    parse_grid,
    parse_quantity,
    render_csv,
    rescale_for_oracle,
    rescale_sweep,
    run_sweep,
)

from conftest import BENCHMARK, SCALED

MINIMAL_CONFIG = """
[system]
omega_a = 20 MHz
delta = -20 MHz
g = 2 MHz
gamma0 = 2 kHz
kappa0 = 4 MHz
n_a0 = 20

[sweep]
parameter = delta
grid = -30 MHz : -10 MHz : 201
solvers = analytic, analytic-rwa
"""

CIRCUIT_CONFIG = """
[circuit]
c_x0 = 0.6 fF
c_sigma0 = 2.5 fF
inductance = 180.1266 nH
d0 = 100 nm
delta_x0 = 2.8023e-4 nm
v_c = 25 mV
resistance = 1.59155e7
t0 = 20 mK

[mechanical]
frequency = 20 MHz
damping = 2 kHz

[drive]
frequency = 7479998931.948816 Hz

[sweep]
parameter = g
grid = 0.5 MHz : 2 MHz : 4
solvers = analytic
"""


def test_parse_quantity_units():
    assert parse_quantity("2 MHz") == 2e6
    assert parse_quantity("2000 kHz") == 2e6
    assert parse_quantity("-20MHz") == -2e7
    assert parse_quantity("20 mK") == pytest.approx(0.020, rel=1e-15)
    assert parse_quantity("25 mV") == pytest.approx(0.025, rel=1e-15)
    assert parse_quantity("0.6 fF") == pytest.approx(0.6e-15, rel=1e-15)
    assert parse_quantity("180 nH") == pytest.approx(180e-9, rel=1e-15)
    assert parse_quantity("100 nm") == pytest.approx(100e-9, rel=1e-15)
    assert parse_quantity("1.5e-8") == 1.5e-8
    with pytest.raises(ConfigError):
        parse_quantity("2 parsec")
    with pytest.raises(ConfigError):
        parse_quantity("not-a-number")


def test_parse_config_minimal():
    spec = load_config(MINIMAL_CONFIG).sweep
    assert spec.base == replace(BENCHMARK, n_b0=0.0)
    assert spec.parameter == "delta"
    assert spec.grid.size == 201
    assert spec.grid[0] == -30e6 and spec.grid[-1] == -10e6
    assert spec.solvers == ("analytic", "analytic-rwa")


def test_parse_config_unit_canonicalisation():
    other = MINIMAL_CONFIG.replace("g = 2 MHz", "g = 2000 kHz")
    assert load_config(other).base == load_config(MINIMAL_CONFIG).base


def test_parse_config_circuit_route():
    spec = load_config(CIRCUIT_CONFIG).sweep
    assert spec.base.omega_a == 20e6
    assert spec.base.delta == pytest.approx(-20e6, rel=1e-9)
    assert spec.base.g == pytest.approx(2e6, rel=1e-3)
    assert spec.base.kappa0 == pytest.approx(4e6, rel=1e-4)
    assert spec.base.n_a0 == pytest.approx(20.34, abs=0.01)
    assert spec.omega_b == pytest.approx(7.5e9, rel=1e-6)


def test_parse_config_rejects_unknown_key():
    bad = MINIMAL_CONFIG.replace("n_a0 = 20", "n_a0 = 20\nflux = 3")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "flux" in str(err.value)


def test_parse_config_rejects_missing_key():
    bad = MINIMAL_CONFIG.replace("kappa0 = 4 MHz\n", "")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "kappa0" in str(err.value)


def test_parse_grid():
    grid = parse_grid("-30 MHz : -10 MHz : 3")
    assert np.allclose(grid, [-30e6, -20e6, -10e6])
    assert parse_grid("5 MHz:5 MHz:1").tolist() == [5e6]
    with pytest.raises(ConfigError):
        parse_grid("1 MHz : 2 MHz : 0")
    with pytest.raises(ConfigError):
        parse_grid("1 MHz : 1 MHz : 5")
    with pytest.raises(ConfigError):
        parse_grid("1 MHz : 2 MHz")


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="delta", grid=np.array([]),
                  solvers=("analytic",))
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="delta",
                  grid=np.array([1.0, 3.0, 2.0]), solvers=("analytic",))
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="voltage",
                  grid=np.array([1.0]), solvers=("analytic",))
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="delta", grid=np.array([1.0]),
                  solvers=("oracle",))


@pytest.mark.parametrize("parameter, grid", [
    ("delta", [math.inf]),
    ("delta", [math.nan]),
    ("delta", [-30e6, math.inf]),
    ("g", [-1e6, 1e6]),
    ("g", [1e6, -1e6]),
    ("kappa0", [-math.inf]),
    ("gamma0", [1e3, -1e3]),
    ("n_a0", [-1.0, 0.0, 1.0]),
], ids=["inf", "nan", "inf-end", "negative-g-start", "negative-g-end",
        "minus-inf-kappa0", "negative-gamma0", "negative-n_a0"])
def test_sweep_spec_rejects_bad_grid_values(parameter, grid):
    with pytest.raises(ConfigError, match="sweep grid value"):
        SweepSpec(base=BENCHMARK, parameter=parameter, grid=np.array(grid),
                  solvers=("analytic",))


def test_run_sweep_single_point_matches_direct_calls():
    spec = SweepSpec(base=BENCHMARK, parameter="delta",
                     grid=np.array([-20e6]), solvers=("analytic",))
    row = run_sweep(spec)[0]
    assert row.rates["analytic"] == analytic.cooling_rate(BENCHMARK)
    assert row.occupations["analytic"] == analytic.final_occupation(BENCHMARK)
    assert row.diagnostics["analytic"] == ""


def test_run_sweep_curve_extrema():
    grid = np.linspace(-1.5, -0.5, 201) * BENCHMARK.omega_a
    spec = SweepSpec(base=BENCHMARK, parameter="delta", grid=grid,
                     solvers=("analytic", "analytic-rwa"))
    rows = run_sweep(spec)
    occupations = np.array([r.occupations["analytic"] for r in rows])
    rates = np.array([r.rates["analytic"] for r in rows])
    arg_min = int(np.argmin(occupations))
    assert abs(abs(grid[arg_min]) / BENCHMARK.omega_a - 1.0) <= 0.05
    assert occupations[arg_min] == pytest.approx(0.0125187, abs=1e-4)
    signs = np.sign(np.diff(occupations))
    assert int(np.sum((signs[:-1] < 0) & (signs[1:] > 0))) == 1
    arg_max = int(np.argmax(rates))
    assert abs(abs(grid[arg_max]) / BENCHMARK.omega_a - 1.0) <= 0.05
    assert rates[arg_max] == pytest.approx(
        analytic.resonant_cooling_rate(BENCHMARK), rel=5e-3)


def test_run_sweep_isolates_row_failures():
    # g = 0 breaks the rwa formula on every row but must not stop the sweep
    base = replace(BENCHMARK, g=0.0)
    spec = SweepSpec(base=base, parameter="delta",
                     grid=np.array([-25e6, -20e6]),
                     solvers=("analytic", "analytic-rwa"))
    rows = run_sweep(spec)
    assert len(rows) == 2
    for row in rows:
        assert row.occupations["analytic"] == pytest.approx(20.0)
        assert row.occupations["analytic-rwa"] is None
        assert row.diagnostics["analytic-rwa"] != ""


def test_run_sweep_gaussian_and_semiclassical():
    grid = np.array([-22e6, -20e6, -18e6])
    spec = SweepSpec(base=BENCHMARK, parameter="delta", grid=grid,
                     solvers=("gaussian", "semiclassical"), omega_b=7.5e9)
    rows = run_sweep(spec)
    for row in rows:
        assert row.occupations["gaussian"] is not None
        assert row.rates["semiclassical"] > 0
    centre = rows[1]
    assert centre.rates["semiclassical"] == pytest.approx(
        4 * BENCHMARK.g ** 2 / BENCHMARK.kappa0, rel=1e-9)


def _drift_spectrum_rate(spec: SystemSpec) -> float:
    """-2 max Re eig(A) / 2 pi of a quadrature drift built independently."""
    w_a, d, g, ga, ka = (2 * math.pi * x for x in (
        spec.omega_a, spec.delta, spec.g, spec.gamma0, spec.kappa0))
    drift = np.array([
        [-ga / 2, w_a, 0, 0],
        [-w_a, -ga / 2, -2 * g, 0],
        [0, 0, -ka / 2, -d],
        [-2 * g, 0, d, -ka / 2],
    ])
    return -2 * float(np.max(np.linalg.eigvals(drift).real)) / (2 * math.pi)


def _gaussian_rows(base: SystemSpec, grid) -> list:
    return run_sweep(SweepSpec(base=base, parameter="delta",
                               grid=np.asarray(grid, dtype=float),
                               solvers=("gaussian",)))


def test_gaussian_sweep_rate_is_the_drift_spectrum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep must not propagate")

    monkeypatch.setattr(gaussian, "evolve", refuse)
    grid = np.linspace(-1.5, -0.5, 11) * BENCHMARK.omega_a
    for row in _gaussian_rows(BENCHMARK, grid):
        want = _drift_spectrum_rate(replace(BENCHMARK, delta=row.value))
        assert row.rates["gaussian"] == pytest.approx(want, rel=1e-12)
        assert row.diagnostics["gaussian"].startswith(
            "drift spectrum; mechanical weight ")


def test_gaussian_sweep_rate_on_the_hybridised_sideband():
    # Beam and circuit share the slowest eigenmode equally; both normal
    # modes decay at (kappa0 + gamma0) / 4, so the energy at twice that.
    row = _gaussian_rows(BENCHMARK, [-BENCHMARK.omega_a])[0]
    assert row.rates["gaussian"] == pytest.approx(
        (BENCHMARK.kappa0 + BENCHMARK.gamma0) / 2, rel=1e-9)
    assert row.diagnostics["gaussian"] == ("drift spectrum; "
                                           "mechanical weight 0.500")


@pytest.mark.parametrize("g, detuning", [
    (2e6, -1.5), (2e6, -1.3), (2e6, -0.7), (2e6, -0.5), (0.2e6, -1.0),
])
def test_gaussian_sweep_rate_matches_the_trace_log_slope(g, detuning):
    # Late in the relaxation only the slowest drift mode is left, so
    # log(n(t) - n_inf) falls with slope -2 pi rate.
    spec = replace(BENCHMARK, g=g, delta=detuning * BENCHMARK.omega_a)
    rate = _gaussian_rows(spec, [spec.delta])[0].rates["gaussian"]
    duration = 3 / (2 * math.pi * spec.kappa0) + 6.9 / (2 * math.pi * rate)
    model = gaussian.build_drift(spec)
    trajectory = gaussian.evolve(model, gaussian.thermal_state(spec.n_a0, 0.0),
                                 duration, num_points=800)
    excess = (trajectory.occupations("a")
              - gaussian.occupation(gaussian.steady_state(model), "a"))
    late = trajectory.times >= duration / 2
    slope = np.polyfit(trajectory.times[late], np.log(excess[late]), 1)[0]
    assert rate == pytest.approx(-slope / (2 * math.pi), rel=1e-4)


def test_run_sweep_with_oracle_solver(scaled):
    spec = SweepSpec(base=scaled, parameter="g",
                     grid=np.array([0.01, 0.02]),
                     solvers=("analytic", "oracle"),
                     oracle_config=fock.OracleConfig(dims=(12, 6)))
    rows = run_sweep(spec)
    for row in rows:
        assert row.occupations["oracle"] is not None
        assert "tail" in row.diagnostics["oracle"]
    assert rows[1].occupations["oracle"] == pytest.approx(0.118194, rel=1e-4)


def test_render_csv_layout_and_missing_values():
    base = replace(BENCHMARK, g=0.0)
    spec = SweepSpec(base=base, parameter="delta",
                     grid=np.array([-25e6, -20e6, -15e6]),
                     solvers=("analytic", "analytic-rwa"))
    text = render_csv(run_sweep(spec), spec.solvers)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header == ["swept_value", "gamma_c_analytic", "n_f_analytic",
                      "gamma_c_analytic-rwa", "n_f_analytic-rwa",
                      "diag_analytic", "diag_analytic-rwa"]
    first = lines[1].split(",")
    assert first[3] == "" and first[4] == ""  # absent rwa values ...
    assert len(first[6]) > 0                  # ... carry a diagnostic


def test_csv_determinism():
    spec = load_config(MINIMAL_CONFIG).sweep
    assert (render_csv(run_sweep(spec), spec.solvers)
            == render_csv(run_sweep(spec), spec.solvers))


def test_parse_system_config_without_sweep_section():
    base, omega_b, oracle_config, _, _ = load_config("""
[system]
omega_a = 1 Hz
delta = -1 Hz
g = 0.02 Hz
gamma0 = 1e-3 Hz
kappa0 = 0.2 Hz
n_a0 = 1

[oracle]
dims = 12, 6
""")
    assert base == SCALED
    assert omega_b is None
    assert oracle_config == fock.OracleConfig(dims=(12, 6))


def test_rescale_for_oracle():
    scaled = rescale_for_oracle(BENCHMARK)
    assert scaled.omega_a == 1.0
    assert scaled.delta == -1.0
    assert scaled.g == pytest.approx(0.1)
    assert scaled.kappa0 == pytest.approx(0.2)
    assert scaled.n_a0 == 1.0
    # occupations are scale-invariant, so closed forms must agree after
    # undoing the bath cap through affinity in n_a0
    full = analytic.final_occupation(BENCHMARK)
    floor = analytic.final_occupation(replace(BENCHMARK, n_a0=0.0))
    unit = analytic.final_occupation(replace(scaled, n_a0=1.0))
    assert floor + (unit - analytic.final_occupation(
        replace(scaled, n_a0=0.0))) * BENCHMARK.n_a0 == pytest.approx(
        full, rel=1e-12)


def test_rescale_sweep():
    spec = SweepSpec(base=BENCHMARK, parameter="g",
                     grid=np.array([1e6, 2e6]), solvers=("analytic",),
                     omega_b=7.5e9)
    scaled = rescale_sweep(spec)
    assert scaled.base == rescale_for_oracle(BENCHMARK)
    np.testing.assert_allclose(scaled.grid, [0.05, 0.1], rtol=1e-15)
    assert scaled.omega_b is None
    bath = replace(spec, parameter="n_a0", grid=np.array([0.5, 4.0]))
    assert rescale_sweep(bath).grid.tolist() == [0.5, 4.0]


def test_compare_report(scaled):
    report = compare(scaled, fock.OracleConfig(dims=(12, 6)))
    occ = report.occupations
    assert occ["oracle-full"] == pytest.approx(occ["gaussian"], rel=0.01)
    assert occ["analytic"] == pytest.approx(0.11358, abs=1e-4)
    assert occ["analytic-rwa"] == pytest.approx(0.13, abs=1e-6)
    assert report.backaction_gap == pytest.approx(report.backaction_floor,
                                                  rel=0.25)
    assert report.tails.ok
    text = report.render()
    assert "oracle-full" in text and "relative difference" in text


def test_compare_builds_and_factors_the_rwa_model_once(scaled, monkeypatch):
    builds, factors = [], []
    liouvillian, splu = fock._liouvillian, fock.splu

    def counted_liouvillian(spec, config):
        builds.append(config.include_counter_rotating)
        return liouvillian(spec, config)

    def counted_splu(matrix, **kwargs):
        factors.append(matrix.shape)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(fock, "_liouvillian", counted_liouvillian)
    monkeypatch.setattr(fock, "splu", counted_splu)
    report = compare(scaled, fock.OracleConfig(dims=(8, 4)))
    assert sorted(builds) == [False, True]
    # One factor per parity sector of the RWA model; its even factor is the
    # preconditioner of the full model too.
    assert factors == [(512, 512), (512, 512)]
    assert report.backaction_gap > 0


def test_compare_all_solvers_collapse_at_zero_coupling():
    spec = SystemSpec(omega_a=1.0, delta=-1.0, g=0.0, gamma0=0.01,
                      kappa0=0.2, n_a0=0.5, n_b0=0.0)
    occ = {}
    occ["analytic"] = analytic.final_occupation(spec)
    state = fock.steady_state(
        fock.build_generator(spec, fock.OracleConfig(dims=(16, 4))),
        check_unique=False)
    occ["oracle"] = fock.mode_occupation(state, "a")
    from modcool import gaussian
    occ["gaussian"] = gaussian.occupation(
        gaussian.steady_state(gaussian.build_drift(spec)), "a")
    for value in occ.values():
        assert value == pytest.approx(spec.n_a0, abs=1e-5)
