import csv
import hashlib
import io
import logging
import math
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modcool import ModeParams, SystemSpec, analytic, cli, fock, gaussian, sweep
from modcool.model import build_system, lc_frequency
from modcool.sweep import (
    ConfigError,
    SweepSpec,
    compare,
    load_config,
    parse_grid,
    parse_quantity,
    render_csv,
    run_sweep,
)

from conftest import BENCHMARK, SCALED, benchmark_circuit

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
    assert parse_quantity("2 MHz", "Hz") == 2e6
    assert parse_quantity("2000 kHz", "Hz") == 2e6
    assert parse_quantity("-20MHz", "Hz") == -2e7
    assert parse_quantity("20 mK", "K") == pytest.approx(0.020, rel=1e-15)
    assert parse_quantity("25 mV", "V") == pytest.approx(0.025, rel=1e-15)
    assert parse_quantity("0.6 fF", "F") == pytest.approx(0.6e-15, rel=1e-15)
    assert parse_quantity("180 nH", "H") == pytest.approx(180e-9, rel=1e-15)
    assert parse_quantity("100 nm", "m") == pytest.approx(100e-9, rel=1e-15)
    assert parse_quantity("1.5e-8", "m") == 1.5e-8
    assert parse_quantity("1.59155e7", "ohm") == 1.59155e7
    assert parse_quantity("20", None) == 20.0
    with pytest.raises(ConfigError):
        parse_quantity("2 parsec", "m")
    with pytest.raises(ConfigError):
        parse_quantity("not-a-number", None)
    with pytest.raises(ConfigError, match="'mK' in '20 mK': expected a plain "
                       "number in Hz or a suffix in"):
        parse_quantity("20 mK", "Hz")
    with pytest.raises(ConfigError, match="expected a plain number$"):
        parse_quantity("20 GHz", None)
    with pytest.raises(ConfigError, match="expected a plain number in ohm$"):
        parse_quantity("16 MHz", "ohm")


@pytest.mark.parametrize("old, new", [
    ("omega_a = 20 MHz", "omega_a = 20 mK"),
    ("g = 2 MHz", "g = 2 mV"),
    ("n_a0 = 20", "n_a0 = 20 GHz"),
    ("parameter = delta\ngrid = -30 MHz : -10 MHz : 201",
     "parameter = n_a0\ngrid = 1 MHz : 2 MHz : 3"),
], ids=["temperature-as-omega_a", "voltage-as-g", "frequency-as-n_a0",
        "frequency-grid-for-n_a0"])
def test_config_rejects_a_unit_of_another_dimension(old, new):
    assert old in MINIMAL_CONFIG
    with pytest.raises(ConfigError, match="expected a plain number"):
        load_config(MINIMAL_CONFIG.replace(old, new))


def test_config_units_follow_the_field():
    # dimensionless [oracle] numbers stay plain; [drive] frequency and
    # omega_b are in Hz
    with pytest.raises(ConfigError, match="'kHz' in '1 kHz'"):
        load_config(MINIMAL_CONFIG + "[oracle]\ndims = 8, 4\n"
                    "tail_threshold = 1 kHz\n")
    with pytest.raises(ConfigError, match="'mK' in '7.48 mK'"):
        load_config(CIRCUIT_CONFIG.replace("7479998931.948816 Hz", "7.48 mK"))
    with pytest.raises(ConfigError, match="'nm' in '7.5 nm'"):
        load_config(MINIMAL_CONFIG.replace("n_a0 = 20",
                                           "n_a0 = 20\nomega_b = 7.5 nm"))


@pytest.mark.parametrize("old, new, start", [
    ("omega_a = 20 MHz", "omega_a = 20 mK",
     "[system] omega_a: unit 'mK' in '20 mK'"),
    ("n_a0 = 20", "n_a0 = twenty", "[system] n_a0: cannot parse quantity"),
    ("n_a0 = 20", "n_a0 = 20\nomega_b = 7.5 nm",
     "[system] omega_b: unit 'nm'"),
    ("-30 MHz : -10 MHz", "-30 MHz : -10 mK", "[sweep] grid: unit 'mK'"),
    ("-30 MHz : -10 MHz", "-30 MHz : ten", "[sweep] grid: cannot parse"),
    ("7479998931.948816 Hz", "7.48 mK", "[drive] frequency: unit 'mK'"),
    ("c_x0 = 0.6 fF", "c_x0 = 0,6 fF", "[circuit] c_x0: cannot parse"),
], ids=["unit", "number", "omega_b", "grid-unit", "grid-number",
        "drive-unit", "circuit-number"])
def test_config_value_errors_name_section_and_key(old, new, start):
    config = MINIMAL_CONFIG if old in MINIMAL_CONFIG else CIRCUIT_CONFIG
    assert old in config
    with pytest.raises(ConfigError) as err:
        load_config(config.replace(old, new))
    assert str(err.value).startswith(start)


@pytest.mark.parametrize("dims", ["8", "8, 4, 2", "8, x", "8.5, 4", ""])
def test_config_rejects_malformed_oracle_dims(dims):
    with pytest.raises(ConfigError) as err:
        load_config(MINIMAL_CONFIG + f"[oracle]\ndims = {dims}\n")
    assert str(err.value) == (f"[oracle] dims: oracle dims must be "
                              f"'N_a, N_b', got {dims!r}")


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


# One object per config section with every field set away from its default.
FULL = {
    "system": replace(BENCHMARK, n_b0=0.1),
    "circuit": benchmark_circuit(),
    "mechanical": ModeParams(frequency=20e6, damping=2e3, bath_occupation=3.0),
    "oracle": fock.OracleConfig(dims=(12, 6), include_counter_rotating=False,
                                tail_threshold=1e-4),
}


def ini_section(name, obj, drop=(), **extra):
    """Section ``name`` naming every field of ``obj`` not in ``drop``."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)
              if f.name not in drop} | extra
    lines = [f"[{name}]"]
    for key, value in values.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, tuple):
            value = ", ".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_section(name, obj, drop=(), **extra):
    """What ``load_config`` makes of section ``name`` written from ``obj``,
    and what it should make of it."""
    if name == "system":
        config = load_config(ini_section(name, obj, drop, omega_b=7.5e9,
                                         **extra))
        return (config.base, config.omega_b), (obj, 7.5e9)
    text = ini_section(name, obj, drop, **extra)
    drive = "[drive]\nfrequency = 7.48 GHz\n"
    if name == "mechanical":
        config = load_config(ini_section("circuit", FULL["circuit"]) + text
                             + drive)
        return config.base, build_system(FULL["circuit"], obj, 7.48e9)
    if name == "circuit":
        config = load_config(text + ini_section("mechanical",
                                                FULL["mechanical"]) + drive)
        return config.circuit, obj
    config = load_config(ini_section("system", FULL["system"]) + text)
    return getattr(config, name), obj


@pytest.mark.parametrize("name", FULL)
def test_config_section_round_trips_every_field(name):
    loaded, expected = load_section(name, FULL[name])
    assert loaded == expected


def optional_fields(obj):
    return {f.name for f in fields(obj) if f.default is not MISSING}


@pytest.mark.parametrize(
    "name", [name for name, obj in FULL.items() if optional_fields(obj)])
def test_config_section_omitted_fields_take_class_defaults(name):
    obj = FULL[name]
    optional = optional_fields(obj)
    loaded, expected = load_section(name, type(obj)(**{
        f.name: getattr(obj, f.name) for f in fields(obj)
        if f.name not in optional}), drop=optional)
    assert loaded == expected


def test_config_rejects_the_dropped_component_capacitances():
    text = CIRCUIT_CONFIG.replace("t0 = 20 mK", "t0 = 20 mK\nc_g = 1 fF")
    with pytest.raises(ConfigError) as err:
        load_config(text)
    assert str(err.value) == "unknown key(s) ['c_g'] in section [circuit]"


@pytest.mark.parametrize("name", FULL)
def test_config_section_key_errors(name):
    obj = FULL[name]
    with pytest.raises(ConfigError) as err:
        load_section(name, obj, bogus=1)
    assert str(err.value) == f"unknown key(s) ['bogus'] in section [{name}]"
    for field in fields(obj):
        if field.default is MISSING:
            with pytest.raises(ConfigError) as err:
                load_section(name, obj, drop={field.name})
            assert str(err.value) == (
                f"missing key(s) ['{field.name}'] in section [{name}]")


def test_readme_config_example_loads():
    # one complete config per system route, each with a sweep
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    reduced, circuit = map(load_config, re.findall(r"```ini\n(.*?)```",
                                                   readme, re.DOTALL))
    assert reduced.base == BENCHMARK and reduced.omega_b == 7.5e9
    assert reduced.circuit is None and reduced.sweep.grid.size == 201
    assert reduced.oracle == fock.OracleConfig(dims=(25, 8))
    assert circuit.circuit is not None and circuit.sweep.grid.size == 201
    assert circuit.base == build_system(
        circuit.circuit, ModeParams(frequency=20e6, damping=2e3), 7.48e9)
    assert circuit.omega_b == lc_frequency(circuit.circuit)


@pytest.mark.parametrize("route", [
    CIRCUIT_CONFIG.split("[sweep]")[0],
    "[mechanical]\ndampng = 2 kHz\n[drive]\ncolour = red\n",
    "[drive]\nfrequency = 7.48 GHz\n",
], ids=["whole-circuit-route", "misspelled-mechanical-and-drive",
        "drive-only"])
def test_config_defines_its_system_once(route):
    with pytest.raises(ConfigError) as err:
        load_config(MINIMAL_CONFIG + route)
    message = str(err.value)
    assert "[system]" in message and "[drive]" in message
    assert message.startswith("config defines its system twice")


def test_parse_grid():
    grid = parse_grid("-30 MHz : -10 MHz : 3", "delta")
    assert np.allclose(grid, [-30e6, -20e6, -10e6])
    assert parse_grid("5 MHz:5 MHz:1", "g").tolist() == [5e6]
    assert parse_grid("0 : 40 : 5", "n_a0").tolist() == [0, 10, 20, 30, 40]
    with pytest.raises(ConfigError):
        parse_grid("1 MHz : 2 MHz : 0", "g")
    with pytest.raises(ConfigError):
        parse_grid("1 MHz : 1 MHz : 5", "g")
    with pytest.raises(ConfigError):
        parse_grid("1 MHz : 2 MHz", "g")
    with pytest.raises(ConfigError, match="swept parameter must be one of"):
        parse_grid("1 MHz : 2 MHz : 3", "omega_a")


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="delta", grid=np.array([]),
                  solvers=("analytic",))
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="delta",
                  grid=np.array([1.0, 3.0, 2.0]), solvers=("analytic",))
    # Only the endpoints are checked against SystemSpec, so a NaN inside
    # the grid must fail the monotone check.
    with pytest.raises(ConfigError, match="strictly monotone"):
        SweepSpec(base=BENCHMARK, parameter="g",
                  grid=np.array([1e6, math.nan, 3e6]), solvers=("analytic",))
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="voltage",
                  grid=np.array([1.0]), solvers=("analytic",))
    with pytest.raises(ConfigError):
        SweepSpec(base=BENCHMARK, parameter="delta", grid=np.array([1.0]),
                  solvers=("oracle",))
    # A repeated solver would write its columns twice under one header.
    with pytest.raises(ConfigError, match="'analytic' is listed twice"):
        SweepSpec(base=BENCHMARK, parameter="delta", grid=np.array([1.0]),
                  solvers=("analytic", "gaussian", "analytic"))
    with pytest.raises(ConfigError, match="listed twice"):
        sweep.check_solvers(("analytic", "analytic"), None)


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


# Admissible ranges of each sweepable parameter around BENCHMARK.
SWEPT_RANGES = {"delta": (-25e6, -15e6), "g": (1e6, 3e6),
                "kappa0": (2e6, 6e6), "gamma0": (1e3, 3e3),
                "n_a0": (10.0, 30.0)}


@pytest.mark.parametrize("parameter", sweep.SWEEPABLE)
def test_run_sweep_points_are_the_base_with_the_swept_field_set(
        parameter, monkeypatch):
    grid = np.linspace(*SWEPT_RANGES[parameter], 7)
    solvers = ("analytic", "analytic-rwa", "semiclassical")
    spec = SweepSpec(base=BENCHMARK, parameter=parameter, grid=grid,
                     solvers=solvers, omega_b=7.5e9)
    validated = []
    check = SystemSpec.__post_init__

    def recorded_check(point):
        validated.append(point)
        check(point)

    monkeypatch.setattr(SystemSpec, "__post_init__", recorded_check)
    rows = run_sweep(spec)
    monkeypatch.undo()
    # Every point is a SystemSpec that passed its own checks.
    assert len(validated) == grid.size
    for row, point, value in zip(rows, validated, grid):
        expected = replace(BENCHMARK, **{parameter: float(value)})
        assert point == expected
        assert type(row.value) is float and row.value == value
        assert row == sweep.solve_point(expected, solvers, None, 7.5e9,
                                        float(value))


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


def broken_solver(spec, oracle_config, omega_b):
    raise TypeError("a programming error, not a solver failure")


def test_run_sweep_propagates_programming_errors(monkeypatch):
    monkeypatch.setitem(sweep._SOLVERS, "analytic",
                        sweep._each_point(broken_solver))
    spec = SweepSpec(base=BENCHMARK, parameter="delta",
                     grid=np.array([-20e6]), solvers=("analytic",))
    with pytest.raises(TypeError, match="programming error"):
        run_sweep(spec)


def test_run_sweep_propagates_programming_errors_from_a_stacked_step(
        monkeypatch):
    def broken(*args):
        raise TypeError("a programming error, not a solver failure")

    monkeypatch.setattr(np.linalg, "solve", broken)
    spec = SweepSpec(base=BENCHMARK, parameter="delta",
                     grid=np.array([-22e6, -20e6]), solvers=("gaussian",))
    with pytest.raises(TypeError, match="programming error"):
        run_sweep(spec)


def _marked_eig(spec):
    return gaussian.build_drift(spec).drift


def _marked_solve(spec):
    return gaussian._moment_operator(gaussian.build_drift(spec).drift)


def _marked_eigvalsh(spec):
    state = gaussian.steady_state(gaussian.build_drift(spec))
    return state.covariance + 0.5j * gaussian.SYMPLECTIC_FORM


@pytest.mark.parametrize("step, marked", [
    ("eig", _marked_eig), ("solve", _marked_solve),
    ("eigvalsh", _marked_eigvalsh),
])
def test_a_lapack_failure_fails_only_its_own_row(step, marked, monkeypatch):
    # numpy refuses a whole stack when LAPACK fails on one of its matrices.
    # The Gaussian layer then takes that step one point at a time, so only
    # the failing point's row carries the error.
    grid = np.linspace(-1.5, -0.5, 11) * BENCHMARK.omega_a
    spec = SweepSpec(base=BENCHMARK, parameter="delta", grid=grid,
                     solvers=("analytic", "gaussian"))
    expected = run_sweep(spec)
    matrix = marked(replace(BENCHMARK, delta=grid.tolist()[4]))
    original = getattr(np.linalg, step)

    def failing(stack, *args):
        if any(np.array_equal(m, matrix) for m in stack):
            raise np.linalg.LinAlgError("marked matrix")
        return original(stack, *args)

    monkeypatch.setattr(np.linalg, step, failing)
    rows = run_sweep(spec)
    assert rows[4].rates["gaussian"] is None
    assert rows[4].occupations["gaussian"] is None
    assert rows[4].diagnostics["gaussian"] == "LinAlgError: marked matrix"
    assert rows[4].occupations["analytic"] == expected[4].occupations["analytic"]
    assert rows[:4] + rows[5:] == expected[:4] + expected[5:]


# SHA-256 of render_csv on three grids of the figure system, taken when each
# Gaussian point was solved on its own: the stacked solve must give every
# rate, occupation and diagnostic the same bits.  The second grid crosses to
# blue detuning, where the drift stops being Hurwitz; the third passes
# through the sideband's exceptional point g = (kappa0 - gamma0) / 4.  The
# fourth, an oracle truncated to (3, 2) levels, pins the bytes of a quoted
# field: its TruncationError diagnostics hold commas.
_FIGURE_SOLVERS = ("analytic", "analytic-rwa", "gaussian", "semiclassical")
_EXCEPTIONAL_G = (cli.FIGURE_BASE.kappa0 - cli.FIGURE_BASE.gamma0) / 4


def _figure_sweep(parameter, grid, solvers):
    return SweepSpec(base=cli.FIGURE_BASE, parameter=parameter, grid=grid,
                     solvers=solvers, omega_b=cli.FIGURE_OMEGA_B)


PINNED_SWEEPS = {
    "detuning-sweep": (
        _figure_sweep("delta",
                      np.linspace(-1.5, -0.5, 11) * cli.FIGURE_BASE.omega_a,
                      _FIGURE_SOLVERS),
        "d5d7a29c8618fe2310f3bb4804bb3d5d058c35ac83bf32dff8dd0c43e05655fd"),
    "red-to-blue": (
        _figure_sweep("delta",
                      np.linspace(-1.5, 1.5, 201) * cli.FIGURE_BASE.omega_a,
                      ("analytic", "gaussian")),
        "0198f167373f0680d5917fa725b5ca950090bb8c17daadc65949086156809434"),
    "exceptional-point": (
        _figure_sweep("g", np.linspace(0.5, 1.5, 101) * _EXCEPTIONAL_G,
                      _FIGURE_SOLVERS),
        "d12763ebf872c6fa173d70e3198917479ca92fd16b9be40d8e7fef7f58990d9b"),
    "truncated-oracle": (
        SweepSpec(base=cli.SCALED_BASE, parameter="delta",
                  grid=np.linspace(-1.2, -0.8, 3),
                  solvers=("analytic", "oracle"),
                  oracle_config=fock.OracleConfig(dims=(3, 2))),
        "c75881fd480009d34e164df0b324cbce3fc0e78c38df7e09db4f82cbd6fd262c"),
}


@pytest.mark.parametrize("name", PINNED_SWEEPS)
def test_sweep_bytes_are_pinned(name):
    spec, digest = PINNED_SWEEPS[name]
    if name == "exceptional-point":
        assert _EXCEPTIONAL_G in spec.grid
    rows = run_sweep(spec)
    text = render_csv(rows, spec.solvers)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if name == "red-to-blue":
        notes = [row.diagnostics["gaussian"] for row in rows]
        assert any(note.startswith("StabilityError: drift is not Hurwitz")
                   for note in notes)
        assert any(note.startswith("drift spectrum") for note in notes)
    if name == "truncated-oracle":
        assert all(line.endswith('(threshold 1.0e-06); enlarge dims"')
                   and ',"TruncationError: ' in line
                   for line in text.splitlines()[1:])


def _reference_csv(rows, solvers):
    """The reference: csv.writer on every field of every row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["swept_value"]
    for solver in solvers:
        header += [f"gamma_c_{solver}", f"n_f_{solver}"]
    header += [f"diag_{solver}" for solver in solvers]
    writer.writerow(header)

    def number(value):
        return "" if value is None else f"{value:.17e}"

    for row in rows:
        record = [number(row.value)]
        for solver in solvers:
            record += [number(row.rates.get(solver)),
                       number(row.occupations.get(solver))]
        record += [row.diagnostics.get(solver, "") for solver in solvers]
        writer.writerow(record)
    return buffer.getvalue()


# Every character csv.writer treats specially (a lone "\r" included), and
# plain, blank and non-ASCII ones.
_CSV_TEXT = st.text(alphabet=st.sampled_from(
    [",", '"', "\n", "\r", " ", "a", "Z", "0", ";", "é", "Ω", "\u2028"]),
    max_size=6)


@st.composite
def _sweep_rows(draw):
    solvers = tuple(draw(st.lists(_CSV_TEXT.filter(bool), min_size=1,
                                  max_size=4, unique=True)))
    numbers = st.none() | st.floats()
    rows = [sweep.SweepRow(
        value=draw(st.floats()),
        rates={solver: draw(numbers) for solver in solvers},
        occupations={solver: draw(numbers) for solver in solvers},
        diagnostics={solver: draw(_CSV_TEXT) for solver in solvers})
        for _ in range(draw(st.integers(1, 5)))]
    return rows, solvers


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_sweep_rows())
def test_render_csv_is_csv_writers_bytes(case):
    rows, solvers = case
    assert render_csv(rows, solvers) == _reference_csv(rows, solvers)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=st.floats(0.02, 0.25), gamma0=st.floats(0.005, 0.05),
       kappa0=st.floats(0.1, 0.5), n_a0=st.floats(0.0, 3.0),
       n_b0=st.floats(0.0, 0.5), red=st.floats(-1.5, -0.5),
       blue=st.floats(0.5, 1.5), points=st.integers(2, 24),
       omega_b=st.floats(10.0, 1000.0))
def test_every_sweep_row_is_its_own_point(g, gamma0, kappa0, n_a0, n_b0, red,
                                          blue, points, omega_b):
    # The ranges of test_gaussian.random_spec, in units of omega_a, on a
    # detuning grid from the red side to the blue one: a row of the stacked
    # grid equals the same point solved alone, failures included.
    base = SystemSpec(omega_a=1.0, delta=red, g=g, gamma0=gamma0,
                      kappa0=kappa0, n_a0=n_a0, n_b0=n_b0)
    spec = SweepSpec(base=base, parameter="delta",
                     grid=np.linspace(red, blue, points),
                     solvers=_FIGURE_SOLVERS, omega_b=omega_b)
    for row in run_sweep(spec):
        assert row == sweep.solve_point(replace(base, delta=row.value),
                                        _FIGURE_SOLVERS, None, omega_b,
                                        row.value)


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


def test_semiclassical_sweep_row_without_any_rate():
    # At g = gamma0 = 0 neither rate is left to balance: that row says so
    # and the rest of the sweep goes on.
    spec = SweepSpec(base=replace(BENCHMARK, gamma0=0.0), parameter="g",
                     grid=np.array([0.0, 1e6, 2e6]),
                     solvers=("semiclassical",), omega_b=7.5e9)
    first, *rest = run_sweep(spec)
    assert first.rates["semiclassical"] is None
    assert first.occupations["semiclassical"] is None
    assert first.diagnostics["semiclassical"] == (
        "ValueError: no stationary occupation: both rates vanish")
    for row in rest:
        assert row.rates["semiclassical"] > 0
        assert row.occupations["semiclassical"] == 0.0


@pytest.mark.parametrize("delta", [-500.0, -375.0])
def test_semiclassical_drive_at_or_below_zero_frequency_has_no_value(delta):
    # The drive sits at omega_b + delta: -125 Hz and 0 Hz here.
    spec = SystemSpec(omega_a=1.0, delta=delta, g=100.0, gamma0=1e-3,
                      kappa0=0.2, n_a0=1.0, n_b0=0.0)
    row = sweep.solve_point(spec, ("analytic", "semiclassical"), None, 375.0,
                            delta)
    assert row.occupations["analytic"] is not None
    assert row.rates["semiclassical"] is None
    assert row.occupations["semiclassical"] is None
    assert row.diagnostics["semiclassical"] == (
        "ValueError: f_d must be positive")


@pytest.mark.parametrize("omega_b", ["-375 Hz", "0", "-7.5 GHz"])
def test_config_rejects_a_non_positive_omega_b(omega_b):
    with pytest.raises(ConfigError, match=r"^\[system\] omega_b must be "
                                          "positive"):
        load_config(MINIMAL_CONFIG.replace(
            "n_a0 = 20", f"n_a0 = 20\nomega_b = {omega_b}"))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(omega_a=st.floats(1e3, 1e9), delta=st.floats(-2.0, -0.2),
       g=st.floats(0.0, 0.2), gamma0=st.floats(1e-6, 1e-2),
       kappa0=st.floats(0.01, 1.0), n_a0=st.floats(0.0, 50.0),
       n_b0=st.floats(0.0, 1.0), omega_b=st.floats(10.0, 1000.0),
       power=st.integers(-30, 30))
def test_occupations_are_invariant_under_a_common_rescaling(
        omega_a, delta, g, gamma0, kappa0, n_a0, n_b0, omega_b, power):
    # Rates are drawn in units of omega_a.  A power-of-two factor rescales
    # every input exactly, so what is left is any dependence of the code on
    # absolute scale, down to the rounding inside pow and the solvers
    # (3.5e-13 at worst over 4,000 draws).  A general factor would add the
    # inputs' own rounding, which ill-conditioned Lyapunov solves and the
    # semiclassical (f_up^2 - f_b^2) amplify up to 7e-11.
    def occupations(scale):
        unit = omega_a * scale
        spec = SystemSpec(omega_a=unit, delta=delta * unit, g=g * unit,
                          gamma0=gamma0 * unit, kappa0=kappa0 * unit,
                          n_a0=n_a0, n_b0=n_b0)
        (row,) = run_sweep(SweepSpec(
            base=spec, parameter="g", grid=np.array([spec.g]),
            solvers=("analytic", "gaussian", "semiclassical"),
            omega_b=omega_b * unit))
        return row.occupations

    base, scaled = occupations(1.0), occupations(2.0 ** power)
    for solver, value in base.items():
        assert scaled[solver] == pytest.approx(value, rel=1e-12, abs=0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(delta=st.floats(-1.5, -0.5), g=st.floats(0.02, 0.25),
       gamma0=st.floats(0.005, 0.05), kappa0=st.floats(0.1, 0.5),
       n_b0=st.floats(0.0, 0.5), omega_b=st.floats(10.0, 1000.0))
def test_occupations_are_affine_in_n_a0(delta, g, gamma0, kappa0, n_b0,
                                        omega_b):
    # The ranges of test_gaussian.random_spec, in units of omega_a.  Every
    # layer's stationary occupation is affine in the bath occupation n_a0;
    # the worst second difference over 300 seeded draws is 3.9e-15
    # (gaussian).
    solvers = ("analytic", "analytic-rwa", "gaussian", "semiclassical")
    rows = [sweep.solve_point(
        SystemSpec(omega_a=1.0, delta=delta, g=g, gamma0=gamma0,
                   kappa0=kappa0, n_a0=n_a0, n_b0=n_b0),
        solvers, None, omega_b, n_a0) for n_a0 in (0.0, 1.0, 2.0)]
    for solver in solvers:
        values = [row.occupations[solver] for row in rows]
        second = abs(values[0] - 2 * values[1] + values[2])
        assert second <= 1e-12 * max(map(abs, values)), solver


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


def test_compare_without_omega_b_has_no_semiclassical_value(scaled):
    report = compare(scaled, fock.OracleConfig(dims=(8, 4)))
    assert "semiclassical" not in report.occupations
    assert "needs omega_b" in report.notes["semiclassical"]
    lines = report.render().splitlines()
    semiclassical = [line for line in lines if "semiclassical" in line]
    assert semiclassical == ["  semiclassical  no value   [needs omega_b "
                             "(circuit resonance) to place the drive]"]


def test_compare_solves_the_paper_system_in_hz(caplog):
    # The figure system as configured: n_a0 = 20 and rates in Hz.  Both
    # models stay on the preconditioned route, as they do at omega_a = 1.
    with caplog.at_level(logging.DEBUG, logger="modcool.fock"):
        report = compare(cli.FIGURE_BASE, fock.OracleConfig(dims=(14, 7)),
                         omega_b=cli.FIGURE_OMEGA_B)
    full, rwa = [r.getMessage() for r in caplog.records
                 if r.name == "modcool.fock"]
    assert "route=krylov " in full and "route=krylov " in rwa
    assert report.spec.n_a0 == 20.0
    occ = report.occupations
    assert occ["oracle-full"] == pytest.approx(occ["gaussian"], rel=1e-8)


def test_compare_builds_and_factors_the_rwa_model_once(scaled, monkeypatch):
    builds, splits, factored = [], [], []
    liouvillian, split, splu = fock._liouvillian, fock._split, fock.splu

    def counted_liouvillian(spec, config):
        builds.append(config.include_counter_rotating)
        return liouvillian(spec, config)

    def counted_split(generator, *args, **kwargs):
        splits.append(generator.config.include_counter_rotating)
        return split(generator, *args, **kwargs)

    def counted_splu(matrix, **kwargs):
        factored.append(matrix.toarray())
        return splu(matrix, **kwargs)

    monkeypatch.setattr(fock, "_liouvillian", counted_liouvillian)
    monkeypatch.setattr(fock, "_split", counted_split)
    monkeypatch.setattr(fock, "splu", counted_splu)
    config = fock.OracleConfig(dims=(8, 4))
    report = compare(scaled, config)
    # One assembly and one split per model: the RWA model is assembled
    # without the pair-creation terms, and it splits its own blocks beside
    # its factors.
    assert builds == [True, False]
    assert splits == [True, False]
    # The RWA model's factors, also the full model's preconditioners: the
    # k = 0 block of the even sector, then the union of the k > 0 blocks of
    # each sector; the k < 0 blocks are their conjugate mirrors.
    excitations = np.add.outer(np.arange(8), np.arange(4)).ravel()
    k = np.subtract.outer(excitations, excitations).ravel()
    sizes = [np.count_nonzero(k == 0),
             np.count_nonzero((k > 0) & (k % 2 == 0)),
             np.count_nonzero((k > 0) & (k % 2 == 1))]
    assert [f.shape for f in factored] == [(size, size) for size in sizes]
    assert sum(sizes) <= 0.6 * 2 * 512  # the two whole sector blocks
    # Each sector is laid out [k = 0 | k > 0 | mirrors], so those are its
    # leading principal blocks, factored as they lie.
    even, odd = split(fock.build_generator(scaled, config).rwa)
    zero, plus = sizes[0], sizes[0] + sizes[1]
    expected = [even.block[:zero, :zero], even.block[zero:plus, zero:plus],
                odd.block[:sizes[2], :sizes[2]]]
    for matrix, block in zip(factored, expected, strict=True):
        assert np.array_equal(matrix, block.toarray())
    assert report.backaction_gap > 0


def test_compare_solves_each_right_hand_side_once(scaled, monkeypatch):
    # No eigensolver loop: each model's even sector solves the state and its
    # bound, and its odd sector the bound.  The full model solves none of the
    # RWA model's right-hand sides, and the oracle column solves only its
    # own model's.  A sector's block tells the models apart: the RWA block
    # is the full one's k-keeping part, with fewer nonzeros.
    config = fock.OracleConfig(dims=(8, 4))
    generator = fock.build_generator(scaled, config)
    full, rwa = (fock._split(model) for model in (generator, generator.rwa))
    assert all(r.block.nnz < f.block.nnz for f, r in zip(full, rwa))
    solves = []
    sector_solve = fock._sector_solve

    def counted_sector_solve(factor, sector, requests, iterations):
        solves.append([sector.block.nnz, len(requests)])
        return sector_solve(factor, sector, requests, iterations)

    monkeypatch.setattr(fock, "_sector_solve", counted_sector_solve)
    compare(scaled, config)
    assert solves == [[full[0].block.nnz, 2], [full[1].block.nnz, 1],
                      [rwa[0].block.nnz, 2], [rwa[1].block.nnz, 1]]
    solves.clear()
    sweep.solve_point(scaled, ("oracle",), config, None, scaled.delta)
    assert solves == [[full[0].block.nnz, 2], [full[1].block.nnz, 1]]


def test_compare_reads_the_oracle_pair_as_the_table_oracle_does(scaled):
    config = fock.OracleConfig(dims=(8, 4))
    report = compare(scaled, config)
    for name, counter_rotating in (("oracle-full", True), ("oracle-rwa", False)):
        ((_, n_f, note),) = sweep._SOLVERS["oracle"](
            [scaled], replace(config, include_counter_rotating=counter_rotating),
            None)
        assert report.notes[name] == note
        assert note.startswith("steady-state occupation only; tail_a=")
        assert report.occupations[name] == pytest.approx(n_f, rel=1e-8)
    assert "truncation tails" not in report.render()


def test_compare_isolates_a_failing_layer(scaled, monkeypatch):
    def broken(spec, oracle_config, omega_b):
        raise RuntimeError("the drift solve broke")

    monkeypatch.setitem(sweep._SOLVERS, "gaussian", sweep._each_point(broken))
    report = compare(scaled, fock.OracleConfig(dims=(8, 4)),
                     omega_b=cli.SCALED_OMEGA_B)
    assert "gaussian" not in report.occupations
    assert {"analytic", "analytic-rwa", "semiclassical", "oracle-full",
            "oracle-rwa"} <= report.occupations.keys()
    assert ("  gaussian       no value   [RuntimeError: the drift solve "
            "broke]") in report.render().splitlines()


def test_compare_reports_every_table_entry(scaled, monkeypatch):
    def constant(spec, oracle_config, omega_b):
        return 0.5, 0.25, "a constant layer"

    monkeypatch.setitem(sweep._SOLVERS, "constant", sweep._each_point(constant))
    report = compare(scaled, fock.OracleConfig(dims=(8, 4)))
    assert report.occupations["constant"] == 0.25
    assert report.notes["constant"] == ("a constant layer; "
                                        "Gamma_c = 5.000000e-01 Hz")
    lines = report.render().splitlines()
    assert "  constant       2.50000000e-01   [a constant layer; Gamma_c = " \
           "5.000000e-01 Hz]" in lines
    for pair in ("analytic vs constant", "constant vs oracle-full"):
        assert any(line.startswith(f"  {pair}: ") for line in lines)


def test_compare_gaussian_rate_is_the_drift_spectrum(scaled):
    report = compare(scaled, fock.OracleConfig(dims=(8, 4)))
    margin = gaussian.stability(gaussian.build_drift(scaled)).margin
    # The drift spectrum gives the net rate, so its label says so.
    assert "; Gamma_c = " not in report.notes["gaussian"]
    rate = float(re.search(r"; gamma0 \+ Gamma_c = (\S+) Hz",
                           report.notes["gaussian"]).group(1))
    assert rate == pytest.approx(-2.0 * margin / (2.0 * math.pi), rel=1e-6)


def test_compare_all_solvers_collapse_at_zero_coupling():
    spec = SystemSpec(omega_a=1.0, delta=-1.0, g=0.0, gamma0=0.01,
                      kappa0=0.2, n_a0=0.5, n_b0=0.0)
    occ = {}
    occ["analytic"] = analytic.final_occupation(spec)
    state = fock.steady_state(
        fock.build_generator(spec, fock.OracleConfig(dims=(16, 4))))
    occ["oracle"] = fock.mode_occupation(state, "a")
    from modcool import gaussian
    occ["gaussian"] = gaussian.occupation(
        gaussian.steady_state(gaussian.build_drift(spec)), "a")
    for value in occ.values():
        assert value == pytest.approx(spec.n_a0, abs=1e-5)
