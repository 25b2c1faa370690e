from dataclasses import replace

import numpy as np
import pytest

from modcool import analytic
from modcool.cli import main
from modcool.sweep import load_config, rescale_for_oracle

SYSTEM_CONFIG = """
[system]
omega_a = 20 MHz
delta = -20 MHz
g = 2 MHz
gamma0 = 2 kHz
kappa0 = 4 MHz
n_a0 = 20
"""

SWEEP_CONFIG = SYSTEM_CONFIG + """
[sweep]
parameter = delta
grid = -30 MHz : -10 MHz : 21
solvers = analytic, analytic-rwa
"""

SCALED_COMPARE_CONFIG = """
[system]
omega_a = 1 Hz
delta = -1 Hz
g = 0.02 Hz
gamma0 = 1e-3 Hz
kappa0 = 0.2 Hz
n_a0 = 1

[oracle]
dims = 12, 6
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
frequency = 7.48 GHz
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv_column(path, column):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    index = header.index(column)
    return np.array([float(line.split(",")[index]) for line in lines[1:]])


def test_steady_command(tmp_path, capsys):
    config = write(tmp_path, "sys.ini", SYSTEM_CONFIG)
    out = tmp_path / "steady.csv"
    code = main(["steady", "--config", config, "--solvers",
                 "analytic,analytic-rwa", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "analytic" in printed
    text = out.read_text()
    assert text.startswith("swept_value,gamma_c_analytic")
    assert "1.25187" in text  # stationary occupation 0.0125187...


def test_steady_accepts_a_sweep_config(tmp_path, capsys):
    # the point commands should take the same file as `sweep`
    config = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
    assert main(["steady", "--config", config, "--solvers", "analytic"]) == 0
    assert "analytic" in capsys.readouterr().out


def test_sweep_command(tmp_path):
    config = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    values = read_csv_column(out, "swept_value")
    assert values.size == 21
    assert values[0] == -30e6


def test_sweep_grid_override(tmp_path):
    config = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config, "--grid",
                 "-25 MHz:-15 MHz:5", "--out", str(out)]) == 0
    values = read_csv_column(out, "swept_value")
    assert values.size == 5
    assert values[0] == -25e6 and values[-1] == -15e6


@pytest.mark.parametrize("parameter, grid, override, expected", [
    ("delta", "-30 MHz : -10 MHz : 5", None, [-1.5, -1.25, -1.0, -0.75, -0.5]),
    ("delta", "-30 MHz : -10 MHz : 5", "-25 MHz:-15 MHz:3",
     [-1.25, -1.0, -0.75]),
    ("g", "0.5 MHz : 2 MHz : 4", None, [0.025, 0.05, 0.075, 0.1]),
    ("n_a0", "0.5 : 4 : 3", None, [0.5, 2.25, 4.0]),
], ids=["delta", "delta-grid-override", "g", "n_a0-unscaled"])
def test_scaled_sweep_rescales_frequency_grids(tmp_path, parameter, grid,
                                               override, expected):
    config = write(tmp_path, "sweep.ini", SYSTEM_CONFIG + f"""
[sweep]
parameter = {parameter}
grid = {grid}
solvers = analytic-rwa, gaussian
""")
    out = tmp_path / "scaled.csv"
    argv = ["sweep", "--config", config, "--scaled", "--out", str(out)]
    if override is not None:
        argv += ["--grid", override]
    assert main(argv) == 0
    values = read_csv_column(out, "swept_value")
    np.testing.assert_allclose(values, expected, rtol=1e-14)
    base = rescale_for_oracle(load_config(SYSTEM_CONFIG).base)
    want = [analytic.rwa_final_occupation(replace(base, **{parameter: v}))
            for v in values]
    np.testing.assert_allclose(read_csv_column(out, "n_f_analytic-rwa"),
                               want, rtol=1e-12)
    assert np.all(read_csv_column(out, "gamma_c_gaussian") > 0)


@pytest.mark.parametrize("parameter, grid, override", [
    ("delta", "1e999 MHz : -10 MHz : 1", None),
    ("g", "-1 MHz : 1 MHz : 3", None),
    ("kappa0", "1 MHz : 4 MHz : 3", "-1 MHz : 4 MHz : 3"),
], ids=["infinite-delta", "negative-g", "negative-kappa0-override"])
def test_exit_code_bad_grid_value(tmp_path, capsys, parameter, grid,
                                  override):
    config = write(tmp_path, "sweep.ini", SYSTEM_CONFIG + f"""
[sweep]
parameter = {parameter}
grid = {grid}
solvers = analytic, gaussian
""")
    argv = ["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]
    if override is not None:
        argv += ["--grid", override]
    assert main(argv) == 1
    assert "config error: sweep grid value" in capsys.readouterr().err


def test_fig2_reproduction(tmp_path):
    out_a = tmp_path / "fig2_a.csv"
    out_b = tmp_path / "fig2_b.csv"
    assert main(["fig2", "--out", str(out_a)]) == 0
    assert main(["fig2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    detunings = read_csv_column(out_a, "swept_value")
    thick = read_csv_column(out_a, "n_f_analytic-g2MHz")
    thin = read_csv_column(out_a, "n_f_analytic-g1MHz")
    rwa_thick = read_csv_column(out_a, "n_f_analytic-rwa-g2MHz")
    assert detunings.size == 201
    arg_min = int(np.argmin(thick))
    assert abs(abs(detunings[arg_min]) / 20e6 - 1.0) <= 0.05
    assert thick[arg_min] == pytest.approx(0.0125187, abs=1e-4)
    # thinner drive cools less; the no-pair-creation curve bottoms at 0.020
    assert thin[arg_min] > thick[arg_min]
    on_sideband = int(np.argmin(np.abs(detunings + 20e6)))
    assert rwa_thick[on_sideband] == pytest.approx(0.020, abs=1e-4)


def test_fig3_reproduction(tmp_path):
    out_a = tmp_path / "fig3_a.csv"
    out_b = tmp_path / "fig3_b.csv"
    assert main(["fig3", "--out", str(out_a)]) == 0
    assert main(["fig3", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    detunings = read_csv_column(out_a, "swept_value")
    quantum = read_csv_column(out_a, "gamma_c_analytic-g2MHz")
    circuit = read_csv_column(out_a, "gamma_c_semiclassical-g2MHz")
    arg_max = int(np.argmax(quantum))
    assert abs(abs(detunings[arg_max]) / 20e6 - 1.0) <= 0.05
    assert quantum[arg_max] == pytest.approx(3.99e6, rel=1e-3)
    on_sideband = int(np.argmin(np.abs(detunings + 20e6)))
    assert circuit[on_sideband] == pytest.approx(4.0e6, rel=1e-3)
    assert np.max(np.abs(circuit - quantum)) / quantum.max() < 0.01


def test_compare_command(tmp_path, capsys):
    config = write(tmp_path, "scaled.ini", SCALED_COMPARE_CONFIG)
    assert main(["compare", "--config", config]) == 0
    printed = capsys.readouterr().out
    assert "oracle-full" in printed
    assert "counter-rotating gap" in printed


def test_evolve_command(tmp_path):
    config = write(tmp_path, "sys.ini", SYSTEM_CONFIG)
    out = tmp_path / "trajectory.csv"
    assert main(["evolve", "--config", config, "--duration", "5e-7",
                 "--points", "50", "--out", str(out)]) == 0
    times = read_csv_column(out, "time_s")
    occupations = read_csv_column(out, "n_a")
    assert times.size == 50
    assert occupations[0] == pytest.approx(20.0, rel=1e-6)
    assert occupations[-1] < 0.1


@pytest.mark.parametrize("option, value", [
    ("--duration", "0"), ("--duration", "nan"), ("--duration", "inf"),
    ("--points", "1"), ("--points", "0"),
    ("--initial-n-a", "nan"), ("--initial-n-a", "-1"),
], ids=["duration-zero", "duration-nan", "duration-inf", "points-one",
        "points-zero", "initial-n-a-nan", "initial-n-a-negative"])
def test_evolve_bad_argument_is_a_config_error(tmp_path, capsys, option,
                                               value):
    config = write(tmp_path, "sys.ini", SYSTEM_CONFIG)
    argv = ["evolve", "--config", config, "--duration", "5e-7",
            "--out", str(tmp_path / "trajectory.csv"), option, value]
    assert main(argv) == 1
    assert f"config error: {option}" in capsys.readouterr().err


def test_design_command(tmp_path, capsys):
    config = write(tmp_path, "circuit.ini", CIRCUIT_CONFIG)
    assert main(["design", "--config", config]) == 0
    printed = capsys.readouterr().out
    assert "LC resonance" in printed
    assert "bilinear coupling" in printed
    assert "stationary occupation" in printed


def test_exit_code_config_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.ini", "[system]\nomega_a = 20 MHz\n")
    assert main(["steady", "--config", bad]) == 1
    assert main(["sweep", "--config", bad]) == 1
    assert main(["sweep"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    SYSTEM_CONFIG.replace("g = 2 MHz", "g = -2 MHz"),
    SYSTEM_CONFIG.replace("g = 2 MHz", "g = 1e999 MHz"),
    SYSTEM_CONFIG + "[oracle]\ndims = a, b\n",
    SYSTEM_CONFIG + "[oracle]\ndims = 1, 5\n",
    SYSTEM_CONFIG + "[oracle]\ndims = 12, 6\ntail_threshold = x\n",
    SYSTEM_CONFIG + "[oracle]\ndims = 12, 6\ntail_threshold = 2\n",
], ids=["negative-g", "infinite-g", "dims-not-integers", "dims-too-small",
        "tail-threshold-not-a-number", "tail-threshold-above-one"])
def test_exit_code_config_value_error(tmp_path, capsys, text):
    config = write(tmp_path, "bad.ini", text)
    assert main(["steady", "--config", config]) == 1
    assert "config error:" in capsys.readouterr().err


def test_exit_code_solver_error(tmp_path):
    # blue-detuned strong coupling: the gaussian solver fails on every row
    config = write(tmp_path, "blue.ini", SYSTEM_CONFIG.replace(
        "delta = -20 MHz", "delta = 20 MHz") + """
[sweep]
parameter = g
grid = 2 MHz : 3 MHz : 3
solvers = gaussian
""")
    out = tmp_path / "blue.csv"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 2
    text = out.read_text()
    assert "unstable" in text


def test_exit_code_io_error(tmp_path):
    config = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
    assert main(["sweep", "--config", config, "--out",
                 str(tmp_path / "missing" / "x.csv")]) == 3
