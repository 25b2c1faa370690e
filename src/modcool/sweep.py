"""Parameter sweeps across the solver layers, comparison reports and CSV output.

Configuration files are flat INI-style text with explicit unit suffixes, so a
run is reproducible from the file alone.  Sweep rows never fail silently: a
solver that cannot produce a value on a grid point contributes an empty field
paired with a diagnostic string.
"""

from __future__ import annotations

import csv
import re
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, replace
from io import StringIO
from typing import NamedTuple

import numpy as np

from . import analytic, fock, gaussian
from .model import (
    TWO_PI,
    CircuitParams,
    ModeParams,
    SystemSpec,
    build_system,
    lc_frequency,
)
from .semiclassical import circuit_cooling_rate

SOLVER_NAMES = ("analytic", "analytic-rwa", "gaussian", "oracle",
                "semiclassical")
SWEEPABLE = ("delta", "g", "kappa0", "gamma0", "n_a0")
# Mechanical bath occupation of :func:`rescale_for_oracle`'s surrogate spec.
ORACLE_N_A0_CAP = 1.0

_UNIT_SCALES = {
    "": 1.0,
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
    "K": 1.0, "mK": 1e-3,
    "V": 1.0, "mV": 1e-3,
    "fF": 1e-15,
    "nH": 1e-9,
    "nm": 1e-9,
}

_QUANTITY_RE = re.compile(
    r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([A-Za-z]*)")


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


def parse_quantity(text: str) -> float:
    """Parse a number with an optional unit suffix into SI/Hz/K base units."""
    match = _QUANTITY_RE.fullmatch(text.strip())
    if match is None:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, unit = match.groups()
    if unit not in _UNIT_SCALES:
        raise ConfigError(f"unknown unit {unit!r} in {text!r}")
    return float(value) * _UNIT_SCALES[unit]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: base system, swept parameter, grid, solver selection."""

    base: SystemSpec
    parameter: str
    grid: np.ndarray
    solvers: tuple[str, ...]
    oracle_config: fock.OracleConfig | None = None
    omega_b: float | None = None

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ConfigError(
                f"swept parameter must be one of {SWEEPABLE}, got "
                f"{self.parameter!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.size == 0:
            raise ConfigError("sweep grid must not be empty")
        if grid.size > 1 and not (np.all(np.diff(grid) > 0)
                                  or np.all(np.diff(grid) < 0)):
            raise ConfigError("sweep grid must be strictly monotone")
        for solver in self.solvers:
            if solver not in SOLVER_NAMES:
                raise ConfigError(f"unknown solver {solver!r}")
        if not self.solvers:
            raise ConfigError("at least one solver must be selected")
        if "oracle" in self.solvers and self.oracle_config is None:
            raise ConfigError("the oracle solver requires an [oracle] section")
        # The grid is monotone and every SystemSpec bound is an interval, so
        # the two endpoints stand for every point.
        for value in (grid[0], grid[-1]):
            try:
                replace(self.base, **{self.parameter: float(value)})
            except ValueError as exc:
                raise ConfigError(f"sweep grid value {value}: {exc}") from exc
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class SweepRow:
    """Per-solver results on one grid point; absences carry diagnostics."""

    value: float
    rates: dict[str, float | None]
    occupations: dict[str, float | None]
    diagnostics: dict[str, str]


_SYSTEM_KEYS = {"omega_a", "delta", "g", "gamma0", "kappa0", "n_a0", "n_b0",
                "omega_b"}
_CIRCUIT_KEYS = {"c_x0", "c_sigma0", "inductance", "d0", "delta_x0", "v_c",
                 "resistance", "t0", "c_g", "c_b"}
_MECH_KEYS = {"frequency", "damping", "bath_occupation"}
_DRIVE_KEYS = {"frequency"}
_SWEEP_KEYS = {"parameter", "grid", "solvers"}
_ORACLE_KEYS = {"dims", "include_counter_rotating", "tail_threshold"}
_SECTIONS = {"system", "circuit", "mechanical", "drive", "sweep", "oracle"}


def _check_keys(section: str, present, allowed, required) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section [{section}]")
    missing = set(required) - set(present)
    if missing:
        raise ConfigError(
            f"missing key(s) {sorted(missing)} in section [{section}]")


def _circuit_from_parser(parser: ConfigParser) -> CircuitParams:
    circ = parser["circuit"]
    _check_keys("circuit", circ.keys(), _CIRCUIT_KEYS,
                _CIRCUIT_KEYS - {"c_g", "c_b"})
    return CircuitParams(
        c_x0=parse_quantity(circ["c_x0"]),
        c_sigma0=parse_quantity(circ["c_sigma0"]),
        inductance=parse_quantity(circ["inductance"]),
        d0=parse_quantity(circ["d0"]),
        delta_x0=parse_quantity(circ["delta_x0"]),
        v_c=parse_quantity(circ["v_c"]),
        resistance=parse_quantity(circ["resistance"]),
        t0=parse_quantity(circ["t0"]),
        c_g=parse_quantity(circ["c_g"]) if "c_g" in circ else None,
        c_b=parse_quantity(circ["c_b"]) if "c_b" in circ else None,
    )


def _base_from_config(parser: ConfigParser, circuit: CircuitParams | None
                      ) -> tuple[SystemSpec, float | None]:
    """Build the base SystemSpec from [system] or [circuit]+[mechanical]+[drive]."""
    if parser.has_section("system"):
        section = parser["system"]
        _check_keys("system", section.keys(), _SYSTEM_KEYS,
                    {"omega_a", "delta", "g", "gamma0", "kappa0", "n_a0"})
        omega_b = (parse_quantity(section["omega_b"])
                   if "omega_b" in section else None)
        spec = SystemSpec(
            omega_a=parse_quantity(section["omega_a"]),
            delta=parse_quantity(section["delta"]),
            g=parse_quantity(section["g"]),
            gamma0=parse_quantity(section["gamma0"]),
            kappa0=parse_quantity(section["kappa0"]),
            n_a0=parse_quantity(section["n_a0"]),
            n_b0=parse_quantity(section["n_b0"]) if "n_b0" in section else 0.0,
        )
        return spec, omega_b
    if circuit is None:
        raise ConfigError(
            "config must contain a [system] section or a [circuit] + "
            "[mechanical] + [drive] group")
    for name in ("mechanical", "drive"):
        if not parser.has_section(name):
            raise ConfigError(f"missing [{name}] section for the circuit route")
    mech_section = parser["mechanical"]
    _check_keys("mechanical", mech_section.keys(), _MECH_KEYS,
                {"frequency", "damping"})
    mech = ModeParams(
        frequency=parse_quantity(mech_section["frequency"]),
        damping=parse_quantity(mech_section["damping"]),
        bath_occupation=(parse_quantity(mech_section["bath_occupation"])
                         if "bath_occupation" in mech_section else None),
    )
    drive_section = parser["drive"]
    _check_keys("drive", drive_section.keys(), _DRIVE_KEYS, _DRIVE_KEYS)
    spec = build_system(circuit, mech, parse_quantity(drive_section["frequency"]))
    return spec, lc_frequency(circuit)


def _oracle_from_config(parser: ConfigParser) -> fock.OracleConfig | None:
    if not parser.has_section("oracle"):
        return None
    section = parser["oracle"]
    _check_keys("oracle", section.keys(), _ORACLE_KEYS, {"dims"})
    dims_text = section["dims"].split(",")
    if len(dims_text) != 2:
        raise ConfigError(f"oracle dims must be 'N_a, N_b', got {section['dims']!r}")
    dims = (int(dims_text[0]), int(dims_text[1]))
    return fock.OracleConfig(
        dims=dims,
        include_counter_rotating=(
            _parse_bool(section["include_counter_rotating"])
            if "include_counter_rotating" in section else True),
        tail_threshold=(float(section["tail_threshold"])
                        if "tail_threshold" in section else 1e-6),
    )


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start : stop : n' with unit suffixes into a linear grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be 'start : stop : n', got {text!r}")
    start, stop = parse_quantity(parts[0]), parse_quantity(parts[1])
    try:
        count = int(parts[2].strip())
    except ValueError as exc:
        raise ConfigError(f"grid point count {parts[2]!r} is not an integer") from exc
    if count < 1:
        raise ConfigError(f"grid needs at least one point, got {count}")
    if count == 1:
        return np.array([start])
    if start == stop:
        raise ConfigError("grid with several points must have start != stop")
    return np.linspace(start, stop, count)


class Config(NamedTuple):
    """Everything one configuration file defines.

    ``omega_b`` is the circuit resonance when one is defined (explicitly in
    ``[system]`` or through the circuit route); ``oracle``, ``circuit`` and
    ``sweep`` are None when their sections are absent.
    """

    base: SystemSpec
    omega_b: float | None
    oracle: fock.OracleConfig | None
    circuit: CircuitParams | None
    sweep: SweepSpec | None


def load_config(text: str) -> Config:
    """Parse and validate configuration text.

    Sections: ``[system]`` (or ``[circuit]`` + ``[mechanical]`` + ``[drive]``),
    and optionally ``[sweep]`` and ``[oracle]``.  Every frequency-like value
    takes a unit suffix (Hz/kHz/MHz/GHz and so on); unknown sections, keys or
    units are rejected, and so is any value its parameter class refuses:
    every failure is a :class:`ConfigError`.
    """
    parser = ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
        unknown = set(parser.sections()) - _SECTIONS
        if unknown:
            raise ConfigError(f"unknown section(s) {sorted(unknown)}")
        circuit = (_circuit_from_parser(parser)
                   if parser.has_section("circuit") else None)
        base, omega_b = _base_from_config(parser, circuit)
        oracle = _oracle_from_config(parser)
        swept = None
        if parser.has_section("sweep"):
            section = parser["sweep"]
            _check_keys("sweep", section.keys(), _SWEEP_KEYS, _SWEEP_KEYS)
            swept = SweepSpec(
                base=base, parameter=section["parameter"].strip(),
                grid=parse_grid(section["grid"]),
                solvers=tuple(s.strip() for s in section["solvers"].split(",")),
                oracle_config=oracle, omega_b=omega_b)
    except ConfigParserError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Config(base, omega_b, oracle, circuit, swept)


def rescale_for_oracle(spec: SystemSpec) -> SystemSpec:
    """Express a spec in units of its mechanical frequency and cap n_a0.

    Occupations are invariant under a common rescaling of all five rates, so
    setting omega_a = 1 changes nothing physical; capping the mechanical
    bath occupation at ``ORACLE_N_A0_CAP`` is what makes Fock truncations
    small.
    The capped spec is a surrogate: every closed-form occupation here is
    affine in n_a0, so full-scale numbers are recovered by that linearity.
    """
    s = spec.omega_a
    return SystemSpec(
        omega_a=1.0,
        delta=spec.delta / s,
        g=spec.g / s,
        gamma0=spec.gamma0 / s,
        kappa0=spec.kappa0 / s,
        n_a0=min(spec.n_a0, ORACLE_N_A0_CAP),
        n_b0=spec.n_b0,
    )


def rescale_sweep(spec: SweepSpec) -> SweepSpec:
    """:func:`rescale_for_oracle` for a sweep: a frequency-valued grid is
    divided by the same omega_a, an n_a0 grid is kept, omega_b is dropped."""
    scale = 1.0 if spec.parameter == "n_a0" else spec.base.omega_a
    return replace(spec, base=rescale_for_oracle(spec.base),
                   grid=spec.grid / scale, omega_b=None)


def _solve_analytic(spec: SystemSpec) -> tuple[float | None, float | None, str]:
    return analytic.cooling_rate(spec), analytic.final_occupation(spec), ""


def _solve_analytic_rwa(spec: SystemSpec) -> tuple[float | None, float | None, str]:
    return (None, analytic.rwa_final_occupation(spec),
            "occupation-only formula (no rate)")


def _solve_gaussian(spec: SystemSpec) -> tuple[float | None, float | None, str]:
    model = gaussian.build_drift(spec)
    report = gaussian.stability(model)
    if not report.hurwitz:
        return (None, None,
                f"unstable drift (max Re eig = {report.margin:.4e} 1/s)")
    n_f = gaussian.occupation(gaussian.steady_state(model), "a")
    # The slowest second moment decays at twice the slowest drift rate.
    return (-2.0 * report.margin / TWO_PI, n_f,
            f"drift spectrum; mechanical weight {report.mechanical_weight:.3f}")


def _solve_oracle(spec: SystemSpec,
                  config: fock.OracleConfig) -> tuple[float | None, float | None, str]:
    generator = fock.build_generator(spec, config)
    state = fock.steady_state(generator)
    tails = fock.truncation_check(state, config.tail_threshold)
    note = (f"steady-state occupation only; tail_a={tails.tail_a:.2e}; "
            f"tail_b={tails.tail_b:.2e}")
    return None, fock.mode_occupation(state, "a"), note


def _solve_semiclassical(spec: SystemSpec,
                         omega_b: float | None) -> tuple[float | None, float | None, str]:
    if omega_b is None:
        return None, None, "needs omega_b (circuit resonance) to place the drive"
    rate = circuit_cooling_rate(g_l=spec.g, f_b=omega_b, kappa0=spec.kappa0,
                                f_d=omega_b + spec.delta, f_a=spec.omega_a)
    n_f = spec.gamma0 * spec.n_a0 / (spec.gamma0 + rate)
    return rate, n_f, "zero-floor rate balance"


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every requested solver on every grid point.

    Rows are computed in grid order and are independent of each other; a
    solver failure on one point is recorded in that row's diagnostics and
    never aborts the sweep.
    """
    rows = []
    for value in spec.grid:
        point = replace(spec.base, **{spec.parameter: float(value)})
        rates: dict[str, float | None] = {}
        occupations: dict[str, float | None] = {}
        diagnostics: dict[str, str] = {}
        for solver in spec.solvers:
            try:
                if solver == "analytic":
                    result = _solve_analytic(point)
                elif solver == "analytic-rwa":
                    result = _solve_analytic_rwa(point)
                elif solver == "gaussian":
                    result = _solve_gaussian(point)
                elif solver == "oracle":
                    result = _solve_oracle(point, spec.oracle_config)
                else:
                    result = _solve_semiclassical(point, spec.omega_b)
                rates[solver], occupations[solver], diagnostics[solver] = result
            except Exception as exc:  # per-row isolation is the contract
                rates[solver] = None
                occupations[solver] = None
                diagnostics[solver] = f"{type(exc).__name__}: {exc}"
        rows.append(SweepRow(value=float(value), rates=rates,
                             occupations=occupations, diagnostics=diagnostics))
    return rows


def _format_value(value: float | None) -> str:
    return "" if value is None else f"{value:.17e}"


def render_csv(rows: list[SweepRow], solvers: tuple[str, ...]) -> str:
    """Render sweep rows to CSV text (stable column contract).

    Columns: ``swept_value``, then ``gamma_c_<solver>`` and ``n_f_<solver>``
    per solver, then ``diag_<solver>`` per solver.  Missing values are empty
    fields whose diagnostic column says why.  Numbers are full-precision
    scientific notation, so identical inputs give byte-identical output.
    """
    if not rows:
        raise ValueError("cannot emit an empty sweep")
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["swept_value"]
    for solver in solvers:
        header += [f"gamma_c_{solver}", f"n_f_{solver}"]
    header += [f"diag_{solver}" for solver in solvers]
    writer.writerow(header)
    for row in rows:
        record = [_format_value(row.value)]
        for solver in solvers:
            record += [_format_value(row.rates.get(solver)),
                       _format_value(row.occupations.get(solver))]
        record += [row.diagnostics.get(solver, "") for solver in solvers]
        writer.writerow(record)
    return buffer.getvalue()


@dataclass(frozen=True)
class ComparisonReport:
    """Cross-solver stationary occupations at one parameter point."""

    spec: SystemSpec
    occupations: dict[str, float]
    backaction_gap: float
    backaction_floor: float
    tails: fock.TailReport
    notes: dict[str, str]

    def render(self) -> str:
        lines = [
            "stationary mechanical occupation by solver",
            f"  omega_a={self.spec.omega_a:.6g} Hz  delta={self.spec.delta:.6g} Hz"
            f"  g={self.spec.g:.6g} Hz",
            f"  kappa0={self.spec.kappa0:.6g} Hz  gamma0={self.spec.gamma0:.6g} Hz"
            f"  n_a0={self.spec.n_a0:.6g}  n_b0={self.spec.n_b0:.6g}",
            "",
        ]
        for name in sorted(self.occupations):
            note = self.notes.get(name, "")
            lines.append(f"  {name:<14s} {self.occupations[name]:.8e}"
                         + (f"   [{note}]" if note else ""))
        lines.append("")
        names = sorted(self.occupations)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                a, b = self.occupations[first], self.occupations[second]
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                lines.append(f"  {first} vs {second}: relative difference "
                             f"{rel:.3e}")
        lines.append("")
        lines.append(
            f"  counter-rotating gap (oracle full - oracle rwa) = "
            f"{self.backaction_gap:.6e}; backaction floor kappa0^2/(16 "
            f"omega_a^2) = {self.backaction_floor:.6e}")
        lines.append(
            f"  oracle truncation tails: a = {self.tails.tail_a:.3e}, "
            f"b = {self.tails.tail_b:.3e}")
        return "\n".join(lines) + "\n"


def compare(spec: SystemSpec, oracle_config: fock.OracleConfig,
            omega_b: float | None = None) -> ComparisonReport:
    """Stationary occupations from every solver layer at one point.

    The oracle runs twice, with and without the counter-rotating coupling
    term; their difference is reported against the closed-form backaction
    floor.  ``omega_b`` places the semiclassical drive; when omitted it
    defaults to 375 * omega_a, the circuit-to-beam frequency ratio used by
    the detuning-sweep demos.
    """
    if omega_b is None:
        omega_b = 375.0 * spec.omega_a
    occupations: dict[str, float] = {}
    notes: dict[str, str] = {}

    occupations["analytic"] = analytic.final_occupation(spec)
    occupations["analytic-rwa"] = analytic.rwa_final_occupation(spec)
    occupations["gaussian"] = gaussian.occupation(
        gaussian.steady_state(gaussian.build_drift(spec)), "a")

    full = fock.build_generator(
        spec, replace(oracle_config, include_counter_rotating=True))
    full_state = fock.steady_state(full)
    rwa_state = fock.steady_state(full.rwa)  # reuses the RWA sector factors
    occupations["oracle-full"] = fock.mode_occupation(full_state, "a")
    occupations["oracle-rwa"] = fock.mode_occupation(rwa_state, "a")
    tails = fock.truncation_check(full_state, oracle_config.tail_threshold)

    rate, n_f, note = _solve_semiclassical(spec, omega_b)
    occupations["semiclassical"] = n_f
    notes["semiclassical"] = f"{note}; Gamma_c = {rate:.6e} Hz"

    return ComparisonReport(
        spec=spec,
        occupations=occupations,
        backaction_gap=occupations["oracle-full"] - occupations["oracle-rwa"],
        backaction_floor=analytic.backaction_floor(spec),
        tails=tails,
        notes=notes,
    )
