"""Parameter sweeps across the solver layers, comparison reports and CSV output.

Configuration files are flat INI-style text with explicit unit suffixes, so a
run is reproducible from the file alone.  One grid evaluator serves sweeps
(:func:`run_sweep`), and on a grid of one point (:func:`solve_point`) steady
points and comparisons.  It hands the whole grid to each solver in one call,
so the Gaussian layer solves every point as one stack while the closed forms
and the oracle take one point at a time.  A solver that cannot produce a
value at a point gives an empty field and a diagnostic on that row alone.
Steady points and comparisons print each layer by one :func:`layer_line`.
"""

from __future__ import annotations

import csv
import math
import re
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
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

SWEEPABLE = ("delta", "g", "kappa0", "gamma0", "n_a0")

# Unit suffixes by the SI unit of a field (a plain number is in that unit).
_UNIT_SCALES = {
    "Hz": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "K": {"K": 1.0, "mK": 1e-3},
    "V": {"V": 1.0, "mV": 1e-3},
    "F": {"fF": 1e-15},
    "H": {"nH": 1e-9},
    "m": {"nm": 1e-9},
}

_QUANTITY_RE = re.compile(
    r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([A-Za-z]*)")


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


def parse_quantity(text: str, unit: str | None) -> float:
    """A number in SI ``unit`` (None: dimensionless) or a suffix of it."""
    match = _QUANTITY_RE.fullmatch(text.strip())
    if match is None:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, suffix = match.groups()
    if not suffix:
        return float(value)
    scales = _UNIT_SCALES.get(unit, {})
    if suffix not in scales:
        raise ConfigError(f"unit {suffix!r} in {text!r}: expected a plain "
                          "number" + (f" in {unit}" if unit else "")
                          + (f" or a suffix in {list(scales)}" if scales else ""))
    return float(value) * scales[suffix]


def _named(key: str, parse, text: str):
    """``parse(text)``; a failure names ``key``, e.g. ``[system] omega_a``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _swept_unit(parameter: str) -> str | None:
    """Unit of a sweepable SystemSpec field; anything else is refused."""
    if parameter not in SWEEPABLE:
        raise ConfigError(f"swept parameter must be one of {SWEEPABLE}, got "
                          f"{parameter!r}")
    return next(f.metadata.get("unit") for f in fields(SystemSpec)
                if f.name == parameter)


def _parse_bool(text: str) -> bool:
    try:
        return ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"cannot parse boolean {text!r}") from None


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
        _swept_unit(self.parameter)
        grid = np.asarray(self.grid, dtype=float)
        if grid.size == 0:
            raise ConfigError("sweep grid must not be empty")
        if grid.size > 1 and not (np.all(np.diff(grid) > 0)
                                  or np.all(np.diff(grid) < 0)):
            raise ConfigError("sweep grid must be strictly monotone")
        check_solvers(self.solvers, self.oracle_config)
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


_DRIVE_KEYS = {"frequency"}
_SWEEP_KEYS = {"parameter", "grid", "solvers"}
_CIRCUIT_ROUTE = ("circuit", "mechanical", "drive")
_SECTIONS = {"system", *_CIRCUIT_ROUTE, "sweep", "oracle"}


def _check_keys(section: str, present, allowed, required) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section [{section}]")
    missing = set(required) - set(present)
    if missing:
        raise ConfigError(
            f"missing key(s) {sorted(missing)} in section [{section}]")


def _parse_dims(text: str) -> tuple[int, int]:
    try:  # a wrong count of parts fails to unpack with ValueError too
        n_a, n_b = map(int, text.split(","))
    except ValueError:
        raise ConfigError(
            f"oracle dims must be 'N_a, N_b', got {text!r}") from None
    return n_a, n_b


# Parsers of the field types that are not numbers, keyed by annotation.
_FIELD_PARSERS = {"bool": _parse_bool, "tuple[int, int]": _parse_dims}


def _from_section(parser: ConfigParser, name: str, cls,
                  extra: tuple[str, ...] = ()):
    """``cls`` built from section ``name``, or None when it is absent.

    The section's keys are the fields of ``cls`` plus ``extra`` (which the
    caller reads); a field with a default may be left out and then takes
    it.  Numbers are read in the unit of their field's metadata.
    """
    if not parser.has_section(name):
        return None
    section = parser[name]
    _check_keys(name, section.keys(), {f.name for f in fields(cls)}.union(extra),
                {f.name for f in fields(cls) if f.default is MISSING})
    return cls(**{
        f.name: _named(f"[{name}] {f.name}", _FIELD_PARSERS.get(f.type)
                       or partial(parse_quantity, unit=f.metadata.get("unit")),
                       section[f.name])
        for f in fields(cls) if f.name in section})


def _base_from_config(parser: ConfigParser
                      ) -> tuple[SystemSpec, float | None, CircuitParams | None]:
    """Base spec, omega_b and circuit from the config's one system route."""
    route = [f"[{name}]" for name in _CIRCUIT_ROUTE if parser.has_section(name)]
    if parser.has_section("system"):
        if route:
            raise ConfigError("config defines its system twice, by [system] "
                              f"and by {' + '.join(route)}: use one route")
        spec = _from_section(parser, "system", SystemSpec, extra=("omega_b",))
        omega_b = parser["system"].get("omega_b")
        if omega_b is not None:
            omega_b = _named("[system] omega_b",
                             partial(parse_quantity, unit="Hz"), omega_b)
            if not 0 < omega_b < math.inf:
                raise ConfigError("[system] omega_b must be positive and "
                                  f"finite, got {omega_b}")
        return spec, omega_b, None
    if len(route) < len(_CIRCUIT_ROUTE):
        raise ConfigError("config must contain a [system] section or a "
                          "[circuit] + [mechanical] + [drive] group")
    circuit = _from_section(parser, "circuit", CircuitParams)
    mech = _from_section(parser, "mechanical", ModeParams)
    drive_section = parser["drive"]
    _check_keys("drive", drive_section.keys(), _DRIVE_KEYS, _DRIVE_KEYS)
    spec = build_system(circuit, mech, _named(
        "[drive] frequency", partial(parse_quantity, unit="Hz"),
        drive_section["frequency"]))
    return spec, lc_frequency(circuit), circuit


def parse_grid(text: str, parameter: str) -> np.ndarray:
    """Parse 'start : stop : n', in the unit of the swept ``parameter``."""
    unit = _swept_unit(parameter)
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be 'start : stop : n', got {text!r}")
    start, stop = parse_quantity(parts[0], unit), parse_quantity(parts[1], unit)
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

    Sections: ``[system]`` or else ``[circuit]`` + ``[mechanical]`` +
    ``[drive]``, and optionally ``[sweep]`` and ``[oracle]``.  The keys of
    ``[system]``, ``[circuit]``, ``[mechanical]`` and ``[oracle]`` are the
    fields of SystemSpec (plus ``omega_b``), CircuitParams, ModeParams and
    fock.OracleConfig; an omitted key takes its field's default.  A number
    may carry a unit suffix of its field's dimension only; unknown sections,
    keys or units, both system routes at once, and any value its parameter
    class refuses are rejected: every failure is a :class:`ConfigError`.
    """
    parser = ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
        unknown = set(parser.sections()) - _SECTIONS
        if unknown:
            raise ConfigError(f"unknown section(s) {sorted(unknown)}")
        base, omega_b, circuit = _base_from_config(parser)
        oracle = _from_section(parser, "oracle", fock.OracleConfig)
        swept = None
        if parser.has_section("sweep"):
            section = parser["sweep"]
            _check_keys("sweep", section.keys(), _SWEEP_KEYS, _SWEEP_KEYS)
            parameter = section["parameter"].strip()
            swept = SweepSpec(
                base=base, parameter=parameter,
                grid=_named("[sweep] grid", partial(
                    parse_grid, parameter=parameter), section["grid"]),
                solvers=tuple(s.strip() for s in section["solvers"].split(",")),
                oracle_config=oracle, omega_b=omega_b)
    except ConfigParserError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Config(base, omega_b, oracle, circuit, swept)


_Outcome = tuple[float | None, float | None, str]

# A solver failure: the package's own errors, SuperLU's, LinAlgError.  Any
# other exception is a programming error and propagates.
_SOLVER_ERRORS = (ArithmeticError, RuntimeError, ValueError)


def _failure(exc: Exception) -> _Outcome:
    """A point a solver failed on: no values, and the error as diagnostic."""
    return None, None, f"{type(exc).__name__}: {exc}"


def _each_point(solve):
    """The grid form of the one-point solver ``solve(spec, oracle_config,
    omega_b)``; a solver failure becomes its point's outcome."""
    def solve_grid(points, oracle_config, omega_b) -> list[_Outcome]:
        outcomes = []
        for spec in points:
            try:
                outcomes.append(solve(spec, oracle_config, omega_b))
            except _SOLVER_ERRORS as exc:
                outcomes.append(_failure(exc))
        return outcomes
    return solve_grid


def _solve_analytic(spec: SystemSpec, *_) -> _Outcome:
    # analytic.final_occupation's rate balance, on the rate already in hand.
    rate = analytic.cooling_rate(spec)
    return rate, analytic._rate_balance(spec, rate), ""


def _solve_analytic_rwa(spec: SystemSpec, *_) -> _Outcome:
    return (None, analytic.rwa_final_occupation(spec),
            "occupation-only formula (no rate)")


def _solve_gaussian(points: list[SystemSpec], *_) -> list[_Outcome]:
    outcomes = []
    for result in gaussian.steady_states(points):
        if isinstance(result, _SOLVER_ERRORS):
            outcomes.append(_failure(result))
            continue
        report, state = result
        # The slowest second moment decays at twice the slowest drift rate.
        outcomes.append((-2.0 * report.margin / TWO_PI,
                         gaussian.occupation(state, "a"),
                         f"drift spectrum; mechanical weight "
                         f"{report.mechanical_weight:.3f}"))
    return outcomes


def _read_oracle(generator: fock.FockGenerator
                 ) -> tuple[float, fock.TailReport, str]:
    """Occupation, tails and note of a Fock generator's stationary state."""
    state = fock.steady_state(generator)
    tails = fock.truncation_check(state, generator.config.tail_threshold)
    note = (f"steady-state occupation only; tail_a={tails.tail_a:.2e}; "
            f"tail_b={tails.tail_b:.2e}")
    return fock.mode_occupation(state, "a"), tails, note


def _solve_oracle(spec: SystemSpec, config: fock.OracleConfig, *_) -> _Outcome:
    n_f, _, note = _read_oracle(fock.build_generator(spec, config))
    return None, n_f, note


def _solve_semiclassical(spec: SystemSpec, _config,
                         omega_b: float | None) -> _Outcome:
    if omega_b is None:
        return None, None, "needs omega_b (circuit resonance) to place the drive"
    rate = circuit_cooling_rate(g_l=spec.g, f_b=omega_b, kappa0=spec.kappa0,
                                f_d=omega_b + spec.delta, f_a=spec.omega_a)
    if rate + spec.gamma0 == 0:
        raise ValueError("no stationary occupation: both rates vanish")
    n_f = spec.gamma0 * spec.n_a0 / (spec.gamma0 + rate)
    return rate, n_f, "zero-floor rate balance"


# Every solver is called once per grid as (points, oracle config, omega_b)
# and returns one (cooling rate, occupation, diagnostic) per point, None
# where it has no value.  The Gaussian layer solves the grid as one stack;
# the others are formulas or solves of one point each.
_SOLVERS = {
    "analytic": _each_point(_solve_analytic),
    "analytic-rwa": _each_point(_solve_analytic_rwa),
    "gaussian": _solve_gaussian,
    "oracle": _each_point(_solve_oracle),
    "semiclassical": _each_point(_solve_semiclassical),
}
SOLVER_NAMES = tuple(_SOLVERS)
# The drift spectrum's rate is the net decay of the slowest second moment,
# gamma0 + Gamma_c; every other layer's rate is Gamma_c alone.
_RATE_NAMES = {"gaussian": "gamma0 + Gamma_c"}


def check_solvers(solvers: tuple[str, ...], oracle_config) -> None:
    """Raise :class:`ConfigError` unless every solver can run in the config."""
    for place, solver in enumerate(solvers):
        if solver not in _SOLVERS:
            raise ConfigError(f"unknown solver {solver!r}")
        if solver in solvers[:place]:
            raise ConfigError(f"solver {solver!r} is listed twice")
    if not solvers:
        raise ConfigError("at least one solver must be selected")
    if "oracle" in solvers and oracle_config is None:
        raise ConfigError("the oracle solver requires an [oracle] section")


def _solve_grid(points: list[SystemSpec], values: list[float],
                solvers: tuple[str, ...],
                oracle_config: fock.OracleConfig | None,
                omega_b: float | None) -> list[SweepRow]:
    """Every solver of ``solvers`` on every point, as the rows of the swept
    ``values``; each solver takes the whole grid in one call."""
    rows = [SweepRow(value, {}, {}, {}) for value in values]
    for solver in solvers:
        outcomes = _SOLVERS[solver](points, oracle_config, omega_b)
        for row, outcome in zip(rows, outcomes, strict=True):
            (row.rates[solver], row.occupations[solver],
             row.diagnostics[solver]) = outcome
    return rows


def solve_point(spec: SystemSpec, solvers: tuple[str, ...],
                oracle_config: fock.OracleConfig | None,
                omega_b: float | None, value: float) -> SweepRow:
    """Every solver of ``solvers`` at ``spec``, as the row of swept ``value``:
    :func:`run_sweep`'s evaluator on a grid of one point.

    ``solvers`` must have passed :func:`check_solvers`.  A solver failure
    (``ArithmeticError``, ``RuntimeError`` or ``ValueError``: the package's
    own errors, SuperLU, ``LinAlgError``) becomes the row's diagnostic and
    never stops the other solvers; any other exception is a programming
    error and propagates.
    """
    (row,) = _solve_grid([spec], [value], solvers, oracle_config, omega_b)
    return row


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Every solver on every grid point, one row per point in grid order.

    Each solver takes the whole grid in one call, and each row holds what
    :func:`solve_point` gives at its point: a solver failure is its row's
    diagnostic alone, and a programming error propagates.
    """
    # The constructor runs SystemSpec's checks on every point; tolist()
    # gives the Python floats that the rows carry.
    base = vars(spec.base)
    values = spec.grid.tolist()
    return _solve_grid([SystemSpec(**{**base, spec.parameter: value})
                        for value in values], values, spec.solvers,
                       spec.oracle_config, spec.omega_b)


def layer_note(solver: str, diagnostic: str, rate: float | None) -> str:
    """A layer's diagnostic, then its rate labelled by ``_RATE_NAMES``."""
    rate_text = ("" if rate is None else
                 f"{_RATE_NAMES.get(solver, 'Gamma_c')} = {rate:.6e} Hz")
    return "; ".join(filter(None, (diagnostic, rate_text)))


def layer_line(solver: str, occupation: float | None, note: str) -> str:
    """One layer's report line: its occupation or ``no value``, then its
    note (:func:`layer_note`) in brackets."""
    return (f"  {solver:<14s} "
            + ("no value" if occupation is None else f"{occupation:.8e}")
            + (f"   [{note}]" if note else ""))


def _number_column(values: list[float | None]) -> list[str]:
    return ["" if value is None else f"{value:.17e}" for value in values]


def render_csv(rows: list[SweepRow], solvers: tuple[str, ...]) -> str:
    """Render sweep rows to CSV text (stable column contract).

    Columns: ``swept_value``, then ``gamma_c_<solver>`` and ``n_f_<solver>``
    per solver, then ``diag_<solver>`` per solver.  Missing values are empty
    fields whose diagnostic column says why.

    The bytes are those of ``csv.writer(lineterminator="\\n")`` on the same
    fields: numbers are ``%.17e`` text (full precision, so identical inputs
    give byte-identical output), missing numbers are empty, text fields (the
    header and the diagnostics) are quoted exactly as ``csv.writer`` quotes
    them, and every line ends in ``"\\n"``.  A ``%.17e`` string holds no
    delimiter, quote or line break, so only text goes through the writer,
    each distinct text once.
    """
    if not rows:
        raise ValueError("cannot emit an empty sweep")
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    # Written alone, an empty field is the record '""'; inside a row it is
    # empty, so it never goes through the one-field writer.
    quoted = {"": ""}

    def text(field: str) -> str:
        if field not in quoted:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow((field,))
            quoted[field] = buffer.getvalue()[:-1]
        return quoted[field]

    header = ["swept_value"]
    for solver in solvers:
        header += [f"gamma_c_{solver}", f"n_f_{solver}"]
    header += [f"diag_{solver}" for solver in solvers]
    columns = [_number_column([row.value for row in rows])]
    for solver in solvers:
        columns += [_number_column([row.rates.get(solver) for row in rows]),
                    _number_column([row.occupations.get(solver)
                                    for row in rows])]
    columns += [[text(row.diagnostics.get(solver, "")) for row in rows]
                for solver in solvers]
    lines = [",".join(map(text, header)), *map(",".join, zip(*columns)), ""]
    return "\n".join(lines)


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
        lines += [layer_line(name, self.occupations.get(name),
                             self.notes.get(name, ""))
                  for name in sorted(self.occupations.keys() | self.notes.keys())]
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
        return "\n".join(lines) + "\n"


def compare(spec: SystemSpec, oracle_config: fock.OracleConfig,
            omega_b: float | None = None) -> ComparisonReport:
    """Stationary occupations from every solver layer at one point.

    Every table layer but the oracle comes from :func:`solve_point`: a
    failing layer has no value, and its note is :func:`layer_note`.  The
    oracle pair (with and without the counter-rotating term, sharing the RWA
    sector factors) is read as the table's ``oracle`` entry reads its state,
    with its tails in its note, but raises on failure, since its gap is
    reported against the backaction floor.
    """
    row = solve_point(spec, tuple(s for s in _SOLVERS if s != "oracle"),
                      oracle_config, omega_b, spec.delta)
    occupations = {solver: n_f for solver, n_f in row.occupations.items()
                   if n_f is not None}
    notes = {solver: layer_note(solver, row.diagnostics[solver], rate)
             for solver, rate in row.rates.items()}
    full = fock.build_generator(
        spec, replace(oracle_config, include_counter_rotating=True))
    occupations["oracle-full"], tails, notes["oracle-full"] = _read_oracle(full)
    # full.rwa reuses the RWA sector factors that the full solve made.
    occupations["oracle-rwa"], _, notes["oracle-rwa"] = _read_oracle(full.rwa)

    return ComparisonReport(
        spec=spec,
        occupations=occupations,
        backaction_gap=occupations["oracle-full"] - occupations["oracle-rwa"],
        backaction_floor=analytic.backaction_floor(spec),
        tails=tails,
        notes=notes,
    )
