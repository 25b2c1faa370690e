"""Command-line front end for steady states, sweeps and figure-data runs.

Exit codes: 0 on success, 1 for configuration errors, 2 for solver errors
(including a sweep on which every row failed), 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import analytic, fock, gaussian, sweep
from .model import (
    SystemSpec,
    coupling_constants,
    effective_temperature,
    implied_mass,
    lc_frequency,
)
from .sweep import ConfigError, SweepSpec

# Parameters behind the published detuning sweeps: 20 MHz beam, 4 MHz circuit
# linewidth, 2 kHz mechanical linewidth, about 20 thermal quanta at 20 mK,
# circuit resonance at 7.5 GHz.
FIGURE_BASE = SystemSpec(omega_a=20e6, delta=-20e6, g=2e6, gamma0=2e3,
                         kappa0=4e6, n_a0=20.0, n_b0=0.0)
FIGURE_OMEGA_B = 7.5e9
FIGURE_COUPLINGS = (2e6, 1e6)

# Oracle-friendly unit-rescaled benchmark used by `compare` when no config
# is given: everything in units of the mechanical frequency.
SCALED_BASE = SystemSpec(omega_a=1.0, delta=-1.0, g=0.02, gamma0=1e-3,
                         kappa0=0.2, n_a0=1.0, n_b0=0.0)
SCALED_DIMS = (25, 8)


def _default_solvers(text: str | None) -> tuple[str, ...]:
    if text is None:
        return ("analytic", "gaussian")
    return tuple(s.strip() for s in text.split(","))


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _load(args) -> sweep.Config:
    """Parse ``--config`` once, then apply ``--grid`` and ``--scaled``."""
    if args.config is None:
        raise ConfigError(f"{args.command} needs --config")
    with open(args.config, "r") as handle:
        text = handle.read()
    config = sweep.load_config(text)
    swept = config.sweep
    if swept is not None and getattr(args, "grid", None) is not None:
        swept = replace(swept, grid=sweep.parse_grid(args.grid))
    if getattr(args, "scaled", False):
        # In units of omega_a a circuit resonance in Hz no longer applies.
        return config._replace(
            base=sweep.rescale_for_oracle(config.base), omega_b=None,
            sweep=None if swept is None else sweep.rescale_sweep(swept))
    return config._replace(sweep=swept)


def _cmd_steady(args) -> int:
    config = _load(args)
    solvers = _default_solvers(args.solvers)
    spec = SweepSpec(base=config.base, parameter="delta",
                     grid=np.array([config.base.delta]), solvers=solvers,
                     oracle_config=config.oracle, omega_b=config.omega_b)
    rows = sweep.run_sweep(spec)
    row = rows[0]
    for solver in solvers:
        rate = row.rates[solver]
        occ = row.occupations[solver]
        rate_text = "-" if rate is None else f"{rate:.6e} Hz"
        occ_text = "-" if occ is None else f"{occ:.6e}"
        note = row.diagnostics.get(solver, "")
        print(f"{solver:<14s} gamma_c = {rate_text:<16s} n_f = {occ_text}"
              + (f"   [{note}]" if note else ""))
    if args.out is not None:
        _write_text(args.out, sweep.render_csv(rows, solvers))
    if all(row.rates[s] is None and row.occupations[s] is None
           for s in solvers):
        return 2
    return 0


def _cmd_evolve(args) -> int:
    base = _load(args).base
    n_a = base.n_a0 if args.initial_n_a is None else args.initial_n_a
    if not 0 < args.duration < math.inf:
        raise ConfigError(
            f"--duration must be positive and finite, got {args.duration}")
    if args.points < 2:
        raise ConfigError(f"--points must be at least 2, got {args.points}")
    if not 0 <= n_a < math.inf:
        raise ConfigError(
            f"--initial-n-a must be non-negative and finite, got {n_a}")
    model = gaussian.build_drift(base)
    initial = gaussian.thermal_state(n_a, base.n_b0)
    trajectory = gaussian.evolve(model, initial, args.duration,
                                 num_points=args.points)
    lines = ["time_s,n_a,n_b"]
    n_a = trajectory.occupations("a")
    n_b = trajectory.occupations("b")
    for t, na, nb in zip(trajectory.times, n_a, n_b):
        lines.append(f"{t:.17e},{na:.17e},{nb:.17e}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"final n_a = {n_a[-1]:.6e}, n_b = {n_b[-1]:.6e} "
          f"after {args.duration:.3e} s", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    spec = _load(args).sweep
    if spec is None:
        raise ConfigError("missing [sweep] section")
    if args.solvers is not None:
        spec = replace(spec, solvers=_default_solvers(args.solvers))
    rows = sweep.run_sweep(spec)
    text = sweep.render_csv(rows, spec.solvers)
    _write_text(args.out, text)
    all_failed = all(
        row.rates[s] is None and row.occupations[s] is None
        for row in rows for s in spec.solvers)
    return 2 if all_failed else 0


def _figure_rows(solvers: tuple[str, ...], grid: np.ndarray,
                 omega_b: float | None):
    """Merge one sweep per coupling value into labelled column groups."""
    merged = None
    labels = []
    for g in FIGURE_COUPLINGS:
        base = replace(FIGURE_BASE, g=g)
        spec = SweepSpec(base=base, parameter="delta", grid=grid,
                         solvers=solvers, omega_b=omega_b)
        rows = sweep.run_sweep(spec)
        tag = f"g{g / 1e6:g}MHz"
        labels += [f"{solver}-{tag}" for solver in solvers]
        if merged is None:
            merged = [sweep.SweepRow(value=row.value, rates={},
                                     occupations={}, diagnostics={})
                      for row in rows]
        for target, row in zip(merged, rows):
            for solver in solvers:
                key = f"{solver}-{tag}"
                target.rates[key] = row.rates[solver]
                target.occupations[key] = row.occupations[solver]
                target.diagnostics[key] = row.diagnostics[solver]
    return merged, tuple(labels)


def _figure_grid(args) -> np.ndarray:
    if args.grid is not None:
        return sweep.parse_grid(args.grid)
    return np.linspace(-1.5, -0.5, 201) * FIGURE_BASE.omega_a


def _cmd_fig2(args) -> int:
    rows, labels = _figure_rows(("analytic", "analytic-rwa"),
                                _figure_grid(args), None)
    _write_text(args.out, sweep.render_csv(rows, labels))
    return 0


def _cmd_fig3(args) -> int:
    rows, labels = _figure_rows(("analytic", "semiclassical"),
                                _figure_grid(args), FIGURE_OMEGA_B)
    _write_text(args.out, sweep.render_csv(rows, labels))
    return 0


def _cmd_compare(args) -> int:
    if args.config is None:
        base = SCALED_BASE
        oracle_config = fock.OracleConfig(dims=SCALED_DIMS)
        omega_b = None
    else:
        base, omega_b, oracle_config, _, _ = _load(args)
        if oracle_config is None:
            raise ConfigError("compare needs an [oracle] section")
    report = sweep.compare(base, oracle_config, omega_b=omega_b)
    text = report.render()
    _write_text(args.out, text)
    if args.out is not None:
        print(f"comparison written to {args.out}", file=sys.stderr)
    return 0


def _cmd_design(args) -> int:
    base, _, _, circuit, _ = _load(args)
    if circuit is None:
        raise ConfigError("design needs the circuit route: [circuit], "
                          "[mechanical] and [drive] sections")
    couplings = coupling_constants(circuit)
    lines = [
        "derived circuit quantities",
        f"  LC resonance f_b        = {lc_frequency(circuit):.6e} Hz",
        f"  circuit linewidth k0    = {base.kappa0:.6e} Hz",
        f"  photon-number coupling  = {couplings.g_r:.6e} Hz",
        f"  bilinear coupling g_l   = {couplings.g_l:.6e} Hz",
        f"  coupling ratio g_l/g_r  = {couplings.g_l / couplings.g_r:.4g}",
        f"  implied beam mass       = "
        f"{implied_mass(base.omega_a, circuit.delta_x0):.6e} kg",
        "",
        "reduced rotating-frame system",
        f"  omega_a = {base.omega_a:.6e} Hz   delta = {base.delta:.6e} Hz",
        f"  g = {base.g:.6e} Hz   gamma0 = {base.gamma0:.6e} Hz   "
        f"kappa0 = {base.kappa0:.6e} Hz",
        f"  n_a0 = {base.n_a0:.6g}   n_b0 = {base.n_b0:.6g}",
        "",
        "cooling forecast",
        f"  cooling rate Gamma_c    = {analytic.cooling_rate(base):.6e} Hz",
        f"  backaction floor n_0    = {analytic.backaction_floor(base):.6e}",
        f"  stationary occupation   = {analytic.final_occupation(base):.6e}",
        f"  effective bath temp     = "
        f"{effective_temperature(base, circuit.t0, lc_frequency(circuit)):.6e} K",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcool",
        description="Cooling of a nanomechanical mode by a modulated "
                    "linear coupling: steady states, sweeps and "
                    "cross-solver comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scaled=True):
        p.add_argument("--config", help="configuration file")
        p.add_argument("--out", help="output file (default: stdout)")
        if scaled:
            p.add_argument("--scaled", action="store_true",
                           help="rescale to omega_a = 1 and cap n_a0 at 1 "
                                "(oracle-safe units)")

    p = sub.add_parser("steady", help="stationary occupation at the "
                                      "configured point")
    add_common(p)
    p.add_argument("--solvers", help="comma list from: "
                                     + ", ".join(sweep.SOLVER_NAMES))
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("evolve", help="time evolution of the Gaussian state")
    add_common(p)
    p.add_argument("--duration", type=float, required=True,
                   help="evolution time in seconds")
    p.add_argument("--points", type=int, default=400,
                   help="number of output samples")
    p.add_argument("--initial-n-a", type=float, default=None,
                   help="initial mechanical occupation (default: bath value)")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("sweep", help="run the sweep described by the config")
    add_common(p)
    p.add_argument("--solvers", help="override the configured solver list")
    p.add_argument("--grid", help="override grid, 'start:stop:n' with units")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fig2", help="stationary occupation versus detuning "
                                    "(full and no-counter-rotating forms, "
                                    "two drive strengths)")
    add_common(p, scaled=False)
    p.add_argument("--grid", help="override grid, 'start:stop:n' with units")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="cooling rate versus detuning "
                                    "(quantum and semiclassical forms)")
    add_common(p, scaled=False)
    p.add_argument("--grid", help="override grid, 'start:stop:n' with units")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("compare", help="cross-solver comparison at one point")
    add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("design", help="circuit parameters -> reduced system "
                                      "report")
    add_common(p, scaled=False)
    p.set_defaults(func=_cmd_design)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on its own for --help (0) and usage errors; fold
        # the latter into the config-error code.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # solver-level failure
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
