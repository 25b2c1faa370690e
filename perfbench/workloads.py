"""The four workloads: seeded inputs, the timed operation and its gate.

Each workload offers

* ``draw(rng)`` -- the inputs of one operation; ``rng`` is ``None`` for the
  default seed, which gives the CLI and demo inputs, else a ``random.Random``
  that draws from ranges on which the seed code passes every check;
* ``run(inputs)`` -- the operation a user waits for, through the public API;
* ``expect(inputs)`` -- its reference, computed by :mod:`reference` or fixed;
* ``check(output, expected)`` -- a list of problems (empty when the gate
  passes) and the cross-check figures it measured;
* ``fingerprint(output)`` -- bytes that change when any output bit does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace

import numpy as np

import reference
from modcool import cli, fock, gaussian, sweep

# Truncation of the Fock runs.  Occupations at (14, 7) agree with the exact
# Gaussian values to about 1e-12 at the CLI's scaled point and to 1e-10 at
# the corners of the seeded ranges below.
ORACLE_DIMS = (14, 7)
OCCUPATION_RTOL = 1e-9
TRACE_ATOL = 1e-6
# Fitted rates agree with the drift spectrum to 0.16-1.8 % where they are
# gated; the spectral rate itself passes exactly.
RATE_RTOL = 0.03
# Within this distance of the red sideband, |delta / omega_a + 1|, the modes
# hybridise and one exponential does not describe the decay: rates there are
# not gated.
HYBRID_BAND = 0.25

# Seeded ranges, in units of the mechanical frequency.
DELTA_RANGE = (-1.05, -0.95)
G_RANGE = (0.02, 0.034)
INITIAL_N_RANGE = (0.2, 0.35)
SWEEP_RANGE = (-1.5, -0.5)
# Eleven points put about ten operations into a run; 21-point sweeps gave
# four to six, and their run-to-run spread was twice as wide.
SWEEP_POINTS = 11
SWEEP_SOLVERS = ("analytic", "analytic-rwa", "gaussian", "semiclassical")
# Circuit-to-beam frequency ratio of the figure system (7.5 GHz / 20 MHz).
OMEGA_B_RATIO = cli.FIGURE_OMEGA_B / cli.FIGURE_BASE.omega_a
RELAXATION_POINTS = 50
RELAXATION_N_A = 0.3


def _mismatches(actual: dict, expected: dict, rtol: float,
                where: str = "") -> list[str]:
    problems = []
    for key, want in expected.items():
        got = actual.get(key)
        if got is None or not abs(got - want) <= rtol * abs(want):
            problems.append(f"{where}{key} = {got!r}, reference {want!r} "
                            f"(rtol {rtol:g})")
    return problems


def _hex(values) -> bytes:
    return " ".join("None" if v is None else float(v).hex()
                    for v in values).encode()


def _scaled_point(rng):
    if rng is None:
        return cli.SCALED_BASE
    return replace(cli.SCALED_BASE, delta=rng.uniform(*DELTA_RANGE),
                   g=rng.uniform(*G_RANGE))


class OraclePoint:
    name = "oracle-point"

    def draw(self, rng):
        return _scaled_point(rng)

    def run(self, spec):
        return sweep.compare(spec, fock.OracleConfig(dims=ORACLE_DIMS),
                             omega_b=OMEGA_B_RATIO * spec.omega_a)

    def expect(self, spec):
        full = reference.lyapunov_occupation(spec)
        return {
            "analytic": reference.final_occupation(spec),
            "analytic-rwa": reference.rwa_final_occupation(spec),
            "gaussian": full,
            "oracle-full": full,
            "oracle-rwa": reference.lyapunov_occupation(spec, False),
            "semiclassical": reference.semiclassical_occupation(
                spec, OMEGA_B_RATIO * spec.omega_a),
        }

    def check(self, report, expected):
        occupations = report.occupations
        problems = _mismatches(occupations, expected, OCCUPATION_RTOL)
        lyapunov = occupations["gaussian"]
        rel_err = abs(occupations["oracle-full"] - lyapunov) / abs(lyapunov)
        if not rel_err <= OCCUPATION_RTOL:
            problems.append(f"oracle-full vs gaussian: rel err {rel_err:.3e}")
        return problems, {"xcheck.oracle_gaussian.rel_err": rel_err}

    def fingerprint(self, report):
        names = sorted(report.occupations)
        return _hex([report.occupations[n] for n in names]
                    + [report.backaction_gap, report.backaction_floor,
                       report.tails.tail_a, report.tails.tail_b])


class DetuningSweep:
    name = "detuning-sweep"

    def draw(self, rng):
        low, high = SWEEP_RANGE
        if rng is None:
            points = np.linspace(low, high, SWEEP_POINTS)
        else:
            # One point per equal stratum keeps the cost of a sweep steady.
            width = (high - low) / SWEEP_POINTS
            points = np.array([low + (k + rng.random()) * width
                               for k in range(SWEEP_POINTS)])
        return points * cli.FIGURE_BASE.omega_a

    def run(self, grid):
        return sweep.run_sweep(sweep.SweepSpec(
            base=cli.FIGURE_BASE, parameter="delta", grid=grid,
            solvers=SWEEP_SOLVERS, omega_b=cli.FIGURE_OMEGA_B))

    def expect(self, grid):
        expected = []
        for delta in grid:
            spec = replace(cli.FIGURE_BASE, delta=float(delta))
            exact = {
                "gamma_c_analytic": reference.cooling_rate(spec),
                "n_f_analytic": reference.final_occupation(spec),
                "n_f_analytic-rwa": reference.rwa_final_occupation(spec),
                "n_f_gaussian": reference.lyapunov_occupation(spec),
                "gamma_c_semiclassical": reference.semiclassical_rate(
                    spec, cli.FIGURE_OMEGA_B),
                "n_f_semiclassical": reference.semiclassical_occupation(
                    spec, cli.FIGURE_OMEGA_B),
            }
            gated = abs(spec.delta / spec.omega_a + 1.0) >= HYBRID_BAND
            rate = {"gamma_c_gaussian": reference.spectral_rate(spec)}
            expected.append((float(delta), exact, rate if gated else {}))
        return expected

    def check(self, rows, expected):
        problems = []
        worst = 0.0
        if len(rows) != len(expected):
            return [f"{len(rows)} rows for {len(expected)} points"], {}
        for row, (delta, exact, rate) in zip(rows, expected):
            actual = {}
            for solver in SWEEP_SOLVERS:
                actual[f"gamma_c_{solver}"] = row.rates[solver]
                actual[f"n_f_{solver}"] = row.occupations[solver]
            where = f"delta={delta:.6e}: "
            if row.value != delta:
                problems.append(f"{where}row value {row.value!r}")
            problems += _mismatches(actual, exact, OCCUPATION_RTOL, where)
            problems += _mismatches(actual, rate, RATE_RTOL, where)
            if rate and actual["gamma_c_gaussian"] is not None:
                want = rate["gamma_c_gaussian"]
                worst = max(worst,
                            abs(actual["gamma_c_gaussian"] - want) / want)
        return problems, {"xcheck.sweep.rate_rel_err": worst}

    def fingerprint(self, rows):
        parts = []
        for row in rows:
            parts.append(_hex([row.value]
                              + [row.rates[s] for s in SWEEP_SOLVERS]
                              + [row.occupations[s] for s in SWEEP_SOLVERS]))
            parts += [row.diagnostics[s].encode() for s in SWEEP_SOLVERS]
        return b"\n".join(parts)


class Relaxation:
    name = "relaxation"

    def draw(self, rng):
        n_a = RELAXATION_N_A if rng is None else rng.uniform(*INITIAL_N_RANGE)
        return _scaled_point(rng), n_a

    def run(self, inputs):
        spec, n_a = inputs
        duration = 5.0 / spec.kappa0
        generator = fock.build_generator(spec, fock.OracleConfig(dims=ORACLE_DIMS))
        states = fock.evolve(generator,
                             fock.thermal_density(ORACLE_DIMS, n_a, spec.n_b0),
                             duration, num_points=RELAXATION_POINTS).states
        n_fock = np.array([fock.mode_occupation(s, "a") for s in states])
        trajectory = gaussian.evolve(gaussian.build_drift(spec),
                                     gaussian.thermal_state(n_a, spec.n_b0),
                                     duration, num_points=RELAXATION_POINTS)
        return n_fock, trajectory.occupations("a")

    def expect(self, inputs):
        spec, n_a = inputs
        return reference.relaxation_trace(spec, n_a, spec.n_b0,
                                          5.0 / spec.kappa0, RELAXATION_POINTS)

    def check(self, traces, expected):
        n_fock, n_gauss = traces
        problems = []
        diff = float(np.max(np.abs(n_fock - n_gauss)))
        if not diff <= TRACE_ATOL:
            problems.append(f"fock vs gaussian traces differ by {diff:.3e}")
        for label, trace in (("fock", n_fock), ("gaussian", n_gauss)):
            err = float(np.max(np.abs(trace - expected)))
            if trace.shape != expected.shape or not err <= TRACE_ATOL:
                problems.append(f"{label} trace off the exact one by {err:.3e}")
        return problems, {"xcheck.relaxation.max_abs_diff": diff}

    def fingerprint(self, traces):
        return b"".join(np.ascontiguousarray(t).tobytes() for t in traces)


class Figures:
    """``modcool fig2`` and ``fig3`` on their default grids.

    The inputs are the CLI defaults for every seed, because the gate is byte
    identity with the CSV the seed code writes.  The CSV goes to standard
    output, captured in memory: written with ``--out``, the 100 MB of files
    a run rewrites made its wall time follow the disk's write-back rather
    than modcool.
    """

    name = "figures"
    COMMANDS = ("fig2", "fig3")
    # SHA-256 of the seed code's fig2 and fig3 CSV.
    EXPECTED = (
        "e00c1f3ea99cf5cfff1ad3fc6cb24651d89534774bfaef0790e7e9e20df45645",
        "831731402eb5158b570acc750efaf5f449fa9c4845f4630cc9034d9e85b40d2c",
    )

    def draw(self, _rng):
        return None

    def run(self, _inputs):
        outputs = []
        for command in self.COMMANDS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main([command])
            if code != 0:
                raise RuntimeError(f"modcool {command} exited with {code}")
            outputs.append(buffer.getvalue().encode())
        return tuple(outputs)

    def expect(self, _inputs):
        return self.EXPECTED

    def check(self, outputs, expected):
        problems = [f"{command} sha256 {hashlib.sha256(data).hexdigest()}, "
                    f"reference {want}"
                    for command, data, want in zip(self.COMMANDS, outputs,
                                                   expected)
                    if hashlib.sha256(data).hexdigest() != want]
        return problems, {}

    def fingerprint(self, outputs):
        return b"\0".join(outputs)


WORKLOADS = {w.name: w for w in (OraclePoint, DetuningSweep, Relaxation,
                                 Figures)}
