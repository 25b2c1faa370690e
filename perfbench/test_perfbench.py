"""Tests of the benchmark's own arithmetic, tracing and gates.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from modcool import analytic, cli, fock, gaussian, semiclassical, sweep  # noqa: E402


def test_tail_needs_eleven_samples_and_keeps_ten_beyond():
    assert stats.tail(range(10)) is None
    assert stats.tail(range(11)) == (100.0 / 11, 0.0, 11)
    values = list(range(1000))
    random.Random(1).shuffle(values)
    percentile, value, count = stats.tail(values)
    assert (percentile, value, count) == (99.0, 989.0, 1000)
    assert sum(v > value for v in values) == 10


def test_median_and_quartile_spread():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    # quantiles(n=4) of 1..9 (exclusive method) are 2.5 and 7.5.
    assert stats.quartile_spread(range(1, 10)) == pytest.approx(5.0 / 5.0)


def test_normalised_time_drops_the_kernel_and_divides_by_the_slowdown():
    nominal = speed.NOMINAL_S
    assert speed.slowdown([nominal, 2 * nominal, 3 * nominal]) == \
        pytest.approx(2.0)
    # 3 s of wall time, 0.2 s of it in the kernel, on a host running at
    # half its quiet speed: 1.4 s of work.
    assert speed.normalised(3.0, 0.2, 2.0) == pytest.approx(1.4)


def test_sampler_window_takes_the_lookback_and_the_spent_time():
    sampler = speed.SpeedSampler()
    sampler.samples = [speed.NOMINAL_S] * 5
    sampler.spent = 1.0
    mark = sampler.mark()
    sampler.samples += [3 * speed.NOMINAL_S] * speed.LOOKBACK
    sampler.spent = 1.25
    spent, factor = sampler.since(mark)
    assert spent == pytest.approx(0.25)
    assert factor == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        speed.SpeedSampler().since((0, 0.0))


def _span(name, start, end, parent, tags=None):
    return [name, start, end, parent, tags]


def test_self_time_is_span_minus_direct_children():
    spans = [
        _span("sweep.run_sweep", 0.0, 10.0, -1),
        _span("gaussian.evolve", 1.0, 4.0, 0),
        _span("gaussian.fit_cooling_rate", 5.0, 9.0, 0),
        _span("gaussian.occupation", 6.0, 7.0, 2),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_nested_calls_of_a_layer_count_once():
    spans = [
        _span("sweep.run_sweep", 0.0, 10.0, -1),
        _span("analytic.final_occupation", 1.0, 3.0, 0),
        _span("analytic.cooling_rate", 1.5, 2.0, 1),
        _span("analytic.cooling_rate", 4.0, 4.5, 0),
        _span("fock.steady_state", 5.0, 8.0, 0, {"variant": "full"}),
        _span("fock.steady_state", 8.0, 9.0, 0, {"variant": "rwa"}),
    ]
    metrics = tracing.op_metrics(spans)
    assert metrics["analytic.calls"] == 2
    assert metrics["analytic.s"] == pytest.approx(2.5)
    assert metrics["fock.steady_state.calls"] == 2
    assert metrics["fock.steady_state.full.s"] == pytest.approx(3.0)
    assert metrics["fock.steady_state.rwa.s"] == pytest.approx(1.0)
    assert metrics["sweep.run_sweep.self_s"] == pytest.approx(10.0 - 6.5)
    assert metrics["gaussian.calls"] == 0


def test_tracer_records_layers_and_restores_the_program():
    original = sweep.circuit_cooling_rate
    tracer = tracing.Tracer({"analytic": analytic, "gaussian": gaussian,
                             "fock": fock, "semiclassical": semiclassical,
                             "sweep": sweep, "cli": cli})
    spec = sweep.SweepSpec(base=cli.FIGURE_BASE, parameter="delta",
                           grid=np.array([-25e6, -20e6]),
                           solvers=("analytic", "semiclassical"),
                           omega_b=cli.FIGURE_OMEGA_B)
    plain = sweep.run_sweep(spec)
    with tracer:
        assert sweep.circuit_cooling_rate is not original
        traced = sweep.run_sweep(spec)
    spans = tracer.take()
    assert sweep.circuit_cooling_rate is original
    assert tracer.spans == []
    assert [row.rates for row in traced] == [row.rates for row in plain]
    names = [span[0] for span in spans]
    assert names[0] == "sweep.run_sweep"
    assert names.count("semiclassical.circuit_cooling_rate") == 2
    assert all(span[3] >= 0 for span in spans[1:])
    metrics = tracing.op_metrics(spans)
    assert metrics["analytic.calls"] == 4
    assert metrics["semiclassical.calls"] == 2


def test_default_seed_gives_cli_inputs_and_seeds_repeat():
    oracle = workloads.OraclePoint()
    assert oracle.draw(None) == cli.SCALED_BASE
    assert oracle.draw(random.Random(7)) == oracle.draw(random.Random(7))
    sweep_workload = workloads.DetuningSweep()
    np.testing.assert_array_equal(
        sweep_workload.draw(None),
        np.linspace(-1.5, -0.5, 11) * cli.FIGURE_BASE.omega_a)
    grid = sweep_workload.draw(random.Random(3)) / cli.FIGURE_BASE.omega_a
    assert np.all(np.diff(grid) > 0) and -1.5 <= grid[0] and grid[-1] <= -0.5
    spec, n_a = workloads.Relaxation().draw(random.Random(5))
    assert -1.05 <= spec.delta <= -0.95 and 0.02 <= spec.g <= 0.034
    assert 0.2 <= n_a <= 0.35


def _perturb(values, factor):
    return {key: value * factor for key, value in values.items()}


def test_oracle_gate_passes_and_fails_on_a_perturbed_reference():
    workload = workloads.OraclePoint()
    spec = workload.draw(None)
    expected = workload.expect(spec)
    report = workload.run(spec)
    problems, measured = workload.check(report, expected)
    assert problems == []
    assert measured["xcheck.oracle_gaussian.rel_err"] < 1e-11
    problems, _ = workload.check(report, _perturb(expected, 1 + 1e-8))
    assert len(problems) == len(expected)


def test_sweep_gate_passes_and_fails_on_a_perturbed_reference():
    workload = workloads.DetuningSweep()
    grid = np.array([-1.5, -1.45, -0.6]) * cli.FIGURE_BASE.omega_a
    expected = workload.expect(grid)
    rows = workload.run(grid)
    assert workload.check(rows, expected)[0] == []
    for index in (0, 1):
        # index 0: exact values at rtol 1e-9; index 1: the Gaussian rate.
        factor = 1 + 1e-8 if index == 0 else 1.05
        broken = [(d, *(_perturb(part, factor) if i == index else part
                        for i, part in enumerate(parts)))
                  for d, *parts in expected]
        assert len(workload.check(rows, broken)[0]) > 0


def test_relaxation_gate_passes_and_fails_on_a_perturbed_reference():
    workload = workloads.Relaxation()
    inputs = workload.draw(None)
    expected = workload.expect(inputs)
    traces = workload.run(inputs)
    problems, measured = workload.check(traces, expected)
    assert problems == []
    assert measured["xcheck.relaxation.max_abs_diff"] < 1e-7
    assert len(workload.check(traces, expected + 1e-5)[0]) == 2


def test_figures_gate_passes_and_fails_on_a_perturbed_reference():
    workload = workloads.Figures()
    outputs = workload.run(None)
    assert workload.check(outputs, workload.expect(None))[0] == []
    broken = ("0" * 64, workload.EXPECTED[1])
    assert len(workload.check(outputs, broken)[0]) == 1


def test_rwa_reference_matches_the_exact_gaussian_steady_state():
    # With the counter-rotating part kept, the reference drift is the
    # program's; the RWA variant must give a different, smaller occupation.
    spec = replace(cli.SCALED_BASE, g=0.03)
    state = gaussian.steady_state(gaussian.build_drift(spec))
    assert reference.lyapunov_occupation(spec) == pytest.approx(
        gaussian.occupation(state, "a"), rel=1e-12)
    assert reference.lyapunov_occupation(spec, False) < \
        reference.lyapunov_occupation(spec)
