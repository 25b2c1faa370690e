"""Generate the detuning-sweep data sets: occupation and rate versus detuning.

Writes two plot-ready CSV files next to this script:

* sweep_occupation.csv -- stationary occupation versus detuning for the full
  rate balance and the no-pair-creation form, at 2 MHz and 1 MHz coupling.
* sweep_rate.csv -- cooling rate versus detuning from the quantum expression
  and from the semiclassical circuit theory, at the same couplings.

The files are the output of the `modcool fig2` / `modcool fig3` commands; the
summary below is read back from them.
"""
import csv
from pathlib import Path

import numpy as np

from modcool import cli

HERE = Path(__file__).parent


def figure_columns(command, path):
    """Run one figure command into ``path`` and return its numeric columns."""
    if cli.main([command, "--out", str(path)]) != 0:
        raise SystemExit(f"modcool {command} failed")
    with open(path, newline="") as handle:
        records = list(csv.DictReader(handle))
    return {key: np.array([float(r[key]) if r[key] else np.nan
                           for r in records])
            for key in records[0] if not key.startswith("diag_")}


out = HERE / "sweep_occupation.csv"
columns = figure_columns("fig2", out)
occupations = columns["n_f_analytic-g2MHz"]
best = int(np.argmin(occupations))
print(f"occupation sweep written to {out}")
print(f"  deepest cooling n_f = {occupations[best]:.5f} at "
      f"|delta|/omega_a = "
      f"{abs(columns['swept_value'][best]) / cli.FIGURE_BASE.omega_a:.3f}")

out = HERE / "sweep_rate.csv"
columns = figure_columns("fig3", out)
quantum = columns["gamma_c_analytic-g2MHz"]
circuit = columns["gamma_c_semiclassical-g2MHz"]
print(f"rate sweep written to {out}")
print(f"  peak quantum rate      {quantum.max():.4e} Hz")
print(f"  peak semiclassical rate {circuit.max():.4e} Hz")
print(f"  largest gap between the curves: "
      f"{np.max(np.abs(circuit - quantum)) / quantum.max():.2%} of peak")
