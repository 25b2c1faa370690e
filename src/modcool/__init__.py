"""Cooling of a nanomechanical mode by a periodically modulated linear coupling.

The package is organised by solver layer:

* :mod:`modcool.model` -- physical parameters, unit conventions and the
  reduction of circuit quantities to the rotating-frame system.
* :mod:`modcool.analytic` -- closed-form cooling rates, floors and
  stationary occupations.
* :mod:`modcool.gaussian` -- exact covariance-matrix solver (Lyapunov
  steady state, time evolution, stability analysis and spectral rates).
* :mod:`modcool.fock` -- truncated Fock-space master-equation oracle.
* :mod:`modcool.semiclassical` -- circuit-theory backaction model.
* :mod:`modcool.sweep` -- parameter sweeps, cross-solver comparison and
  CSV emission; :mod:`modcool.cli` is the command-line front end.

``modcool.gaussian`` and ``modcool.fock`` both expose ``steady_state`` and
``evolve``; address them through their modules.
"""

from . import analytic, fock, gaussian, model, semiclassical, sweep
from .model import (
    CircuitParams,
    CouplingConstants,
    ModeParams,
    SystemSpec,
    build_system,
    circuit_damping_rate,
    coupling_constants,
    effective_temperature,
    implied_mass,
    lc_frequency,
    thermal_occupation,
)

__all__ = [
    "analytic", "fock", "gaussian", "model", "semiclassical", "sweep",
    "CircuitParams", "CouplingConstants", "ModeParams", "SystemSpec",
    "build_system", "circuit_damping_rate", "coupling_constants",
    "effective_temperature", "implied_mass", "lc_frequency",
    "thermal_occupation",
]

__version__ = "0.1.0"
