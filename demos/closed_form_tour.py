"""Tour of the closed-form cooling theory on the headline parameter set.

A 20 MHz nanomechanical beam (linewidth 2 kHz, ~20 thermal quanta at 20 mK)
couples to a 7.5 GHz LC circuit (linewidth 4 MHz) through a gate-modulated
bilinear coupling of 2 MHz.  Driving the modulation on the first red sideband
up-converts beam quanta into the circuit, which dissipates them.
"""
import numpy as np

from modcool import SystemSpec, analytic, effective_temperature, thermal_occupation
from dataclasses import replace

spec = SystemSpec(
    omega_a=20e6,    # beam frequency [Hz]
    delta=-20e6,     # drive detuning from the LC resonance [Hz]
    g=2e6,           # bilinear coupling [Hz]
    gamma0=2e3,      # beam linewidth [Hz]
    kappa0=4e6,      # circuit linewidth [Hz]
    n_a0=thermal_occupation(20e6, 0.020),
    n_b0=thermal_occupation(7.5e9, 0.020),
)

print("bath occupations")
print(f"  beam    n_a0 = {spec.n_a0:.3f}   (20 MHz at 20 mK)")
print(f"  circuit n_b0 = {spec.n_b0:.3e} (7.5 GHz at 20 mK, effectively zero)")
print()

a_minus, a_plus = analytic.sideband_rates(spec)
print("on the first red sideband (-delta = omega_a)")
print(f"  cooling rate Gamma_c     = {analytic.cooling_rate(spec):.6e} Hz")
print(f"  exchange rate A_minus    = {a_minus:.6e} Hz")
print(f"  pair-creation rate A_plus= {a_plus:.6e} Hz")
print(f"  backaction floor n_0     = {analytic.backaction_floor(spec):.4e}")
print(f"  stationary occupation    = {analytic.final_occupation(spec):.5f}")
print(f"  without pair creation    = {analytic.rwa_final_occupation(spec):.5f}"
      "   (floor gone: limited by gamma0 alone)")
print()

# The modulated circuit acts as a reservoir at a drastically reduced
# temperature: T0 scaled by |delta| / f_b.
print(f"effective reservoir temperature: "
      f"{effective_temperature(spec, 0.020, 7.5e9) * 1e6:.1f} uK "
      f"(bath at 20000 uK)")
print()

# Without modulation the coupling is static and the detuning is the full
# circuit frequency: the induced rate collapses by ~12 orders of magnitude.
static = replace(spec, delta=-7.5e9)
print(f"static coupling: Gamma_c = {analytic.cooling_rate(static):.3e} Hz "
      f"<< gamma0, so n_f/n_a0 = "
      f"{analytic.final_occupation(static) / spec.n_a0:.6f} (no cooling)")
print()

# Cooling saturates against the floor as the drive strengthens.
print("coupling sweep at fixed detuning:")
for g in np.array([0.2, 0.5, 1.0, 2.0, 3.0]) * 1e6:
    point = replace(spec, g=g)
    print(f"  g = {g / 1e6:3.1f} MHz -> Gamma_c = "
          f"{analytic.cooling_rate(point):.3e} Hz, "
          f"n_f = {analytic.final_occupation(point):.5f}")
