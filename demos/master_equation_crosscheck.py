"""Cross-validate every solver layer on one oracle-sized parameter point.

Fock-space master equations only fit in memory for small occupations, so the
comparison runs in units of the beam frequency with a one-quantum bath:
omega_a = 1, delta = -1, kappa0 = 0.2, gamma0 = 1e-3, g = 0.02.  Occupations
are invariant under the overall frequency rescaling, and every closed form
here is affine in n_a0, so nothing is lost.

Six stationary occupations are compared, and the difference between the
full and exchange-only master equations is held against the closed-form
backaction floor kappa0^2/(16 omega_a^2) -- the floor exists because of the
pair-creation half of the coupling, and vanishes with it.

Last, the two dynamical layers relax the beam from the same thermal start:
the Fock trajectory (the Liouvillian exponentiated in the real coordinates
of the density matrix) against the exact covariance propagation.
"""
import numpy as np

from modcool import SystemSpec, fock, gaussian, sweep
from modcool.cli import SCALED_OMEGA_B

point = SystemSpec(omega_a=1.0, delta=-1.0, g=0.02, gamma0=1e-3, kappa0=0.2,
                   n_a0=1.0, n_b0=0.0)

# truncation (14, 7) is already converged to ~1e-9 here; the acceptance
# suite repeats this at (25, 8)
report = sweep.compare(point, fock.OracleConfig(dims=(14, 7)),
                       omega_b=SCALED_OMEGA_B)
print(report.render())

gap, floor = report.backaction_gap, report.backaction_floor
print(f"pair-creation term contributes {gap:.4e} quanta; "
      f"closed-form floor {floor:.4e} "
      f"({abs(gap - floor) / floor:.1%} apart)")

# relaxation from n_a = 0.3 over five circuit lifetimes: only the even-k
# sector of the Fock space is propagated
duration, points = 5.0 / point.kappa0, 50
generator = fock.build_generator(point, fock.OracleConfig(dims=(14, 7)))
states = fock.evolve(generator, fock.thermal_density((14, 7), 0.3, 0.0),
                     duration, num_points=points).states
n_fock = np.array([fock.mode_occupation(s, "a") for s in states])
n_gauss = gaussian.evolve(gaussian.build_drift(point),
                          gaussian.thermal_state(0.3, 0.0), duration,
                          num_points=points).occupations("a")
print(f"relaxation over {duration:g} s: n_a {n_fock[0]:.4f} -> "
      f"{n_fock[-1]:.4f}; max |n_a(fock) - n_a(gaussian)| = "
      f"{np.max(np.abs(n_fock - n_gauss)):.2e}")
