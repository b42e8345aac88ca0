"""Mass gap versus coupling, and the charging staircase.

The first excited level of the rotor chain is always a spin triplet; its
distance from the ground state shrinks as the bond coupling grows. Turning
on a chemical potential along z eventually makes a charged state the ground
state — the crossing point equals the neutral/charged sector-minimum gap.

Run:  python3 demos/gap_and_charging.py
"""

import numpy as np

from rotorsim import ChainSpec, charge_scan, mass_gap

print("mass gap of a 3-site open chain (l_max = 2):")
for kappa in (0.0, 0.5, 1.0, 2.0, 4.0):
    gap, degeneracy = mass_gap(ChainSpec(3, 2, kappa=kappa))
    print(f"  kappa = {kappa:4.1f}:  gap = {gap:.6f}  (degeneracy {degeneracy})")

spec = ChainSpec(2, 2, kappa=1.0)
scan = charge_scan(spec, np.linspace(0.0, 4.0, 17))
print("\ncharging staircase, 2 sites at kappa = 1:")
for mu, q in zip(scan.mu_values, scan.ground_charge):
    print(f"  mu = {mu:5.2f}:  Q = {q:+d}")
print(f"critical chemical potential: {scan.critical_mu:.9f}")
