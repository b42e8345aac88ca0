"""Physical constants (CODATA 2018, SI units) read by the design formulas."""

import math
from typing import NamedTuple


class _Codata(NamedTuple):
    electron_charge: float            # C (exact)
    electron_mass: float              # kg
    hbar: float                       # J s
    vacuum_permittivity: float        # F/m
    light_speed: float                # m/s (exact)
    boltzmann: float                  # J/K (exact)
    coulomb_factor: float             # e^2 / (4 pi eps0), J m
    classical_electron_radius: float  # e^2 / (4 pi eps0 m c0^2), m
    bohr_radius: float                # 4 pi eps0 hbar^2 / (m e^2), m


_E, _M, _HBAR = 1.602176634e-19, 9.1093837015e-31, 1.054571817e-34
_EPS0, _C = 8.8541878128e-12, 299792458.0
_COULOMB = _E**2 / (4.0 * math.pi * _EPS0)
CODATA2018 = _Codata(_E, _M, _HBAR, _EPS0, _C, 1.380649e-23,
                     _COULOMB, _COULOMB / (_M * _C**2), _HBAR**2 / (_M * _COULOMB))
