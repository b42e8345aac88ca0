"""Physical constants (CODATA 2018, SI units)."""

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Constants:
    """Fundamental constants used throughout the design formulas.

    Values are CODATA 2018; the design formulas read the CODATA2018
    instance.
    """

    electron_charge: float = 1.602176634e-19      # C (exact)
    electron_mass: float = 9.1093837015e-31       # kg
    hbar: float = 1.054571817e-34                 # J s
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    light_speed: float = 299792458.0              # m/s (exact)
    boltzmann: float = 1.380649e-23               # J/K (exact)

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value > 0.0:
                raise ValueError(f"constant {name} must be positive, got {value}")

    @cached_property
    def coulomb_factor(self) -> float:
        """e^2 / (4 pi eps0), in J m."""
        return self.electron_charge**2 / (4.0 * math.pi * self.vacuum_permittivity)

    @cached_property
    def classical_electron_radius(self) -> float:
        """e^2 / (4 pi eps0 m c0^2), in m."""
        return self.coulomb_factor / (self.electron_mass * self.light_speed**2)

    @cached_property
    def bohr_radius(self) -> float:
        """4 pi eps0 hbar^2 / (m e^2), in m."""
        return self.hbar**2 / (self.electron_mass * self.coulomb_factor)


CODATA2018 = Constants()
