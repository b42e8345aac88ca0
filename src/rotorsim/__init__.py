"""Feasibility analysis and quantum simulation of an electron-on-spheres rotor chain."""

from importlib import resources

from .constants import CODATA2018
from .design import (
    DesignError,
    EffectiveParams,
    Environment,
    FeasibilityReport,
    Geometry,
    effective_params,
    feasibility,
    scan,
)
from .dynamics import EvolutionResult, RampSchedule, adiabatic_ratio, physical_ramp_time, propagate
from .lattice import (
    Basis,
    ChainSpec,
    DimensionCapError,
    InvalidSpecError,
    SparseOperator,
    build_hamiltonian,
    direction_matrices,
    sector_basis,
    site_basis,
)
from .spectra import (
    ChargeScan,
    CorrelationProfile,
    NonConvergenceError,
    SpectrumResult,
    charge_scan,
    correlation,
    correlation_profile,
    lowest_eigenpairs,
    mass_gap,
    spectrum,
)

__version__ = "0.1.0"


def bundled_config(name: str):
    """Path to a bundled example geometry config ('micro' or 'nano')."""
    return resources.files("rotorsim.data") / f"{name}.json"
