"""Device-design engine for the electron-on-spheres chain.

Maps the geometry of the device (insulating spheres holding single
electrons, surrounded by superconducting spheres and wires) to the
effective low-energy parameters of the simulated field theory, and
checks every validity condition the design has to satisfy.

All inputs and outputs are SI; dimensionless quantities are labeled as
such in the field names.

Primitive formulas (capacitance_denominator, interaction_strength, effective_speed,
effective_coupling, rotational_quantum, chemical_potential) read the geometry;
effective_params calls each once and derives the rest, which dynamical_scale,
rotor_coupling, gap_energy_and_temperature and critical_field read from it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA2018, Constants
from .lattice import DimensionCapError

__all__ = [
    "DesignError",
    "Geometry",
    "Environment",
    "EffectiveParams",
    "FeasibilityReport",
    "capacitance_denominator",
    "interaction_strength",
    "effective_speed",
    "effective_coupling",
    "dynamical_scale",
    "rotational_quantum",
    "rotor_coupling",
    "gap_energy_and_temperature",
    "energy_level",
    "chemical_potential",
    "critical_field",
    "inductance_ratio",
    "second_order_zeeman_ratio",
    "hierarchy_report",
    "effective_params",
    "feasibility",
    "scan",
    "SCAN_PARAMETERS",
    "SCAN_STEPS_CAP",
]

PASS = "pass"
WARN = "warn"
FAIL = "fail"

# "much greater than" thresholds for the length-scale hierarchy: the two
# reference geometries contain ratios as small as ~2.1, so anything
# stricter would reject working designs.
HIERARCHY_PASS = 3.0
HIERARCHY_WARN = 2.0
INDUCTANCE_PASS = 0.01
INDUCTANCE_WARN = 0.1
TEMPERATURE_PASS = 0.1
TEMPERATURE_WARN = 0.5
# grid points per scan; every row is held in memory and written twice
SCAN_STEPS_CAP = 100_000


class DesignError(ValueError):
    """Invalid geometry/environment input; carries the offending field."""

    def __init__(self, field_name, message):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class Geometry:
    """Device length scales, all in meters.

    wire_radius       -- radius of the superconducting wires (delta)
    insulating_sphere_radius -- radius of the spheres holding the electrons (rho)
    conducting_sphere_radius -- radius of the superconducting spheres (alpha)
    sphere_gap        -- distance between insulating and conducting spheres (gamma)
    lattice_spacing   -- distance between chain elements (dx)
    """

    wire_radius: float
    insulating_sphere_radius: float
    conducting_sphere_radius: float
    sphere_gap: float
    lattice_spacing: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DesignError(name, f"must be a positive finite length, got {value!r}")
        if self.lattice_spacing <= self.wire_radius:
            raise DesignError(
                "lattice_spacing",
                "must exceed wire_radius (the wire-capacitance logarithm requires dx > delta)",
            )


@dataclass(frozen=True)
class Environment:
    """Operating conditions: temperature in K, magnetic field in T."""

    temperature: float = 0.0
    magnetic_field: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                raise DesignError(name, f"must be non-negative and finite, got {value!r}")


@dataclass(frozen=True)
class EffectiveParams:
    """Effective low-energy parameters derived from a Geometry.

    interaction_strength -- K, coefficient of (r_{i+1}-r_i)^2 in the bond
                            potential, J/m^2
    effective_speed      -- excitation propagation speed, m/s
    effective_coupling   -- dimensionless sigma-model coupling g_eff
    dynamical_scale      -- dynamically generated inverse length, 1/m
    rotational_quantum   -- single-sphere energy unit hbar^2/(2 m rho^2), J
    rotor_coupling       -- dimensionless bond strength 2 K m rho^4 / hbar^2
    gap_energy           -- hbar * effective_speed * dynamical_scale, J
    gap_temperature      -- gap_energy / k_B, K
    critical_field       -- m * effective_speed * dynamical_scale / e, T
                            (order estimate, prefactor fixed at 1)
    """

    interaction_strength: float
    effective_speed: float
    effective_coupling: float
    dynamical_scale: float
    rotational_quantum: float
    rotor_coupling: float
    gap_energy: float
    gap_temperature: float
    critical_field: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Aggregated design check for one geometry/environment pair."""

    effective: EffectiveParams
    hierarchy_ratios: tuple  # of (name, ratio, verdict)
    inductance_ratio: float
    inductance_verdict: str
    temperature_ratio: float
    temperature_verdict: str
    chemical_potential: float
    second_order_zeeman_ratio: float
    overall_verdict: str


def capacitance_denominator(geom: Geometry) -> float:
    """Capacitance length 4*alpha + dx/ln(dx/delta), in meters.

    The first addend comes from the conducting spheres, the second from
    the long wires.
    """
    log_ratio = math.log(geom.lattice_spacing / geom.wire_radius)
    return 4.0 * geom.conducting_sphere_radius + geom.lattice_spacing / log_ratio


def interaction_strength(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Image-charge bond coefficient K in J/m^2: V(r, r') = K (r' - r)^2."""
    return (
        constants.coulomb_factor
        * geom.conducting_sphere_radius**2
        / (geom.sphere_gap**4 * capacitance_denominator(geom))
    )


def effective_speed(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Propagation speed of chain excitations, m/s.

    Evaluated directly from the geometry; equals
    dx * sqrt(2 K / m) with K = interaction_strength(geom), which the
    test suite checks as an independent route.
    """
    ratio = (
        2.0
        * geom.conducting_sphere_radius**2
        * geom.lattice_spacing**2
        / geom.sphere_gap**4
    )
    return constants.light_speed * math.sqrt(
        constants.classical_electron_radius * ratio / capacitance_denominator(geom)
    )


def effective_coupling(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Dimensionless coupling g_eff of the emergent N=3 sigma model."""
    inner = (
        constants.bohr_radius
        * capacitance_denominator(geom)
        / (2.0 * geom.conducting_sphere_radius**2)
    )
    return math.sqrt(3.0) * (geom.sphere_gap / geom.insulating_sphere_radius) * inner**0.25


def dynamical_scale(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Dynamically generated inverse length Lambda in 1/m.

    One-loop lattice-cutoff scheme: Lambda = exp(-2 pi / g_eff^2) / dx.
    The scheme constant is a convention; downstream checks treat this
    value as reliable to a factor of ~2 only.
    """
    return effective_params(geom, constants).dynamical_scale


def rotational_quantum(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Single-sphere energy unit E0 = hbar^2 / (2 m rho^2), J."""
    return constants.hbar**2 / (
        2.0 * constants.electron_mass * geom.insulating_sphere_radius**2
    )


def rotor_coupling(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Dimensionless bond strength kappa = 2 K m rho^4 / hbar^2.

    Satisfies kappa * g_eff^4 = 9 identically (N=3 continuum matching).
    """
    return effective_params(geom, constants).rotor_coupling


def gap_energy_and_temperature(geom: Geometry, constants: Constants = CODATA2018):
    """Mass gap hbar * c_eff * Lambda, returned as (J, K)."""
    eff = effective_params(geom, constants)
    return eff.gap_energy, eff.gap_temperature


def energy_level(ell: int, geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Single-sphere level E_ell = hbar^2 ell(ell+1) / (2 m rho^2), J."""
    if ell < 0 or ell != int(ell):
        raise DesignError("ell", f"must be a non-negative integer, got {ell!r}")
    return rotational_quantum(geom, constants) * ell * (ell + 1)


def chemical_potential(magnetic_field: float, geom: Geometry,
                       constants: Constants = CODATA2018) -> float:
    """Effective chemical potential e*hbar*B/(3m) realized by a field B, J."""
    if magnetic_field < 0:
        raise DesignError("magnetic_field", f"must be non-negative, got {magnetic_field!r}")
    return constants.electron_charge * constants.hbar * magnetic_field / (
        3.0 * constants.electron_mass
    )


def critical_field(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Field m * c_eff * Lambda / e where the ground-state charge first jumps, T.

    Order estimate only: the prefactor is fixed at 1.
    """
    return effective_params(geom, constants).critical_field


def inductance_ratio(geom: Geometry, constants: Constants = CODATA2018) -> float:
    """Relative size of the wire-inductance kinetic terms (must be << 1)."""
    return _inductance_ratio(geom, effective_speed(geom, constants), constants)


def _inductance_ratio(geom, c_eff, constants):
    return (
        4.0
        * (geom.conducting_sphere_radius / geom.lattice_spacing)
        * (c_eff / constants.light_speed) ** 2
        * math.log(geom.lattice_spacing / geom.wire_radius)
    )


def second_order_zeeman_ratio(magnetic_field: float, geom: Geometry,
                              constants: Constants = CODATA2018) -> float:
    """Size of the quadratic field term e^2 A^2/(2m) relative to the gap.

    Order estimate with |A| ~ B*rho/3 on the sphere surface.
    """
    if magnetic_field < 0:
        raise DesignError("magnetic_field", f"must be non-negative, got {magnetic_field!r}")
    gap = effective_params(geom, constants).gap_energy
    return _second_order_zeeman_ratio(magnetic_field, geom, gap, constants)


def _second_order_zeeman_ratio(magnetic_field, geom, gap, constants):
    vector_potential = magnetic_field * geom.insulating_sphere_radius / 3.0
    quadratic = (constants.electron_charge * vector_potential) ** 2 / (
        2.0 * constants.electron_mass
    )
    if quadratic == 0.0:
        return 0.0
    return quadratic / gap if gap > 0.0 else math.inf


def _verdict(ratio, pass_at, warn_at, larger_is_better=True):
    if larger_is_better:
        if ratio >= pass_at:
            return PASS
        if ratio >= warn_at:
            return WARN
    else:
        if ratio < pass_at:
            return PASS
        if ratio < warn_at:
            return WARN
    return FAIL


def hierarchy_report(geom: Geometry, constants: Constants = CODATA2018):
    """Check the length-scale hierarchy lambda >> dx >> gamma >> rho, alpha >> delta.

    The excitation wavelength lambda is identified with 1/Lambda.
    Returns a list of (name, ratio, verdict); ratios should be large.
    """
    return _hierarchy(geom, dynamical_scale(geom, constants))


def _hierarchy(geom, scale):
    # the scale underflows to zero deep in the weak-coupling regime; an
    # infinite wavelength trivially satisfies lambda >> dx
    wavelength = 1.0 / scale if scale > 0.0 else math.inf
    ratios = [
        ("lambda/dx", wavelength / geom.lattice_spacing),
        ("dx/gamma", geom.lattice_spacing / geom.sphere_gap),
        ("gamma/rho", geom.sphere_gap / geom.insulating_sphere_radius),
        ("gamma/alpha", geom.sphere_gap / geom.conducting_sphere_radius),
        ("rho/delta", geom.insulating_sphere_radius / geom.wire_radius),
        ("alpha/delta", geom.conducting_sphere_radius / geom.wire_radius),
    ]
    return [
        (name, ratio, _verdict(ratio, HIERARCHY_PASS, HIERARCHY_WARN))
        for name, ratio in ratios
    ]


def effective_params(geom: Geometry, constants: Constants = CODATA2018) -> EffectiveParams:
    """Evaluate every derived parameter for one geometry, each formula once."""
    strength = interaction_strength(geom, constants)
    speed = effective_speed(geom, constants)
    coupling = effective_coupling(geom, constants)
    scale = math.exp(-2.0 * math.pi / coupling**2) / geom.lattice_spacing
    gap = constants.hbar * speed * scale
    return EffectiveParams(
        interaction_strength=strength,
        effective_speed=speed,
        effective_coupling=coupling,
        dynamical_scale=scale,
        rotational_quantum=rotational_quantum(geom, constants),
        rotor_coupling=(2.0 * strength * constants.electron_mass
                        * geom.insulating_sphere_radius**4 / constants.hbar**2),
        gap_energy=gap,
        gap_temperature=gap / constants.boltzmann,
        critical_field=constants.electron_mass * speed * scale / constants.electron_charge,
    )


def feasibility(geom: Geometry, env: Environment,
                constants: Constants = CODATA2018) -> FeasibilityReport:
    """Full design check: effective parameters plus every validity condition."""
    # arithmetic that leaves the float range is invalid input, not a crash
    try:
        eff = effective_params(geom, constants)
        hierarchy = _hierarchy(geom, eff.dynamical_scale)
        ind_ratio = _inductance_ratio(geom, eff.effective_speed, constants)
    except (ZeroDivisionError, OverflowError):
        raise DesignError("geometry", f"formulas divide by zero or overflow for {geom}") from None
    try:
        zeeman = _second_order_zeeman_ratio(env.magnetic_field, geom, eff.gap_energy, constants)
    except OverflowError:
        raise DesignError("magnetic_field", f"Zeeman term overflows at {env.magnetic_field!r} T"
                          ) from None

    ind_verdict = _verdict(ind_ratio, INDUCTANCE_PASS, INDUCTANCE_WARN, larger_is_better=False)

    thermal = constants.boltzmann * env.temperature
    if thermal == 0.0:
        temp_ratio = 0.0
    elif eff.gap_energy > 0.0:
        temp_ratio = thermal / eff.gap_energy
    else:
        temp_ratio = math.inf
    temp_verdict = _verdict(temp_ratio, TEMPERATURE_PASS, TEMPERATURE_WARN,
                            larger_is_better=False)

    all_verdicts = [v for _, _, v in hierarchy] + [ind_verdict, temp_verdict]
    if FAIL in all_verdicts:
        overall = FAIL
    elif WARN in all_verdicts:
        overall = WARN
    else:
        overall = PASS

    return FeasibilityReport(
        effective=eff,
        hierarchy_ratios=tuple(hierarchy),
        inductance_ratio=ind_ratio,
        inductance_verdict=ind_verdict,
        temperature_ratio=temp_ratio,
        temperature_verdict=temp_verdict,
        chemical_potential=chemical_potential(env.magnetic_field, geom, constants),
        second_order_zeeman_ratio=zeeman,
        overall_verdict=overall,
    )


# scan parameter name -> (target object, attribute)
SCAN_PARAMETERS = {
    "delta_m": ("geometry", "wire_radius"),
    "rho_m": ("geometry", "insulating_sphere_radius"),
    "alpha_m": ("geometry", "conducting_sphere_radius"),
    "gamma_m": ("geometry", "sphere_gap"),
    "dx_m": ("geometry", "lattice_spacing"),
    "temperature_K": ("environment", "temperature"),
    "magnetic_field_T": ("environment", "magnetic_field"),
}


def scan(geom: Geometry, env: Environment, parameter: str, start: float, stop: float,
         steps: int, constants: Constants = CODATA2018):
    """Sweep one parameter over [start, stop] and report a summary per step.

    Spacing is geometric; a zero start is allowed for temperature and
    magnetic field only, in which case the spacing is linear. Rows come
    back in grid order, each a dict of summary columns.
    """
    if parameter not in SCAN_PARAMETERS:
        raise DesignError("parameter", f"unknown scan parameter {parameter!r}; "
                          f"choose one of {sorted(SCAN_PARAMETERS)}")
    if steps < 2:
        raise DesignError("steps", f"need at least 2 steps, got {steps}")
    if steps > SCAN_STEPS_CAP:
        raise DimensionCapError(f"{steps} scan steps exceed the scan cap {SCAN_STEPS_CAP}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DesignError("range", f"need a finite range, got [{start}, {stop}]")
    if stop <= start:
        raise DesignError("range", f"need stop > start, got [{start}, {stop}]")
    target, attr = SCAN_PARAMETERS[parameter]
    if start <= 0:
        if target == "geometry" or start < 0:
            raise DesignError("range", "scan range must be positive for length parameters")
        values = np.linspace(start, stop, steps)
    else:
        values = np.geomspace(start, stop, steps)

    rows = []
    for value in values:
        g, e = geom, env
        if target == "geometry":
            g = Geometry(**{**vars(geom), attr: float(value)})
        else:
            e = Environment(**{**vars(env), attr: float(value)})
        report = feasibility(g, e, constants)
        rows.append(summary_row(parameter, float(value), report))
    return rows


def summary_row(parameter: str, value: float, report: FeasibilityReport) -> dict:
    """Flatten one FeasibilityReport into a scan-table row."""
    eff = report.effective
    row = {
        parameter: value,
        "interaction_strength": eff.interaction_strength,
        "effective_speed": eff.effective_speed,
        "effective_coupling": eff.effective_coupling,
        "dynamical_scale": eff.dynamical_scale,
        "rotor_coupling": eff.rotor_coupling,
        "gap_energy": eff.gap_energy,
        "gap_temperature": eff.gap_temperature,
        "critical_field": eff.critical_field,
        "inductance_ratio": report.inductance_ratio,
        "temperature_ratio": report.temperature_ratio,
        "chemical_potential": report.chemical_potential,
        "second_order_zeeman_ratio": report.second_order_zeeman_ratio,
        "overall_verdict": report.overall_verdict,
    }
    return row
