"""Device-design engine for the electron-on-spheres chain.

Maps the geometry of the device (insulating spheres holding single
electrons, surrounded by superconducting spheres and wires) to the
effective low-energy parameters of the simulated field theory, and
checks every validity condition the design has to satisfy.

All inputs and outputs are SI; dimensionless quantities are labeled as
such in the field names.

effective_params(geom) returns every effective parameter, feasibility(geom, env)
adds every validity check, and scan evaluates feasibility over a grid of one
parameter. The formulas they compose (capacitance_denominator, interaction_strength,
effective_speed, effective_coupling, rotational_quantum, chemical_potential) are public.

Every formula takes a float or a numpy array in any one length, temperature
or field, and applies numpy's functions to it: np.log, np.exp, np.sqrt, and
np.power through _pow, which reads NaN where a finite base overflows (Python's
pow would raise there). feasibility and scan evaluate the same expressions on
arrays: scan once over its whole grid, feasibility on a one-point grid whose
row 0 it reads, so a report equals its point's scan row bit for bit. Where the
formulas divide by zero or overflow, the arrays carry inf and NaN on, and a
point with a non-finite effective parameter or a NaN ratio is refused.
"""

import math
from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace

import numpy as np

from .constants import CODATA2018
from .lattice import DimensionCapError
from .serialize import Table

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
    "rotational_quantum",
    "energy_level",
    "chemical_potential",
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
VERDICTS = (PASS, WARN, FAIL)  # in order of severity
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
            # a bool is refused, as ChainSpec refuses one
            if isinstance(value, bool) or not (isinstance(value, (int, float))
                                               and math.isfinite(value) and value > 0):
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
            if isinstance(value, bool) or not (isinstance(value, (int, float))
                                               and math.isfinite(value) and value >= 0):
                raise DesignError(name, f"must be non-negative and finite, got {value!r}")


@dataclass(frozen=True)
class EffectiveParams:
    """Effective low-energy parameters derived from a Geometry.

    interaction_strength -- K, coefficient of (r_{i+1}-r_i)^2 in the bond
                            potential, J/m^2
    effective_speed      -- excitation propagation speed, m/s
    effective_coupling   -- dimensionless sigma-model coupling g_eff
    dynamical_scale      -- generated inverse length Lambda = exp(-2 pi / g_eff^2) / dx, 1/m;
                            one-loop lattice-cutoff scheme, trusted to a factor of ~2 only
    rotational_quantum   -- single-sphere energy unit hbar^2/(2 m rho^2), J
    rotor_coupling       -- dimensionless bond strength kappa = 2 K m rho^4 / hbar^2;
                            kappa * g_eff^4 = 9 identically (N=3 continuum matching)
    gap_energy           -- hbar * effective_speed * dynamical_scale, J
    gap_temperature      -- gap_energy / k_B, K
    critical_field       -- m * effective_speed * dynamical_scale / e, T, where
                            the ground-state charge first jumps
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
    """Aggregated design check for one geometry/environment pair.

    hierarchy_ratios -- (name, ratio, verdict) along lambda >> dx >> gamma >> rho,
                        alpha >> delta, with the excitation wavelength lambda = 1/Lambda
    inductance_ratio -- size of the wire-inductance kinetic terms (must be << 1)
    temperature_ratio, second_order_zeeman_ratio -- k_B T and the quadratic field
                        term e^2 A^2 / (2 m), |A| ~ B rho / 3, each over the gap
    """

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
    return (4.0 * geom.conducting_sphere_radius
            + geom.lattice_spacing / np.log(geom.lattice_spacing / geom.wire_radius))


def interaction_strength(geom: Geometry) -> float:
    """Image-charge bond coefficient K in J/m^2: V(r, r') = K (r' - r)^2."""
    return (
        CODATA2018.coulomb_factor
        * _pow(geom.conducting_sphere_radius, 2)
        / (_pow(geom.sphere_gap, 4) * capacitance_denominator(geom))
    )


def effective_speed(geom: Geometry) -> float:
    """Propagation speed of chain excitations, m/s.

    Evaluated directly from the geometry; equals
    dx * sqrt(2 K / m) with K = interaction_strength(geom), which the
    test suite checks as an independent route.
    """
    ratio = (
        2.0
        * _pow(geom.conducting_sphere_radius, 2)
        * _pow(geom.lattice_spacing, 2)
        / _pow(geom.sphere_gap, 4)
    )
    return CODATA2018.light_speed * np.sqrt(
        CODATA2018.classical_electron_radius * ratio / capacitance_denominator(geom)
    )


def effective_coupling(geom: Geometry) -> float:
    """Dimensionless coupling g_eff of the emergent N=3 sigma model."""
    inner = (
        CODATA2018.bohr_radius
        * capacitance_denominator(geom)
        / (2.0 * _pow(geom.conducting_sphere_radius, 2))
    )
    return (math.sqrt(3.0) * (geom.sphere_gap / geom.insulating_sphere_radius)
            * _pow(inner, 0.25))


def rotational_quantum(geom: Geometry) -> float:
    """Single-sphere energy unit E0 = hbar^2 / (2 m rho^2), J."""
    return CODATA2018.hbar**2 / (
        2.0 * CODATA2018.electron_mass * _pow(geom.insulating_sphere_radius, 2)
    )


def energy_level(ell: int, geom: Geometry) -> float:
    """Single-sphere level E_ell = hbar^2 ell(ell+1) / (2 m rho^2), J."""
    if isinstance(ell, bool) or not (math.isfinite(ell) and ell >= 0 and ell == int(ell)):
        raise DesignError("ell", f"must be a non-negative integer, got {ell!r}")
    return rotational_quantum(geom) * ell * (ell + 1)


def chemical_potential(magnetic_field: float) -> float:
    """Effective chemical potential e*hbar*B/(3m) realized by a field B, J."""
    if not np.all(np.isfinite(magnetic_field) & (magnetic_field >= 0)):
        raise DesignError("magnetic_field",
                          f"must be non-negative and finite, got {magnetic_field!r}")
    return CODATA2018.electron_charge * CODATA2018.hbar * magnetic_field / (
        3.0 * CODATA2018.electron_mass
    )


def _inductance_ratio(geom, c_eff):
    return (
        4.0
        * (geom.conducting_sphere_radius / geom.lattice_spacing)
        * _pow(c_eff / CODATA2018.light_speed, 2)
        * np.log(geom.lattice_spacing / geom.wire_radius)
    )


def _second_order_zeeman_ratio(magnetic_field, geom, gap):
    vector_potential = magnetic_field * geom.insulating_sphere_radius / 3.0
    quadratic = _pow(CODATA2018.electron_charge * vector_potential, 2) / (
        2.0 * CODATA2018.electron_mass
    )
    return _per(quadratic, gap)


def _pow(x, p):
    """np.power(x, p) in floats, reading NaN where a finite x overflows (Python's pow
    raises there)."""
    y = np.power(x, p, dtype=float)
    return np.where(np.isinf(y) & np.isfinite(x), np.nan, y)


def _per(numerator, denominator):
    """numerator / denominator on arrays, reading 0 for a zero numerator and inf
    for a zero denominator (the dynamical scale and the gap underflow to 0 deep
    in the weak-coupling regime); a NaN numerator stays NaN."""
    return np.where(numerator == 0.0, 0.0, numerator / denominator)


def _severity(ratio, pass_at, warn_at, larger_is_better=True):
    """Index into VERDICTS of one check, elementwise (a NaN ratio fails)."""
    if larger_is_better:
        return 2 - (ratio >= warn_at) - (ratio >= pass_at)
    return 2 - (ratio < warn_at) - (ratio < pass_at)


def _hierarchy_ratios(geom, scale):
    # an infinite wavelength (zero scale) trivially satisfies lambda >> dx
    wavelength = _per(1.0, scale)
    return [
        ("lambda/dx", wavelength / geom.lattice_spacing),
        ("dx/gamma", geom.lattice_spacing / geom.sphere_gap),
        ("gamma/rho", geom.sphere_gap / geom.insulating_sphere_radius),
        ("gamma/alpha", geom.sphere_gap / geom.conducting_sphere_radius),
        ("rho/delta", geom.insulating_sphere_radius / geom.wire_radius),
        ("alpha/delta", geom.conducting_sphere_radius / geom.wire_radius),
    ]


def effective_params(geom: Geometry) -> EffectiveParams:
    """Evaluate every derived parameter for one geometry, each public formula once.

    A Geometry whose formulas divide by zero or overflow is refused with
    DesignError("geometry"), as feasibility refuses it, without a numpy
    warning. On a grid of arrays (_report's) inf and NaN carry on.
    """
    with np.errstate(all="ignore"):
        strength = interaction_strength(geom)
        speed = effective_speed(geom)
        coupling = effective_coupling(geom)
        scale = np.exp(-2.0 * math.pi / _pow(coupling, 2)) / geom.lattice_spacing
        gap = CODATA2018.hbar * speed * scale
        eff = EffectiveParams(
            interaction_strength=strength,
            effective_speed=speed,
            effective_coupling=coupling,
            dynamical_scale=scale,
            rotational_quantum=rotational_quantum(geom),
            rotor_coupling=(2.0 * strength * CODATA2018.electron_mass
                            * _pow(geom.insulating_sphere_radius, 4) / CODATA2018.hbar**2),
            gap_energy=gap,
            gap_temperature=gap / CODATA2018.boltzmann,
            critical_field=CODATA2018.electron_mass * speed * scale / CODATA2018.electron_charge,
        )
    if isinstance(geom, Geometry) and not all(map(math.isfinite, vars(eff).values())):
        raise DesignError("geometry", f"formulas divide by zero or overflow for {geom}")
    return eff


def feasibility(geom: Geometry, env: Environment) -> FeasibilityReport:
    """Full design check: effective parameters plus every validity condition.

    Row 0 of a one-point scan, as floats.
    """
    return _report(_grid(geom), _grid(env), lambda i: (geom, env), lambda column: column[0].item())


def _grid(owner):
    """The fields of a Geometry or Environment as one-element arrays."""
    return SimpleNamespace(**{name: np.array([value]) for name, value in vars(owner).items()})


def _report(geom, env, point, pick=lambda column: column):
    """The FeasibilityReport of grid points, each field pick(array over them).

    geom and env hold one-element arrays and at most one grid column; point(i)
    is the (Geometry, Environment) of grid point i. The first point where an
    effective parameter is not finite or a ratio is NaN is refused as
    geometry, and the first where the Zeeman term is NaN as magnetic_field.
    The numpy functions run with their warnings off: a division by zero or an
    overflow is read off the inf and NaN it leaves.
    """
    with np.errstate(all="ignore"):
        eff = effective_params(geom)
        ratios = _hierarchy_ratios(geom, eff.dynamical_scale)
        ind_ratio = _inductance_ratio(geom, eff.effective_speed)
        temp_ratio = _per(CODATA2018.boltzmann * env.temperature, eff.gap_energy)
        zeeman = _second_order_zeeman_ratio(env.magnetic_field, geom, eff.gap_energy)
    bad_geometry = reduce(np.logical_or, [~np.isfinite(value) for value in vars(eff).values()]
                          + [np.isnan(ratio) for _, ratio in ratios]
                          + [np.isnan(ind_ratio), np.isnan(temp_ratio)])
    bad_geometry, bad_field = np.broadcast_arrays(bad_geometry, np.isnan(zeeman))
    failing = np.flatnonzero(bad_geometry | bad_field)
    if failing.size:
        geom, env = point(failing[0])
        if bad_geometry[failing[0]]:
            raise DesignError("geometry", f"formulas divide by zero or overflow for {geom}")
        raise DesignError("magnetic_field", f"Zeeman term overflows at {env.magnetic_field!r} T")

    hierarchy = [_severity(ratio, HIERARCHY_PASS, HIERARCHY_WARN) for _, ratio in ratios]
    ind = _severity(ind_ratio, INDUCTANCE_PASS, INDUCTANCE_WARN, larger_is_better=False)
    temp = _severity(temp_ratio, TEMPERATURE_PASS, TEMPERATURE_WARN, larger_is_better=False)
    verdicts = np.array(VERDICTS)
    return FeasibilityReport(
        effective=EffectiveParams(*map(pick, vars(eff).values())),
        hierarchy_ratios=tuple((name, pick(ratio), pick(verdicts[severity]))
                               for (name, ratio), severity in zip(ratios, hierarchy)),
        inductance_ratio=pick(ind_ratio),
        inductance_verdict=pick(verdicts[ind]),
        temperature_ratio=pick(temp_ratio),
        temperature_verdict=pick(verdicts[temp]),
        chemical_potential=pick(chemical_potential(env.magnetic_field)),
        second_order_zeeman_ratio=pick(zeeman),
        overall_verdict=pick(verdicts[reduce(np.maximum, hierarchy + [ind, temp])]),
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
# scan-table columns after the scanned parameter: fields of report.effective, then of report
_EFFECTIVE_COLUMNS = ("interaction_strength", "effective_speed", "effective_coupling",
                      "dynamical_scale", "rotor_coupling", "gap_energy", "gap_temperature",
                      "critical_field")
_REPORT_COLUMNS = ("inductance_ratio", "temperature_ratio", "chemical_potential",
                   "second_order_zeeman_ratio", "overall_verdict")


def scan(geom: Geometry, env: Environment, parameter: str, start: float, stop: float,
         steps: int):
    """Sweep one parameter over [start, stop] and report a summary per step.

    Spacing is geometric; a zero start is allowed for temperature and
    magnetic field only, in which case the spacing is linear. The result
    is a serialize.Table of the summary columns in grid order: float64
    arrays and the overall_verdict strings. Each of its rows equals
    feasibility at that point bit for bit: both run the same numpy
    expressions, which round an element alike at any grid length.

    The formulas run once, on the whole grid as an array. A grid extreme
    that is not a valid Geometry or Environment refuses the scan, and so
    does the first point that feasibility would refuse.
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
    owner = geom if target == "geometry" else env

    def at(i):
        """(geom, env) of grid point i, validated."""
        changed = type(owner)(**{**vars(owner), attr: values[i].item()})
        return (changed, env) if target == "geometry" else (geom, changed)

    # each validity condition bounds the scanned field on one side only, so
    # the grid is valid when its two extremes are
    at(0)
    try:
        at(-1)
    except DesignError:
        # dx > delta, the one condition that varies along a grid, fails at its
        # end. delta enters the formulas only through ln(dx/delta), so only
        # the first point is checked for a refusal that comes before it
        _report(*map(_grid, at(0)), at)
        raise
    grids = {"geometry": _grid(geom), "environment": _grid(env)}
    setattr(grids[target], attr, values)
    report = _report(grids["geometry"], grids["environment"], at)
    columns = [np.broadcast_to(column, values.shape) for column in [values] + _row_values(report)]
    # every column is a float but the last, overall_verdict
    return Table((parameter,) + _EFFECTIVE_COLUMNS + _REPORT_COLUMNS,
                 columns[:-1] + [columns[-1].tolist()])


def _row_values(report: FeasibilityReport) -> list:
    eff = report.effective
    return ([getattr(eff, name) for name in _EFFECTIVE_COLUMNS]
            + [getattr(report, name) for name in _REPORT_COLUMNS])
