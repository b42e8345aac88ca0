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
or field, and feasibility and scan evaluate the same expressions: scan once
over its whole grid. Array arithmetic keeps to the operations that numpy
rounds as Python does (+, -, *, / and sqrt); log, exp and powers apply the
libm function to each element (_each). A grid row therefore equals the
report of its point bit for bit.
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .constants import CODATA2018
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
    log_ratio = _each(math.log, geom.lattice_spacing / geom.wire_radius)
    return 4.0 * geom.conducting_sphere_radius + geom.lattice_spacing / log_ratio


def interaction_strength(geom: Geometry) -> float:
    """Image-charge bond coefficient K in J/m^2: V(r, r') = K (r' - r)^2."""
    return (
        CODATA2018.coulomb_factor
        * _each(pow, geom.conducting_sphere_radius, 2)
        / (_each(pow, geom.sphere_gap, 4) * capacitance_denominator(geom))
    )


def effective_speed(geom: Geometry) -> float:
    """Propagation speed of chain excitations, m/s.

    Evaluated directly from the geometry; equals
    dx * sqrt(2 K / m) with K = interaction_strength(geom), which the
    test suite checks as an independent route.
    """
    ratio = (
        2.0
        * _each(pow, geom.conducting_sphere_radius, 2)
        * _each(pow, geom.lattice_spacing, 2)
        / _each(pow, geom.sphere_gap, 4)
    )
    return CODATA2018.light_speed * _each(
        math.sqrt, CODATA2018.classical_electron_radius * ratio / capacitance_denominator(geom)
    )


def effective_coupling(geom: Geometry) -> float:
    """Dimensionless coupling g_eff of the emergent N=3 sigma model."""
    inner = (
        CODATA2018.bohr_radius
        * capacitance_denominator(geom)
        / (2.0 * _each(pow, geom.conducting_sphere_radius, 2))
    )
    return (math.sqrt(3.0) * (geom.sphere_gap / geom.insulating_sphere_radius)
            * _each(pow, inner, 0.25))


def rotational_quantum(geom: Geometry) -> float:
    """Single-sphere energy unit E0 = hbar^2 / (2 m rho^2), J."""
    return CODATA2018.hbar**2 / (
        2.0 * CODATA2018.electron_mass * _each(pow, geom.insulating_sphere_radius, 2)
    )


def energy_level(ell: int, geom: Geometry) -> float:
    """Single-sphere level E_ell = hbar^2 ell(ell+1) / (2 m rho^2), J."""
    if ell < 0 or ell != int(ell):
        raise DesignError("ell", f"must be a non-negative integer, got {ell!r}")
    return rotational_quantum(geom) * ell * (ell + 1)


def chemical_potential(magnetic_field: float) -> float:
    """Effective chemical potential e*hbar*B/(3m) realized by a field B, J."""
    if np.any(magnetic_field < 0):
        raise DesignError("magnetic_field", f"must be non-negative, got {magnetic_field!r}")
    return CODATA2018.electron_charge * CODATA2018.hbar * magnetic_field / (
        3.0 * CODATA2018.electron_mass
    )


def _inductance_ratio(geom, c_eff):
    return (
        4.0
        * (geom.conducting_sphere_radius / geom.lattice_spacing)
        * _each(pow, c_eff / CODATA2018.light_speed, 2)
        * _each(math.log, geom.lattice_spacing / geom.wire_radius)
    )


def _second_order_zeeman_ratio(magnetic_field, geom, gap):
    vector_potential = magnetic_field * geom.insulating_sphere_radius / 3.0
    quadratic = _each(pow, CODATA2018.electron_charge * vector_potential, 2) / (
        2.0 * CODATA2018.electron_mass
    )
    return _per(quadratic, gap)


def _each(fn, x, *args):
    """fn(x, *args) for a float; for an array, the same call on each element.

    log, exp and every power of a quantity that may be an array go through
    here: numpy's own versions differ from libm in the last bit on some
    inputs. The Python functions also raise OverflowError where numpy's
    would return inf, which sends scan to its per-point path.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), float, x.size)
    return fn(x, *args)


def _per(numerator, denominator):
    """numerator / denominator, reading 0 for a zero numerator and inf for a
    denominator that is not positive (the dynamical scale and the gap
    underflow to 0 deep in the weak-coupling regime).

    Arrays divide plainly: scan evaluates them with divide and invalid
    flags raised, and redoes the grid point by point when one is.
    """
    if isinstance(numerator, np.ndarray) or isinstance(denominator, np.ndarray):
        return numerator / denominator
    if numerator == 0.0:
        return 0.0
    return numerator / denominator if denominator > 0.0 else math.inf


def _severity(ratio, pass_at, warn_at, larger_is_better=True):
    """Index into VERDICTS of one check (a NaN ratio fails); elementwise on arrays."""
    if larger_is_better:
        return 2 - (ratio >= warn_at) - (ratio >= pass_at)
    return 2 - (ratio < warn_at) - (ratio < pass_at)


def _verdicts(severity):
    """The VERDICTS entry of a severity, or an array of them for an array."""
    if isinstance(severity, np.ndarray):
        return np.array(VERDICTS)[severity]
    return VERDICTS[severity]


def _worst(severities):
    """The largest severity; elementwise when one of them is an array."""
    if any(isinstance(severity, np.ndarray) for severity in severities):
        return reduce(np.maximum, severities)
    return max(severities)


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
    """Evaluate every derived parameter for one geometry, each formula once."""
    strength = interaction_strength(geom)
    speed = effective_speed(geom)
    coupling = effective_coupling(geom)
    scale = _each(math.exp, -2.0 * math.pi / _each(pow, coupling, 2)) / geom.lattice_spacing
    gap = CODATA2018.hbar * speed * scale
    return EffectiveParams(
        interaction_strength=strength,
        effective_speed=speed,
        effective_coupling=coupling,
        dynamical_scale=scale,
        rotational_quantum=rotational_quantum(geom),
        rotor_coupling=(2.0 * strength * CODATA2018.electron_mass
                        * _each(pow, geom.insulating_sphere_radius, 4) / CODATA2018.hbar**2),
        gap_energy=gap,
        gap_temperature=gap / CODATA2018.boltzmann,
        critical_field=CODATA2018.electron_mass * speed * scale / CODATA2018.electron_charge,
    )


def feasibility(geom: Geometry, env: Environment) -> FeasibilityReport:
    """Full design check: effective parameters plus every validity condition."""
    return _report(geom, env)


def _report(geom, env):
    """feasibility of floats; of arrays when one field of geom or env is an array."""
    # arithmetic that leaves the float range is invalid input, not a crash
    try:
        eff = effective_params(geom)
        ratios = _hierarchy_ratios(geom, eff.dynamical_scale)
        ind_ratio = _inductance_ratio(geom, eff.effective_speed)
    except (ZeroDivisionError, OverflowError):
        raise DesignError("geometry", f"formulas divide by zero or overflow for {geom}") from None
    try:
        zeeman = _second_order_zeeman_ratio(env.magnetic_field, geom, eff.gap_energy)
    except OverflowError:
        raise DesignError("magnetic_field", f"Zeeman term overflows at {env.magnetic_field!r} T"
                          ) from None
    temp_ratio = _per(CODATA2018.boltzmann * env.temperature, eff.gap_energy)

    hierarchy = [_severity(ratio, HIERARCHY_PASS, HIERARCHY_WARN) for _, ratio in ratios]
    ind = _severity(ind_ratio, INDUCTANCE_PASS, INDUCTANCE_WARN, larger_is_better=False)
    temp = _severity(temp_ratio, TEMPERATURE_PASS, TEMPERATURE_WARN, larger_is_better=False)
    return FeasibilityReport(
        effective=eff,
        hierarchy_ratios=tuple((name, ratio, _verdicts(severity))
                               for (name, ratio), severity in zip(ratios, hierarchy)),
        inductance_ratio=ind_ratio,
        inductance_verdict=_verdicts(ind),
        temperature_ratio=temp_ratio,
        temperature_verdict=_verdicts(temp),
        chemical_potential=chemical_potential(env.magnetic_field),
        second_order_zeeman_ratio=zeeman,
        overall_verdict=_verdicts(_worst(hierarchy + [ind, temp])),
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
    magnetic field only, in which case the spacing is linear. Rows come
    back in grid order, each a dict of summary columns, equal to
    summary_row of feasibility at that point.

    The formulas run once, on the whole grid as an array, with numpy's
    divide, overflow and invalid flags raised. When a grid extreme is not a
    valid Geometry or Environment, a flag is raised (a zero dynamical scale
    or gap raises one), or a formula raises, the grid is redone point by
    point through feasibility. That path refuses the first failing point
    and returns the inf fields that Python float arithmetic produces.
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

    def at(value):
        """(geom, env) with the scanned field set to value; validated unless an array."""
        owner = geom if target == "geometry" else env
        fields = {**vars(owner), attr: value}
        changed = (SimpleNamespace(**fields) if isinstance(value, np.ndarray)
                   else type(owner)(**fields))
        return (changed, env) if target == "geometry" else (geom, changed)

    try:
        # each validity condition bounds the scanned field on one side only,
        # so the grid is valid when its two extremes are
        at(float(values.min()))
        at(float(values.max()))
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            report = _report(*at(values))
    except (ArithmeticError, ValueError):  # FloatingPointError and DesignError among them
        report = None
    if report is None:
        return [summary_row(parameter, value, feasibility(*at(value)))
                for value in values.tolist()]
    keys = (parameter,) + _EFFECTIVE_COLUMNS + _REPORT_COLUMNS
    columns = [np.broadcast_to(column, values.shape).tolist()
               for column in [values] + _row_values(report)]
    return [dict(zip(keys, row)) for row in zip(*columns)]


def _row_values(report: FeasibilityReport) -> list:
    eff = report.effective
    return ([getattr(eff, name) for name in _EFFECTIVE_COLUMNS]
            + [getattr(report, name) for name in _REPORT_COLUMNS])


def summary_row(parameter: str, value: float, report: FeasibilityReport) -> dict:
    """Flatten one FeasibilityReport into a scan-table row."""
    return dict(zip((parameter,) + _EFFECTIVE_COLUMNS + _REPORT_COLUMNS,
                    [value] + _row_values(report)))
