import importlib.util
import json
import math
import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rotorsim import CODATA2018, DesignError, Environment, Geometry, bundled_config, design
from rotorsim.cli import _geometry_environment, _load_config
from rotorsim.cli import main as cli_main
from rotorsim.design import (
    capacitance_denominator,
    chemical_potential,
    effective_coupling,
    effective_params,
    effective_speed,
    energy_level,
    feasibility,
    interaction_strength,
    scan,
)
from rotorsim.serialize import Table

from conftest import random_geometries


def scaled(geom, s):
    return Geometry(**{name: s * value for name, value in vars(geom).items()})


class TestValidation:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(DesignError):
            Geometry(0.0, 1e-8, 1e-8, 1e-7, 1e-6)

    def test_rejects_dx_not_exceeding_delta(self):
        with pytest.raises(DesignError) as err:
            Geometry(1e-6, 1e-8, 1e-8, 1e-7, 1e-6)
        assert err.value.field_name == "lattice_spacing"

    def test_rejects_negative_temperature(self):
        with pytest.raises(DesignError):
            Environment(temperature=-1.0)

    # a bool is refused as ChainSpec refuses one: True would be 1 m, 1 K or 1 T
    @pytest.mark.parametrize("field", ["wire_radius", "insulating_sphere_radius",
                                       "conducting_sphere_radius", "sphere_gap",
                                       "lattice_spacing"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_length(self, micro, field, value):
        with pytest.raises(DesignError) as err:
            Geometry(**{**vars(micro), field: value})
        assert err.value.field_name == field

    @pytest.mark.parametrize("field", ["temperature", "magnetic_field"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_environment(self, field, value):
        with pytest.raises(DesignError) as err:
            Environment(**{field: value})
        assert err.value.field_name == field


class TestCapacitanceDenominator:
    def test_micro(self, micro):
        assert capacitance_denominator(micro) == pytest.approx(4.589e-6, rel=1e-3)

    def test_nano(self, nano):
        assert capacitance_denominator(nano) == pytest.approx(4.589e-8, rel=1e-3)

    def test_sphere_free_limit(self):
        # dx = delta * e makes the log exactly 1; with vanishing alpha the
        # denominator reduces to dx
        delta = 1e-8
        geom = Geometry(delta, 1e-9, 1e-30, 1e-9, delta * math.e)
        assert capacitance_denominator(geom) == pytest.approx(delta * math.e, rel=1e-12)


class TestInteractionStrength:
    def test_micro_consistent_with_speed(self, micro):
        # the numeric value is pinned through the speed identity below;
        # freeze the direct evaluation too
        assert interaction_strength(micro) == pytest.approx(3.21761438e-13, rel=1e-8)

    def test_gap_scaling(self, micro):
        doubled = Geometry(**{**vars(micro), "sphere_gap": 2 * micro.sphere_gap})
        ratio = interaction_strength(micro) / interaction_strength(doubled)
        assert ratio == pytest.approx(16.0, rel=1e-12)

    def test_nano_speed_crosscheck(self, nano):
        k = interaction_strength(nano)
        c = nano.lattice_spacing * math.sqrt(2 * k / CODATA2018.electron_mass)
        assert c == pytest.approx(1.05e5, rel=0.01)


class TestEffectiveSpeed:
    def test_micro_window(self, micro):
        assert 0.7e4 <= effective_speed(micro) <= 1.5e4

    def test_nano_window(self, nano):
        assert 0.7e5 <= effective_speed(nano) <= 1.5e5

    def test_large_slowdown(self, micro, nano):
        for geom in (micro, nano):
            assert effective_speed(geom) / CODATA2018.light_speed < 1e-3

    def test_identity_with_interaction_strength(self, micro, nano):
        for geom in (micro, nano):
            c_direct = effective_speed(geom)
            c_from_k = geom.lattice_spacing * math.sqrt(
                2 * interaction_strength(geom) / CODATA2018.electron_mass
            )
            assert abs(c_direct - c_from_k) / c_direct < 1e-12


class TestEffectiveCoupling:
    def test_micro(self, micro):
        assert effective_coupling(micro) == pytest.approx(1.61, abs=0.01)

    def test_order_one_for_nano(self, nano):
        assert 1.0 <= effective_coupling(nano) <= 3.0

    def test_homogeneity_exponent(self, micro):
        # scaling every length by s multiplies g_eff by s^(-1/4):
        # gamma/rho is invariant and the quartic-root argument carries
        # denominator/alpha^2 ~ s/s^2
        s = 3.7
        ratio = effective_coupling(scaled(micro, s)) / effective_coupling(micro)
        assert ratio == pytest.approx(s ** (-0.25), rel=1e-12)


class TestDynamicalScale:
    def test_micro_length(self, micro):
        inverse = 1.0 / effective_params(micro).dynamical_scale
        assert 125e-6 / 2 <= inverse <= 125e-6 * 2

    def test_micro_consistency_condition(self, micro):
        product = effective_params(micro).dynamical_scale * micro.lattice_spacing
        assert product == pytest.approx(0.088, abs=0.005)
        assert product < 0.2

    def test_vanishes_in_weak_coupling_limit(self, micro):
        # shrinking gamma drives g_eff down; the scale must die off
        scales = []
        for factor in (1.0, 0.7, 0.5, 0.35):
            geom = Geometry(**{**vars(micro), "sphere_gap": factor * micro.sphere_gap})
            scales.append(effective_params(geom).dynamical_scale)
        assert all(a > b for a, b in zip(scales, scales[1:]))
        assert scales[-1] / scales[0] < 1e-3


class TestGapEnergyAndTemperature:
    def test_micro_temperature(self, micro):
        temp = effective_params(micro).gap_temperature
        assert 600e-6 / 2 <= temp <= 600e-6 * 2

    def test_nano_temperature(self, nano):
        temp = effective_params(nano).gap_temperature
        assert 0.5 <= temp <= 3.0

    def test_one_order_below_single_sphere_gap(self, micro):
        gap = effective_params(micro).gap_energy
        single_sphere = energy_level(1, micro)  # 2 * E0
        assert 0.05 <= gap / single_sphere <= 0.2


class TestEnergyLevel:
    def test_ground(self, micro):
        assert energy_level(0, micro) == 0.0

    def test_first_level_micro(self, micro):
        assert energy_level(1, micro) == pytest.approx(7.63e-26, rel=0.01)
        kelvin = energy_level(1, micro) / CODATA2018.boltzmann
        assert kelvin == pytest.approx(5.5e-3, rel=0.02)

    def test_level_ratio(self, micro, nano):
        for geom in (micro, nano):
            assert energy_level(2, geom) / energy_level(1, geom) == pytest.approx(3.0)

    # a bool is refused as ChainSpec refuses one; inf and NaN name ell, never a bare error
    @pytest.mark.parametrize("ell", [-1, 1.5, math.inf, -math.inf, math.nan, True, False])
    def test_rejects_non_level(self, micro, ell):
        with pytest.raises(DesignError) as err:
            energy_level(ell, micro)
        assert err.value.field_name == "ell"


class TestChemicalPotential:
    def test_zero_field(self, micro):
        assert chemical_potential(0.0) == 0.0

    def test_millitesla(self, micro):
        assert chemical_potential(1e-3) == pytest.approx(6.2e-27, rel=0.01)

    @pytest.mark.parametrize("field", [-1e-3, math.inf, math.nan])
    def test_rejects_negative_or_non_finite(self, field):
        with pytest.raises(DesignError) as err:
            chemical_potential(field)
        assert err.value.field_name == "magnetic_field"

    def test_comparable_to_gap_at_critical_field(self, micro):
        mu = chemical_potential(effective_params(micro).critical_field)
        gap = effective_params(micro).gap_energy
        assert 0.1 <= mu / gap <= 10.0


class TestCriticalField:
    def test_micro_milli_tesla(self, micro):
        assert 0.1e-3 <= effective_params(micro).critical_field <= 10e-3

    def test_formula_components(self, micro, nano):
        for geom in (micro, nano):
            expected = (
                CODATA2018.electron_mass
                * effective_speed(geom)
                * effective_params(geom).dynamical_scale
                / CODATA2018.electron_charge
            )
            assert effective_params(geom).critical_field == pytest.approx(expected, rel=1e-14)

    def test_nano_frozen(self, nano):
        assert effective_params(nano).critical_field == pytest.approx(0.53502039, rel=1e-6)


class TestInductanceRatio:
    def test_micro(self, micro):
        ratio = feasibility(micro, Environment()).inductance_ratio
        assert ratio == pytest.approx(9.5e-10, rel=0.02)

    def test_nano_small(self, nano):
        assert feasibility(nano, Environment()).inductance_ratio < 1e-6

    def test_fail_path_without_slowdown(self):
        # oversized conducting spheres destroy the slow-down and push the
        # ratio into the fail regime
        geom = Geometry(1e-9, 4e-7, 1e-4, 5e-7, 1e-4)
        assert feasibility(geom, Environment()).inductance_ratio > 0.1
        report = feasibility(geom, Environment())
        assert report.inductance_verdict == "fail"
        assert report.overall_verdict == "fail"


class TestSecondOrderZeeman:
    def test_zero_field(self, micro):
        report = feasibility(micro, Environment(magnetic_field=0.0))
        assert report.second_order_zeeman_ratio == 0.0

    def test_small_at_critical_field(self, micro):
        b_crit = effective_params(micro).critical_field
        ratio = feasibility(micro, Environment(magnetic_field=b_crit)).second_order_zeeman_ratio
        assert ratio <= 1e-2

    def test_quadratic_in_field(self, micro):
        r1 = feasibility(micro, Environment(magnetic_field=1e-3)).second_order_zeeman_ratio
        r3 = feasibility(micro, Environment(magnetic_field=3e-3)).second_order_zeeman_ratio
        assert r3 / r1 == pytest.approx(9.0, rel=1e-12)


class TestHierarchyReport:
    def test_micro_all_pass(self, micro):
        report = dict((name, (ratio, verdict)) for name, ratio, verdict in
                      feasibility(micro, Environment()).hierarchy_ratios)
        assert all(verdict == "pass" for _, verdict in report.values())
        assert report["rho/delta"][0] == pytest.approx(4.0)
        assert report["lambda/dx"][0] == pytest.approx(11.4, abs=0.5)

    def test_nano_gamma_rho_warn(self, nano):
        report = dict((name, (ratio, verdict)) for name, ratio, verdict in
                      feasibility(nano, Environment()).hierarchy_ratios)
        assert report["rho/delta"] == (pytest.approx(12.0), "pass")
        assert report["gamma/rho"][0] == pytest.approx(2.083, abs=0.01)
        assert report["gamma/rho"][1] == "warn"

    def test_touching_spheres_fail(self, micro):
        geom = Geometry(**{**vars(micro), "sphere_gap": micro.insulating_sphere_radius})
        report = dict((name, verdict) for name, _, verdict in
                      feasibility(geom, Environment()).hierarchy_ratios)
        assert report["gamma/rho"] == "fail"


class TestFeasibility:
    def test_micro_cold_passes(self, micro):
        report = feasibility(micro, Environment(temperature=10e-6))
        assert report.overall_verdict == "pass"

    def test_micro_warm_fails_on_temperature(self, micro):
        report = feasibility(micro, Environment(temperature=10e-3))
        assert report.temperature_verdict == "fail"
        assert report.temperature_ratio == pytest.approx(17.7, abs=1.0)
        assert report.overall_verdict == "fail"

    def test_nano_at_50mk(self, nano):
        report = feasibility(nano, Environment(temperature=50e-3))
        assert report.overall_verdict in ("pass", "warn")

    def test_deterministic(self, micro):
        env = Environment(temperature=10e-6, magnetic_field=1e-4)
        assert feasibility(micro, env) == feasibility(micro, env)


class TestIdentities:
    def test_coupling_identity_random_grid(self):
        for geom in random_geometries(100):
            product = effective_params(geom).rotor_coupling * effective_coupling(geom) ** 4
            assert abs(product - 9.0) / 9.0 < 1e-9

    def test_speed_identity_random_grid(self):
        m = CODATA2018.electron_mass
        for geom in random_geometries(100):
            c_direct = effective_speed(geom)
            c_matched = geom.lattice_spacing * math.sqrt(2 * interaction_strength(geom) / m)
            assert abs(c_direct - c_matched) / c_direct < 1e-12

    def test_homogeneity(self, micro):
        s = 0.01
        big, small = micro, scaled(micro, s)
        invariant = lambda g: (2 * g.conducting_sphere_radius**2
                               * g.lattice_spacing**2 / g.sphere_gap**4)
        assert invariant(small) == pytest.approx(invariant(big), rel=1e-12)
        assert capacitance_denominator(small) == pytest.approx(
            s * capacitance_denominator(big), rel=1e-12)
        # frozen exponent: c_eff ~ s^(-1/2) under uniform length scaling
        assert effective_speed(small) / effective_speed(big) == pytest.approx(
            s ** (-0.5), rel=1e-12)

    def test_gap_temperature_monotone_in_gamma_strong_coupling(self, nano):
        # holds once g_eff^2 > 2*pi, where the speed loss beats the
        # growth of the dynamical scale
        temps = []
        for gamma in np.geomspace(40e-9, 120e-9, 8):
            geom = Geometry(**{**vars(nano), "sphere_gap": float(gamma)})
            assert effective_coupling(geom) ** 2 > 2 * math.pi
            temps.append(effective_params(geom).gap_temperature)
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_report_numbers_finite_positive(self, micro, nano):
        for geom in (micro, nano):
            eff = effective_params(geom)
            for name, value in vars(eff).items():
                assert math.isfinite(value) and value > 0, name


class TestScan:
    def test_gamma_scan_monotone_coupling(self, micro):
        rows = scan(micro, Environment(), "gamma_m",
                    2 * micro.insulating_sphere_radius,
                    20 * micro.insulating_sphere_radius, 10)
        couplings = [row["effective_coupling"] for row in rows]
        assert len(rows) == 10
        assert all(a < b for a, b in zip(couplings, couplings[1:]))

    def test_field_scan_linear_chemical_potential(self, micro):
        b_crit = effective_params(micro).critical_field
        rows = scan(micro, Environment(), "magnetic_field_T", 0.0, 2 * b_crit, 9)
        fields = np.array([row["magnetic_field_T"] for row in rows])
        mus = np.array([row["chemical_potential"] for row in rows])
        slope = chemical_potential(1.0)
        assert np.allclose(mus, slope * fields, rtol=1e-12)

    def test_endpoints_match_single_point_reports(self, micro, nano):
        env = Environment(temperature=10e-6)
        rows = list(scan(micro, env, "dx_m", micro.lattice_spacing,
                         4 * micro.lattice_spacing, 5))
        for geom_dx, row in ((micro.lattice_spacing, rows[0]),
                             (4 * micro.lattice_spacing, rows[-1])):
            geom = Geometry(**{**vars(micro), "lattice_spacing": geom_dx})
            report = feasibility(geom, env)
            assert row["effective_speed"] == pytest.approx(
                report.effective.effective_speed, rel=1e-14)
            assert row["overall_verdict"] == report.overall_verdict

    def test_rejects_unknown_parameter(self, micro):
        with pytest.raises(DesignError):
            scan(micro, Environment(), "bogus", 1.0, 2.0, 3)

    def test_rejects_bad_range(self, micro):
        with pytest.raises(DesignError):
            scan(micro, Environment(), "gamma_m", 2e-6, 1e-6, 3)
        with pytest.raises(DesignError):
            scan(micro, Environment(), "gamma_m", 0.0, 1e-6, 3)

    def test_rejects_too_few_steps(self, micro):
        with pytest.raises(DesignError):
            scan(micro, Environment(), "gamma_m", 1e-6, 2e-6, 1)


def oracle_verdict(ratio, pass_at, warn_at, larger_is_better=True):
    """pass, warn or fail by the public thresholds; a NaN ratio fails."""
    good = (lambda bound: ratio >= bound) if larger_is_better else (lambda bound: ratio < bound)
    return "pass" if good(pass_at) else "warn" if good(warn_at) else "fail"


def on_one_element(ufunc):
    """ufunc on a one-element array, as a float; like Python's math functions and
    pow it raises OverflowError where a finite argument gives inf."""
    def apply(x, *args):
        with np.errstate(all="ignore"):  # the tests may run with warnings as errors
            value = ufunc(np.array([x]), *args)[0].item()
        if math.isinf(value) and math.isfinite(x):
            raise OverflowError(f"{ufunc.__name__}{(x,) + args} overflows")
        return value
    return apply


# the function sets of the float composition: Python's libm functions, and numpy's,
# which design applies to its arrays and which differ from libm in the last bit
LIBM = SimpleNamespace(log=math.log, exp=math.exp, sqrt=math.sqrt, pow=pow)
NUMPY = SimpleNamespace(log=on_one_element(np.log), exp=on_one_element(np.exp),
                        sqrt=on_one_element(np.sqrt), pow=on_one_element(np.power))


def oracle_feasibility(geom, env, fn):
    """Reference composition: every derived quantity rebuilt from the paper's
    formulas in floats, with log, exp, sqrt and pow from the function set fn.
    Under NUMPY, feasibility must reproduce it bit for bit."""
    alpha, dx, gamma = geom.conducting_sphere_radius, geom.lattice_spacing, geom.sphere_gap
    rho = geom.insulating_sphere_radius

    def denominator():
        return 4.0 * alpha + dx / fn.log(dx / geom.wire_radius)

    def strength():
        return (CODATA2018.coulomb_factor * fn.pow(alpha, 2)
                / (fn.pow(gamma, 4) * denominator()))

    def speed():
        ratio = 2.0 * fn.pow(alpha, 2) * fn.pow(dx, 2) / fn.pow(gamma, 4)
        return CODATA2018.light_speed * fn.sqrt(
            CODATA2018.classical_electron_radius * ratio / denominator())

    def coupling():
        inner = CODATA2018.bohr_radius * denominator() / (2.0 * fn.pow(alpha, 2))
        return math.sqrt(3.0) * (gamma / rho) * fn.pow(inner, 0.25)

    def scale():
        return fn.exp(-2.0 * math.pi / fn.pow(coupling(), 2)) / dx

    def gap():
        return CODATA2018.hbar * speed() * scale()

    kappa = (2.0 * strength() * CODATA2018.electron_mass
             * fn.pow(rho, 4) / CODATA2018.hbar**2)
    b_crit = CODATA2018.electron_mass * speed() * scale() / CODATA2018.electron_charge
    eff = design.EffectiveParams(
        interaction_strength=strength(),
        effective_speed=speed(),
        effective_coupling=coupling(),
        dynamical_scale=scale(),
        rotational_quantum=CODATA2018.hbar**2 / (2.0 * CODATA2018.electron_mass
                                                 * fn.pow(rho, 2)),
        rotor_coupling=kappa,
        gap_energy=gap(),
        gap_temperature=gap() / CODATA2018.boltzmann,
        critical_field=b_crit,
    )
    wavelength = 1.0 / scale() if scale() > 0.0 else math.inf
    ratios = [
        ("lambda/dx", wavelength / geom.lattice_spacing),
        ("dx/gamma", geom.lattice_spacing / geom.sphere_gap),
        ("gamma/rho", geom.sphere_gap / geom.insulating_sphere_radius),
        ("gamma/alpha", geom.sphere_gap / geom.conducting_sphere_radius),
        ("rho/delta", geom.insulating_sphere_radius / geom.wire_radius),
        ("alpha/delta", geom.conducting_sphere_radius / geom.wire_radius),
    ]
    hierarchy = tuple((name, r, oracle_verdict(r, design.HIERARCHY_PASS, design.HIERARCHY_WARN))
                      for name, r in ratios)
    ind_ratio = (4.0 * (alpha / dx) * fn.pow(speed() / CODATA2018.light_speed, 2)
                 * fn.log(dx / geom.wire_radius))
    ind_verdict = oracle_verdict(ind_ratio, design.INDUCTANCE_PASS, design.INDUCTANCE_WARN,
                                 larger_is_better=False)
    thermal = CODATA2018.boltzmann * env.temperature
    if thermal == 0.0:
        temp_ratio = 0.0
    else:
        temp_ratio = thermal / gap() if gap() > 0.0 else math.inf
    temp_verdict = oracle_verdict(temp_ratio, design.TEMPERATURE_PASS,
                                  design.TEMPERATURE_WARN, larger_is_better=False)
    vector_potential = env.magnetic_field * geom.insulating_sphere_radius / 3.0
    quadratic = (fn.pow(CODATA2018.electron_charge * vector_potential, 2)
                 / (2.0 * CODATA2018.electron_mass))
    if quadratic == 0.0:
        zeeman = 0.0
    else:
        zeeman = quadratic / gap() if gap() > 0.0 else math.inf
    verdicts = [v for _, _, v in hierarchy] + [ind_verdict, temp_verdict]
    overall = next((v for v in ("fail", "warn") if v in verdicts), "pass")
    return design.FeasibilityReport(
        effective=eff,
        hierarchy_ratios=hierarchy,
        inductance_ratio=ind_ratio,
        inductance_verdict=ind_verdict,
        temperature_ratio=temp_ratio,
        temperature_verdict=temp_verdict,
        chemical_potential=chemical_potential(env.magnetic_field),
        second_order_zeeman_ratio=zeeman,
        overall_verdict=overall,
    )


def summary_row(parameter, value, report):
    """One FeasibilityReport flattened into a scan-table row."""
    return dict(zip((parameter,) + design._EFFECTIVE_COLUMNS + design._REPORT_COLUMNS,
                    [value] + design._row_values(report)))


ORACLE_ENVIRONMENTS = [
    Environment(),
    Environment(temperature=10e-6, magnetic_field=1e-4),
    Environment(temperature=50e-3, magnetic_field=0.3),
]


class TestChainOracle:
    """feasibility evaluates the chain once and matches its old composition exactly."""

    def test_random_geometries_exact(self):
        for geom in random_geometries(200):
            for env in ORACLE_ENVIRONMENTS:
                assert feasibility(geom, env) == oracle_feasibility(geom, env, NUMPY)

    @pytest.mark.parametrize("parameter", sorted(design.SCAN_PARAMETERS))
    @pytest.mark.parametrize("name", ["micro", "nano"])
    def test_every_scan_row_exact(self, parameter, name, request):
        geom = request.getfixturevalue(name)
        env = Environment(temperature=1e-3, magnetic_field=1e-3)
        target, attr = design.SCAN_PARAMETERS[parameter]
        base = getattr(geom if target == "geometry" else env, attr)
        start = 0.0 if target == "environment" else 0.5 * base
        rows = scan(geom, env, parameter, start, 4.0 * base, 12)
        grid = (np.linspace(start, 4.0 * base, 12) if start == 0.0
                else np.geomspace(start, 4.0 * base, 12))
        assert len(rows) == len(grid)
        for value, row in zip(grid, rows):
            g, e = geom, env
            if target == "geometry":
                g = Geometry(**{**vars(geom), attr: float(value)})
            else:
                e = Environment(**{**vars(env), attr: float(value)})
            assert row == summary_row(parameter, float(value), oracle_feasibility(g, e, NUMPY))


def load_workloads():
    """perfbench/workloads.py, which is not a package module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


def printed(row):
    """A scan row's cells as the CLI writes them: floats at 9 digits."""
    return [cell if isinstance(cell, str) else f"{cell:.9g}" for cell in row.values()]


class TestPrintedDigits:
    """numpy's log, exp, sqrt and pow differ from libm's in the last bit on some
    inputs, but the 9 digits a scan prints are those of the libm composition."""

    @pytest.mark.parametrize("parameter", sorted(design.SCAN_PARAMETERS))
    @pytest.mark.parametrize("name", WORKLOADS.DESIGN_CONFIGS)
    def test_benchmark_size_scans_print_the_libm_digits(self, parameter, name):
        geom, env = _geometry_environment(_load_config(bundled_config(name)))
        target, attr = design.SCAN_PARAMETERS[parameter]
        lo, hi = WORKLOADS.DESIGN_SCAN_RANGES[parameter]
        scale = getattr(geom if target == "geometry" else env, attr) or 1.0
        steps = WORKLOADS.DESIGN_SCAN_STEPS
        rows = scan(geom, env, parameter, lo * scale, hi * scale, steps)
        assert len(rows) == steps
        for row in rows:
            value = float(row[parameter])
            expected = summary_row(parameter, value, oracle_feasibility(
                *point(geom, env, parameter, value), LIBM))
            assert printed(row) == printed(expected)


def oracle_outcome(geom, env):
    """How the float composition ends at one point: None when feasibility must
    accept it, else "raises" (ZeroDivisionError or OverflowError), "not finite"
    (an effective field is inf or NaN) or "nan" (a ratio is NaN)."""
    try:
        report = oracle_feasibility(geom, env, NUMPY)
    except (ZeroDivisionError, OverflowError):
        return "raises"
    if not all(map(math.isfinite, vars(report.effective).values())):
        return "not finite"
    ratios = [ratio for _, ratio, _ in report.hierarchy_ratios]
    if any(map(math.isnan, ratios + [report.inductance_ratio, report.temperature_ratio])):
        return "nan"
    return None


# finite effective fields, but (alpha/dx) (c_eff/c)^2 underflows to 0 and ln(dx/delta)
# overflows to inf, so the inductance ratio is NaN; about 1 in 2000 valid random geometries
NAN_INDUCTANCE_RATIO = [2.3404836802661766e-234, 3.3382683937565123e-35, 1.57646817943644e-133,
                        1.0182410303498434e+50, 2.6601953858983824e+140]


class TestArrayPathAgainstOracle:
    """feasibility refuses exactly where the float composition raises, leaves an
    effective field non-finite or a ratio NaN, and otherwise equals it bit for bit."""

    def test_log_uniform_geometries(self):
        rng = np.random.default_rng(21)
        environments = ORACLE_ENVIRONMENTS + [Environment(magnetic_field=1e300)]
        seen = Counter()
        draws = (10.0 ** rng.uniform(-300, 300, (3000, 5))).tolist()
        for fields in draws + [NAN_INDUCTANCE_RATIO]:
            try:
                geom = Geometry(*fields)
            except DesignError:
                continue
            # the geometry is refused before the field, as at B = T = 0
            geometry_outcome = oracle_outcome(geom, Environment())
            for env in environments:
                outcome = geometry_outcome or oracle_outcome(geom, env)
                try:
                    report = feasibility(geom, env)
                except DesignError as exc:
                    expected = "geometry" if geometry_outcome else "magnetic_field"
                    assert (exc.field_name, outcome) == (expected, outcome or "accepted")
                    seen[expected, outcome] += 1
                else:
                    assert outcome is None
                    # repr tells the float type, -0.0 from 0.0 and every bit
                    assert repr(report) == repr(oracle_feasibility(geom, env, NUMPY))
                    seen["accepted"] += 1
        assert set(seen) == {"accepted", ("geometry", "raises"), ("geometry", "not finite"),
                             ("geometry", "nan"), ("magnetic_field", "raises")}
        assert min(seen.values()) >= len(environments)

    def test_nan_gap_refused_by_the_cli(self, tmp_path, capsys):
        geom = Geometry(1e-7, 4e-7, 1e150, 2.5e-6, 1e150)  # micro with alpha = dx = 1e150
        assert math.isnan(oracle_feasibility(geom, Environment(), NUMPY).effective.gap_energy)
        out = tmp_path / "out"
        assert cli_main(["design", "report", "--config", str(bundled_config("micro")),
                         "--alpha", "1e150", "--dx", "1e150", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: geometry: formulas divide by zero or "
                                           f"overflow for {geom}\n")
        assert not out.exists()


def counting(monkeypatch, name):
    calls = []
    original = getattr(design, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(design, name, wrapper)
    return calls


class TestCallCounts:
    def test_feasibility_evaluates_each_formula_once(self, micro, monkeypatch):
        counts = {name: counting(monkeypatch, name)
                  for name in ("effective_speed", "effective_coupling",
                               "capacitance_denominator", "interaction_strength")}
        feasibility(micro, Environment(temperature=1e-5, magnetic_field=1e-4))
        assert len(counts["effective_speed"]) == 1
        assert len(counts["effective_coupling"]) == 1
        assert len(counts["interaction_strength"]) == 1
        # each of the three formulas above computes its own denominator
        assert len(counts["capacitance_denominator"]) == 3

    def test_scan_evaluates_a_finite_grid_once(self, micro, monkeypatch):
        point_reports = counting(monkeypatch, "feasibility")
        evaluations = counting(monkeypatch, "effective_params")
        rows = scan(micro, Environment(), "gamma_m", 2e-6, 3e-6, 2000)
        assert len(rows) == 2000
        assert len(point_reports) == 0
        assert len(evaluations) == 1


class TestExtremeInput:
    @pytest.mark.parametrize("gamma", [1e-300, 1e300])
    def test_effective_params_refuses_what_feasibility_refuses(self, micro, gamma):
        geom = Geometry(**{**vars(micro), "sphere_gap": gamma})
        with pytest.raises(DesignError) as refused:
            feasibility(geom, Environment())
        # no numpy warning on the way: it would be an error here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DesignError) as err:
                effective_params(geom)
        assert err.value.field_name == refused.value.field_name == "geometry"
        assert str(err.value) == str(refused.value)

    def test_effective_params_keeps_an_underflowed_scale(self, micro):
        # Lambda underflows to 0, which is finite: feasibility accepts it too
        geom = Geometry(**{**vars(micro), "sphere_gap": 1e-9, "insulating_sphere_radius": 1e-6})
        assert effective_params(geom) == feasibility(geom, Environment()).effective
        assert effective_params(geom).dynamical_scale == 0.0

    def test_division_by_zero_names_geometry(self, micro):
        tiny_gap = Geometry(**{**vars(micro), "sphere_gap": 1e-300})
        with pytest.raises(DesignError) as err:
            feasibility(tiny_gap, Environment())
        assert err.value.field_name == "geometry"

    def test_overflow_names_geometry(self, micro):
        huge_gap = Geometry(**{**vars(micro), "sphere_gap": 1e300})
        with pytest.raises(DesignError) as err:
            feasibility(huge_gap, Environment())
        assert err.value.field_name == "geometry"

    def test_overflow_names_magnetic_field(self, micro):
        with pytest.raises(DesignError) as err:
            feasibility(micro, Environment(magnetic_field=1e300))
        assert err.value.field_name == "magnetic_field"

    def test_scan_refuses_failing_point(self, micro):
        with pytest.raises(DesignError):
            scan(micro, Environment(), "gamma_m", 1e-300, 1e300, 5)
        with pytest.raises(DesignError):
            scan(micro, Environment(), "magnetic_field_T", 0.0, 1e300, 5)

    def test_weak_coupling_underflow_still_passes_lambda(self, micro):
        # Lambda underflows to 0 and the hierarchy reads lambda = inf
        geom = Geometry(**{**vars(micro), "sphere_gap": 1e-9, "insulating_sphere_radius": 1e-6})
        report = feasibility(geom, Environment())
        assert report.effective.dynamical_scale == 0.0
        assert report.hierarchy_ratios[0][1:] == (math.inf, "pass")

    @pytest.mark.parametrize("start, stop", [
        (math.nan, 1e-6), (1e-6, math.nan), (1e-6, math.inf), (-math.inf, 1e-6),
    ])
    def test_scan_rejects_non_finite_range(self, micro, start, stop):
        with pytest.raises(DesignError) as err:
            scan(micro, Environment(), "gamma_m", start, stop, 3)
        assert err.value.field_name == "range"

    def test_scan_steps_cap(self, micro, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid built past the cap")

        monkeypatch.setattr(design.np, "geomspace", refuse)
        with pytest.raises(design.DimensionCapError, match="scan cap"):
            scan(micro, Environment(), "gamma_m", 2e-6, 3e-6, design.SCAN_STEPS_CAP + 1)


def point(geom, env, parameter, value):
    """geom and env with the scanned field set to value, as one grid point."""
    target, attr = design.SCAN_PARAMETERS[parameter]
    if target == "geometry":
        return Geometry(**{**vars(geom), attr: value}), env
    return geom, Environment(**{**vars(env), attr: value})


def per_point_rows(geom, env, parameter, grid):
    return [summary_row(parameter, value, feasibility(*point(geom, env, parameter, value)))
            for value in grid.tolist()]


class TestColumnarScan:
    """scan evaluates its grid at once and returns the per-point rows bit for bit."""

    @pytest.mark.parametrize("parameter", sorted(design.SCAN_PARAMETERS))
    @pytest.mark.parametrize("name", ["micro", "nano"])
    def test_benchmark_size_rows_equal_per_point_rows(self, parameter, name, request,
                                                      monkeypatch):
        geom = request.getfixturevalue(name)
        env = Environment(temperature=1e-3)
        target, attr = design.SCAN_PARAMETERS[parameter]
        if parameter == "magnetic_field_T":
            start, stop = 0.0, 0.01
            grid = np.linspace(start, stop, 2000)
        else:
            base = getattr(geom if target == "geometry" else env, attr)
            start, stop = 0.8 * base, 1.25 * base
            grid = np.geomspace(start, stop, 2000)
        point_reports = counting(monkeypatch, "feasibility")
        rows = scan(geom, env, parameter, start, stop, 2000)
        assert len(point_reports) == 0
        assert list(rows) == per_point_rows(geom, env, parameter, grid)

    def test_fallback_grid_rows_equal_per_point_rows(self, micro, monkeypatch):
        # the dynamical scale turns subnormal inside this range, where 1/scale
        # overflows; the grid still runs once, on arrays
        grid = np.geomspace(2e-7, 1e-5, 2000)
        expected = per_point_rows(micro, Environment(), "rho_m", grid)
        point_reports = counting(monkeypatch, "feasibility")
        rows = scan(micro, Environment(), "rho_m", 2e-7, 1e-5, 2000)
        assert len(point_reports) == 0
        assert list(rows) == expected
        assert any(row["dynamical_scale"] < sys.float_info.min for row in rows)
        assert type(rows) is Table
        assert rows.header == list(expected[0])

    @pytest.mark.parametrize("parameter, start, stop", [
        ("delta_m", 1e-8, 1e-3),   # crosses dx = 1.25e-5 mid-grid
        ("gamma_m", 1e-6, 1e300),  # gamma^4 overflows mid-grid
    ])
    def test_refusal_names_the_first_failing_point(self, micro, parameter, start, stop):
        expected = None
        for value in np.geomspace(start, stop, 2000).tolist():
            try:
                feasibility(*point(micro, Environment(), parameter, value))
            except DesignError as exc:
                expected = str(exc)
                break
        assert expected is not None
        with pytest.raises(DesignError) as err:
            scan(micro, Environment(), parameter, start, stop, 2000)
        assert str(err.value) == expected

    def test_formula_refusal_before_an_invalid_end(self, micro):
        # gamma^4 underflows to 0 at every point, and delta passes dx at the grid's end:
        # the first point is refused for its formulas, as point by point
        tiny_gap = Geometry(**{**vars(micro), "sphere_gap": 1e-300})
        first = Geometry(**{**vars(tiny_gap), "wire_radius": 1e-8})
        with pytest.raises(DesignError) as err:
            scan(tiny_gap, Environment(), "delta_m", 1e-8, 1e-3, 50)
        assert str(err.value) == f"geometry: formulas divide by zero or overflow for {first}"
