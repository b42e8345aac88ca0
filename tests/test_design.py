import json
import math

import numpy as np
import pytest

from rotorsim import CODATA2018, DesignError, Environment, Geometry, design
from rotorsim.design import (
    capacitance_denominator,
    chemical_potential,
    critical_field,
    dynamical_scale,
    effective_coupling,
    effective_params,
    effective_speed,
    energy_level,
    feasibility,
    gap_energy_and_temperature,
    hierarchy_report,
    inductance_ratio,
    interaction_strength,
    rotational_quantum,
    rotor_coupling,
    scan,
    second_order_zeeman_ratio,
)

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
        inverse = 1.0 / dynamical_scale(micro)
        assert 125e-6 / 2 <= inverse <= 125e-6 * 2

    def test_micro_consistency_condition(self, micro):
        product = dynamical_scale(micro) * micro.lattice_spacing
        assert product == pytest.approx(0.088, abs=0.005)
        assert product < 0.2

    def test_vanishes_in_weak_coupling_limit(self, micro):
        # shrinking gamma drives g_eff down; the scale must die off
        scales = []
        for factor in (1.0, 0.7, 0.5, 0.35):
            geom = Geometry(**{**vars(micro), "sphere_gap": factor * micro.sphere_gap})
            scales.append(dynamical_scale(geom))
        assert all(a > b for a, b in zip(scales, scales[1:]))
        assert scales[-1] / scales[0] < 1e-3


class TestGapEnergyAndTemperature:
    def test_micro_temperature(self, micro):
        _, temp = gap_energy_and_temperature(micro)
        assert 600e-6 / 2 <= temp <= 600e-6 * 2

    def test_nano_temperature(self, nano):
        _, temp = gap_energy_and_temperature(nano)
        assert 0.5 <= temp <= 3.0

    def test_one_order_below_single_sphere_gap(self, micro):
        gap, _ = gap_energy_and_temperature(micro)
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

    def test_rejects_negative(self, micro):
        with pytest.raises(DesignError):
            energy_level(-1, micro)


class TestChemicalPotential:
    def test_zero_field(self, micro):
        assert chemical_potential(0.0, micro) == 0.0

    def test_millitesla(self, micro):
        assert chemical_potential(1e-3, micro) == pytest.approx(6.2e-27, rel=0.01)

    def test_comparable_to_gap_at_critical_field(self, micro):
        mu = chemical_potential(critical_field(micro), micro)
        gap, _ = gap_energy_and_temperature(micro)
        assert 0.1 <= mu / gap <= 10.0


class TestCriticalField:
    def test_micro_milli_tesla(self, micro):
        assert 0.1e-3 <= critical_field(micro) <= 10e-3

    def test_formula_components(self, micro, nano):
        for geom in (micro, nano):
            expected = (
                CODATA2018.electron_mass
                * effective_speed(geom)
                * dynamical_scale(geom)
                / CODATA2018.electron_charge
            )
            assert critical_field(geom) == pytest.approx(expected, rel=1e-14)

    def test_nano_frozen(self, nano):
        assert critical_field(nano) == pytest.approx(0.53502039, rel=1e-6)


class TestInductanceRatio:
    def test_micro(self, micro):
        assert inductance_ratio(micro) == pytest.approx(9.5e-10, rel=0.02)

    def test_nano_small(self, nano):
        assert inductance_ratio(nano) < 1e-6

    def test_fail_path_without_slowdown(self):
        # oversized conducting spheres destroy the slow-down and push the
        # ratio into the fail regime
        geom = Geometry(1e-9, 4e-7, 1e-4, 5e-7, 1e-4)
        assert inductance_ratio(geom) > 0.1
        report = feasibility(geom, Environment())
        assert report.inductance_verdict == "fail"
        assert report.overall_verdict == "fail"


class TestSecondOrderZeeman:
    def test_zero_field(self, micro):
        assert second_order_zeeman_ratio(0.0, micro) == 0.0

    def test_small_at_critical_field(self, micro):
        ratio = second_order_zeeman_ratio(critical_field(micro), micro)
        assert ratio <= 1e-2

    def test_quadratic_in_field(self, micro):
        r1 = second_order_zeeman_ratio(1e-3, micro)
        r3 = second_order_zeeman_ratio(3e-3, micro)
        assert r3 / r1 == pytest.approx(9.0, rel=1e-12)


class TestHierarchyReport:
    def test_micro_all_pass(self, micro):
        report = dict((name, (ratio, verdict)) for name, ratio, verdict in
                      hierarchy_report(micro))
        assert all(verdict == "pass" for _, verdict in report.values())
        assert report["rho/delta"][0] == pytest.approx(4.0)
        assert report["lambda/dx"][0] == pytest.approx(11.4, abs=0.5)

    def test_nano_gamma_rho_warn(self, nano):
        report = dict((name, (ratio, verdict)) for name, ratio, verdict in
                      hierarchy_report(nano))
        assert report["rho/delta"] == (pytest.approx(12.0), "pass")
        assert report["gamma/rho"][0] == pytest.approx(2.083, abs=0.01)
        assert report["gamma/rho"][1] == "warn"

    def test_touching_spheres_fail(self, micro):
        geom = Geometry(**{**vars(micro), "sphere_gap": micro.insulating_sphere_radius})
        report = dict((name, verdict) for name, _, verdict in hierarchy_report(geom))
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
            product = rotor_coupling(geom) * effective_coupling(geom) ** 4
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
            temps.append(gap_energy_and_temperature(geom)[1])
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
        b_crit = critical_field(micro)
        rows = scan(micro, Environment(), "magnetic_field_T", 0.0, 2 * b_crit, 9)
        fields = np.array([row["magnetic_field_T"] for row in rows])
        mus = np.array([row["chemical_potential"] for row in rows])
        slope = chemical_potential(1.0, micro)
        assert np.allclose(mus, slope * fields, rtol=1e-12)

    def test_endpoints_match_single_point_reports(self, micro, nano):
        env = Environment(temperature=10e-6)
        rows = scan(micro, env, "dx_m", micro.lattice_spacing,
                    4 * micro.lattice_spacing, 5)
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


def oracle_feasibility(geom, env, constants=CODATA2018):
    """Reference composition: every derived quantity rebuilt from the primitive
    formulas, with the expressions feasibility must reproduce bit for bit."""
    def scale():
        g = effective_coupling(geom, constants)
        return math.exp(-2.0 * math.pi / g**2) / geom.lattice_spacing

    def gap():
        return constants.hbar * effective_speed(geom, constants) * scale()

    kappa = (2.0 * interaction_strength(geom, constants) * constants.electron_mass
             * geom.insulating_sphere_radius**4 / constants.hbar**2)
    b_crit = (constants.electron_mass * effective_speed(geom, constants) * scale()
              / constants.electron_charge)
    eff = design.EffectiveParams(
        interaction_strength=interaction_strength(geom, constants),
        effective_speed=effective_speed(geom, constants),
        effective_coupling=effective_coupling(geom, constants),
        dynamical_scale=scale(),
        rotational_quantum=rotational_quantum(geom, constants),
        rotor_coupling=kappa,
        gap_energy=gap(),
        gap_temperature=gap() / constants.boltzmann,
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
    hierarchy = tuple((name, r, design._verdict(r, design.HIERARCHY_PASS,
                                                design.HIERARCHY_WARN))
                      for name, r in ratios)
    ind_ratio = (4.0 * (geom.conducting_sphere_radius / geom.lattice_spacing)
                 * (effective_speed(geom, constants) / constants.light_speed) ** 2
                 * math.log(geom.lattice_spacing / geom.wire_radius))
    ind_verdict = design._verdict(ind_ratio, design.INDUCTANCE_PASS, design.INDUCTANCE_WARN,
                                  larger_is_better=False)
    thermal = constants.boltzmann * env.temperature
    if thermal == 0.0:
        temp_ratio = 0.0
    else:
        temp_ratio = thermal / gap() if gap() > 0.0 else math.inf
    temp_verdict = design._verdict(temp_ratio, design.TEMPERATURE_PASS,
                                   design.TEMPERATURE_WARN, larger_is_better=False)
    vector_potential = env.magnetic_field * geom.insulating_sphere_radius / 3.0
    quadratic = ((constants.electron_charge * vector_potential) ** 2
                 / (2.0 * constants.electron_mass))
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
        chemical_potential=chemical_potential(env.magnetic_field, geom, constants),
        second_order_zeeman_ratio=zeeman,
        overall_verdict=overall,
    )


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
                assert feasibility(geom, env) == oracle_feasibility(geom, env)

    def test_derived_functions_exact(self, micro, nano):
        for geom in random_geometries(50) + [micro, nano]:
            oracle = oracle_feasibility(geom, Environment(magnetic_field=2e-3))
            eff = oracle.effective
            assert dynamical_scale(geom) == eff.dynamical_scale
            assert rotor_coupling(geom) == eff.rotor_coupling
            assert gap_energy_and_temperature(geom) == (eff.gap_energy, eff.gap_temperature)
            assert critical_field(geom) == eff.critical_field
            assert tuple(hierarchy_report(geom)) == oracle.hierarchy_ratios
            assert inductance_ratio(geom) == oracle.inductance_ratio
            assert second_order_zeeman_ratio(2e-3, geom) == oracle.second_order_zeeman_ratio

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
            assert row == design.summary_row(parameter, float(value), oracle_feasibility(g, e))


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
        assert len(counts["capacitance_denominator"]) <= 3

    @pytest.mark.parametrize("steps", [2, 7])
    def test_scan_calls_feasibility_once_per_point(self, micro, monkeypatch, steps):
        calls = counting(monkeypatch, "feasibility")
        rows = scan(micro, Environment(), "gamma_m", 2e-6, 3e-6, steps)
        assert len(calls) == len(rows) == steps


class TestExtremeInput:
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
