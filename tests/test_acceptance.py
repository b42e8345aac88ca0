"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite can be skimmed:

    pytest tests/test_acceptance.py -v -s
"""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import rotorsim.spectra
from rotorsim import Environment, Geometry
from rotorsim.cli import main as cli_main
from rotorsim.design import (
    effective_coupling,
    effective_params,
    effective_speed,
    feasibility,
    interaction_strength,
)
from rotorsim.constants import CODATA2018
from rotorsim.dynamics import RampSchedule, physical_ramp_time, propagate
from rotorsim.lattice import (ChainSpec, build_charge, build_hamiltonian, direction_matrices,
                              site_basis)
from rotorsim.spectra import charge_scan, lowest_eigenpairs, mass_gap, spectrum

from conftest import (
    MICRO,
    NANO,
    all_codes,
    full_ground_state,
    oracle_hamiltonian,
    oracle_sectors,
    quadrature_direction_element,
    random_geometries,
)


def report(label, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


class TestAcceptance:
    def test_01_micro_effective_parameters(self, micro):
        eff = effective_params(micro)
        wavelength = 1.0 / eff.dynamical_scale
        ok = (
            0.7e4 <= eff.effective_speed <= 1.5e4
            and 1.0 <= eff.effective_coupling <= 3.0
            and 125e-6 / 2 <= wavelength <= 125e-6 * 2
            and 600e-6 / 2 <= eff.gap_temperature <= 600e-6 * 2
        )
        report("criterion 1: micro set (c_eff, g_eff, correlation length, gap temperature)", ok)

    def test_02_nano_effective_parameters(self, nano):
        eff = effective_params(nano)
        ok = (0.7e5 <= eff.effective_speed <= 1.5e5
              and 0.5 <= eff.gap_temperature <= 3.0)
        report("criterion 2: nano set (c_eff, gap temperature)", ok)

    def test_03_critical_field_and_inductance(self, micro, nano):
        b_crit = effective_params(micro).critical_field
        ok = (0.1e-3 <= b_crit <= 10e-3
              and feasibility(micro, Environment()).inductance_ratio < 1e-6
              and feasibility(nano, Environment()).inductance_ratio < 1e-6)
        report("criterion 3: critical field window and inductance ratios", ok)

    def test_04_identity_suite(self):
        ok = True
        for geom in random_geometries(100):
            kappa = effective_params(geom).rotor_coupling
            g = effective_coupling(geom)
            ok &= abs(kappa * g**4 - 9.0) < 1e-9 * 9.0
            direct = effective_speed(geom)
            via_k = geom.lattice_spacing * np.sqrt(
                2.0 * interaction_strength(geom) / CODATA2018.electron_mass)
            ok &= abs(direct - via_k) < 1e-12 * direct
        report("criterion 4: coupling and speed identities on 100 random geometries", ok)

    def test_05_free_rotor_spectrum_and_gap(self):
        basis = site_basis(3)
        h = build_hamiltonian(ChainSpec(1, 3), all_codes(ChainSpec(1, 3))).matrix.toarray()
        expected = np.diag([l * (l + 1.0) for l, _ in basis])
        ok = np.array_equal(h, expected)
        for n_sites in range(1, 5):
            gap, degeneracy = mass_gap(ChainSpec(n_sites, 1, kappa=0.0))
            ok &= abs(gap - 2.0) < 1e-12 and degeneracy == 3 * n_sites
        report("criterion 5: free-rotor spectrum and decoupled-chain gap/degeneracy", ok)

    def test_06_oracle_equivalence(self, monkeypatch):
        op = build_hamiltonian(ChainSpec(5, 1, kappa=0.7), all_codes(ChainSpec(5, 1)))
        dense = lowest_eigenpairs(op, k=5).eigenvalues
        with monkeypatch.context() as patch:  # Lanczos on the 1024 states
            patch.setattr(rotorsim.spectra, "DENSE_CUTOFF", 8)
            iterative = lowest_eigenpairs(op, k=5).eigenvalues
        ok = op.dimension == 1024 and np.abs(dense - iterative).max() < 1e-8

        for l_max in (1, 2, 3):
            n_z, n_plus, n_minus = direction_matrices(l_max)
            basis = site_basis(l_max)
            for i, (l1, m1) in enumerate(basis):
                for j, (l2, m2) in enumerate(basis):
                    for mat, comp in ((n_z, "z"), (n_plus, "+"), (n_minus, "-")):
                        oracle = quadrature_direction_element(l1, m1, l2, m2, comp)
                        ok &= abs(mat[i, j] - oracle) < 1e-10

        ground = lowest_eigenpairs(
            build_hamiltonian(ChainSpec(2, 1, kappa=0.1), all_codes(ChainSpec(2, 1))),
            k=1).eigenvalues[0]
        ok &= abs(ground - 0.196667) < 1e-3
        report("criterion 6: dense/iterative, quadrature, and perturbation oracles", ok)

    def test_07_symmetry_suite(self):
        ok = True
        for n_sites in (1, 2, 3):
            for l_max in (1, 2):
                spec = ChainSpec(n_sites, l_max, kappa=0.8)
                h = build_hamiltonian(spec, all_codes(spec)).matrix
                q = build_charge(spec, all_codes(spec)).matrix
                comm = (h @ q - q @ h)
                ok &= abs(comm.toarray()).max() < 1e-12
        for kappa in (0.5, 1.0, 2.0):
            for n_sites in (2, 3, 4):
                _, degeneracy = mass_gap(ChainSpec(n_sites, 1, kappa=kappa))
                ok &= degeneracy == 3
        for spec in (ChainSpec(2, 1, kappa=0.5), ChainSpec(3, 1, kappa=1.0)):
            _, vec = full_ground_state(spec)
            q = build_charge(spec, all_codes(spec)).matrix
            ok &= abs(np.vdot(vec, q @ vec)) < 1e-10
        report("criterion 7: charge conservation, triplet gap, neutral ground state", ok)

    def test_08_phase_transition_criterion(self):
        ok = True
        for spec in (ChainSpec(2, 1, kappa=0.5),
                     ChainSpec(2, 2, kappa=1.0),
                     ChainSpec(3, 1, kappa=0.8)):
            result = charge_scan(spec, np.linspace(0.0, 4.0, 9))
            h = oracle_hamiltonian(spec)
            sectors = oracle_sectors(spec)
            minima = {
                m: np.linalg.eigvalsh(h.restrict(sectors[m]).matrix.toarray().real)[0]
                for m in (0, 1)
            }
            oracle = minima[1] - minima[0]
            ok &= result.critical_mu is not None
            ok &= abs(result.critical_mu - oracle) < 1e-10
        report("criterion 8: charge-scan critical point matches sector minima", ok)

    def test_09_dynamics_suite(self, nano):
        spec = ChainSpec(2, 1, kappa=0.0)
        fidelities = []
        ok = True
        for duration in (1.0, 10.0, 100.0, 1000.0):
            result = propagate(spec, RampSchedule(0.0, 0.5, duration=duration), dt=0.05)
            ok &= result.norm_drift < 1e-9
            fidelities.append(result.final_fidelity)
        ok &= all(a <= b + 1e-12 for a, b in zip(fidelities, fidelities[1:]))
        ok &= fidelities[-1] > 0.999
        ok &= 1e-12 <= physical_ramp_time(nano, 1.0) <= 10e-12
        report("criterion 9: norm conservation, adiabatic ladder, physical ramp time", ok)

    def test_10_cli_contract(self, tmp_path, monkeypatch):
        micro_cfg = tmp_path / "micro.json"
        micro_cfg.write_text(json.dumps(dict(
            delta_m=100e-9, rho_m=400e-9, alpha_m=500e-9, gamma_m=2.5e-6,
            dx_m=12.5e-6, temperature_K=1e-5, magnetic_field_T=0.0)))
        nano_cfg = tmp_path / "nano.json"
        nano_cfg.write_text(json.dumps(dict(
            delta_m=1e-9, rho_m=12e-9, alpha_m=5e-9, gamma_m=25e-9,
            dx_m=125e-9, temperature_K=0.05, magnetic_field_T=0.0)))

        ok = True
        for cfg in (micro_cfg, nano_cfg):
            out_a, out_b = tmp_path / f"{cfg.stem}_a", tmp_path / f"{cfg.stem}_b"
            ok &= cli_main(["design", "report", "--config", str(cfg),
                            "--out", str(out_a)]) == 0
            ok &= cli_main(["design", "report", "--config", str(cfg),
                            "--out", str(out_b)]) == 0
            ok &= ((out_a / "feasibility_report.json").read_bytes()
                   == (out_b / "feasibility_report.json").read_bytes())

        out = str(tmp_path / "out")
        ok &= cli_main(["design", "report", "--config", str(micro_cfg),
                        "--dx", "1e-9", "--out", out]) == 2
        ok &= cli_main(["design", "report", "--config", str(micro_cfg),
                        "--gamma", "4e-7", "--out", out]) == 3
        monkeypatch.setenv("ROTORSIM_MAX_ITER", "1")
        ok &= cli_main(["sim", "spectrum", "--sites", "7", "--lmax", "1",
                        "--kappa", "0.7", "--k", "2", "--out", out]) == 4
        monkeypatch.delenv("ROTORSIM_MAX_ITER")
        monkeypatch.setenv("ROTORSIM_DIM_CAP", "10")
        ok &= cli_main(["sim", "gap", "--sites", "2", "--lmax", "1",
                        "--out", out]) == 5
        report("criterion 10: reproducible CLI outputs and exit codes 0/2/3/4/5", ok)


EXPORTING_MODULES = [name for _, name, _ in pkgutil.iter_modules(rotorsim.__path__, "rotorsim.")
                     if hasattr(importlib.import_module(name), "__all__")]


def test_exporting_modules_found():
    assert {"rotorsim.design", "rotorsim.dynamics", "rotorsim.lattice",
            "rotorsim.spectra"} <= set(EXPORTING_MODULES)


@pytest.mark.parametrize("name", EXPORTING_MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    report(f"{name}: every name in __all__ exists",
           [export for export in module.__all__ if not hasattr(module, export)] == [])
