from dataclasses import replace

import numpy as np
import pytest

import rotorsim.spectra
from rotorsim.lattice import (ChainSpec, DimensionCapError, build_charge, build_hamiltonian,
                              sector_basis)
from rotorsim.spectra import (
    DEGENERACY_TOL,
    ChargeScan,
    charge_scan,
    correlation,
    correlation_profile,
    ground_state,
    lowest_eigenpairs,
    mass_gap,
    spectrum,
)

from conftest import (
    all_codes,
    oracle_charge,
    oracle_grand_canonical,
    oracle_hamiltonian,
    oracle_sectors,
)


def full_hamiltonian(spec):
    """The library's H on the whole product space."""
    return build_hamiltonian(spec, all_codes(spec))


def sector_minimum(spec, m):
    """Independent oracle: dense minimum of the Hamiltonian block at total M."""
    h = oracle_hamiltonian(spec)
    indices = oracle_sectors(spec)[m]
    return float(np.linalg.eigvalsh(h.restrict(indices).matrix.toarray().real)[0])


def dense_gap(spec):
    """Independent oracle: gap and degeneracy read off every sector's dense spectrum."""
    h = oracle_hamiltonian(spec)
    levels = np.sort(np.concatenate([
        np.linalg.eigvalsh(h.restrict(indices).matrix.toarray().real)
        for indices in oracle_sectors(spec).values()
    ]))
    e1 = levels[levels > levels[0] + DEGENERACY_TOL][0]
    return e1 - levels[0], int(np.sum(np.abs(levels - e1) < DEGENERACY_TOL))


def grand_canonical_ground(spec, mu):
    """Independent oracle: ground energy and <Q> of the dense H - mu Q."""
    gc = replace(spec, mu_tilde=mu)
    vals, vecs = np.linalg.eigh(oracle_grand_canonical(gc).matrix.toarray())
    charge = np.vdot(vecs[:, 0], oracle_charge(gc).matrix @ vecs[:, 0])
    return vals[0], charge.real


class TestLowestEigenpairs:
    def test_single_site_lmax2(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(1, 2)), k=4)
        assert np.allclose(res.eigenvalues, [0, 2, 2, 2], atol=1e-12)
        assert res.method == "dense"

    def test_weak_coupling_ground(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(2, 1, kappa=0.1)), k=1)
        assert res.eigenvalues[0] == pytest.approx(0.196667, abs=1e-3)

    def test_dense_and_iterative_agree_dim_1024(self):
        op = full_hamiltonian(ChainSpec(5, 1, kappa=0.7))
        assert op.dimension == 1024
        dense = lowest_eigenpairs(op, k=5, method="dense")
        iterative = lowest_eigenpairs(op, k=5, method="iterative")
        assert iterative.method == "iterative"
        assert np.abs(dense.eigenvalues - iterative.eigenvalues).max() < 1e-8

    def test_residual_norms(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(3, 1, kappa=1.0)), k=4)
        assert res.residual_norms.max() < 1e-8

    def test_explicit_dense_returns_whole_spectrum(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(1, 1)), k=4, method="dense")
        assert np.allclose(res.eigenvalues, [0, 2, 2, 2], atol=1e-12)

    def test_diagonal_operator_read_off_its_diagonal(self):
        # Lanczos from one start vector misses exactly degenerate levels
        op = full_hamiltonian(ChainSpec(5, 1, kappa=0.0))
        res = lowest_eigenpairs(op, k=8, method="iterative")
        assert res.method == "diagonal"
        assert np.array_equal(res.eigenvalues, [0.0] + [2.0] * 7)
        assert np.array_equal(np.sort(np.abs(res.eigenvectors), axis=0)[-1], np.ones(8))
        assert np.array_equal(res.eigenvectors.T @ res.eigenvectors, np.eye(8))
        assert res.residual_norms.max() == 0.0

    def test_rejects_bad_k(self):
        op = full_hamiltonian(ChainSpec(1, 1))
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, k=0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, k=4)


class TestSpectrum:
    def test_sector_labels_single_site(self):
        res = spectrum(ChainSpec(1, 1), k=4)
        assert np.allclose(res.eigenvalues, [0, 2, 2, 2], atol=1e-12)
        assert sorted(res.sector_labels[1:]) == [-1, 0, 1]

    def test_eigenvalues_ascending(self):
        res = spectrum(ChainSpec(2, 2, kappa=1.0), k=8)
        assert np.all(np.diff(res.eigenvalues) >= -1e-12)

    def test_matches_blind_diagonalization(self):
        spec = ChainSpec(2, 2, kappa=0.8)
        labeled = spectrum(spec, k=6)
        blind = lowest_eigenpairs(full_hamiltonian(spec), k=6)
        assert np.abs(labeled.eigenvalues - blind.eigenvalues).max() < 1e-10

    def test_variational_bound_in_lmax(self):
        energies = [spectrum(ChainSpec(2, l_max, kappa=1.0), k=1).eigenvalues[0]
                    for l_max in (1, 2, 3)]
        assert energies[0] >= energies[1] >= energies[2]

    @pytest.mark.parametrize("n_sites, method", [(6, "dense"), (7, "iterative")])
    def test_method_label_says_what_ran(self, n_sites, method):
        # 6x1 has dimension 4096 but no sector above 924 states
        assert spectrum(ChainSpec(n_sites, 1, kappa=0.5), k=2).method == method

    def test_method_label_of_diagonal_sectors(self):
        # at kappa = 0 the 7x1 sectors above DENSE_CUTOFF are read off the diagonal
        assert spectrum(ChainSpec(7, 1, kappa=0.0), k=2).method == "diagonal"

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_no_levels(self, k):
        with pytest.raises(ValueError, match=f"k={k}$"):
            spectrum(ChainSpec(2, 1), k=k)

    @pytest.mark.parametrize("mu", [0.0, 0.7])
    def test_vectors_are_real(self, mu):
        spec = ChainSpec(2, 2, kappa=1.0, mu_tilde=mu)
        assert ground_state(spec)[1].dtype == np.float64

    def test_global_ground_equals_sector_minimum(self):
        spec = ChainSpec(3, 1, kappa=0.9)
        global_ground = spectrum(spec, k=1).eigenvalues[0]
        per_sector = min(sector_minimum(spec, m)
                         for m in range(-spec.n_sites, spec.n_sites + 1))
        assert abs(global_ground - per_sector) < 1e-10


class TestGroundState:
    @pytest.mark.parametrize("mu", [0.7, -0.7, 2.5, -2.5])
    @pytest.mark.parametrize("spec", [ChainSpec(3, 1, kappa=1.0), ChainSpec(2, 2, kappa=1.0)])
    def test_matches_grand_canonical_diagonalization(self, spec, mu):
        spec = replace(spec, mu_tilde=mu)
        energy, vec = ground_state(spec)
        label = spectrum(spec, k=1).sector_labels[0]
        expected_energy, _ = grand_canonical_ground(spec, mu)
        assert energy == pytest.approx(expected_energy, abs=1e-10)
        assert np.vdot(vec, build_charge(spec, all_codes(spec)).matrix @ vec) == pytest.approx(
            label, abs=1e-10)

    def test_tie_goes_to_the_most_negative_charge(self):
        # at kappa = 0, mu = -2 the sectors M = 0, -1, -2 share the ground energy 0
        spec = ChainSpec(2, 1, kappa=0.0, mu_tilde=-2.0)
        assert spectrum(spec, k=1).sector_labels[0] == -2
        energy, vec = ground_state(spec)
        assert energy == 0.0
        assert np.vdot(vec, build_charge(spec, all_codes(spec)).matrix @ vec) == -2.0

    def test_solve_cap_bounds_k_times_dimension(self, monkeypatch):
        # 8^2 = 64 stored values: the 70-state M = 0 block of 4x1 is refused
        # for k = 1, the 56-state M = 1 block admitted
        monkeypatch.setattr(rotorsim.spectra, "DYNAMICS_DIM_CAP", 8)
        spec = ChainSpec(4, 1, kappa=1.0)
        with pytest.raises(DimensionCapError, match=r"solve cap k \* dimension <= 8\^2"):
            rotorsim.spectra._solve_sector(build_hamiltonian(spec, sector_basis(spec, 0)), 1)
        block = build_hamiltonian(spec, sector_basis(spec, 1))
        assert rotorsim.spectra._solve_sector(block, 1).eigenvalues.shape == (1,)
        with pytest.raises(DimensionCapError):
            rotorsim.spectra._solve_sector(block, 2)


class TestMassGap:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_free_chain(self, n_sites):
        gap, degeneracy = mass_gap(ChainSpec(n_sites, 1, kappa=0.0))
        assert gap == pytest.approx(2.0, abs=1e-12)
        assert degeneracy == 3 * n_sites

    @pytest.mark.parametrize("n_sites", [7, 8])
    def test_free_chain_with_sectors_above_dense_cutoff(self, n_sites):
        # H is diagonal at kappa = 0 and its M = 0 sector (3432 and 12870
        # states) is too large for dense eigh; E1 = 2 is 3N-fold
        gap, degeneracy = mass_gap(ChainSpec(n_sites, 1, kappa=0.0))
        assert gap == pytest.approx(2.0, abs=1e-12)
        assert degeneracy == 3 * n_sites

    def test_interacting_golden(self):
        gap, degeneracy = mass_gap(ChainSpec(2, 2, kappa=1.0))
        assert gap == pytest.approx(1.5153062388, abs=1e-8)
        assert degeneracy == 3

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_triplet_first_excited(self, n_sites, kappa):
        _, degeneracy = mass_gap(ChainSpec(n_sites, 1, kappa=kappa))
        assert degeneracy == 3

    def test_continuity_in_kappa(self):
        for kappa in np.linspace(0.0, 2.0, 9):
            lo, _ = mass_gap(ChainSpec(2, 1, kappa=float(kappa)))
            hi, _ = mass_gap(ChainSpec(2, 1, kappa=float(kappa) + 1e-4))
            assert abs(hi - lo) < 1e-2

    def test_rejects_nonzero_mu(self):
        with pytest.raises(ValueError):
            mass_gap(ChainSpec(2, 1, kappa=0.5, mu_tilde=0.3))

    @pytest.mark.parametrize("spec", [
        ChainSpec(4, 1, kappa=0.0),
        ChainSpec(3, 2, kappa=0.0),
        ChainSpec(2, 3, kappa=0.0),
        ChainSpec(4, 1, kappa=0.7, boundary="periodic"),
        ChainSpec(3, 2, kappa=1.3, boundary="periodic"),
        ChainSpec(3, 2, kappa=0.4),
        ChainSpec(2, 3, kappa=2.0),
    ])
    def test_matches_dense_spectrum_of_every_sector(self, spec):
        gap, degeneracy = mass_gap(spec)
        oracle_gap, oracle_degeneracy = dense_gap(spec)
        assert gap == pytest.approx(oracle_gap, abs=1e-10)
        assert degeneracy == oracle_degeneracy

    @pytest.mark.parametrize("spec", [
        ChainSpec(4, 1, kappa=0.7, boundary="periodic"),
        ChainSpec(3, 2, kappa=1.3),
    ])
    def test_iterative_sectors_match_dense_oracle(self, spec, monkeypatch):
        monkeypatch.setattr(rotorsim.spectra, "DENSE_CUTOFF", 8)
        gap, degeneracy = mass_gap(spec)
        oracle_gap, oracle_degeneracy = dense_gap(spec)
        assert gap == pytest.approx(oracle_gap, abs=1e-10)
        assert degeneracy == oracle_degeneracy


class TestChargeScan:
    def test_below_gap_stays_neutral(self):
        spec = ChainSpec(2, 1, kappa=0.5)
        gap, _ = mass_gap(spec)
        result = charge_scan(spec, np.linspace(0.0, 0.8 * gap, 5))
        assert np.all(result.ground_charge == 0)
        assert result.critical_mu is None

    def test_single_site_crossing_at_two(self):
        result = charge_scan(ChainSpec(1, 1, kappa=0.0), np.linspace(0.0, 3.0, 7))
        assert result.critical_mu == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("spec", [
        ChainSpec(2, 1, kappa=0.5),
        ChainSpec(2, 2, kappa=1.0),
        ChainSpec(3, 1, kappa=0.8),
    ])
    def test_critical_mu_matches_sector_minima(self, spec):
        result = charge_scan(spec, np.linspace(0.0, 4.0, 9))
        oracle = sector_minimum(spec, 1) - sector_minimum(spec, 0)
        assert result.critical_mu == pytest.approx(oracle, abs=1e-10)

    def test_charge_non_decreasing_with_unit_first_step(self):
        result = charge_scan(ChainSpec(2, 1, kappa=0.5), np.linspace(0.0, 3.0, 25))
        steps = np.diff(result.ground_charge)
        assert np.all(steps >= 0)
        first_jump = steps[steps > 0][0]
        assert first_jump == 1

    @pytest.mark.parametrize("spec", [
        ChainSpec(2, 1, kappa=0.5),
        ChainSpec(3, 1, kappa=1.0, boundary="periodic"),
        ChainSpec(2, 2, kappa=1.0),
    ])
    def test_matches_grand_canonical_diagonalization(self, spec):
        # no grid point lies within 0.1 of a level crossing of these specs
        grid = np.linspace(0.2, 4.0, 9)
        result = charge_scan(spec, grid)
        for mu, charge, energy in zip(grid, result.ground_charge, result.ground_energy):
            expected_energy, expected_charge = grand_canonical_ground(spec, float(mu))
            assert energy == pytest.approx(expected_energy, abs=1e-10)
            assert charge == pytest.approx(expected_charge, abs=1e-8)
        first = np.flatnonzero(result.ground_charge >= 1)[0]
        assert grid[first - 1] < result.critical_mu <= grid[first]

    def test_builds_hamiltonian_once(self, monkeypatch):
        # once per sector M = 0..3, never per grid point
        spec = ChainSpec(3, 1, kappa=1.0)
        calls = []

        def counted(spec, codes, _build=rotorsim.spectra.build_hamiltonian):
            calls.append(list(codes))
            return _build(spec, codes)
        monkeypatch.setattr(rotorsim.spectra, "build_hamiltonian", counted)
        charge_scan(spec, np.linspace(0.0, 4.0, 9))
        assert calls == [list(sector_basis(spec, m)) for m in range(4)]

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, np.inf], [np.nan]])
    def test_rejects_non_finite_grid(self, grid):
        with pytest.raises(ValueError):
            charge_scan(ChainSpec(1, 1), grid)

    def test_rejects_bad_grid(self):
        spec = ChainSpec(1, 1)
        with pytest.raises(ValueError):
            charge_scan(spec, [1.0, 0.5])
        with pytest.raises(ValueError):
            charge_scan(spec, [-0.5, 0.5])

    def test_rejects_grid_whose_charge_term_overflows(self):
        # M reaches N l_max = 2: 2 * 1.7e308 overflows, 2 * 8e307 does not
        with pytest.raises(ValueError, match="overflows"):
            charge_scan(ChainSpec(2, 1), [1e300, 1.7e308])
        assert np.all(np.isfinite(charge_scan(ChainSpec(2, 1), [1e300, 8e307]).ground_energy))


class TestCorrelation:
    def test_decoupled_sites_uncorrelated(self):
        assert correlation(ChainSpec(3, 1, kappa=0.0), 0, 2) == pytest.approx(0.0, abs=1e-14)

    def test_on_site_norm_truncated(self):
        # from the l=0 ground state only l=1 is reachable, so the truncated
        # <n^2> is exactly 1 at kappa=0 ...
        assert correlation(ChainSpec(1, 1, kappa=0.0), 0, 0) == pytest.approx(1.0, abs=1e-12)
        # ... and strictly below 1 once the interacting ground state
        # populates the cutoff level
        value = correlation(ChainSpec(2, 1, kappa=1.0), 0, 0)
        assert 0.5 < value < 1.0

    def test_six_site_golden_profile(self):
        spec = ChainSpec(6, 1, kappa=1.0)
        values = [correlation(spec, 2, 2 + d) for d in range(4)]
        golden = [0.92192154, 0.26540718, 0.10838132, 0.05088925]
        assert np.allclose(values, golden, atol=1e-6)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            correlation(ChainSpec(2, 1), 0, 2)


class TestCorrelationProfile:
    def test_free_chain_has_no_fit(self):
        profile = correlation_profile(ChainSpec(6, 1, kappa=0.0))
        assert np.allclose(profile.values[1:], 0.0, atol=1e-12)
        assert profile.fitted_xi is None

    def test_eight_site_golden(self):
        profile = correlation_profile(ChainSpec(8, 1, kappa=1.0))
        assert profile.fitted_xi == pytest.approx(1.25284, abs=1e-4)
        assert profile.fit_quality > 0.99

    def test_correlation_length_grows_with_kappa(self):
        xis = [correlation_profile(ChainSpec(6, 1, kappa=k)).fitted_xi
               for k in (0.5, 1.0, 2.0)]
        assert all(xi is not None for xi in xis)
        assert xis[0] < xis[1] < xis[2]

    def test_rejects_short_or_periodic_chains(self):
        with pytest.raises(ValueError):
            correlation_profile(ChainSpec(3, 1, kappa=1.0))
        with pytest.raises(ValueError):
            correlation_profile(ChainSpec(4, 1, kappa=1.0, boundary="periodic"))


class TestSymmetryProperties:
    @pytest.mark.parametrize("spec", [
        ChainSpec(2, 1, kappa=0.5),
        ChainSpec(3, 1, kappa=1.0),
        ChainSpec(2, 2, kappa=2.0),
    ])
    def test_neutral_ground_state(self, spec):
        _, vec = ground_state(spec)
        q = build_charge(spec, all_codes(spec)).matrix
        assert abs(np.vdot(vec, q @ vec)) < 1e-10
