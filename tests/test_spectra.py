import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import rotorsim.spectra
from rotorsim.lattice import (Basis, ChainSpec, DimensionCapError, InvalidSpecError,
                              SparseOperator, build_hamiltonian, sector_basis)
from rotorsim.spectra import (
    DEGENERACY_TOL,
    RESIDUAL_TOL,
    ChargeScan,
    NonConvergenceError,
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
    full_ground_state,
    oracle_casimir,
    oracle_charge,
    oracle_direction_dots,
    oracle_grand_canonical,
    oracle_hamiltonian,
    oracle_interaction,
    oracle_kinetic,
    oracle_sectors,
    raising_operator,
    total_transverse_angular_momentum,
)


def full_hamiltonian(spec):
    """The library's H on the whole product space."""
    return build_hamiltonian(Basis(spec, all_codes(spec)))


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


def block_gap(spec):
    """Oracle: gap and degeneracy read off every total-L block, Lanczos on those above 1100 states.

    The blocks are the library's (tested against the Casimir projection of the
    Kronecker-built H); the levels come from numpy (the sorted diagonal at
    kappa = 0), or from scipy's Lanczos with its own start vector, independent
    of lowest_eigenpairs.
    """
    levels = {}
    for total_l in range(spec.n_sites * spec.l_max + 1):
        block = rotorsim.spectra._block(spec, total_l).matrix
        if spec.kappa == 0.0:
            levels[total_l] = np.sort(block.diagonal())
        elif block.shape[0] <= 1100:
            levels[total_l] = np.linalg.eigvalsh(block.toarray())
        else:
            v0 = np.random.default_rng(7).standard_normal(block.shape[0])
            levels[total_l] = np.sort(scipy.sparse.linalg.eigsh(block, k=6, which="SA",
                                                                v0=v0)[0])
    e0 = min(vals[0] for vals in levels.values())
    e1 = min(e for vals in levels.values() for e in vals if e > e0 + DEGENERACY_TOL)
    for total_l, vals in levels.items():  # Lanczos solved far enough past E1
        assert len(vals) == rotorsim.spectra._block(spec, total_l).dimension or vals[-1] > e1 + 0.1
    return e1 - e0, sum((2 * total_l + 1) * int(np.sum(np.abs(vals - e1) < DEGENERACY_TOL))
                        for total_l, vals in levels.items())


# 1-8x1, 2-4x2 and 2-3x3, open and periodic
MASS_GAP_GRID = [ChainSpec(n, l_max, boundary=boundary)
                 for l_max, sizes in ((1, range(1, 9)), (2, range(2, 5)), (3, (2, 3)))
                 for n in sizes for boundary in ("open", "periodic")
                 if boundary == "open" or n >= 3]


def sector0_casimir(spec):
    """Independent oracle: the Kronecker-built total L^2 on the M = 0 sector, dense."""
    return oracle_casimir(spec).restrict(oracle_sectors(spec)[0]).matrix.toarray()


def grand_canonical_ground(spec, mu):
    """Independent oracle: ground energy and <Q> of the dense H - mu Q."""
    vals, vecs = np.linalg.eigh(oracle_grand_canonical(spec, mu).matrix.toarray())
    charge = np.vdot(vecs[:, 0], oracle_charge(spec).matrix @ vecs[:, 0])
    return vals[0], charge.real


def record_solves(monkeypatch):
    """(dimension, k) of every lowest_eigenpairs call made by rotorsim.spectra, in order."""
    solved = []

    def recording(op, k, _solve=rotorsim.spectra.lowest_eigenpairs):
        solved.append((op.dimension, k))
        return _solve(op, k)
    monkeypatch.setattr(rotorsim.spectra, "lowest_eigenpairs", recording)
    return solved


class TestLowestEigenpairs:
    def test_single_site_lmax2(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(1, 2)), k=4)
        assert np.allclose(res.eigenvalues, [0, 2, 2, 2], atol=1e-12)
        assert res.method == "dense"

    def test_weak_coupling_ground(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(2, 1, kappa=0.1)), k=1)
        assert res.eigenvalues[0] == pytest.approx(0.196667, abs=1e-3)

    def test_dense_and_iterative_agree_dim_1024(self, monkeypatch):
        op = full_hamiltonian(ChainSpec(5, 1, kappa=0.7))
        assert op.dimension == 1024
        iterative = lowest_eigenpairs(op, k=5)
        assert iterative.method == "iterative"
        monkeypatch.setattr(rotorsim.spectra, "DENSE_CUTOFF", 1024)
        dense = lowest_eigenpairs(op, k=5)
        assert dense.method == "dense"
        assert np.abs(dense.eigenvalues - iterative.eigenvalues).max() < 1e-8

    def test_residual_norms(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(3, 1, kappa=1.0)), k=4)
        assert res.residual_norms.max() < 1e-8

    def test_explicit_dense_returns_whole_spectrum(self):
        res = lowest_eigenpairs(full_hamiltonian(ChainSpec(1, 1)), k=4)
        assert res.method == "dense"
        assert np.allclose(res.eigenvalues, [0, 2, 2, 2], atol=1e-12)

    def test_diagonal_operator_read_off_its_diagonal(self, monkeypatch):
        # Lanczos from one start vector misses exactly degenerate levels
        monkeypatch.setattr(rotorsim.spectra, "DENSE_CUTOFF", 8)
        op = full_hamiltonian(ChainSpec(5, 1, kappa=0.0))
        res = lowest_eigenpairs(op, k=8)
        assert res.method == "diagonal"
        assert np.array_equal(res.eigenvalues, [0.0] + [2.0] * 7)
        assert np.array_equal(np.sort(np.abs(res.eigenvectors), axis=0)[-1], np.ones(8))
        assert np.array_equal(res.eigenvectors.T @ res.eigenvectors, np.eye(8))
        assert res.residual_norms.max() == 0.0

    def test_lowest_levels_of_a_degenerate_block_above_the_cutoff_by_lanczos(self):
        # the L = 0 block of periodic 7x1 has 429 states and exactly degenerate levels
        # (momenta +-p); every k goes to Lanczos above DENSE_CUTOFF, and the
        # deflation check finds each copy
        block = build_hamiltonian(sector_basis(ChainSpec(7, 1, kappa=1.0, boundary="periodic"),
                                               0, coupled=True))
        dense = np.linalg.eigvalsh(block.matrix.toarray())
        assert block.dimension == 429 and np.min(np.diff(dense[:4])) < 1e-12
        for k in (1, 2, 3, 4):
            res = lowest_eigenpairs(block, k)
            assert res.method == "iterative"
            assert np.abs(res.eigenvalues - dense[:k]).max() <= 1e-12

    def test_skipped_copy_of_a_degenerate_level_is_found(self):
        # one Lanczos run for k = 8 on this 3432-state sector returns 14.891458 as
        # its 8th level; the deflated run finds the second copy of 14.868111
        op = build_hamiltonian(sector_basis(ChainSpec(7, 1, kappa=1.0, boundary="periodic"), 0))
        res = lowest_eigenpairs(op, 8)
        assert op.dimension == 3432 and res.method == "iterative"
        assert res.eigenvalues[-2:] == pytest.approx([14.868111, 14.868111], abs=1e-6)
        assert res.eigenvalues[-1] - res.eigenvalues[-2] < 1e-10
        assert np.all(res.residual_norms <= RESIDUAL_TOL)
        assert abs(res.eigenvectors.T @ res.eigenvectors - np.eye(8)).max() < 1e-10

    @pytest.mark.parametrize("spec", [
        ChainSpec(n, l, kappa=1.349, boundary="periodic")
        for n, l in ((3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (3, 2), (4, 2), (3, 3))
    ], ids=lambda spec: f"{spec.n_sites}x{spec.l_max}")
    def test_lanczos_levels_match_dense_on_periodic_blocks(self, spec, monkeypatch):
        # periodic chains hold exactly degenerate pairs (momenta +-p) in every block
        monkeypatch.setattr(rotorsim.spectra, "DENSE_CUTOFF", 4)
        for total_l in range(3):
            block = build_hamiltonian(sector_basis(spec, total_l, coupled=True))
            dense = np.linalg.eigvalsh(block.matrix.toarray())
            for k in (8, 16, 24, 40):
                if k >= block.dimension:
                    continue
                res = lowest_eigenpairs(block, k)
                assert res.method == "iterative"
                assert np.abs(res.eigenvalues - dense[:k]).max() <= 1e-9 * max(1.0, abs(dense[k]))

    def test_deflation_shift_that_overflows_is_refused(self, monkeypatch):
        # a row sum past the float range would turn H + s V V^T into inf and NaN;
        # the residual gate is bypassed here so that the check is reached
        n = 300
        matrix = scipy.sparse.diags([-np.ones(n - 1), np.arange(n, dtype=float), -np.ones(n - 1)],
                                    [-1, 0, 1], format="lil")
        matrix[n - 1, n - 1] = matrix[n - 1, 0] = matrix[0, n - 1] = 1e308
        monkeypatch.setattr(rotorsim.spectra, "DENSE_CUTOFF", 4)
        monkeypatch.setattr(rotorsim.spectra, "_gated_residuals",
                            lambda op, method, vals, vecs: np.zeros(len(vals)))
        with pytest.raises(NonConvergenceError, match="deflation shift of a 300-state operator"):
            lowest_eigenpairs(SparseOperator(n, scipy.sparse.csr_matrix(matrix)), 2)

    def test_rejects_bad_k(self):
        op = full_hamiltonian(ChainSpec(1, 1))
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, k=0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, k=5)


def sector_operators(spec):
    """H on each sector M = 0 .. N l_max, as the library builds it."""
    return [build_hamiltonian(sector_basis(spec, m))
            for m in range(spec.n_sites * spec.l_max + 1)]


def assert_first_k_of_full(op, k, res):
    """res holds the first k levels of np.linalg.eigh on op within 1e-12 max(1, |E|),
    with k orthonormal vectors that pass the residual gate."""
    full = np.linalg.eigh(op.matrix.toarray())[0][:k]
    assert res.method == "dense"
    assert res.eigenvalues.shape == res.residual_norms.shape == (k,)
    assert np.all(np.abs(res.eigenvalues - full) <= 1e-12 * np.maximum(1.0, np.abs(full)))
    assert res.eigenvectors.shape == (op.dimension, k)
    assert abs(res.eigenvectors.T @ res.eigenvectors - np.eye(k)).max() < 1e-12
    assert np.all(res.residual_norms <= RESIDUAL_TOL)


class TestDenseSubset:
    """The dense branch asks LAPACK (dsyevr) for the k lowest pairs only."""

    @pytest.mark.parametrize("spec", [
        ChainSpec(3, 2, kappa=1.0), ChainSpec(5, 1, kappa=0.3, boundary="periodic"),
        ChainSpec(2, 3, kappa=2.5),
    ], ids=["3x2", "5x1", "2x3"])
    # k = 4096 exceeds every sector's dimension, so each solve takes k == dim
    @pytest.mark.parametrize("k", [1, 3, 8, 4096])
    def test_every_sector_matches_the_full_decomposition(self, spec, k):
        for op in sector_operators(spec):
            levels = min(k, op.dimension)
            assert_first_k_of_full(op, levels, lowest_eigenpairs(op, levels))

    @pytest.mark.parametrize("spec", [ChainSpec(3, 2, kappa=0.0), ChainSpec(2, 3, kappa=0.0)],
                             ids=["3x2", "2x3"])
    def test_degenerate_clusters_cut_by_k(self, spec):
        # at kappa = 0 the levels are integers with large multiplicities, so
        # most k cut a cluster of equal levels; k runs over every value
        straddled = 0
        for op in sector_operators(spec)[:3]:
            levels = np.linalg.eigvalsh(op.matrix.toarray())
            for k in range(1, op.dimension + 1):
                assert_first_k_of_full(op, k, lowest_eigenpairs(op, k))
                straddled += k < op.dimension and levels[k] - levels[k - 1] < 1e-12
        assert straddled > 50

    @pytest.mark.parametrize("spec", [ChainSpec(3, 2, kappa=1.0), ChainSpec(4, 2, kappa=0.0),
                                      ChainSpec(4, 2, kappa=1.0, boundary="periodic")],
                             ids=["3x2", "4x2-free", "4x2-periodic"])
    def test_mass_gap_solves(self, spec, monkeypatch):
        # every block of these chains is dense below a cutoff of 2048 states
        monkeypatch.setattr(rotorsim.spectra, "DENSE_CUTOFF", 2048)
        solved = []

        def recording(op, k, _solve=rotorsim.spectra.lowest_eigenpairs):
            solved.append((op, k, _solve(op, k)))
            return solved[-1][2]
        monkeypatch.setattr(rotorsim.spectra, "lowest_eigenpairs", recording)
        mass_gap(spec)
        # the blocks L = 0 .. 2 at least; the free 4x2 chain doubles k on its E1 block
        assert len(solved) >= 3 + (spec.kappa == 0.0)
        for op, k, res in solved:
            assert_first_k_of_full(op, k, res)

    def test_lapack_error_is_non_convergence(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("internal error")
        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        with pytest.raises(NonConvergenceError, match="dense LAPACK solve failed"):
            lowest_eigenpairs(full_hamiltonian(ChainSpec(2, 1, kappa=1.0)), k=2)


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
        # 6x1 has no total-L block above 297 states, 7x1 four of 429 to 1001
        assert spectrum(ChainSpec(n_sites, 1, kappa=0.5), k=2).method == method

    def test_method_label_of_diagonal_sectors(self):
        # at kappa = 0 the 7x1 blocks above DENSE_CUTOFF are read off the diagonal
        assert spectrum(ChainSpec(7, 1, kappa=0.0), k=2).method == "diagonal"

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_no_levels(self, k):
        with pytest.raises(ValueError, match=f"k={k}$"):
            spectrum(ChainSpec(2, 1), k=k)

    @pytest.mark.parametrize("mu", [math.nan, -math.inf, True])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(InvalidSpecError, match="mu_tilde must be a finite number"):
            spectrum(ChainSpec(2, 1), 1, mu)

    def test_rejects_mu_whose_charge_term_overflows(self):
        # M reaches N l_max: 3 * 6e307 overflows, 2 * 8e307 does not; an infinite
        # first level would pull every later one into its run of ties
        with pytest.raises(ValueError, match=r"^mu \* M overflows: mu up to 6e\+307 at charge 3$"):
            spectrum(ChainSpec(3, 1), 3, 6e307)
        with pytest.raises(ValueError, match="overflows"):
            spectrum(ChainSpec(2, 1), 3, -1e308)
        res = spectrum(ChainSpec(2, 1), 3, 8e307)
        assert np.all(np.isfinite(res.eigenvalues)) and list(res.sector_labels[:1]) == [2]

    def test_vectors_are_real(self):
        assert ground_state(ChainSpec(2, 2, kappa=1.0))[2].dtype == np.float64

    def test_tie_goes_to_the_most_negative_charge(self):
        # at kappa = 0, mu = -2 the sectors M = 0, -1, -2 share the ground energy 0
        assert spectrum(ChainSpec(2, 1, kappa=0.0), k=1, mu_tilde=-2.0).sector_labels[0] == -2

    def test_rounding_noise_ties_are_ordered_by_label(self):
        # 4.8 five times: the M = 2 members of three E = 8.8 multiplets and the
        # M = 1 members of two E = 6.8 ones, shifted by -2M; the computed values
        # differ by ~1e-15 between blocks
        spec, mu = ChainSpec(3, 1, kappa=0.7), 2.0
        res = spectrum(spec, k=20, mu_tilde=mu)
        tied = np.abs(res.eigenvalues - 4.8) < 1e-10
        assert list(res.sector_labels[tied]) == [1, 1, 2, 2, 2]
        # the levels themselves are the block solves' levels, bit for bit
        levels = []
        for total_l in range(spec.n_sites * spec.l_max + 1):
            block = rotorsim.spectra._block(spec, total_l)
            levels += [(e - mu * label, label)
                       for e in lowest_eigenpairs(block, min(20, block.dimension)).eigenvalues
                       for label in range(-total_l, total_l + 1)]
        assert sorted(zip(res.eigenvalues, res.sector_labels)) == sorted(levels)[:20]

    @pytest.mark.parametrize("spec", [ChainSpec(3, 2, kappa=0.7), ChainSpec(4, 1, kappa=1.349,
                                                                             boundary="periodic"),
                                      ChainSpec(6, 1, kappa=1.0)],
                             ids=["3x2", "4x1-periodic", "6x1"])
    def test_members_of_a_multiplet_are_equal_bit_for_bit(self, spec):
        # a level of block L enters once per M = -L .. L: grouped by exact value,
        # every group holds as many members at M as at -M, and no fewer at M than
        # at M + 1 (each multiplet fills -L .. L); a member off by one rounding
        # step would split its multiplet's group
        k = 60
        res = spectrum(spec, k=k)
        whole = res.eigenvalues < res.eigenvalues[-1]  # the last energy may be cut by k
        for energy in np.unique(res.eigenvalues[whole]):
            labels = res.sector_labels[res.eigenvalues == energy]
            counts = [np.count_nonzero(labels == m) for m in range(-labels.max(), labels.max() + 1)]
            assert counts == counts[::-1], (energy, labels)
            assert counts[len(counts) // 2:] == sorted(counts[len(counts) // 2:], reverse=True)

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
        # README's charged ground state: spectrum's label m, then the lowest level of H on M = m
        label = int(spectrum(spec, k=1, mu_tilde=mu).sector_labels[0])
        basis = sector_basis(spec, label)
        res = lowest_eigenpairs(build_hamiltonian(basis), 1)
        vec = np.zeros(spec.dimension)
        vec[basis.codes] = res.eigenvectors[:, 0]
        expected_energy, _ = grand_canonical_ground(spec, mu)
        assert res.eigenvalues[0] - mu * label == pytest.approx(expected_energy, abs=1e-10)
        assert np.vdot(vec, oracle_charge(spec).matrix @ vec) == pytest.approx(
            label, abs=1e-10)

    def test_solve_cap_bounds_k_times_dimension(self, monkeypatch):
        # 4^2 = 16 stored values: the 28-state L = 1 block of 4x1 is refused
        # for k = 1, the 14-state L = 0 block admitted, but not for k = 2
        monkeypatch.setattr(rotorsim.spectra, "DYNAMICS_DIM_CAP", 4)
        spec = ChainSpec(4, 1, kappa=1.0)
        with pytest.raises(DimensionCapError, match=r"^1 levels of a 28-state operator exceed "
                                                    r"the solve cap k \* dimension <= 4\^2$"):
            spectrum(spec, 1)
        block = rotorsim.spectra._block(spec, 0)
        assert block.dimension == 14
        assert lowest_eigenpairs(block, 1).eigenvalues.shape == (1,)
        with pytest.raises(DimensionCapError):
            lowest_eigenpairs(block, 2)

    def test_solve_cap_refuses_before_any_eigensolver(self, monkeypatch):
        # the cap lives in lowest_eigenpairs itself, for any operator
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolver ran above the solve cap")
        monkeypatch.setattr(rotorsim.spectra, "DYNAMICS_DIM_CAP", 8)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(rotorsim.spectra.spla, "eigsh", refuse)
        spec = ChainSpec(4, 1, kappa=1.0)
        block = build_hamiltonian(sector_basis(spec, 0))
        assert block.dimension == 70
        with pytest.raises(DimensionCapError, match=r"solve cap k \* dimension <= 8\^2"):
            lowest_eigenpairs(block, 1)


# l_max 1-3, open and periodic (N >= 3): sector 0 up to 1107 states, its L = 0 block up to 132
GROUND_STATE_GRID = [ChainSpec(n, l_max, boundary=boundary)
                     for l_max, sizes in ((1, range(2, 7)), (2, range(2, 5)), (3, (2, 3)))
                     for n in sizes for boundary in ("open", "periodic")
                     if boundary == "open" or n >= 3]


@functools.cache
def oracle_sector0_parts(spec):
    """Independent oracle: sum L^2 and the bond operator on the M = 0 sector, dense."""
    index = oracle_sectors(spec)[0]
    return tuple(part(spec).restrict(index).matrix.toarray()
                 for part in (oracle_kinetic, oracle_interaction))


class TestGroundStateBlock:
    """ground_state solves the L = 0 block alone."""

    @pytest.mark.parametrize("kappa", [0.0, 0.01, 1.0, 1.349, 10.0, 1000.0])
    @pytest.mark.parametrize("spec", GROUND_STATE_GRID,
                             ids=lambda s: f"{s.n_sites}x{s.l_max}-{s.boundary}")
    def test_matches_the_dense_sector_0_ground_state(self, spec, kappa):
        # the energy checks that H's lowest level is a singlet; the vector is embedded
        # by Clebsch-Gordan products (the sector's ground state is unique on this grid)
        kinetic, bond = oracle_sector0_parts(spec)
        vals, vecs = scipy.linalg.eigh(kinetic + kappa * bond, subset_by_index=[0, 0])
        spec = replace(spec, kappa=kappa)
        energy, basis, _ = ground_state(spec)
        assert np.array_equal(basis.codes, sector_basis(spec, 0, coupled=True).codes)
        assert abs(energy - vals[0]) <= 1e-10 * max(1.0, abs(vals[0]))
        vec = full_ground_state(spec)[1][oracle_sectors(spec)[0]]
        assert abs(abs(np.vdot(vec, vecs[:, 0])) - 1.0) <= 1e-10

    def test_solves_one_block_not_the_sector(self, monkeypatch):
        solved = record_solves(monkeypatch)
        spec = ChainSpec(8, 1, kappa=1.0)
        _, basis, vec = ground_state(spec)
        # the 12870-state sector 0 is never solved, nor its 3299-state (R+, P+) block
        assert solved == [(1430, 1)]
        assert len(basis.codes) == len(vec) == 1430
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


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

    @pytest.mark.parametrize("spec", [
        ChainSpec(4, 1, kappa=0.0),
        ChainSpec(3, 2, kappa=0.0),
        ChainSpec(2, 3, kappa=0.0),
        ChainSpec(4, 1, kappa=0.7, boundary="periodic"),
        ChainSpec(3, 2, kappa=1.3, boundary="periodic"),
        ChainSpec(3, 2, kappa=0.4),
        ChainSpec(2, 3, kappa=2.0),
        ChainSpec(5, 1, kappa=3.0, boundary="periodic"),
        ChainSpec(3, 3, kappa=1.0),
    ])
    def test_matches_dense_spectrum_of_every_sector(self, spec):
        gap, degeneracy = mass_gap(spec)
        oracle_gap, oracle_degeneracy = dense_gap(spec)
        assert gap == pytest.approx(oracle_gap, abs=1e-10)
        assert degeneracy == oracle_degeneracy

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.349])
    @pytest.mark.parametrize("spec", MASS_GAP_GRID,
                             ids=lambda s: f"{s.n_sites}x{s.l_max}-{s.boundary}")
    def test_matches_the_oracles_on_the_grid(self, spec, kappa):
        # the stop above E1 is checked here: the oracles solve every sector or block
        spec = replace(spec, kappa=kappa)
        gap, degeneracy = mass_gap(spec)
        oracle = dense_gap(spec) if spec.site_dim**spec.n_sites <= 6561 else block_gap(spec)
        assert gap == pytest.approx(oracle[0], abs=1e-10)
        assert degeneracy == oracle[1]
        if kappa == 0.0:
            assert (gap, degeneracy) == (2.0, 3 * spec.n_sites)

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

    @pytest.mark.parametrize("spec", [
        ChainSpec(4, 1), ChainSpec(3, 2), ChainSpec(4, 2, boundary="periodic"), ChainSpec(2, 3),
    ])
    def test_raising_operator_squares_to_the_casimir_oracle(self, spec):
        # on M = 0, L^2 = L_- L_+: (L_+ V)^T (L_+ V) = V^T L^2 V, here with V the
        # eigenvectors of the Kronecker-built L^2 on sector 0, so the Gram
        # matrix is diagonal in the integral L(L + 1)
        casimir = sector0_casimir(spec)
        values, v = np.linalg.eigh(casimir)
        w = raising_operator(sector_basis(spec, 0)) @ v
        assert abs(w.T @ w - v.T @ casimir @ v).max() < 1e-10
        spins = (np.sqrt(4.0 * values + 1.0) - 1.0) / 2.0
        assert abs(spins - np.round(spins)).max() < 1e-10

    @pytest.mark.parametrize("spec", [
        ChainSpec(3, 1), ChainSpec(2, 2), ChainSpec(2, 3), ChainSpec(4, 1, boundary="periodic"),
    ])
    def test_raising_operator_is_the_oracle_block(self, spec):
        lx, ly = total_transverse_angular_momentum(spec)
        sectors = oracle_sectors(spec)
        block = (lx + 1j * ly)[np.ix_(sectors[1], sectors[0])].toarray()
        assert abs(raising_operator(sector_basis(spec, 0)).toarray() - block).max() < 1e-14

    @pytest.mark.parametrize("spec, degeneracy, solves", [
        # L = 2 lies above E1 = 2 and stops the scan; at kappa = 0 k doubles on
        # the L = 1 block until a level lies above its 4 copies of E1
        (ChainSpec(4, 1, kappa=0.0), 12, [(14, 2), (28, 1), (20, 1), (28, 2), (28, 4), (28, 8)]),
        (ChainSpec(8, 1, kappa=1.0), 3, [(1430, 2), (3432, 1), (3640, 1), (3432, 2)]),
    ])
    def test_builds_each_block_once_and_stops_above_e1(self, spec, degeneracy, solves,
                                                        monkeypatch):
        built = []

        def counted(basis, _build=rotorsim.spectra.build_hamiltonian):
            built.append((basis.coupled, list(basis.codes)))
            return _build(basis)
        monkeypatch.setattr(rotorsim.spectra, "build_hamiltonian", counted)
        solved = record_solves(monkeypatch)
        assert mass_gap(spec)[1] == degeneracy
        assert built == [(True, list(sector_basis(spec, total_l, coupled=True).codes))
                         for total_l in range(3)]
        assert solved == solves

    def test_degeneracy_counts_2l_plus_1_members_per_multiplet(self, monkeypatch):
        # every E1 multiplet of the chain is a triplet, so here the blocks L = 1
        # and L = 2 of 2x1 at kappa = 0 trade places: E1 = 2 then lies twice in
        # the block read as L = 2 and must count as 2 * 5 members, not 2 * 3
        spec = ChainSpec(2, 1, kappa=0.0)

        def swapped(spec, total_l, _block=rotorsim.spectra._block):
            return _block(spec, {1: 2, 2: 1}.get(total_l, total_l))
        monkeypatch.setattr(rotorsim.spectra, "_block", swapped)
        assert mass_gap(spec) == (2.0, 10)

    @pytest.mark.parametrize("spec, hopping", [
        (ChainSpec(4, 1), math.cos(math.pi / 5)),
        (ChainSpec(4, 1, boundary="periodic"), 1.0),
        (ChainSpec(6, 1), math.cos(math.pi / 7)),
    ])
    def test_strong_coupling_first_order(self, spec, hopping):
        # one excited rotor hops with amplitude 2 kappa / 3 (Hamer, Kogut and
        # Susskind 1979): gap = 2 - (4 kappa / 3) c + O(kappa^2), where
        # c = cos(pi / (N + 1)) is the lowest open-chain band edge, 1 when periodic
        remainders = []
        for kappa in (0.01, 0.005, 0.0025):
            gap, degeneracy = mass_gap(replace(spec, kappa=kappa))
            assert degeneracy == 3
            remainders.append((gap - (2.0 - 4.0 * kappa / 3.0 * hopping)) / kappa**2)
        assert all(0.40 <= r <= 0.50 for r in remainders)
        assert max(remainders) - min(remainders) < 2e-3


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
        # once per total-L block L = 0..3, never per grid point nor per sector
        spec = ChainSpec(3, 1, kappa=1.0)
        calls = []

        def counted(basis, _build=rotorsim.spectra.build_hamiltonian):
            calls.append((basis.coupled, list(basis.codes)))
            return _build(basis)
        monkeypatch.setattr(rotorsim.spectra, "build_hamiltonian", counted)
        charge_scan(spec, np.linspace(0.0, 4.0, 9))
        assert calls == [(True, list(sector_basis(spec, total_l, coupled=True).codes))
                         for total_l in range(4)]

    @pytest.mark.parametrize("spec", [
        ChainSpec(n, l, kappa=1.349, boundary="periodic") for n, l in ((3, 1), (4, 1), (5, 1),
                                                                     (3, 2), (4, 2), (3, 3))
    ] + [ChainSpec(n, l, kappa=0.0, boundary=b) for n, l, b in ((1, 1, "open"), (4, 1, "open"),
                                                               (2, 2, "open"), (3, 2, "periodic"))],
        ids=lambda spec: f"{spec.n_sites}x{spec.l_max}-{spec.boundary}-{spec.kappa}")
    def test_matches_the_per_sector_dense_oracle(self, spec):
        # E_M from a dense solve of every sector; at kappa = 0 every grid point mu = 2
        # is an exact crossing of all M <= N, and the smallest M takes it
        grid = np.linspace(0.0, 4.0, 17)
        result = charge_scan(spec, grid)
        lowest = np.array([sector_minimum(spec, m)
                           for m in range(spec.n_sites * spec.l_max + 1)])
        energies = lowest[None, :] - grid[:, None] * np.arange(len(lowest))
        expected = energies.min(axis=1)
        assert np.abs(result.ground_energy - expected).max() < 1e-10
        assert np.array_equal(result.ground_charge,
                              np.argmax(energies <= expected[:, None] + 1e-9, axis=1))
        critical = np.min((lowest[1:] - lowest[0]) / np.arange(1, len(lowest)))
        assert result.critical_mu == pytest.approx(critical, abs=1e-10)

    @pytest.mark.parametrize("grid", [[False, True], np.array([False, True]), [0.0, True],
                                      [np.bool_(False)]])
    def test_rejects_a_bool_grid(self, grid):
        # as spectrum refuses a bool mu_tilde; [False, True] would scan mu = 0 and 1
        with pytest.raises(InvalidSpecError, match="bools"):
            charge_scan(ChainSpec(2, 1, kappa=1.0), grid)

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


# open 1x1, 2x2, 3x1, 4x1, 5x1, 3x2 and periodic 4x1, 5x1, 3x2, each at two couplings:
# i == j, N <= 2, and a site moved over three positions by swaps
ORACLE_CORRELATION_SPECS = [ChainSpec(n, l, kappa=kappa, boundary=boundary)
                            for n, l, boundary in [(1, 1, "open"), (2, 2, "open"), (3, 1, "open"),
                                                   (4, 1, "open"), (5, 1, "open"), (3, 2, "open"),
                                                   (4, 1, "periodic"), (5, 1, "periodic"),
                                                   (3, 2, "periodic")]
                            for kappa in (0.5, 1.349)]


class TestCorrelationAgainstFullSpaceOracle:
    """correlation against a computation that shares neither ground_state nor direction_dots."""

    @pytest.mark.parametrize("spec", ORACLE_CORRELATION_SPECS, ids=repr)
    def test_every_pair(self, spec):
        _, vecs = np.linalg.eigh(oracle_hamiltonian(spec).matrix.toarray())
        psi = vecs[:, 0]
        pairs = [(i, j) for i in range(spec.n_sites) for j in range(spec.n_sites)]
        for (i, j), dot in zip(pairs, oracle_direction_dots(spec, pairs)):
            assert abs(correlation(spec, i, j) - psi @ (dot @ psi)) <= 1e-10, (i, j)

    @pytest.mark.parametrize("spec", [ChainSpec(4, 1, kappa=1.349), ChainSpec(7, 1, kappa=1.0),
                                      ChainSpec(5, 2, kappa=0.5)], ids=repr)
    def test_profile_reads_the_same_values(self, spec):
        profile = correlation_profile(spec)
        center = (spec.n_sites - 1) // 2
        for d, value in zip(profile.distances, profile.values):
            assert value == correlation(spec, center, center + d)


class TestIntegerArguments:
    """A bool or a non-integral count or index is refused with an error naming it."""

    @pytest.mark.parametrize("i, j, name, value", [
        (True, 2, "i", True), (0.0, 2, "i", 0.0), (0, 2.0, "j", 2.0)])
    def test_correlation_sites(self, i, j, name, value):
        with pytest.raises(InvalidSpecError, match=f"^{name} must be an integer, got {value!r}$"):
            correlation(ChainSpec(3, 1, kappa=1.0), i, j)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_spectrum_levels(self, k):
        with pytest.raises(InvalidSpecError, match=f"^k must be an integer, got {k!r}$"):
            spectrum(ChainSpec(2, 1), k=k)

    def test_lowest_eigenpairs_levels(self):
        with pytest.raises(InvalidSpecError, match="^k must be an integer, got 1.5$"):
            lowest_eigenpairs(full_hamiltonian(ChainSpec(2, 1)), 1.5)

    def test_numpy_integers_are_accepted(self):
        spec = ChainSpec(3, 1, kappa=1.0)
        assert correlation(spec, np.int64(0), np.int32(2)) == correlation(spec, 0, 2)
        assert np.array_equal(spectrum(spec, k=np.int64(3)).eigenvalues,
                              spectrum(spec, k=3).eigenvalues)
        op = full_hamiltonian(ChainSpec(2, 1))
        assert np.array_equal(lowest_eigenpairs(op, np.int16(2)).eigenvalues,
                              lowest_eigenpairs(op, 2).eigenvalues)


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
        _, vec = full_ground_state(spec)
        q = oracle_charge(spec).matrix
        assert abs(np.vdot(vec, q @ vec)) < 1e-10
