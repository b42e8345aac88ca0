import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from rotorsim.lattice import (
    ChainSpec,
    DIM_CAP_ENV,
    DimensionCapError,
    InvalidSpecError,
    build_charge,
    build_grand_canonical,
    build_hamiltonian,
    build_interaction,
    build_kinetic,
    direction_matrices,
    sector_decompose,
    site_basis,
)

from conftest import quadrature_direction_element


class TestChainSpec:
    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=0, l_max=1)
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=2, l_max=0)

    def test_rejects_negative_kappa(self):
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=2, l_max=1, kappa=-0.1)

    def test_periodic_needs_three_sites(self):
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=2, l_max=1, boundary="periodic")
        assert len(ChainSpec(n_sites=3, l_max=1, boundary="periodic").bonds) == 3

    @pytest.mark.parametrize("field, value", [
        ("n_sites", 2.5), ("n_sites", True), ("n_sites", 2.0), ("l_max", False),
        ("kappa", math.nan), ("kappa", math.inf), ("mu_tilde", math.nan),
        ("mu_tilde", -math.inf),
    ])
    def test_rejects_non_integral_or_non_finite(self, field, value):
        with pytest.raises(InvalidSpecError):
            ChainSpec(**{"n_sites": 2, "l_max": 1, field: value})

    def test_dimension_cap(self, monkeypatch):
        with pytest.raises(DimensionCapError):
            ChainSpec(n_sites=12, l_max=3)
        monkeypatch.setenv(DIM_CAP_ENV, "10")
        with pytest.raises(DimensionCapError):
            ChainSpec(n_sites=2, l_max=1)
        monkeypatch.setenv(DIM_CAP_ENV, "100")
        assert ChainSpec(n_sites=2, l_max=1).dimension == 16


class TestSiteBasis:
    def test_lmax1_enumeration(self):
        basis = site_basis(1)
        assert basis.states == ((0, 0), (1, -1), (1, 0), (1, 1))

    def test_lmax2_size(self):
        assert site_basis(2).dim == 9

    def test_l_squared_eigenvalues(self):
        L2 = build_kinetic(ChainSpec(1, 2)).matrix
        assert list(L2.diagonal()) == [0, 2, 2, 2, 6, 6, 6, 6, 6]

    def test_index_matches_order(self):
        basis = site_basis(3)
        for pos, (l, m) in enumerate(basis.states):
            assert basis.index(l, m) == pos


class TestDirectionMatrices:
    def test_known_element(self):
        basis = site_basis(1)
        nz, _, _ = direction_matrices(1)
        value = nz[basis.index(1, 0), basis.index(0, 0)]
        assert value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_m_selection_rule(self):
        basis = site_basis(1)
        nz, _, _ = direction_matrices(1)
        assert nz[basis.index(1, 1), basis.index(0, 0)] == 0.0

    def test_l_selection_rule(self):
        basis = site_basis(3)
        nz, npl, nmi = direction_matrices(3)
        for matrix in (nz.toarray(), npl.toarray(), nmi.toarray()):
            for a, (la, _) in enumerate(basis.states):
                for b, (lb, _) in enumerate(basis.states):
                    if abs(la - lb) != 1:
                        assert matrix[a, b] == 0.0

    def test_adjoint_pair(self):
        _, npl, nmi = direction_matrices(3)
        assert abs(npl.toarray().conj().T - nmi.toarray()).max() < 1e-15

    def test_nz_hermitian(self):
        nz, _, _ = direction_matrices(3)
        assert abs(nz.toarray() - nz.toarray().conj().T).max() < 1e-15

    @pytest.mark.parametrize("l_max", [1, 2, 3])
    def test_full_table_against_quadrature(self, l_max):
        # anti-sign-error gate: every entry of every component must match
        # the independent spherical-surface integral
        basis = site_basis(l_max)
        matrices = dict(zip("z+-", (m.toarray() for m in direction_matrices(l_max))))
        for component, matrix in matrices.items():
            for a, (la, ma) in enumerate(basis.states):
                for b, (lb, mb) in enumerate(basis.states):
                    oracle = quadrature_direction_element(la, ma, lb, mb, component)
                    assert abs(matrix[a, b] - oracle) < 1e-10, (component, la, ma, lb, mb)


def dense(op):
    return op.matrix.toarray()


def total_transverse_angular_momentum(spec):
    """Total L_x and L_y, sparse, from <l, m+1| L_+ |l, m> = sqrt(l(l+1) - m(m+1))."""
    basis = site_basis(spec.l_max)
    l_plus = sp.lil_matrix((basis.dim, basis.dim))
    for l, m in basis.states:
        if m < l:
            l_plus[basis.index(l, m + 1), basis.index(l, m)] = math.sqrt(l * (l + 1) - m * (m + 1))
    l_plus = l_plus.tocsr()
    site_x, site_y = (l_plus + l_plus.T) / 2.0, (l_plus - l_plus.T) / 2.0j
    totals = []
    for site_op in (site_x, site_y):
        total = sp.csr_matrix((spec.dimension, spec.dimension), dtype=complex)
        for i in range(spec.n_sites):
            left = sp.identity(spec.site_dim**i)
            right = sp.identity(spec.site_dim ** (spec.n_sites - 1 - i))
            total = total + sp.kron(sp.kron(left, site_op), right, format="csr")
        totals.append(total)
    return totals


class TestHamiltonian:
    def test_single_site_spectrum(self):
        for l_max in (1, 2, 3):
            h = build_hamiltonian(ChainSpec(n_sites=1, l_max=l_max, kappa=5.0))
            expected = sorted(l * (l + 1) for l in range(l_max + 1)
                              for _ in range(2 * l + 1))
            assert np.allclose(np.linalg.eigvalsh(dense(h)), expected, atol=1e-12)

    def test_decoupled_chain_spectrum_is_sum(self):
        single = np.linalg.eigvalsh(dense(build_hamiltonian(ChainSpec(1, 1))))
        pair = np.linalg.eigvalsh(dense(build_hamiltonian(ChainSpec(2, 1, kappa=0.0))))
        sums = sorted(a + b for a in single for b in single)
        assert np.allclose(pair, sums, atol=1e-12)

    def test_weak_coupling_ground_energy(self):
        # second-order perturbation theory: 2*kappa - kappa^2/3
        kappa = 0.1
        h = build_hamiltonian(ChainSpec(2, 1, kappa=kappa))
        ground = np.linalg.eigvalsh(dense(h))[0]
        assert ground == pytest.approx(2 * kappa - kappa**2 / 3.0, abs=1e-3)

    def test_bond_count(self):
        open_h = build_interaction(ChainSpec(4, 1))
        periodic_h = build_interaction(ChainSpec(4, 1, boundary="periodic"))
        # the additive constant is 2 per bond; read it off the (0,0) entry
        # in the product ground-state corner
        assert dense(open_h)[0, 0] == pytest.approx(2 * 3)
        assert dense(periodic_h)[0, 0] == pytest.approx(2 * 4)

    @pytest.mark.parametrize("n_sites,l_max,kappa", [
        (1, 3, 0.0), (2, 1, 0.3), (2, 2, 1.7), (3, 1, 0.9),
        (3, 2, 2.0), (4, 1, 1.0),
    ])
    def test_hermiticity(self, n_sites, l_max, kappa):
        h = build_hamiltonian(ChainSpec(n_sites, l_max, kappa))
        assert abs(h.matrix - h.matrix.getH()).max() < 1e-14

    @pytest.mark.parametrize("spec", [
        ChainSpec(2, 1, kappa=1.0), ChainSpec(4, 1, kappa=0.7),
        ChainSpec(3, 1, kappa=1.3, boundary="periodic"),
        ChainSpec(4, 1, kappa=0.9, boundary="periodic"),
        ChainSpec(2, 2, kappa=1.1), ChainSpec(3, 2, kappa=0.6), ChainSpec(2, 3, kappa=2.0),
    ])
    def test_rotation_invariant(self, spec):
        # H commutes with every component of the total angular momentum, so
        # the charge along z stands for the charge along any internal axis
        h = build_hamiltonian(spec).matrix
        lx, ly = total_transverse_angular_momentum(spec)
        lz = build_charge(spec).matrix
        assert abs(lx @ ly - ly @ lx - 1j * lz).max() < 1e-12  # the oracle's own algebra
        for component in (lx, ly):
            assert abs(h @ component - component @ h).max() < 1e-12

    def test_truncation_convergence(self):
        # enlarging the cutoff from 2 to 3 moves the ground energy by less
        # than 1e-3 * kappa^2 (perturbative tail estimate)
        for kappa in (0.5, 1.0):
            e2 = np.linalg.eigvalsh(dense(build_hamiltonian(ChainSpec(2, 2, kappa))))[0]
            e3 = np.linalg.eigvalsh(dense(build_hamiltonian(ChainSpec(2, 3, kappa))))[0]
            assert abs(e2 - e3) < 1e-3 * kappa**2


class TestCharge:
    def test_diagonal_integer_for_z_axis(self):
        q = dense(build_charge(ChainSpec(2, 1)))
        assert abs(q - np.diag(np.diag(q))).max() == 0.0
        assert np.allclose(np.diag(q), np.round(np.diag(q).real), atol=1e-14)

    def test_all_m_zero_state(self):
        spec = ChainSpec(2, 1)
        basis = site_basis(1)
        q = dense(build_charge(spec))
        idx = basis.index(1, 0) * spec.site_dim + basis.index(1, 0)
        assert q[idx, idx] == 0.0

    def test_opposite_m_pair(self):
        spec = ChainSpec(2, 1)
        basis = site_basis(1)
        q = dense(build_charge(spec))
        idx = basis.index(1, 1) * spec.site_dim + basis.index(1, -1)
        assert q[idx, idx] == 0.0

    def test_charge_spectrum_bounds(self):
        q = np.diag(dense(build_charge(ChainSpec(2, 1)))).real
        assert set(np.round(q).astype(int)) == {-2, -1, 0, 1, 2}

    @pytest.mark.parametrize("n_sites,l_max", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_commutes_with_hamiltonian(self, n_sites, l_max):
        spec = ChainSpec(n_sites, l_max, kappa=1.3)
        h = dense(build_hamiltonian(spec))
        q = dense(build_charge(spec))
        assert abs(h @ q - q @ h).max() < 1e-12


class TestGrandCanonical:
    def test_zero_mu_identical(self):
        spec = ChainSpec(2, 1, kappa=0.7, mu_tilde=0.0)
        h = build_hamiltonian(spec)
        gc = build_grand_canonical(spec)
        assert abs(h.matrix - gc.matrix).max() == 0.0

    def test_single_site_level_crossing(self):
        gc = dense(build_grand_canonical(ChainSpec(1, 1, kappa=0.0, mu_tilde=3.0)))
        vals = np.linalg.eigvalsh(gc)
        assert vals[0] == pytest.approx(-1.0, abs=1e-14)
        # the ground state is the maximal-m member of the l=1 triplet
        basis = site_basis(1)
        assert gc[basis.index(1, 1), basis.index(1, 1)] == pytest.approx(-1.0)

    def test_mu_sign_flip_preserves_spectrum(self):
        up = np.linalg.eigvalsh(dense(build_grand_canonical(
            ChainSpec(2, 1, kappa=0.5, mu_tilde=0.8))))
        down = np.linalg.eigvalsh(dense(build_grand_canonical(
            ChainSpec(2, 1, kappa=0.5, mu_tilde=-0.8))))
        assert np.allclose(up, down, atol=1e-12)


class TestSectors:
    def test_single_site_sectors(self):
        sectors = sector_decompose(ChainSpec(1, 1))
        sizes = {m: len(ix) for m, ix in sectors.items()}
        assert sizes == {-1: 1, 0: 2, 1: 1}

    def test_partition(self):
        spec = ChainSpec(2, 1)
        sectors = sector_decompose(spec)
        assert len(sectors) == 2 * spec.n_sites * spec.l_max + 1
        combined = np.sort(np.concatenate(list(sectors.values())))
        assert np.array_equal(combined, np.arange(spec.dimension))

    def test_block_structure(self):
        spec = ChainSpec(2, 2, kappa=1.1)
        h = dense(build_hamiltonian(spec))
        sectors = sector_decompose(spec)
        labels = np.empty(spec.dimension, dtype=int)
        for m, indices in sectors.items():
            labels[indices] = m
        off_block = h[labels[:, None] != labels[None, :]]
        assert abs(off_block).max() == 0.0


