import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

from rotorsim.lattice import (
    ChainSpec,
    DIM_CAP_ENV,
    DimensionCapError,
    InvalidSpecError,
    SparseOperator,
    build_charge,
    build_grand_canonical,
    build_hamiltonian,
    build_interaction,
    build_kinetic,
    direction_dots,
    direction_matrices,
    even_block,
    sector_basis,
    sector_decompose,
    site_basis,
    site_index,
)
from rotorsim.spectra import spectrum

from conftest import (
    all_codes,
    oracle_charge,
    oracle_direction_dots,
    oracle_grand_canonical,
    oracle_hamiltonian,
    oracle_interaction,
    oracle_kinetic,
    oracle_sectors,
    quadrature_direction_element,
)


def whole_space(build, spec, *args):
    """A library builder's operator on every code of the product space."""
    return build(spec, all_codes(spec), *args)


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
        ("kappa", math.nan), ("kappa", math.inf),
    ])
    def test_rejects_non_integral_or_non_finite(self, field, value):
        with pytest.raises(InvalidSpecError):
            ChainSpec(**{"n_sites": 2, "l_max": 1, field: value})

    def test_fields_describe_the_hamiltonian_alone(self):
        # mu_tilde is an argument of spectrum, ground_state and build_grand_canonical
        assert [f.name for f in fields(ChainSpec)] == ["n_sites", "l_max", "kappa", "boundary"]
        with pytest.raises(TypeError):
            ChainSpec(2, 1, mu_tilde=0.5)

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
        assert site_basis(1) == ((0, 0), (1, -1), (1, 0), (1, 1))

    def test_lmax2_size(self):
        assert len(site_basis(2)) == 9

    def test_l_squared_eigenvalues(self):
        spec = ChainSpec(1, 2)
        L2 = whole_space(build_kinetic, spec).matrix
        assert list(L2.diagonal()) == [0, 2, 2, 2, 6, 6, 6, 6, 6]

    def test_index_matches_order(self):
        basis = site_basis(3)
        for pos, (l, m) in enumerate(basis):
            assert site_index(l, m) == pos


class TestDirectionMatrices:
    def test_known_element(self):
        nz, _, _ = direction_matrices(1)
        value = nz[site_index(1, 0), site_index(0, 0)]
        assert value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_m_selection_rule(self):
        nz, _, _ = direction_matrices(1)
        assert nz[site_index(1, 1), site_index(0, 0)] == 0.0

    def test_l_selection_rule(self):
        basis = site_basis(3)
        nz, npl, nmi = direction_matrices(3)
        for matrix in (nz.toarray(), npl.toarray(), nmi.toarray()):
            for a, (la, _) in enumerate(basis):
                for b, (lb, _) in enumerate(basis):
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
            for a, (la, ma) in enumerate(basis):
                for b, (lb, mb) in enumerate(basis):
                    oracle = quadrature_direction_element(la, ma, lb, mb, component)
                    assert abs(matrix[a, b] - oracle) < 1e-10, (component, la, ma, lb, mb)


def dense(op):
    return op.matrix.toarray()


def total_transverse_angular_momentum(spec):
    """Total L_x and L_y, sparse, from <l, m+1| L_+ |l, m> = sqrt(l(l+1) - m(m+1))."""
    basis = site_basis(spec.l_max)
    l_plus = sp.lil_matrix((len(basis), len(basis)))
    for l, m in basis:
        if m < l:
            l_plus[site_index(l, m + 1), site_index(l, m)] = math.sqrt(l * (l + 1) - m * (m + 1))
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
            spec = ChainSpec(n_sites=1, l_max=l_max, kappa=5.0)
            expected = sorted(l * (l + 1) for l in range(l_max + 1)
                              for _ in range(2 * l + 1))
            levels = spectrum(spec, k=spec.dimension).eigenvalues
            assert np.allclose(levels, expected, atol=1e-12)

    def test_decoupled_chain_spectrum_is_sum(self):
        single = spectrum(ChainSpec(1, 1), k=4).eigenvalues
        pair = spectrum(ChainSpec(2, 1, kappa=0.0), k=16).eigenvalues
        sums = sorted(a + b for a in single for b in single)
        assert np.allclose(pair, sums, atol=1e-12)

    def test_weak_coupling_ground_energy(self):
        # second-order perturbation theory: 2*kappa - kappa^2/3
        kappa = 0.1
        ground = spectrum(ChainSpec(2, 1, kappa=kappa), k=1).eigenvalues[0]
        assert ground == pytest.approx(2 * kappa - kappa**2 / 3.0, abs=1e-3)

    def test_bond_count(self):
        open_spec, periodic_spec = ChainSpec(4, 1), ChainSpec(4, 1, boundary="periodic")
        open_h = whole_space(build_interaction, open_spec)
        periodic_h = whole_space(build_interaction, periodic_spec)
        # the additive constant is 2 per bond; read it off the (0,0) entry
        # in the product ground-state corner
        assert dense(open_h)[0, 0] == pytest.approx(2 * 3)
        assert dense(periodic_h)[0, 0] == pytest.approx(2 * 4)

    @pytest.mark.parametrize("n_sites,l_max,kappa", [
        (1, 3, 0.0), (2, 1, 0.3), (2, 2, 1.7), (3, 1, 0.9),
        (3, 2, 2.0), (4, 1, 1.0),
    ])
    def test_hermiticity(self, n_sites, l_max, kappa):
        spec = ChainSpec(n_sites, l_max, kappa)
        for m in range(-n_sites * l_max, n_sites * l_max + 1):
            h = build_hamiltonian(spec, sector_basis(spec, m))
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
        h = whole_space(build_hamiltonian, spec).matrix
        lx, ly = total_transverse_angular_momentum(spec)
        lz = whole_space(build_charge, spec).matrix
        assert abs(lx @ ly - ly @ lx - 1j * lz).max() < 1e-12  # the test's L_x, L_y against Q
        for component in (lx, ly):
            assert abs(h @ component - component @ h).max() < 1e-12

    def test_truncation_convergence(self):
        # enlarging the cutoff from 2 to 3 moves the ground energy by less
        # than 1e-3 * kappa^2 (perturbative tail estimate)
        for kappa in (0.5, 1.0):
            e2 = spectrum(ChainSpec(2, 2, kappa), k=1).eigenvalues[0]
            e3 = spectrum(ChainSpec(2, 3, kappa), k=1).eigenvalues[0]
            assert abs(e2 - e3) < 1e-3 * kappa**2


class TestCharge:
    def test_diagonal_integer_for_z_axis(self):
        q = dense(whole_space(build_charge, ChainSpec(2, 1)))
        assert abs(q - np.diag(np.diag(q))).max() == 0.0
        assert np.allclose(np.diag(q), np.round(np.diag(q).real), atol=1e-14)

    def test_all_m_zero_state(self):
        spec = ChainSpec(2, 1)
        q = dense(whole_space(build_charge, spec))
        idx = site_index(1, 0) * spec.site_dim + site_index(1, 0)
        assert q[idx, idx] == 0.0

    def test_opposite_m_pair(self):
        spec = ChainSpec(2, 1)
        q = dense(whole_space(build_charge, spec))
        idx = site_index(1, 1) * spec.site_dim + site_index(1, -1)
        assert q[idx, idx] == 0.0

    def test_charge_spectrum_bounds(self):
        q = np.diag(dense(whole_space(build_charge, ChainSpec(2, 1)))).real
        assert set(np.round(q).astype(int)) == {-2, -1, 0, 1, 2}

    @pytest.mark.parametrize("n_sites,l_max", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_commutes_with_hamiltonian(self, n_sites, l_max):
        spec = ChainSpec(n_sites, l_max, kappa=1.3)
        h = dense(whole_space(build_hamiltonian, spec))
        q = dense(whole_space(build_charge, spec))
        assert abs(h @ q - q @ h).max() < 1e-12


class TestGrandCanonical:
    def test_zero_mu_identical(self):
        spec = ChainSpec(2, 1, kappa=0.7)
        h = whole_space(build_hamiltonian, spec)
        gc = whole_space(build_grand_canonical, spec, 0.0)
        assert abs(h.matrix - gc.matrix).max() == 0.0

    def test_single_site_level_crossing(self):
        gc = dense(whole_space(build_grand_canonical, ChainSpec(1, 1, kappa=0.0), 3.0))
        vals = np.linalg.eigvalsh(gc)
        assert vals[0] == pytest.approx(-1.0, abs=1e-14)
        # the ground state is the maximal-m member of the l=1 triplet
        assert gc[site_index(1, 1), site_index(1, 1)] == pytest.approx(-1.0)

    def test_mu_sign_flip_preserves_spectrum(self):
        up = np.linalg.eigvalsh(dense(whole_space(
            build_grand_canonical, ChainSpec(2, 1, kappa=0.5), 0.8)))
        down = np.linalg.eigvalsh(dense(whole_space(
            build_grand_canonical, ChainSpec(2, 1, kappa=0.5), -0.8)))
        assert np.allclose(up, down, atol=1e-12)


class TestSectors:
    def test_single_site_sectors(self):
        sizes = {m: len(sector_basis(ChainSpec(1, 1), m)) for m in (-1, 0, 1)}
        assert sizes == {-1: 1, 0: 2, 1: 1}

    def test_partition(self):
        spec = ChainSpec(2, 1)
        sectors = [sector_basis(spec, m) for m in range(-2, 3)]
        assert all(len(codes) for codes in sectors)
        assert len(sector_basis(spec, 3)) == len(sector_basis(spec, -3)) == 0
        combined = np.sort(np.concatenate(sectors))
        assert np.array_equal(combined, np.arange(spec.dimension))

    def test_block_structure(self):
        spec = ChainSpec(2, 2, kappa=1.1)
        h = dense(whole_space(build_hamiltonian, spec))
        sectors = oracle_sectors(spec)
        labels = np.empty(spec.dimension, dtype=int)
        for m, indices in sectors.items():
            labels[indices] = m
        off_block = h[labels[:, None] != labels[None, :]]
        assert abs(off_block).max() == 0.0




def geometries():
    """Every chain the sector blocks are checked on: 1-8 x 1, 1-4 x 2, 1-3 x 3."""
    sizes = [(n, 1) for n in range(1, 9)] + [(n, 2) for n in (1, 2, 3, 4)] + [(1, 3), (2, 3), (3, 3)]
    out = []
    for n_sites, l_max in sizes:
        out.append(ChainSpec(n_sites, l_max))
        if n_sites >= 3:
            out.append(ChainSpec(n_sites, l_max, boundary="periodic"))
    return out


def spec_id(spec):
    return f"{spec.n_sites}x{spec.l_max}-{spec.boundary}"


def assert_same_csr(block, oracle):
    """The same stored entries with the same bits; the block's CSR is canonical.

    The oracle's Kronecker products leave some rows' column indices out of
    order (l_max >= 2), so it is compared in sorted order.
    """
    assert block.dimension == oracle.dimension
    a, b = block.matrix, oracle.matrix.sorted_indices()
    assert a.has_canonical_format
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))


def sectors_of(spec):
    """(M, library codes, oracle indices) for every sector."""
    oracle = oracle_sectors(spec)
    return [(m, sector_basis(spec, m), indices) for m, indices in oracle.items()]


# (spec, mu_tilde) pairs
GRAND_CANONICAL_SPECS = [
    (ChainSpec(3, 1, kappa=0.7), 0.7),
    (ChainSpec(4, 1, kappa=0.7, boundary="periodic"), -0.7),
    (ChainSpec(3, 2, kappa=0.7), 1.3),
    (ChainSpec(2, 3, kappa=0.0), -0.45),
    (ChainSpec(3, 1, kappa=0.0), 2.0),  # L^2 - mu M = 0 on some states
]
SOLVED_SPECS = GRAND_CANONICAL_SPECS + [(s, 0.0) for s, _ in GRAND_CANONICAL_SPECS]


def solved_id(spec, mu_tilde):
    return f"{spec.n_sites}x{spec.l_max}-k{spec.kappa}-mu{mu_tilde}"


SOLVED_IDS = [solved_id(*case) for case in SOLVED_SPECS]


class TestSectorBlocksAgainstFullSpaceOracle:
    """Each sector block equals the restriction of the Kronecker-built operator."""

    @pytest.mark.parametrize("spec", geometries(), ids=spec_id)
    def test_sector_basis_is_the_total_m_partition(self, spec):
        for m, codes, indices in sectors_of(spec):
            assert codes.dtype == np.int64
            assert np.array_equal(codes, indices)
        decomposed = sector_decompose(spec)
        assert list(decomposed) == list(oracle_sectors(spec))
        for m, codes, indices in sectors_of(spec):
            assert np.array_equal(decomposed[m], indices)

    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    @pytest.mark.parametrize("geometry", geometries(), ids=spec_id)
    def test_hamiltonian(self, geometry, kappa):
        spec = replace(geometry, kappa=kappa)
        full = oracle_hamiltonian(spec)
        for m, codes, indices in sectors_of(spec):
            block = build_hamiltonian(spec, codes)
            assert_same_csr(block, full.restrict(indices))
            if kappa == 0.0:  # the diagonal label of lowest_eigenpairs relies on this
                assert block.matrix.nnz == np.count_nonzero(block.matrix.diagonal())
        # the whole space is a closed basis too; the tests build full-space H on it
        assert_same_csr(whole_space(build_hamiltonian, spec), full)

    @pytest.mark.parametrize("spec", geometries(), ids=spec_id)
    def test_kinetic_and_interaction(self, spec):
        kinetic, bond = oracle_kinetic(spec), oracle_interaction(spec)
        for m, codes, indices in sectors_of(spec):
            assert_same_csr(build_kinetic(spec, codes), kinetic.restrict(indices))
            assert_same_csr(build_interaction(spec, codes), bond.restrict(indices))

    @pytest.mark.parametrize("mu_tilde", [0.7, -1.3])
    @pytest.mark.parametrize("geometry", geometries(), ids=spec_id)
    def test_charge_and_grand_canonical(self, geometry, mu_tilde):
        spec = replace(geometry, kappa=0.7)
        charge, grand = oracle_charge(spec), oracle_grand_canonical(spec, mu_tilde)
        for m, codes, indices in sectors_of(spec):
            assert_same_csr(build_charge(spec, codes), charge.restrict(indices))
            assert_same_csr(build_grand_canonical(spec, codes, mu_tilde), grand.restrict(indices))
        assert_same_csr(whole_space(build_grand_canonical, spec, mu_tilde), grand)

    @pytest.mark.parametrize("spec", [g for g in geometries() if g.boundary == "open"],
                             ids=spec_id)
    def test_direction_dots_every_pair(self, spec):
        pairs = [(i, j) for i in range(spec.n_sites) for j in range(spec.n_sites)]
        sectors = sectors_of(spec)
        for pair, full in zip(pairs, oracle_direction_dots(spec, pairs)):
            full = SparseOperator(spec.dimension, full)
            for m, codes, indices in sectors:
                (block,) = direction_dots(spec, codes, [pair])
                assert_same_csr(SparseOperator(len(codes), block), full.restrict(indices))

    @pytest.mark.parametrize("spec, mu_tilde", SOLVED_SPECS, ids=SOLVED_IDS)
    def test_spectrum_solves_the_hamiltonian_blocks_once(self, spec, mu_tilde, monkeypatch):
        import rotorsim.spectra

        solved = []

        def recording(block, k, _solve=rotorsim.spectra.lowest_eigenpairs):
            solved.append(block)
            return _solve(block, k)
        monkeypatch.setattr(rotorsim.spectra, "lowest_eigenpairs", recording)
        rotorsim.spectra.spectrum(spec, k=3, mu_tilde=mu_tilde)
        full, sectors = oracle_hamiltonian(spec), oracle_sectors(spec)
        assert len(solved) == spec.n_sites * spec.l_max + 1
        for m, block in enumerate(solved):
            assert_same_csr(block, full.restrict(sectors[m]))

    @pytest.mark.parametrize("spec, mu_tilde", SOLVED_SPECS, ids=SOLVED_IDS)
    def test_spectrum_levels_are_grand_canonical_levels(self, spec, mu_tilde):
        res = spectrum(spec, k=8, mu_tilde=mu_tilde)
        full, sectors = oracle_grand_canonical(spec, mu_tilde), oracle_sectors(spec)
        assert res.eigenvectors is None
        lowest = np.linalg.eigvalsh(full.matrix.toarray())[:8]
        assert np.abs(res.eigenvalues - lowest).max() < 1e-10
        for energy, m in zip(res.eigenvalues, res.sector_labels):
            levels = np.linalg.eigvalsh(full.restrict(sectors[m]).matrix.toarray())
            assert np.abs(levels - energy).min() < 1e-10

    def test_basis_not_closed_under_the_operator_is_refused(self):
        spec = ChainSpec(3, 1, kappa=1.0)
        codes = sector_basis(spec, 0)
        with pytest.raises(ValueError, match="not closed"):
            build_hamiltonian(spec, codes[: len(codes) // 2])
        with pytest.raises(ValueError, match="not closed"):
            next(direction_dots(spec, codes[: len(codes) // 2], [(0, 2)]))


# (n_sites, l_max, boundary): (M = 0 sector states, (R+, P+) block states)
EVEN_BLOCK_SIZES = {
    (1, 2, "open"): (3, 2),
    (3, 1, "open"): (20, 6),
    (4, 1, "open"): (70, 23),
    (2, 2, "open"): (19, 8),
    (3, 2, "open"): (141, 41),
    (3, 1, "periodic"): (20, 6),
    (4, 1, "periodic"): (70, 23),
}
EVEN_BLOCK_SPECS = [ChainSpec(n, l, boundary=b) for n, l, b in EVEN_BLOCK_SIZES]


def oracle_rotation_and_reflection(spec, codes):
    """R = exp(i pi L_y) and the site reflection P, dense on `codes`, digit by digit."""
    weights = [spec.site_dim ** (spec.n_sites - 1 - s) for s in range(spec.n_sites)]
    position = {int(code): i for i, code in enumerate(codes)}
    rotation, reflection = np.zeros((2, len(codes), len(codes)))
    for i, code in enumerate(codes):
        digits = [int(code) // w % spec.site_dim for w in weights]
        sites = [site_basis(spec.l_max)[d] for d in digits]
        flipped = [site_index(l, -m) for l, m in sites]
        sign = math.prod((-1) ** (l - m) for l, m in sites)
        rotation[position[sum(d * w for d, w in zip(flipped, weights))], i] = sign
        reflection[position[sum(d * w for d, w in zip(digits[::-1], weights))], i] = 1.0
    return rotation, reflection


class TestEvenBlock:
    """The (R+, P+) block of the M = 0 sector that the ramp is propagated in."""

    @pytest.mark.parametrize("spec", EVEN_BLOCK_SPECS, ids=spec_id)
    def test_sizes(self, spec):
        codes = sector_basis(spec, 0)
        v = even_block(spec, codes)
        assert (len(codes), v.shape[1]) == EVEN_BLOCK_SIZES[spec.n_sites, spec.l_max,
                                                             spec.boundary]
        assert v.shape[0] == len(codes)

    @pytest.mark.parametrize("spec", EVEN_BLOCK_SPECS, ids=spec_id)
    def test_orthonormal_with_exact_entries(self, spec):
        v = even_block(spec, sector_basis(spec, 0))
        assert sp.issparse(v)
        assert np.abs((v.T @ v).toarray() - np.eye(v.shape[1])).max() <= 1e-15
        assert set(np.abs(v.data)) <= {1.0, 1.0 / math.sqrt(2.0), 0.5}

    @pytest.mark.parametrize("spec", EVEN_BLOCK_SPECS, ids=spec_id)
    def test_projector_commutes_with_kinetic_and_bond(self, spec):
        codes = sector_basis(spec, 0)
        v = even_block(spec, codes)
        projector = (v @ v.T).toarray()
        for op in (build_kinetic(spec, codes), build_interaction(spec, codes)):
            a = dense(op)
            assert np.linalg.norm(projector @ a - a @ projector) <= 1e-14

    @pytest.mark.parametrize("spec", EVEN_BLOCK_SPECS, ids=spec_id)
    def test_spans_the_joint_plus_one_eigenspace(self, spec):
        # R and P, built independently, commute with H, fix every column, and
        # the block has the dimension of their joint +1 eigenspace
        codes = sector_basis(spec, 0)
        v = even_block(spec, codes).toarray()
        rotation, reflection = oracle_rotation_and_reflection(spec, codes)
        h = dense(build_hamiltonian(replace(spec, kappa=0.7), codes))
        for op in (rotation, reflection):
            assert np.abs(op @ h - h @ op).max() < 1e-14
            assert np.abs(op @ v - v).max() < 1e-15
        eye = np.eye(len(codes))
        assert round(np.trace((eye + rotation) @ (eye + reflection)) / 4.0) == v.shape[1]

    @pytest.mark.parametrize("spec", EVEN_BLOCK_SPECS, ids=spec_id)
    def test_block_levels_are_m0_levels(self, spec):
        spec = replace(spec, kappa=0.7)
        codes = sector_basis(spec, 0)
        v = even_block(spec, codes)
        block = v.T @ (v.T @ dense(build_hamiltonian(spec, codes))).T
        oracle = np.linalg.eigvalsh(
            oracle_hamiltonian(spec).restrict(oracle_sectors(spec)[0]).matrix.toarray())
        for level in np.linalg.eigvalsh(block):
            assert np.abs(oracle - level).min() < 1e-10

    @pytest.mark.parametrize("spec", EVEN_BLOCK_SPECS, ids=spec_id)
    def test_refuses_other_sectors(self, spec):
        for m in range(1, spec.n_sites * spec.l_max + 1):
            for sector in (m, -m):
                with pytest.raises(ValueError, match="M = 0 sector_basis"):
                    even_block(spec, sector_basis(spec, sector))

    @pytest.mark.parametrize("kappa", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("spec", EVEN_BLOCK_SPECS, ids=spec_id)
    def test_sector_ground_state_lies_in_the_block(self, spec, kappa):
        spec = replace(spec, kappa=kappa)
        codes = sector_basis(spec, 0)
        ground = np.linalg.eigh(dense(build_hamiltonian(spec, codes)))[1][:, 0]
        assert abs(np.linalg.norm(even_block(spec, codes).T @ ground) - 1.0) <= 1e-12
