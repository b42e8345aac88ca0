import csv
import functools
import io
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import sph_harm_y

from rotorsim import Geometry
from rotorsim.dynamics import STEP_ERROR_TOL, EvolutionResult, _ramp_setup, _step_count
from rotorsim.lattice import (SparseOperator, coupling_order, direction_matrices, sector_basis,
                              site_basis, site_index)
from rotorsim.spectra import ground_state

MICRO = dict(
    wire_radius=100e-9,
    insulating_sphere_radius=400e-9,
    conducting_sphere_radius=500e-9,
    sphere_gap=2.5e-6,
    lattice_spacing=12.5e-6,
)
NANO = dict(
    wire_radius=1e-9,
    insulating_sphere_radius=12e-9,
    conducting_sphere_radius=5e-9,
    sphere_gap=25e-9,
    lattice_spacing=125e-9,
)


@pytest.fixture
def micro():
    return Geometry(**MICRO)


@pytest.fixture
def nano():
    return Geometry(**NANO)


@pytest.fixture
def micro_doc():
    return dict(delta_m=100e-9, rho_m=400e-9, alpha_m=500e-9,
                gamma_m=2.5e-6, dx_m=12.5e-6,
                temperature_K=1e-5, magnetic_field_T=0.0)


@pytest.fixture
def nano_doc():
    return dict(delta_m=1e-9, rho_m=12e-9, alpha_m=5e-9,
                gamma_m=25e-9, dx_m=125e-9,
                temperature_K=0.05, magnetic_field_T=0.0)


def quadrature_direction_element(l_bra, m_bra, l_ket, m_ket, component,
                                 n_theta=64, n_phi=128):
    """<l_bra, m_bra| n_component |l_ket, m_ket> by direct integration.

    Gauss-Legendre in cos(theta), uniform trapezoid in phi; both exact
    for the band-limited integrand at these node counts. Independent of
    the closed-form recursion used in the library.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    bra = sph_harm_y(l_bra, m_bra, th, ph).conj()
    ket = sph_harm_y(l_ket, m_ket, th, ph)
    if component == "z":
        factor = np.cos(th)
    elif component == "+":
        factor = np.sin(th) * np.exp(1j * ph)
    elif component == "-":
        factor = np.sin(th) * np.exp(-1j * ph)
    else:
        raise ValueError(component)
    integrand = bra * factor * ket
    return (integrand.sum(axis=1) * (2.0 * np.pi / n_phi)) @ weights


def random_geometries(n, seed=20240817):
    """Valid random geometries, log-uniform over device-plausible decades."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        delta = 10 ** rng.uniform(-9.5, -6.5)
        rho = delta * 10 ** rng.uniform(0.3, 1.5)
        alpha = delta * 10 ** rng.uniform(0.3, 1.5)
        gamma = max(rho, alpha) * 10 ** rng.uniform(0.2, 1.2)
        dx = gamma * 10 ** rng.uniform(0.4, 1.2)
        if dx <= delta:
            continue
        out.append(Geometry(
            wire_radius=delta,
            insulating_sphere_radius=rho,
            conducting_sphere_radius=alpha,
            sphere_gap=gamma,
            lattice_spacing=dx,
        ))
    return out


# --- serialization oracle ----------------------------------------------------
# The writer rotorsim.serialize replaced: a per-value Python walk, the
# indented stdlib encoder and csv.writer per row. Its bytes are the contract.

def oracle_normalize(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: oracle_normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_normalize(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [oracle_normalize(v) for v in obj.tolist()]
    return obj


def oracle_json_text(document):
    payload = {"schema_version": 1}
    payload.update(oracle_normalize(document))
    return json.dumps(payload, indent=2) + "\n"


def _oracle_cell(value):
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, np.floating):
        return f"{float(value):.9g}"
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def oracle_csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_oracle_cell(v) for v in row])
    return buf.getvalue()


# --- operator oracle ---------------------------------------------------------
# The full-space builder rotorsim.lattice replaced: every operator is a sum of
# Kronecker products on the whole product space, and a sector block is its
# fancy-indexed restriction. Its blocks are the contract, bit for bit.

def _oracle_clean(matrix):
    out = sp.csr_matrix(matrix)
    out.eliminate_zeros()
    return out


def oracle_site_operator(op, site, n_sites, site_dim):
    """Embed a one-site operator; site 0 is the slowest tensor index."""
    left = sp.identity(site_dim**site, format="csr")
    right = sp.identity(site_dim ** (n_sites - site - 1), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def oracle_bond_operator(op_a, op_b, i, j, n_sites, site_dim):
    a = oracle_site_operator(op_a, i, n_sites, site_dim)
    b = oracle_site_operator(op_b, j, n_sites, site_dim)
    return a @ b


def oracle_direction_dots(spec, pairs):
    """Yield n_i . n_j = n_z n_z + (n_+ n_- + n_- n_+) / 2 for each (i, j) in pairs."""
    nz, npl, nmi = direction_matrices(spec.l_max)
    for i, j in pairs:
        sites = (i, j, spec.n_sites, spec.site_dim)
        yield (oracle_bond_operator(nz, nz, *sites) + 0.5 * oracle_bond_operator(npl, nmi, *sites)
               + 0.5 * oracle_bond_operator(nmi, npl, *sites))


def oracle_interaction(spec):
    """Bond operator sum_<i,j> (2 - 2 n_i . n_j), i.e. dH/dkappa."""
    dim = spec.dimension
    total = sp.csr_matrix((dim, dim))
    for dot in oracle_direction_dots(spec, spec.bonds):
        total = total + (2.0 * sp.identity(dim, format="csr") - 2.0 * dot)
    return SparseOperator(dimension=dim, matrix=_oracle_clean(total))


def oracle_site_sum(spec, value):
    """sum_i value(l_i, m_i) for every global basis state; site 0 is the slowest digit."""
    site_values = np.array([value(l, m) for l, m in site_basis(spec.l_max)])
    index, d = np.arange(spec.dimension), spec.site_dim
    total = np.zeros(spec.dimension, dtype=site_values.dtype)
    for i in range(spec.n_sites):
        total += site_values[(index // d ** (spec.n_sites - 1 - i)) % d]
    return total


def oracle_total_m_values(spec):
    """Total magnetic quantum number sum_i m_i per global basis state."""
    return oracle_site_sum(spec, lambda l, m: m)


def _oracle_diagonal(values):
    return SparseOperator(dimension=len(values), matrix=_oracle_clean(sp.diags(values)))


def oracle_kinetic(spec):
    """Rotor kinetic term sum_i L_i^2 (diagonal, l(l+1) per site)."""
    return _oracle_diagonal(oracle_site_sum(spec, lambda l, m: l * (l + 1.0)))


def oracle_hamiltonian(spec):
    """Chain Hamiltonian in units of E0, on the full product space."""
    h = oracle_kinetic(spec).matrix
    if spec.kappa != 0.0:
        h = h + spec.kappa * oracle_interaction(spec).matrix
    return SparseOperator(dimension=spec.dimension, matrix=_oracle_clean(h))


def oracle_charge(spec):
    """Noether charge Q = sum_i L_i^z, integer-diagonal."""
    return _oracle_diagonal(oracle_total_m_values(spec).astype(float))


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


def oracle_casimir(spec):
    """Total L^2 = L_x^2 + L_y^2 + Q^2 on the full product space, real and sparse."""
    lx, ly = total_transverse_angular_momentum(spec)
    q = oracle_charge(spec).matrix
    casimir = lx @ lx + ly @ ly + q @ q
    assert abs(casimir.imag).max() < 1e-12
    return SparseOperator(dimension=spec.dimension, matrix=_oracle_clean(casimir.real))


def oracle_total_l_levels(spec):
    """{L: every level of H's total-L multiplets}, dense, from the M = 0 sector alone.

    H commutes with the Casimir L^2, and each multiplet has one M = 0 member:
    H restricted to the L(L + 1) eigenspace of L^2 on M = 0 has the levels of
    the total-L multiplets, each once.
    """
    indices = oracle_sectors(spec)[0]
    h = oracle_hamiltonian(spec).restrict(indices).matrix.toarray()
    casimir, vecs = np.linalg.eigh(oracle_casimir(spec).restrict(indices).matrix.toarray())
    spins = (np.sqrt(4.0 * casimir + 1.0) - 1.0) / 2.0
    assert np.abs(spins - np.round(spins)).max() < 1e-9
    spins = np.round(spins).astype(int)
    return {int(total_l): np.linalg.eigvalsh(vecs[:, spins == total_l].T @ h
                                             @ vecs[:, spins == total_l])
            for total_l in np.unique(spins)}


def oracle_lowest_total_l_level(spec, total_l):
    """Lowest level of H's total-L multiplets, sparse, from sector M = L.

    On sector M = L, L_- L_+ = L^2 - L(L + 1) is >= 2 (L + 1) on the members
    of multiplets above L and 0 on the total-L multiplets, so the lowest level
    of H + lam L_- L_+, with lam above H's Gershgorin bound, is theirs.
    """
    sectors = oracle_sectors(spec)
    h = oracle_hamiltonian(spec).restrict(sectors[total_l]).matrix
    penalty = sp.csr_matrix(h.shape)
    if total_l + 1 in sectors:
        lx, ly = total_transverse_angular_momentum(spec)
        raising = (lx + 1j * ly)[sectors[total_l + 1]][:, sectors[total_l]]
        assert abs(raising.imag).max() == 0.0
        penalty = raising.real.T @ raising.real
    lam = abs(h).sum(axis=1).max()
    if h.shape[0] <= 64:
        return np.linalg.eigvalsh((h + lam * penalty).toarray())[0]
    v0 = np.random.default_rng(7).standard_normal(h.shape[0])
    return spla.eigsh(h + lam * penalty, k=1, which="SA", v0=v0)[0][0]


def oracle_grand_canonical(spec, mu_tilde):
    """H - mu_tilde * Q; positive mu_tilde favors positive charge."""
    h = oracle_hamiltonian(spec).matrix
    if mu_tilde != 0.0:
        h = h - mu_tilde * oracle_charge(spec).matrix
    return SparseOperator(dimension=spec.dimension, matrix=_oracle_clean(h))


def oracle_sectors(spec):
    """Partition the global basis indices by total M, global order kept."""
    total = oracle_total_m_values(spec)
    max_m = spec.n_sites * spec.l_max
    return {
        m: np.flatnonzero(total == m)
        for m in range(-max_m, max_m + 1)
    }


def all_codes(spec):
    """Every code of the whole product space, ascending.

    Basis(spec, all_codes(spec)) is a closed basis like a sector, so a
    full-space matrix of the library's own operator needs no oracle.
    """
    return np.arange(spec.dimension, dtype=np.int64)


@functools.cache
def oracle_clebsch_gordan(j1, m1, j2, m2, j, m):
    """<j1 m1; j2 m2 | j m> of integer arguments by Racah's closed form, in floats."""
    if (m1 + m2 != m or not abs(j1 - j2) <= j <= j1 + j2
            or abs(m1) > j1 or abs(m2) > j2 or abs(m) > j):
        return 0.0
    f = math.factorial
    scale = math.sqrt((2 * j + 1) * f(j + j1 - j2) * f(j - j1 + j2) * f(j1 + j2 - j)
                      * f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
                      / f(j1 + j2 + j + 1))
    low, high = max(0, j2 - j - m1, j1 - j + m2), min(j1 + j2 - j, j1 - m1, j2 + m2)
    return scale * math.fsum((-1) ** k / (f(k) * f(j1 + j2 - j - k) * f(j1 - m1 - k)
                                          * f(j2 + m2 - k) * f(j - j2 + m1 + k)
                                          * f(j - j1 - m2 + k)) for k in range(low, high + 1))


def oracle_coupled_isometry(basis):
    """Sparse isometry (product space x block) of a coupled basis, by Clebsch-Gordan products.

    Column c is the M = L member of its coupling path (l_k; L_k), the sites
    coupled in coupling_order: the amplitude of a product state with site
    projections m is prod_k <L_(k-1) M_(k-1); l_k m_k | L_k M_k>. It shares
    no recoupling element or 6j symbol with rotorsim.lattice.
    """
    spec, d = basis.spec, basis.spec.site_dim
    place = [d ** (spec.n_sites - 1 - site) for site in coupling_order(spec)]
    rows, cols, values = [], [], []
    for col, digits in enumerate(basis.states.T.tolist()):
        ls = [site_basis(spec.l_max)[s][0] for s in digits]
        couplings = np.cumsum([site_basis(spec.l_max)[s][1] for s in digits]).tolist()
        terms = [(0, 0, 1.0)]  # (partial code, partial M, amplitude)
        for l, big, above, weight in zip(ls, couplings, [0] + couplings, place):
            terms = [(code + site_index(l, m) * weight, total + m,
                      amplitude * oracle_clebsch_gordan(above, total, l, m, big, total + m))
                     for code, total, amplitude in terms for m in range(-l, l + 1)]
            terms = [term for term in terms if term[2] != 0.0]
        for code, total, amplitude in terms:
            if total == couplings[-1]:
                rows.append(code)
                cols.append(col)
                values.append(amplitude)
    return sp.csr_matrix((values, (rows, cols)), shape=(spec.dimension, len(basis.codes)))


def full_ground_state(spec):
    """ground_state's (energy, vector) with the L = 0 block vector embedded in the whole space."""
    energy, basis, block_vector = ground_state(spec)
    return energy, oracle_coupled_isometry(basis) @ block_vector


# --- (R+, P+) oracle ---------------------------------------------------------
# The product-basis reduction the ramp's block replaced: R = exp(i pi L_y)
# and the site reflection P on the M = 0 sector, and L_+ out of it.

def raising_operator(basis):
    """L_+ = sum_i L_i^+ from the M = 0 sector_basis onto sector_basis(spec, 1).

    L_i^+ adds d^(N-1-i) to a code with coefficient sqrt(l(l+1) - m(m+1)); the
    raised codes are located in sector 1, and a code raised out of it is refused.
    """
    states = basis.states
    coefficient = np.sqrt([l * (l + 1.0) - m * (m + 1.0) for l, m in site_basis(basis.spec.l_max)])
    site, col = np.nonzero(coefficient[states])
    target = sector_basis(basis.spec, 1)
    row = target.locate(basis.codes[col] + basis.powers[site],
                        "L_+ takes the basis out of sector 1; pass the M = 0 sector_basis")
    return sp.csr_matrix((coefficient[states[site, col]], (row, col)),
                         (len(target.codes), len(basis.codes)))


def even_block(basis):
    """Isometry V (len(codes) x b) onto the (R+, P+) block of the M = 0 sector_basis.

    Column j is (1 + R)(1 + P)/4 applied to the smallest code of one orbit
    under {1, R, P, RP}, normalized; orbits it annihilates are dropped, so the
    entries are exactly +-1, +-1/sqrt(2) or +-1/2. R maps sector M to -M, so
    any basis but the M = 0 sector is refused as not closed under R.
    """
    site_states = site_basis(basis.spec.l_max)
    flip = np.array([site_index(l, -m) for l, m in site_states])
    odd = np.array([(l - m) % 2 for l, m in site_states])
    states, powers = basis.states, basis.powers
    flipped = flip[states]
    images = np.stack([powers @ flipped, powers @ states[::-1], powers @ flipped[::-1]])
    index = basis.locate(images, "the basis is not closed under R and P; "
                                 "pass the M = 0 sector_basis")
    # R, P and RP are involutions: an orbit's smallest position is its representative
    rep = np.flatnonzero(np.arange(len(basis.codes)) <= index.min(axis=0))
    sign = 1.0 - 2.0 * (odd[states].sum(axis=0)[rep] % 2)  # R and RP; P has none
    rows = np.concatenate([rep, *index[:, rep]])
    values = np.concatenate([np.ones(len(rep)), sign, np.ones(len(rep)), sign])
    cols = np.tile(np.arange(len(rep)), 4)
    block = sp.csc_matrix((values, (rows, cols)), shape=(len(basis.codes), len(rep)))
    norms = np.sqrt(np.asarray(block.multiply(block).sum(axis=0)).ravel())
    return sp.csc_matrix(block[:, norms > 0] @ sp.diags(1.0 / norms[norms > 0]))


def oracle_step(kinetic, bond, schedule, psi, t, dt):
    """Midpoint-exponential step: exactly unitary for any dt."""
    h = kinetic + schedule.kappa(t + 0.5 * dt) * bond
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * vals * dt)
    return vecs @ (phases * (vecs.T @ psi))  # h is real symmetric, so vecs are real


def oracle_propagate(spec, schedule, dt, record_trace=False, trace_stride=50):
    """propagate with one eigh per step and sub-step, solved as the state loop reaches it.

    The setup (the block, end states, adiabatic ratio) is the library's
    (_ramp_setup); the step loop is the sequential one, with trace rows every
    trace_stride-th step and the last. Returns the EvolutionResult and the
    (n_steps, step) of every rejected pass.
    """
    k_block, b_block, psi0, target, max_ratio = _ramp_setup(spec, schedule)
    rejected = []
    while True:
        n_steps = _step_count(schedule.duration, dt)
        step_dt = schedule.duration / n_steps
        psi, t = psi0, 0.0
        trace = [] if record_trace else None
        for step in range(n_steps):
            full = oracle_step(k_block, b_block, schedule, psi, t, step_dt)
            half = oracle_step(k_block, b_block, schedule, psi, t, 0.5 * step_dt)
            half = oracle_step(k_block, b_block, schedule, half, t + 0.5 * step_dt, 0.5 * step_dt)
            if not np.linalg.norm(full - half) <= STEP_ERROR_TOL:  # NaN fails too
                rejected.append((n_steps, step))
                break
            psi = half
            t += step_dt
            if record_trace and (step % trace_stride == 0 or step == n_steps - 1):
                _, vecs = np.linalg.eigh(k_block + schedule.kappa(t) * b_block)
                fid_inst = abs(np.vdot(vecs[:, 0], psi)) ** 2
                trace.append((t, fid_inst, float(np.linalg.norm(psi)),
                              schedule.kappa(t)))
        else:  # every step accepted
            break
        dt = 0.5 * step_dt
    norm = float(np.linalg.norm(psi))
    result = EvolutionResult(
        final_fidelity=float(abs(np.vdot(target, psi)) ** 2),
        norm_drift=abs(norm - 1.0),
        max_adiabatic_ratio=max_ratio,
        step_count=n_steps,
        accepted_dt=step_dt,
        trace=trace,
    )
    return result, rejected
