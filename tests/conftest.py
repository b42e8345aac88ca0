import csv
import io
import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import sph_harm_y

from rotorsim import Geometry
from rotorsim.lattice import SparseOperator, direction_matrices, site_basis
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
    """The whole product space as a basis: every code, ascending.

    The library builders accept it like a sector, so a full-space matrix of
    the library's own operator needs no oracle.
    """
    return np.arange(spec.dimension, dtype=np.int64)


def full_ground_state(spec, mu_tilde=0.0):
    """ground_state's (energy, vector) with the sector vector embedded in the whole space."""
    energy, codes, sector_vector = ground_state(spec, mu_tilde)
    vec = np.zeros(len(all_codes(spec)))
    vec[np.searchsorted(all_codes(spec), codes)] = sector_vector
    return energy, vec
