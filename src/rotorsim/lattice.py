"""Truncated quantum rotor chain: basis, operators, symmetry sectors.

Each site is a particle on a sphere with states |l, m>, l <= l_max. The
chain Hamiltonian in units of E0 = hbar^2/(2 m rho^2) is

    H = sum_i L_i^2 + kappa * sum_<i,i+1> (2 - 2 n_i . n_{i+1})

with n the unit-direction operator on the sphere. The additive 2*kappa
per bond is kept so absolute energies track the physical bond potential;
gaps are unaffected. The conserved Noether charge Q is the total angular
momentum along z. H is rotation invariant, so a charge along any other
internal axis is unitarily equivalent to this one.
"""

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DIM_CAP_ENV",
    "DEFAULT_DIM_CAP",
    "InvalidSpecError",
    "DimensionCapError",
    "ChainSpec",
    "SiteBasis",
    "SparseOperator",
    "site_basis",
    "direction_matrices",
    "build_hamiltonian",
    "direction_dots",
    "build_interaction",
    "build_charge",
    "build_grand_canonical",
    "sector_decompose",
]

DIM_CAP_ENV = "ROTORSIM_DIM_CAP"
DEFAULT_DIM_CAP = 2**21


class InvalidSpecError(ValueError):
    pass


class DimensionCapError(RuntimeError):
    pass


def _dim_cap() -> int:
    raw = os.environ.get(DIM_CAP_ENV)
    return int(raw) if raw else DEFAULT_DIM_CAP


@dataclass(frozen=True)
class ChainSpec:
    """Dimensionless description of a rotor chain.

    kappa is the bond strength 2 K m rho^4 / hbar^2; mu_tilde the
    chemical potential in units of E0 (may be negative).
    """

    n_sites: int
    l_max: int
    kappa: float = 0.0
    boundary: str = "open"
    mu_tilde: float = 0.0

    def __post_init__(self):
        for name in ("n_sites", "l_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
        for name in ("kappa", "mu_tilde"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise InvalidSpecError(f"{name} must be a finite number, got {value!r}")
        if self.n_sites < 1:
            raise InvalidSpecError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.l_max < 1:
            raise InvalidSpecError(f"l_max must be >= 1, got {self.l_max}")
        if self.kappa < 0:
            raise InvalidSpecError(f"kappa must be >= 0, got {self.kappa}")
        if self.boundary not in ("open", "periodic"):
            raise InvalidSpecError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        if self.boundary == "periodic" and self.n_sites < 3:
            raise InvalidSpecError("periodic boundary requires n_sites >= 3")
        if self.site_dim ** self.n_sites > _dim_cap():
            raise DimensionCapError(
                f"total dimension {self.site_dim}^{self.n_sites} exceeds the cap "
                f"{_dim_cap()} (override via ${DIM_CAP_ENV})"
            )

    @property
    def site_dim(self) -> int:
        return (self.l_max + 1) ** 2

    @property
    def dimension(self) -> int:
        return self.site_dim ** self.n_sites

    @property
    def bonds(self):
        """Nearest-neighbor pairs; periodic adds the wrap-around bond."""
        pairs = [(i, i + 1) for i in range(self.n_sites - 1)]
        if self.boundary == "periodic":
            pairs.append((self.n_sites - 1, 0))
        return pairs


@dataclass(frozen=True)
class SiteBasis:
    """Ordered single-site basis of (l, m) states, lexicographic in (l, m)."""

    l_max: int
    states: tuple  # of (l, m)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self, l: int, m: int) -> int:
        # lexicographic layout: block of l starts at l^2, m runs -l..l
        return l * l + (m + l)


def site_basis(l_max: int) -> SiteBasis:
    """Enumerate the truncated single-site basis."""
    if l_max < 1:
        raise InvalidSpecError(f"l_max must be >= 1, got {l_max}")
    states = tuple((l, m) for l in range(l_max + 1) for m in range(-l, l + 1))
    return SiteBasis(l_max=l_max, states=states)


@dataclass
class SparseOperator:
    """Real symmetric sparse operator on the many-body basis."""

    dimension: int
    matrix: sp.csr_matrix

    def restrict(self, indices) -> "SparseOperator":
        """Submatrix on the given global basis indices (order preserved)."""
        idx = np.asarray(indices)
        sub = self.matrix[np.ix_(idx, idx)].tocsr()
        return SparseOperator(dimension=len(idx), matrix=sub)


def _clean(matrix) -> sp.csr_matrix:
    out = sp.csr_matrix(matrix)
    out.eliminate_zeros()
    return out


def direction_matrices(l_max: int):
    """Matrix elements of the unit-direction operator in the site basis.

    Returns (n_z, n_plus, n_minus) with n_plus = n_x + i n_y and
    n_minus = n_plus^dagger. The only nonzero elements connect l to
    l +/- 1 (parity selection rule); couplings out of the truncated
    space (l_max -> l_max + 1) are dropped.

    Closed forms, with A(l, m) = sqrt(((l+1)^2 - m^2) / ((2l+1)(2l+3)))
    and B(l, m) = sqrt((l+m+1)(l+m+2) / ((2l+1)(2l+3))):

        <l+1, m   | n_z | l, m> =  A(l, m)
        <l+1, m+1 | n_+ | l, m> = -B(l, m)
        <l-1, m+1 | n_+ | l, m> =  B(l-1, -m-1)

    The full table is cross-checked against numerical quadrature of the
    spherical-harmonic products in the test suite before anything else
    trusts it.
    """
    basis = site_basis(l_max)
    dim = basis.dim

    def A(l, m):
        return math.sqrt(((l + 1) ** 2 - m**2) / ((2 * l + 1) * (2 * l + 3)))

    def B(l, m):
        return math.sqrt((l + m + 1) * (l + m + 2) / ((2 * l + 1) * (2 * l + 3)))

    nz = sp.lil_matrix((dim, dim))
    nplus = sp.lil_matrix((dim, dim))
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            col = basis.index(l, m)
            if l + 1 <= l_max:
                nz[basis.index(l + 1, m), col] = A(l, m)
                nplus[basis.index(l + 1, m + 1), col] = -B(l, m)
            if l - 1 >= 0 and abs(m + 1) <= l - 1:
                nplus[basis.index(l - 1, m + 1), col] = B(l - 1, -m - 1)
    nz = nz + nz.T  # lower triangle mirrors: n_z is real symmetric
    nminus = nplus.T.conj()
    return _clean(nz), _clean(nplus), _clean(nminus)


def _site_operator(op, site: int, n_sites: int, site_dim: int) -> sp.csr_matrix:
    """Embed a one-site operator; site 0 is the slowest tensor index."""
    left = sp.identity(site_dim**site, format="csr")
    right = sp.identity(site_dim ** (n_sites - site - 1), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def _bond_operator(op_a, op_b, i: int, j: int, n_sites: int, site_dim: int):
    a = _site_operator(op_a, i, n_sites, site_dim)
    b = _site_operator(op_b, j, n_sites, site_dim)
    return a @ b


def direction_dots(spec: ChainSpec, pairs):
    """Yield n_i . n_j = n_z n_z + (n_+ n_- + n_- n_+) / 2 for each (i, j) in pairs."""
    nz, npl, nmi = direction_matrices(spec.l_max)
    for i, j in pairs:
        sites = (i, j, spec.n_sites, spec.site_dim)
        yield (_bond_operator(nz, nz, *sites) + 0.5 * _bond_operator(npl, nmi, *sites)
               + 0.5 * _bond_operator(nmi, npl, *sites))


def build_interaction(spec: ChainSpec) -> SparseOperator:
    """Bond operator sum_<i,j> (2 - 2 n_i . n_j), i.e. dH/dkappa.

    Separated out because the time-dependent switching ramp multiplies
    exactly this operator by kappa(t).
    """
    dim = spec.dimension
    total = sp.csr_matrix((dim, dim))
    for dot in direction_dots(spec, spec.bonds):
        total = total + (2.0 * sp.identity(dim, format="csr") - 2.0 * dot)
    return SparseOperator(dimension=dim, matrix=_clean(total))


def _site_sum(spec: ChainSpec, value) -> np.ndarray:
    """sum_i value(l_i, m_i) for every global basis state; site 0 is the slowest digit."""
    site_values = np.array([value(l, m) for l, m in site_basis(spec.l_max).states])
    index, d = np.arange(spec.dimension), spec.site_dim
    total = np.zeros(spec.dimension, dtype=site_values.dtype)
    for i in range(spec.n_sites):
        total += site_values[(index // d ** (spec.n_sites - 1 - i)) % d]
    return total


def total_m_values(spec: ChainSpec) -> np.ndarray:
    """Total magnetic quantum number sum_i m_i per global basis state."""
    return _site_sum(spec, lambda l, m: m)


def _diagonal(values) -> SparseOperator:
    return SparseOperator(dimension=len(values), matrix=_clean(sp.diags(values)))


def build_kinetic(spec: ChainSpec) -> SparseOperator:
    """Rotor kinetic term sum_i L_i^2 (diagonal, l(l+1) per site)."""
    return _diagonal(_site_sum(spec, lambda l, m: l * (l + 1.0)))


def build_hamiltonian(spec: ChainSpec) -> SparseOperator:
    """Chain Hamiltonian in units of E0 (see module docstring)."""
    h = build_kinetic(spec).matrix
    if spec.kappa != 0.0:
        h = h + spec.kappa * build_interaction(spec).matrix
    return SparseOperator(dimension=spec.dimension, matrix=_clean(h))


def build_charge(spec: ChainSpec) -> SparseOperator:
    """Noether charge Q = sum_i L_i^z, integer-diagonal."""
    return _diagonal(total_m_values(spec).astype(float))


def build_grand_canonical(spec: ChainSpec) -> SparseOperator:
    """H - mu_tilde * Q; positive mu_tilde favors positive charge."""
    h = build_hamiltonian(spec).matrix
    if spec.mu_tilde != 0.0:
        h = h - spec.mu_tilde * build_charge(spec).matrix
    return SparseOperator(dimension=spec.dimension, matrix=_clean(h))


def sector_decompose(spec: ChainSpec) -> dict:
    """Partition the basis by total M (conserved since [H, Q] = 0).

    The block count is 2 * n_sites * l_max + 1. Within each sector the
    global basis order is kept.
    """
    total = total_m_values(spec)
    max_m = spec.n_sites * spec.l_max
    return {
        m: np.flatnonzero(total == m)
        for m in range(-max_m, max_m + 1)
    }
