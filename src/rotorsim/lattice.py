"""Truncated quantum rotor chain: basis, operators, symmetry sectors.

Each site is a particle on a sphere with states |l, m>, l <= l_max. The
chain Hamiltonian in units of E0 = hbar^2/(2 m rho^2) is

    H = sum_i L_i^2 + kappa * sum_<i,i+1> (2 - 2 n_i . n_{i+1})

with n the unit-direction operator on the sphere. The additive 2*kappa
per bond is kept so absolute energies track the physical bond potential;
gaps are unaffected. The conserved Noether charge Q is the total angular
momentum along z. H is rotation invariant, so a charge along any other
internal axis is unitarily equivalent to this one.

A product state is labelled by its code sum_i s_i d^(N-1-i), with
d = (l_max + 1)^2 and site state s_i = l^2 + l + m: site 0 is the slowest
digit and the code is the state's full-space index. [H, Q] = 0, so each
operator is built on one total-M sector's ascending codes (sector_basis),
never on the full space. ChainSpec's dimension cap still counts d^N, though
nothing in the package allocates a d^N array any more.

Two more symmetries commute with H: the pi rotation about y,
R = exp(i pi L_y), which maps each site's |l, m> to (-1)^(l-m) |l, -m>, and
the site reflection P: i -> N-1-i, for open and periodic chains alike. Both
map the M = 0 sector onto itself, and even_block spans their joint +1
eigenspace (R+, P+) there, which holds the ground state and the whole ramp.

No solver calls build_grand_canonical, build_charge, sector_decompose or
SparseOperator.restrict. They stay because the benchmark's tracer names them
(perfbench/spans.py TARGETS) and its self-test fails on a missing name.
"""

import functools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DIM_CAP_ENV",
    "DEFAULT_DIM_CAP",
    "DYNAMICS_DIM_CAP",
    "InvalidSpecError",
    "DimensionCapError",
    "ChainSpec",
    "SparseOperator",
    "site_basis",
    "site_index",
    "direction_matrices",
    "sector_basis",
    "sector_decompose",
    "even_block",
    "build_hamiltonian",
    "direction_dots",
    "build_kinetic",
    "build_interaction",
    "build_charge",
    "build_grand_canonical",
]

DIM_CAP_ENV = "ROTORSIM_DIM_CAP"
DEFAULT_DIM_CAP = 2**21
# M = 0 sector states of a ramp (rotorsim.dynamics); K and B are held dense on the
# whole sector, 134 MB each at the cap, before they are projected onto its (R+, P+)
# block. Its square also bounds k * dimension of every eigensolve
# (rotorsim.spectra.lowest_eigenpairs).
DYNAMICS_DIM_CAP = 4096


class InvalidSpecError(ValueError):
    pass


class DimensionCapError(RuntimeError):
    pass


def _dim_cap() -> int:
    raw = os.environ.get(DIM_CAP_ENV)
    return int(raw) if raw else DEFAULT_DIM_CAP


@dataclass(frozen=True)
class ChainSpec:
    """Dimensionless description of a rotor chain's Hamiltonian H.

    kappa is the bond strength 2 K m rho^4 / hbar^2. The chemical potential
    mu_tilde is not part of H ([H, Q] = 0): spectrum, ground_state and
    build_grand_canonical take it as an argument.
    """

    n_sites: int
    l_max: int
    kappa: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        for name in ("n_sites", "l_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.kappa, numbers.Real) or not math.isfinite(self.kappa):
            raise InvalidSpecError(f"kappa must be a finite number, got {self.kappa!r}")
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


def site_basis(l_max: int) -> tuple:
    """The truncated single-site basis: (l, m) at position site_index(l, m)."""
    if l_max < 1:
        raise InvalidSpecError(f"l_max must be >= 1, got {l_max}")
    return tuple((l, m) for l in range(l_max + 1) for m in range(-l, l + 1))


def site_index(l: int, m: int) -> int:
    """Position of |l, m> in site_basis: the block of l starts at l^2, m runs -l..l."""
    return l * l + l + m


@dataclass
class SparseOperator:
    """Real symmetric sparse operator on a basis of codes (see module docstring)."""

    dimension: int
    matrix: sp.csr_matrix

    def restrict(self, positions) -> "SparseOperator":
        """Submatrix on the given positions of the basis (order preserved)."""
        idx = np.asarray(positions)
        return SparseOperator(dimension=len(idx), matrix=self.matrix[np.ix_(idx, idx)].tocsr())


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
    dim = len(site_basis(l_max))

    def A(l, m):
        return math.sqrt(((l + 1) ** 2 - m**2) / ((2 * l + 1) * (2 * l + 3)))

    def B(l, m):
        return math.sqrt((l + m + 1) * (l + m + 2) / ((2 * l + 1) * (2 * l + 3)))

    nz = sp.lil_matrix((dim, dim))
    nplus = sp.lil_matrix((dim, dim))
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            col = site_index(l, m)
            if l + 1 <= l_max:
                nz[site_index(l + 1, m), col] = A(l, m)
                nplus[site_index(l + 1, m + 1), col] = -B(l, m)
            if l - 1 >= 0 and abs(m + 1) <= l - 1:
                nplus[site_index(l - 1, m + 1), col] = B(l - 1, -m - 1)
    nz = nz + nz.T  # lower triangle mirrors: n_z is real symmetric
    return sp.csr_matrix(nz), sp.csr_matrix(nplus), sp.csr_matrix(nplus.T)


def sector_basis(spec: ChainSpec, m: int) -> np.ndarray:
    """Ascending int64 codes of the product states with total M = m.

    Built site by site from site 0; a prefix is dropped once the sites
    still to come can no longer bring its partial M to m.
    """
    site_m = np.array([mm for _, mm in site_basis(spec.l_max)])
    codes, partial = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for remaining in range(spec.n_sites - 1, -1, -1):
        codes = (codes[:, None] * spec.site_dim + np.arange(spec.site_dim)).ravel()
        partial = (partial[:, None] + site_m).ravel()
        keep = np.abs(m - partial) <= remaining * spec.l_max
        codes, partial = codes[keep], partial[keep]
    return codes


def sector_decompose(spec: ChainSpec) -> dict:
    """sector_basis of every total M, from -N l_max to N l_max."""
    max_m = spec.n_sites * spec.l_max
    return {m: sector_basis(spec, m) for m in range(-max_m, max_m + 1)}


def _powers(spec: ChainSpec) -> np.ndarray:
    """Place value of each site's digit in a code, site 0 first."""
    return spec.site_dim ** np.arange(spec.n_sites - 1, -1, -1, dtype=np.int64)


def _site_states(spec: ChainSpec, codes) -> np.ndarray:
    """Site state l^2 + l + m of each site (rows, site 0 first) in each code."""
    return codes // _powers(spec)[:, None] % spec.site_dim


def even_block(spec: ChainSpec, codes) -> sp.csc_matrix:
    """Isometry V (len(codes) x b) onto the (R+, P+) block of the M = 0 sector `codes`.

    Column j is (1 + R)(1 + P)/4 applied to the smallest code of one orbit
    under {1, R, P, RP}, normalized; orbits it annihilates are dropped, so the
    entries are exactly +-1, +-1/sqrt(2) or +-1/2. R maps sector M to -M, so
    any basis but the M = 0 sector is refused as not closed under R.
    """
    basis = site_basis(spec.l_max)
    flip = np.array([site_index(l, -m) for l, m in basis])
    odd = np.array([(l - m) % 2 for l, m in basis])
    states = _site_states(spec, codes)
    flipped, powers = flip[states], _powers(spec)
    images = np.stack([powers @ flipped, powers @ states[::-1], powers @ flipped[::-1]])
    index = np.searchsorted(codes, images)  # images under R, P and RP
    if not np.array_equal(codes.take(index, mode="clip"), images):
        raise ValueError("the basis is not closed under R and P; pass the M = 0 sector_basis")
    rep = np.flatnonzero(np.arange(len(codes)) <= index.min(axis=0))
    sign = 1.0 - 2.0 * (odd[states].sum(axis=0)[rep] % 2)  # R and RP; P has none
    rows = np.concatenate([rep, *index[:, rep]])
    values = np.concatenate([np.ones(len(rep)), sign, np.ones(len(rep)), sign])
    cols = np.tile(np.arange(len(rep)), 4)
    block = sp.csc_matrix((values, (rows, cols)), shape=(len(codes), len(rep)))
    norms = np.sqrt(np.asarray(block.multiply(block).sum(axis=0)).ravel())
    return sp.csc_matrix(block[:, norms > 0] @ sp.diags(1.0 / norms[norms > 0]))


@functools.cache
def _dot_table(l_max: int, n_sites: int):
    """n_a . n_b on two sites, or n_a . n_a on one, as read-only (indptr, shift, value).

    Entries indptr[p]:indptr[p + 1] start from local state p (the sites'
    digits, first site slowest); shift is each site's digit change.
    """
    nz, npl, nmi = direction_matrices(l_max)
    if n_sites == 1:
        table = sp.csc_matrix(nz @ nz + 0.5 * (npl @ nmi) + 0.5 * (nmi @ npl))
    else:
        table = sp.csc_matrix(sp.kron(nz, nz) + 0.5 * sp.kron(npl, nmi) + 0.5 * sp.kron(nmi, npl))
    source = np.repeat(np.arange(table.shape[1]), np.diff(table.indptr))
    d = (l_max + 1) ** 2
    powers = d ** np.arange(n_sites - 1, -1, -1)
    shift = (table.indices[:, None] // powers) % d - (source[:, None] // powers) % d
    arrays = (table.indptr.astype(np.int64), shift, table.data)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _apply_dot(spec: ChainSpec, codes, states, i: int, j: int):
    """(row, col, value) entries of n_i . n_j on the basis `codes` with _site_states `states`.

    One gather collects every state's table entries and one searchsorted
    finds the target codes; a basis not closed under n_i . n_j is refused.
    """
    sites = (i,) if i == j else (i, j)
    indptr, shift, value = _dot_table(spec.l_max, len(sites))
    local = states[i] if i == j else states[i] * spec.site_dim + states[j]
    start, counts = indptr[local], indptr[local + 1] - indptr[local]
    col = np.repeat(np.arange(len(codes)), counts)
    entry = np.arange(len(col)) + (start - np.cumsum(counts) + counts)[col]
    weights = spec.site_dim ** (spec.n_sites - 1 - np.array(sites, dtype=np.int64))
    target = codes[col] + (shift @ weights)[entry]
    row = np.searchsorted(codes, target)
    if not np.array_equal(codes.take(row, mode="clip"), target):
        raise ValueError("the basis is not closed under n_i . n_j; pass a sector_basis")
    return row, col, value[entry]


def _operator(diagonal, entries=()) -> SparseOperator:
    """CSR operator from its diagonal and a list of (row, col, value) entry arrays."""
    index = np.arange(len(diagonal))
    rows, cols, values = zip((index, index, diagonal), *entries)
    matrix = sp.csr_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(len(diagonal), len(diagonal)))
    matrix.eliminate_zeros()
    return SparseOperator(dimension=len(diagonal), matrix=matrix)


def direction_dots(spec: ChainSpec, codes, pairs):
    """Yield n_i . n_j = n_z n_z + (n_+ n_- + n_- n_+) / 2 on the basis `codes` per (i, j)."""
    states = _site_states(spec, codes)
    for i, j in pairs:
        yield _operator(np.zeros(len(codes)), [_apply_dot(spec, codes, states, i, j)]).matrix


def _bonds(spec: ChainSpec, codes, states, scale: float) -> list:
    """scale * n_i . n_j entries of every bond; none is diagonal."""
    return [(row, col, scale * value) for row, col, value in
            (_apply_dot(spec, codes, states, i, j) for i, j in spec.bonds)]


def _site_sum(spec: ChainSpec, states, value) -> np.ndarray:
    """sum_i value(l_i, m_i) per code (exact: a sum of small integers)."""
    site_values = np.array([value(l, m) for l, m in site_basis(spec.l_max)], dtype=float)
    return site_values[states].sum(axis=0)


def _l_squared(l, m):
    return l * (l + 1.0)


def build_kinetic(spec: ChainSpec, codes) -> SparseOperator:
    """Rotor kinetic term sum_i L_i^2 on the basis `codes` (diagonal)."""
    return _operator(_site_sum(spec, _site_states(spec, codes), _l_squared))


def build_charge(spec: ChainSpec, codes) -> SparseOperator:
    """Noether charge Q = sum_i L_i^z on the basis `codes`; M on a sector."""
    return _operator(_site_sum(spec, _site_states(spec, codes), lambda l, m: m))


def build_interaction(spec: ChainSpec, codes) -> SparseOperator:
    """Bond operator sum_<i,j> (2 - 2 n_i . n_j), i.e. dH/dkappa, on the basis `codes`.

    Separated out because the time-dependent switching ramp multiplies
    exactly this operator by kappa(t).
    """
    return _operator(np.full(len(codes), 2.0 * len(spec.bonds)),
                     _bonds(spec, codes, _site_states(spec, codes), -2.0))


def build_hamiltonian(spec: ChainSpec, codes) -> SparseOperator:
    """H (module docstring) on `codes`, summed in the oracle's order."""
    states = _site_states(spec, codes)
    diagonal, bonds = _site_sum(spec, states, _l_squared), []
    if spec.kappa != 0.0:  # at kappa = 0 no off-diagonal entry is stored
        diagonal = diagonal + spec.kappa * (2.0 * len(spec.bonds))
        bonds = _bonds(spec, codes, states, -2.0 * spec.kappa)
    return _operator(diagonal, bonds)


def build_grand_canonical(spec: ChainSpec, codes, mu_tilde: float) -> SparseOperator:
    """H - mu_tilde * Q on the basis `codes`; positive mu_tilde favors positive charge."""
    h, q = build_hamiltonian(spec, codes), build_charge(spec, codes)
    return SparseOperator(dimension=len(codes), matrix=h.matrix - mu_tilde * q.matrix)
