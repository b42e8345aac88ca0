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
digit and the code is the state's full-space index. A Basis holds the spec
and ascending codes; it decodes them into site states once, on first use,
and locate is the one search of codes, refusing a code outside the basis.
[H, Q] = 0, so an operator is built on one total-M sector's Basis
(sector_basis), never on the full space; its bonds read the (row, col, value)
entries of n_i . n_j (direction_dots). ChainSpec's dimension cap still counts
d^N, though nothing in the package allocates a d^N array any more.

H also commutes with every component of the total angular momentum L, so it
is block-diagonal in total L, and each multiplet is solved once in a basis
that couples the sites one at a time (Edmonds, Angular Momentum in Quantum
Mechanics, ch. 6-7). A coupling path (l_1 .. l_N; L_1 .. L_N), with L_k in
L_(k-1) x l_k and L_N = L, is stored as the product-state code with
m_k = L_k - L_(k-1): sector_basis(spec, L, coupled=True) enumerates exactly
these codes, Basis.coupled marks them, and their bonds (coupled_dots) are
recoupling elements (6j symbols, exact in integers) cached per local key met.
Sites are coupled in coupling_order: in turn on an open chain, folded (0, N-1,
1, N-2, ...) on a periodic one, so every bond spans at most two positions. A
swap of two adjacent positions recouples one L_k, from the same kind of table;
swaps bring two sites together for n_i . n_j, and the site reflection is a
product of them. rotorsim.spectra and rotorsim.dynamics solve these blocks.

No solver calls sector_decompose, build_charge, build_grand_canonical or
SparseOperator.restrict, and the package does not export them. They stay
because the benchmark's tracer names them (perfbench/spans.py TARGETS), and
its self-test (perfbench/test_perfbench.py) expects the tracer to find every
name it lists and reads SparseOperator.restrict by name.
"""

import functools
import math
import numbers
import os
import sys
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
    "Basis",
    "site_basis",
    "site_index",
    "direction_matrices",
    "sector_basis",
    "coupling_order",
    "coupled_dots",
    "swap",
    "reflection",
    "build_hamiltonian",
    "direction_dots",
    "build_kinetic",
    "build_interaction",
]

DIM_CAP_ENV = "ROTORSIM_DIM_CAP"
DEFAULT_DIM_CAP = 2**21
# M = 0 sector states of a ramp (rotorsim.dynamics); its set-up alone (_ramp_setup)
# holds K and B dense on the whole sector, 134 MB each at the cap, for the rate
# check, the end-state guard and the adiabatic ratio. Its square also bounds
# k * dimension of every eigensolve (rotorsim.spectra.lowest_eigenpairs).
DYNAMICS_DIM_CAP = 4096


class InvalidSpecError(ValueError):
    pass


class DimensionCapError(RuntimeError):
    pass


def env_cap(name: str, default: int) -> int:
    """The positive integer in environment variable name; default when it is unset or empty."""
    raw = os.environ.get(name) or str(default)
    # int() refuses a string over the interpreter's digit limit (0: none) with its own message
    if not (raw.isdecimal() and len(raw) <= (sys.get_int_max_str_digits() or len(raw))
            and int(raw) > 0):
        raise InvalidSpecError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)


def check_integer(name: str, value):
    """Refuse a bool or a non-integral value of argument name with InvalidSpecError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ChainSpec:
    """Dimensionless description of a rotor chain's Hamiltonian H.

    kappa is the bond strength 2 K m rho^4 / hbar^2. The chemical potential
    mu_tilde is not part of H ([H, Q] = 0): spectrum and build_grand_canonical
    take it as an argument. A dimension d^N above the cap raises
    DimensionCapError, and d^N is computed only below cap^2. A kappa whose bound
    N l_max (l_max + 1) + kappa * 2 n_bonds on H's entries overflows is invalid.
    """

    n_sites: int
    l_max: int
    kappa: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        for name in ("n_sites", "l_max"):
            check_integer(name, getattr(self, name))
        if isinstance(self.kappa, bool) or not (isinstance(self.kappa, numbers.Real)
                                                and math.isfinite(self.kappa)):
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
        d, cap = self.site_dim, env_cap(DIM_CAP_ENV, DEFAULT_DIM_CAP)
        # d^N >= 2^(N (bits(d) - 1)) >= 2^bits(cap) > cap refuses a long chain unpowered
        if self.n_sites * (d.bit_length() - 1) >= cap.bit_length() or d**self.n_sites > cap:
            raise DimensionCapError(
                f"total dimension {d}^{self.n_sites} exceeds the cap "
                f"{cap} (override via ${DIM_CAP_ENV})"
            )
        n_bonds = self.n_sites - 1 if self.boundary == "open" else self.n_sites
        # Python floats overflow to inf without a numpy warning
        if not math.isfinite(self.n_sites * self.l_max * (self.l_max + 1)
                             + 2 * n_bonds * float(self.kappa)):
            raise InvalidSpecError(f"kappa * B is not finite for kappa {self.kappa:.9g}")

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


@dataclass(frozen=True, eq=False)
class Basis:
    """Ascending int64 codes of product states of spec's chain: the basis of an operator.

    Any code array closed under the operator will do, the whole space
    np.arange(spec.dimension) included. states, the site-state decode, is
    computed on first use, so a basis that is only searched is never decoded.
    coupled marks codes that are coupling paths of a total-L block
    (sector_basis with coupled), not product states.
    """

    spec: ChainSpec
    codes: np.ndarray
    coupled: bool = False

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """Place value of each site's digit in a code, site 0 first."""
        return self.spec.site_dim ** np.arange(self.spec.n_sites - 1, -1, -1, dtype=np.int64)

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Site state l^2 + l + m of each site (rows, site 0 first) in each code."""
        return self.codes // self.powers[:, None] % self.spec.site_dim

    def locate(self, targets, refusal: str) -> np.ndarray:
        """Position of each target code in codes; ValueError(refusal) if one is not a code."""
        positions = np.searchsorted(self.codes, targets)
        if not np.array_equal(self.codes.take(positions, mode="clip"), targets):
            raise ValueError(refusal)
        return positions


def sector_basis(spec: ChainSpec, m: int, coupled: bool = False) -> Basis:
    """The Basis of the product states with total M = m, or of the total-L = m block.

    Built site by site from site 0; a prefix is dropped once the sites
    still to come can no longer bring its partial M to m. With coupled, a
    code is a coupling path instead (module docstring): position k holds l_k
    and m_k = L_k - L_(k-1), and the one more prune L_k >= |L_(k-1) - l_k|
    keeps the paths that couple to total L = m. A bool or non-integral m
    raises InvalidSpecError, and so does a negative L.
    """
    check_integer("m", m)
    if coupled and m < 0:
        raise InvalidSpecError(f"total L must be >= 0, got {m}")
    site_l, site_m = np.array(site_basis(spec.l_max)).T
    codes, partial = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for remaining in range(spec.n_sites - 1, -1, -1):
        step = partial[:, None] + site_m
        keep = np.abs(m - step) <= remaining * spec.l_max
        if coupled:  # L_k >= L_(k-1) - l_k holds already, as |m_k| <= l_k
            keep &= step >= site_l - partial[:, None]
        codes = (codes[:, None] * spec.site_dim + np.arange(spec.site_dim))[keep]
        partial = step[keep]
    return Basis(spec, codes, coupled)


def sector_decompose(spec: ChainSpec) -> dict:
    """sector_basis of every total M, from -N l_max to N l_max."""
    max_m = spec.n_sites * spec.l_max
    return {m: sector_basis(spec, m) for m in range(-max_m, max_m + 1)}


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


def _expand(start, counts):
    """(col, entry): table entries start[col] .. start[col] + counts[col] - 1 of each state col."""
    col = np.repeat(np.arange(len(counts)), counts)
    return col, np.arange(len(col)) + (start - np.cumsum(counts) + counts)[col]


def direction_dots(basis: Basis, pairs):
    """Yield the (row, col, value) entries of n_i . n_j on basis per (i, j) in pairs.

    n_i . n_j = n_z n_z + (n_+ n_- + n_- n_+) / 2, n_i . n_i on one site if i == j.
    A pair's entries are one gather of _dot_table and one locate of the target
    codes, which refuses a basis not closed under n_i . n_j; no (row, col) repeats.
    A site index outside 0 .. N - 1 raises ValueError naming the pair, and a
    coupled basis ValueError.
    """
    if basis.coupled:
        raise ValueError("direction_dots reads product states; the basis is a coupled block")
    states = basis.states
    for i, j in pairs:
        if not (0 <= i < basis.spec.n_sites and 0 <= j < basis.spec.n_sites):
            raise ValueError(f"site pair ({i}, {j}) out of range for {basis.spec.n_sites} sites")
        sites = (i,) if i == j else (i, j)
        indptr, shift, value = _dot_table(basis.spec.l_max, len(sites))
        local = states[i] if i == j else states[i] * basis.spec.site_dim + states[j]
        col, entry = _expand(indptr[local], indptr[local + 1] - indptr[local])
        target = basis.codes[col] + (shift @ basis.powers[list(sites)])[entry]
        row = basis.locate(target, "the basis is not closed under n_i . n_j; pass a sector_basis")
        yield row, col, value[entry]


def coupling_order(spec: ChainSpec) -> list:
    """The site at each coupling position of a coupled basis.

    Sites 0 .. N - 1 in turn on an open chain; on a periodic chain the folded
    order 0, N - 1, 1, N - 2, ..., in which every bond, the wrap-around bond
    included, joins positions at most two apart.
    """
    n = spec.n_sites
    if spec.boundary == "open":
        return list(range(n))
    return [k // 2 if k % 2 == 0 else n - 1 - k // 2 for k in range(n)]


@functools.cache
def _six_j(a, b, c, d, e, f) -> float:
    """The 6j symbol {a b c; d e f} of integer arguments by Racah's formula, exact until its root.

    Python integers keep the alternating sum exact where float factorials
    would cancel or overflow; 0.0 when a triad breaks the triangle rule.
    """
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    if not all(_triangle(*triad) for triad in triads):
        return 0.0
    alphas, betas = [sum(triad) for triad in triads], (a + b + d + e, b + c + e + f, c + a + f + d)
    low, high = max(alphas), min(betas)
    # every term's denominator divides common, so each quotient is exact
    common = (math.prod(math.factorial(high - x) for x in alphas)
              * math.prod(math.factorial(y - low) for y in betas))
    total = sum((-1) ** t * math.factorial(t + 1) * common
                // (math.prod(math.factorial(t - x) for x in alphas)
                    * math.prod(math.factorial(y - t) for y in betas))
                for t in range(low, high + 1))
    # the triangle coefficients Delta^2 of the four triads, as a ratio of integers
    squares = math.prod(math.factorial(x + y - z) * math.factorial(x - y + z)
                        * math.factorial(y + z - x) for x, y, z in triads)
    scale = math.prod(math.factorial(x + y + z + 1) for x, y, z in triads)
    # int / int rounds correctly, so the square is exact until this one rounding
    return (-1.0 if total < 0 else 1.0) * math.sqrt(total * total * squares / (common * common * scale))


def _triangle(a, b, c) -> bool:
    return abs(a - b) <= c <= a + b


def _reduced_direction(l_to: int, l_from: int) -> float:
    """<l_to || C^1 || l_from> in Edmonds' convention: sqrt(l + 1) up, -sqrt(l) down."""
    return math.sqrt(l_from + 1) if l_to == l_from + 1 else -math.sqrt(l_from)


def _bond_element(above, lm, big_l, path, new) -> float:
    """<new| C_p . C_q |path> with both paths (l_p, L_p, L_(p+1), l_q) below L_(p-1) = above.

    Adjacent positions (lm None, L_(p+1) = L_p): Edmonds 7.1.8, then 7.1.7
    for C_p inside (L_(p-1) l_p) L_p. Positions two apart, around l_(p+1) =
    lm: 7.1.8, 7.1.6 and 7.1.7. L_q = big_l is kept.
    """
    (l1, j1, j2, l2), (n1, k1, k2, n2) = path, new
    value = ((-1) ** (j2 + n2 + big_l) * _six_j(big_l, n2, k2, 1, j2, l2)
             * (-1) ** (above + l1 + k1 + 1) * math.sqrt((2 * j1 + 1) * (2 * k1 + 1))
             * _six_j(n1, k1, above, j1, l1, 1)
             * _reduced_direction(n1, l1) * _reduced_direction(n2, l2))
    if lm is not None:
        value *= ((-1) ** (k1 + lm + j2 + 1) * math.sqrt((2 * j2 + 1) * (2 * k2 + 1))
                  * _six_j(k1, k2, lm, j2, j1, 1))
    return value


def _recoupled(l_max: int, span: int, key: int) -> list:
    """(local code change, value) of every entry of C_p . C_(p+span) from one key.

    key is L_(p-1) (the coupled momentum before position p) over the
    position digits p .. p + span. Each element is evaluated from the path
    with the smaller local code, so H on a block is exactly symmetric.
    """
    d, states = (l_max + 1) ** 2, site_basis(l_max)
    digits = [key // d ** (span - k) % d for k in range(span + 1)]
    above, local = key // d ** (span + 1), key % d ** (span + 1)
    (l1, m1), (l2, m2) = states[digits[0]], states[digits[-1]]
    big_l = above + sum(states[s][1] for s in digits)
    lm = states[digits[1]][0] if span == 2 else None
    path = (l1, above + m1, big_l - m2, l2)
    entries = []
    for n1 in (l1 - 1, l1 + 1):
        for n2 in (l2 - 1, l2 + 1):
            for k1 in range(path[1] - 1, path[1] + 2):
                for k2 in range(path[2] - 1, path[2] + 2) if span == 2 else (k1,):
                    if not (0 <= n1 <= l_max and 0 <= n2 <= l_max and _triangle(above, n1, k1)
                            and _triangle(k2, n2, big_l) and (span == 1 or _triangle(k1, lm, k2))):
                        continue
                    new = [site_index(n1, k1 - above), site_index(n2, big_l - k2)]
                    if span == 2:
                        new.insert(1, site_index(lm, k2 - k1))
                    change = sum(n * d ** (span - k) for k, n in enumerate(new)) - local
                    ends = sorted([(local, path), (local + change, (n1, k1, k2, n2))])
                    value = _bond_element(above, lm, big_l, ends[0][1], ends[1][1])
                    if value != 0.0:
                        entries.append((change, value))
    return entries


def _swapped(l_max: int, key: int) -> list:
    """(local code change, value) of every entry of the swap of positions p, p + 1 from one key.

    The key is a span-1 bond's (_recoupled). Sites l_1 at p and l_2 at p + 1
    trade places and L_p recouples to L_p' by the symmetric (-1)^(l_1 + l_2 +
    L_p + L_p') sqrt((2 L_p + 1)(2 L_p' + 1)) {L_(p-1) l_1 L_p; L_(p+1) l_2 L_p'}.
    """
    d, states = (l_max + 1) ** 2, site_basis(l_max)
    above, local = key // d**2, key % d**2
    (l1, m1), (l2, m2) = states[local // d], states[local % d]
    big_l, total = above + m1, above + m1 + m2
    entries = []
    for new_l in range(abs(above - l2), above + l2 + 1):
        value = ((-1) ** (l1 + l2 + big_l + new_l) * math.sqrt((2 * big_l + 1) * (2 * new_l + 1))
                 * _six_j(above, l1, big_l, total, l2, new_l))
        if value != 0.0:  # 0 when l_1 does not couple L_p' to L_(p+1)
            change = site_index(l2, new_l - above) * d + site_index(l1, total - new_l) - local
            entries.append((change, value))
    return entries


# (l_max, kind) -> {key: its entries}, for every key met so far; kind is a bond's
# span 1 or 2 (_recoupled) or "swap" (_swapped)
_recoupling_entries = {}
# (l_max, kind) -> the same entries as arrays: (keys, indptr, change, value)
_recoupling_arrays = {}


def _recoupling_table(l_max: int, kind, keys: np.ndarray):
    """(row of each key, indptr, change, value) of a table kind; keys not met yet are added.

    Entries indptr[row]:indptr[row + 1] belong to key row; change is the code
    change of the positions the key reads, as one number with digits base d.
    """
    table = _recoupling_arrays.get((l_max, kind))
    if table is not None:
        rows = np.searchsorted(table[0], keys)
        if np.array_equal(table[0].take(rows, mode="clip"), keys):
            return rows, *table[1:]
    known = _recoupling_entries.setdefault((l_max, kind), {})
    for key in np.unique(keys).tolist():
        if key not in known:
            known[key] = _swapped(l_max, key) if kind == "swap" else _recoupled(l_max, kind, key)
    ordered = sorted(known.items())
    entries = [entry for _, key_entries in ordered for entry in key_entries]
    _recoupling_arrays[(l_max, kind)] = (
        np.array([key for key, _ in ordered], dtype=np.int64),
        np.cumsum([0] + [len(key_entries) for _, key_entries in ordered]),
        np.array([change for change, _ in entries], dtype=np.int64),
        np.array([value for _, value in entries], dtype=float))
    return _recoupling_table(l_max, kind, keys)


def _recoupling(basis: Basis, kind, p: int):
    """(row, col, value) entries of table kind at positions p .. p + span of a coupled basis.

    A state's key is L_(p-1) over the digits of those positions. A product-state
    basis, or positions past the chain or spanning more than two, raise ValueError.
    """
    spec, states, d = basis.spec, basis.states, basis.spec.site_dim
    last = p + (1 if kind == "swap" else kind)
    if not (basis.coupled and kind in (1, 2, "swap") and 0 <= p < last < spec.n_sites):
        raise ValueError(f"no bond or swap at positions {p} .. {last} of a coupled basis of "
                         f"{spec.n_sites} sites")
    site_m = np.array([m for _, m in site_basis(spec.l_max)])
    keys = site_m[states[:p]].sum(axis=0)
    for k in range(p, last + 1):
        keys = keys * d + states[k]
    rows, indptr, change, value = _recoupling_table(spec.l_max, kind, keys)
    col, entry = _expand(indptr[rows], indptr[rows + 1] - indptr[rows])
    target = basis.codes[col] + change[entry] * basis.powers[last]
    return basis.locate(target, "the coupled basis is not a total-L block"), col, value[entry]


def coupled_dots(basis: Basis, p: int, q: int):
    """(row, col, value) entries of n . n at coupling positions p <= q <= p + 2.

    At p = q it is diagonal, one value per l: its l -> l +- 2 parts cancel.
    """
    if p != q:
        return _recoupling(basis, q - p, p)
    nz, npl, nmi = direction_matrices(basis.spec.l_max)
    site = (nz @ nz + 0.5 * (npl @ nmi) + 0.5 * (nmi @ npl)).diagonal()
    rows = np.arange(len(basis.codes))
    return rows, rows, site[basis.states[p]]


def swap(basis: Basis, k: int) -> sp.csr_matrix:
    """The exchange of the sites at coupling positions k and k + 1: orthogonal, symmetric."""
    row, col, value = _recoupling(basis, "swap", k)
    return sp.csr_matrix((value, (row, col)), shape=(len(basis.codes), len(basis.codes)))


def reflection(basis: Basis) -> sp.csr_matrix:
    """The site reflection i -> N - 1 - i on a coupled basis, a product of swaps.

    The bubble reversal on an open chain; the folded order of a periodic one
    holds sites t and N - 1 - t at positions 2t and 2t + 1, one swap each.
    """
    n = basis.spec.n_sites
    steps = ([k for top in range(n - 1, 0, -1) for k in range(top)]
             if basis.spec.boundary == "open" else range(0, n - 1, 2))
    return functools.reduce(lambda product, k: swap(basis, k) @ product, steps,
                            sp.identity(len(basis.codes), format="csr"))


def _operator(diagonal, entries=()) -> SparseOperator:
    """CSR operator from its diagonal and a list of (row, col, value) entry arrays."""
    index = np.arange(len(diagonal))
    rows, cols, values = zip((index, index, diagonal), *entries)
    matrix = sp.csr_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(len(diagonal), len(diagonal)))
    matrix.eliminate_zeros()
    return SparseOperator(dimension=len(diagonal), matrix=matrix)


def _bonds(basis: Basis, scale: float) -> list:
    """scale * n_i . n_j entries of every bond; none is diagonal."""
    position = np.argsort(coupling_order(basis.spec))
    dots = ([coupled_dots(basis, *sorted((position[i], position[j]))) for i, j in basis.spec.bonds]
            if basis.coupled else direction_dots(basis, basis.spec.bonds))
    return [(row, col, scale * v) for row, col, v in dots]


def _site_sum(basis: Basis, value) -> np.ndarray:
    """sum_i value(l_i, m_i) per code (exact: a sum of small integers)."""
    site_values = np.array([value(l, m) for l, m in site_basis(basis.spec.l_max)], dtype=float)
    return site_values[basis.states].sum(axis=0)


def _l_squared(l, m):
    return l * (l + 1.0)


def build_kinetic(basis: Basis) -> SparseOperator:
    """Rotor kinetic term sum_i L_i^2 on basis (diagonal)."""
    return _operator(_site_sum(basis, _l_squared))


def build_charge(basis: Basis) -> SparseOperator:
    """Noether charge Q = sum_i L_i^z on basis; M on a sector."""
    return _operator(_site_sum(basis, lambda l, m: m))


def build_interaction(basis: Basis) -> SparseOperator:
    """Bond operator sum_<i,j> (2 - 2 n_i . n_j), i.e. dH/dkappa, on basis.

    Separated out because the time-dependent switching ramp multiplies
    exactly this operator by kappa(t).
    """
    return _operator(np.full(len(basis.codes), 2.0 * len(basis.spec.bonds)), _bonds(basis, -2.0))


def build_hamiltonian(basis: Basis) -> SparseOperator:
    """H (module docstring) of basis.spec on basis, summed in the oracle's order."""
    spec, diagonal, bonds = basis.spec, _site_sum(basis, _l_squared), []
    if spec.kappa != 0.0:  # at kappa = 0 no off-diagonal entry is stored
        diagonal = diagonal + spec.kappa * (2.0 * len(spec.bonds))
        bonds = _bonds(basis, -2.0 * spec.kappa)
    return _operator(diagonal, bonds)


def build_grand_canonical(basis: Basis, mu_tilde: float) -> SparseOperator:
    """H - mu_tilde * Q on basis; positive mu_tilde favors positive charge."""
    h, q = build_hamiltonian(basis), build_charge(basis)
    return SparseOperator(dimension=len(basis.codes), matrix=h.matrix - mu_tilde * q.matrix)
