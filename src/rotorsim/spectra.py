"""Eigensolvers and ground-state observables for the rotor chain.

lowest_eigenpairs solves H on each sector or block (mass_gap's L_+ Gram matrix
and rotorsim.dynamics' dense M = 0 matrices go to np.linalg directly): it refuses
k * dimension above DYNAMICS_DIM_CAP^2 before it allocates, then solves densely up
to DENSE_CUTOFF (the k lowest pairs from LAPACK dsyevr; the oracle for the paths
above it; the crossover is frozen so the ``method`` label is reproducible), off the
diagonal, or by Lanczos.

Every solver works on H alone, one total-M sector at a time, and only
spectrum takes a chemical potential mu_tilde: on sector M the term
-mu_tilde Q is the constant -mu_tilde M, and the pi rotation about x maps
sector M onto -M, which therefore has the same levels. ground_state solves
only the (R+, P+) block of sector 0 (lattice.even_block), about a quarter of
it; mass_gap needs a level of every block, so it solves the whole sector once.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .lattice import (DYNAMICS_DIM_CAP, ChainSpec, DimensionCapError, InvalidSpecError,
                      SparseOperator, build_hamiltonian, direction_dots, env_cap,
                      even_block, raising_operator, sector_basis)

__all__ = [
    "DENSE_CUTOFF",
    "RESIDUAL_TOL",
    "DEGENERACY_TOL",
    "NonConvergenceError",
    "SpectrumResult",
    "ChargeScan",
    "CorrelationProfile",
    "lowest_eigenpairs",
    "spectrum",
    "ground_state",
    "mass_gap",
    "charge_scan",
    "correlation",
    "correlation_profile",
]

DENSE_CUTOFF = 2048
RESIDUAL_TOL = 1e-8
DEGENERACY_TOL = 1e-6
# spectrum orders levels within TIE_TOL * max(1, |E|) of each other by label
TIE_TOL = 1e-10
ITERATION_CAP_ENV = "ROTORSIM_MAX_ITER"
DEFAULT_ITERATION_CAP = 100_000
# deterministic Lanczos start vector, fixed seed policy
_SEED = 0x5EED


class NonConvergenceError(RuntimeError):
    """Iterative solver failed to converge within the iteration cap."""


@dataclass
class SpectrumResult:
    """Low-lying levels, ascending in energy (units E0).

    lowest_eigenpairs fills eigenvectors (columns), spectrum sector_labels;
    the other is None. Its fields but eigenvectors, in order, are sim spectrum's JSON.
    """

    method: str
    eigenvalues: np.ndarray
    sector_labels: np.ndarray | None
    residual_norms: np.ndarray
    eigenvectors: np.ndarray | None


@dataclass
class ChargeScan:
    """Ground-state charge vs chemical potential."""

    mu_values: np.ndarray
    ground_charge: np.ndarray  # integers
    ground_energy: np.ndarray
    critical_mu: float | None


@dataclass
class CorrelationProfile:
    """<n_i . n_j> from the central site, with an exponential-decay fit."""

    distances: np.ndarray
    values: np.ndarray
    fitted_xi: float | None
    fit_quality: float


def _start_vector(dim: int) -> np.ndarray:
    v = np.random.default_rng(_SEED).standard_normal(dim)
    return v / np.linalg.norm(v)


def lowest_eigenpairs(op: SparseOperator, k: int) -> SpectrumResult:
    """k lowest eigenpairs of a Hermitian operator, 1 <= k <= dimension.

    The iteration cap ROTORSIM_MAX_ITER is read (lattice.env_cap) first, so
    a malformed value, or one above ARPACK's 2^31 - 1, is refused on every
    solve. k * dimension above
    DYNAMICS_DIM_CAP^2 (134 MB of floats: a dense matrix or about k Lanczos
    vectors) raises DimensionCapError before anything is allocated. method
    is "dense" when k = dimension or dimension <= DENSE_CUTOFF: one
    scipy.linalg.eigh call on the dense matrix takes the k lowest pairs from
    LAPACK dsyevr (MRRR after tridiagonalization), for any k; above the
    cutoff "diagonal" when no off-diagonal entry is stored (sorted diagonal,
    unit vectors: Lanczos from one start vector cannot resolve exactly
    degenerate levels), else "iterative" (restarted Lanczos, deterministic
    start vector). A LAPACK error of the dense solve, an ARPACK error,
    non-convergence included, or a residual norm above RESIDUAL_TOL raises
    NonConvergenceError.
    """
    max_iter = env_cap(ITERATION_CAP_ENV, DEFAULT_ITERATION_CAP)
    if max_iter > 2**31 - 1:  # ARPACK's maxiter is a 32-bit integer; 2^31 wraps negative
        raise InvalidSpecError(f"{ITERATION_CAP_ENV} must be a positive integer up to "
                               f"{2**31 - 1}, got {str(max_iter)!r}")
    dim = op.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dimension, got k={k}, dimension={dim}")
    if k * dim > DYNAMICS_DIM_CAP**2:
        raise DimensionCapError(f"{k} levels of a {dim}-state sector exceed the solve cap "
                                f"k * dimension <= {DYNAMICS_DIM_CAP}^2")
    if k == dim or dim <= DENSE_CUTOFF:
        method = "dense"
        try:
            vals, vecs = scipy.linalg.eigh(op.matrix.toarray(), subset_by_index=[0, k - 1],
                                           driver="evr")
        except np.linalg.LinAlgError as exc:  # a ValueError: main would exit 2 on it
            raise NonConvergenceError(f"dense LAPACK solve failed for k={k}, dim={dim}: "
                                      f"{exc}") from exc
    # no stored off-diagonal nonzero; count_nonzero() would sort op in place
    elif np.count_nonzero(op.matrix.data) == np.count_nonzero(op.matrix.diagonal()):
        method = "diagonal"
        diagonal = op.matrix.diagonal()
        order = np.argsort(diagonal, kind="stable")[:k]
        vals, vecs = diagonal[order], np.zeros((dim, k))
        vecs[order, np.arange(k)] = 1.0
    else:
        method = "iterative"
        try:
            vals, vecs = spla.eigsh(op.matrix, k=k, which="SA", tol=0, v0=_start_vector(dim),
                                    maxiter=max_iter)
        except spla.ArpackError as exc:  # ArpackNoConvergence included
            raise NonConvergenceError(
                f"Lanczos did not converge for k={k}, dim={dim}: {exc}"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    # entries near the float limit overflow here; an inf or NaN residual fails the gate
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.array([
            np.linalg.norm(op.matrix @ vecs[:, i] - vals[i] * vecs[:, i])
            for i in range(k)
        ])
    # written so that a NaN residual fails the gate too
    if not np.all(residuals <= RESIDUAL_TOL):
        raise NonConvergenceError(
            f"{method} eigenpair residual {residuals.max():.3g} exceeds "
            f"RESIDUAL_TOL = {RESIDUAL_TOL:g} for k={k}, dim={dim}"
        )
    return SpectrumResult(
        method=method,
        eigenvalues=np.asarray(vals, dtype=float),
        sector_labels=None,
        residual_norms=residuals,
        eigenvectors=vecs,
    )


def _solve_sector(spec: ChainSpec, m: int, k: int) -> SpectrumResult:
    """The lowest min(k, dimension) levels of H on sector M = m."""
    basis = sector_basis(spec, m)
    return lowest_eigenpairs(build_hamiltonian(basis), min(k, len(basis.codes)))


def _check_charge_term(spec: ChainSpec, mu: float):
    max_charge = spec.n_sites * spec.l_max
    if not math.isfinite(abs(mu) * max_charge):
        raise ValueError(f"mu * M overflows: mu up to {mu:.9g} at charge {max_charge}")


def spectrum(spec: ChainSpec, k: int, mu_tilde: float = 0.0) -> SpectrumResult:
    """k lowest levels of H - mu_tilde Q with their total-M labels; no vectors.

    A non-finite mu_tilde raises InvalidSpecError, and one whose |mu_tilde| N l_max
    overflows ValueError, as in charge_scan. H is solved once on each sector
    M = 0 .. N l_max; a level E enters as E - mu_tilde M with label M and, for
    M > 0, as E + mu_tilde M with label -M. Levels sort by (energy, label); a run
    of consecutive levels within TIE_TOL * max(1, |E|) of its first level E
    counts as one energy. method is "dense" only if every sector was solved
    densely, "iterative" if Lanczos ran on any, and "diagonal" otherwise.
    """
    if isinstance(mu_tilde, bool) or not (isinstance(mu_tilde, numbers.Real)
                                          and math.isfinite(mu_tilde)):
        raise InvalidSpecError(f"mu_tilde must be a finite number, got {mu_tilde!r}")
    if k < 1:
        raise ValueError(f"need at least one level, got k={k}")
    _check_charge_term(spec, mu_tilde)
    levels = []  # (energy, M, residual)
    methods = set()
    for m in range(spec.n_sites * spec.l_max + 1):
        res = _solve_sector(spec, m, k)
        methods.add(res.method)
        levels += [(e - mu_tilde * label, label, r)
                   for e, r in zip(res.eigenvalues, res.residual_norms)
                   for label in ((m, -m) if m else (0,))]
    levels.sort(key=lambda item: item[:2])
    # levels equal in exact arithmetic differ by rounding noise across sectors
    groups = []
    for level in levels:
        first = groups[-1][0][0] if groups else None
        if first is not None and abs(level[0] - first) <= TIE_TOL * max(1.0, abs(first)):
            groups[-1].append(level)
        else:
            groups.append([level])
    levels = [level for group in groups for level in sorted(group, key=lambda item: item[1])][:k]
    return SpectrumResult(
        method=max(methods, key=("dense", "diagonal", "iterative").index),
        eigenvalues=np.array([e for e, _, _ in levels]),
        sector_labels=np.array([m for _, m, _ in levels]),
        residual_norms=np.array([r for _, _, r in levels]),
        eigenvectors=None,
    )


def ground_state(spec: ChainSpec):
    """Ground state of H as (energy, basis, sector vector).

    The state lies in the M = 0 sector: basis is its sector_basis and the
    vector its components there. H is solved on the (R+, P+) block
    V = even_block of that sector alone, as V^T H V, with V u embedded back:
    the ground state is an SU(2) singlet, whose M = 0 state has
    R = (-1)^L = +1. That it is also P+ was checked against the dense
    sector-0 minimum for l_max 1-3, open and periodic chains, kappa 0 to
    1000 (tests/test_spectra.py), not proven. The ground state of
    H - mu_tilde Q is H's lowest level on the sector M that
    spectrum(spec, 1, mu_tilde) labels.
    """
    basis = sector_basis(spec, 0)
    v = even_block(basis)
    block = v.T @ build_hamiltonian(basis).matrix @ v  # V^T is CSR, so is the product
    res = lowest_eigenpairs(SparseOperator(dimension=block.shape[0], matrix=block), 1)
    # v @ u is a new contiguous vector, unlike a column of the eigenvectors
    return float(res.eigenvalues[0]), basis, v @ res.eigenvectors[:, 0]


def mass_gap(spec: ChainSpec):
    """(E1 - E0, degeneracy of E1) of H, solved on the M = 0 sector alone.

    Each SU(2) multiplet has exactly one M = 0 member, so E0 and E1 are the
    lowest distinct levels of sector 0, solved for k = 3, 6, 12, ... levels
    until one lies clearly above E1. On M = 0, L^2 = L_- L_+: with W = L_+ V
    (raising_operator) over the vectors V within DEGENERACY_TOL of E1, W^T W
    has eigenvalues L(L + 1), one per E1 multiplet, exactly degenerate ones
    included, and the degeneracy is the sum of 2L + 1. An L that is not an
    integer within DEGENERACY_TOL raises NonConvergenceError.
    """
    basis = sector_basis(spec, 0)
    h0 = build_hamiltonian(basis)
    # the ground level, one member of the E1 multiplet and a level above it
    k = 3
    while True:
        res = lowest_eigenpairs(h0, min(k, h0.dimension))
        vals = res.eigenvalues
        above = vals[vals > vals[0] + DEGENERACY_TOL]
        if (len(above) and vals[-1] - above[0] >= DEGENERACY_TOL) or len(vals) == h0.dimension:
            break
        k *= 2
    # `above` is never empty: H's diagonal on sector 0 holds sum_i L_i^2 = 0 and 2
    # (plus the same bond constant), so its levels span at least 2
    e0, e1 = vals[0], above[0]
    w = raising_operator(basis) @ res.eigenvectors[:, np.abs(vals - e1) < DEGENERACY_TOL]
    spins = (np.sqrt(4.0 * np.linalg.eigvalsh(w.T @ w) + 1.0) - 1.0) / 2.0
    if not np.all(np.abs(spins - np.round(spins)) <= DEGENERACY_TOL):
        raise NonConvergenceError(f"the E1 vectors of sector 0 have non-integral L = {spins}")
    return float(e1 - e0), int(np.sum(2 * np.round(spins) + 1))


def charge_scan(spec: ChainSpec, mu_grid) -> ChargeScan:
    """Ground-state charge along an ascending grid of mu_tilde >= 0.

    Q commutes with H, so with E_M the lowest level of sector M >= 0 at
    mu = 0, the ground energy is min_M (E_M - mu M) and the ground charge
    the smallest M attaining it. critical_mu = min_{M>=1} (E_M - E_0) / M,
    None when no grid point is charged. A grid whose mu * M overflows at
    M = N l_max is refused.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.ndim != 1 or len(mu_grid) < 1:
        raise ValueError("mu_grid must be a non-empty 1-d grid")
    if not np.all(np.isfinite(mu_grid)):
        raise ValueError("mu_grid must be finite")
    if np.any(np.diff(mu_grid) <= 0):
        raise ValueError("mu_grid must be strictly ascending")
    if mu_grid[0] < 0:
        raise ValueError("mu_grid must be non-negative")
    _check_charge_term(spec, float(mu_grid[-1]))

    charges = np.arange(spec.n_sites * spec.l_max + 1)
    lowest = np.array([_solve_sector(spec, m, 1).eigenvalues[0] for m in charges])
    energies = lowest[None, :] - mu_grid[:, None] * charges[None, :]
    ground = np.argmin(energies, axis=1)

    critical = None
    if np.any(ground >= 1):
        critical = float(np.min((lowest[1:] - lowest[0]) / charges[1:]))
    return ChargeScan(
        mu_values=mu_grid,
        ground_charge=ground,
        ground_energy=energies.min(axis=1),
        critical_mu=critical,
    )


def correlation(spec: ChainSpec, i: int, j: int) -> float:
    """<n_i . n_j> in the ground state of H."""
    if not (0 <= i < spec.n_sites and 0 <= j < spec.n_sites):
        raise ValueError(f"site indices out of range: ({i}, {j})")
    _, basis, vec = ground_state(spec)
    (op,) = direction_dots(basis, [(i, j)])
    return float(np.vdot(vec, op @ vec))


def correlation_profile(spec: ChainSpec) -> CorrelationProfile:
    """Ground-state correlations of H from the central site with a log-linear decay fit.

    The fit runs over distances >= 1; fitted_xi is withheld when the
    r^2 of the fit drops below 0.9 (non-asymptotic at small sizes) or
    fewer than two usable distances remain.
    """
    if spec.n_sites < 4 or spec.boundary != "open":
        raise ValueError("correlation_profile needs an open chain of >= 4 sites")
    center = (spec.n_sites - 1) // 2
    _, basis, vec = ground_state(spec)
    distances = np.arange(0, spec.n_sites - center)
    ops = direction_dots(basis, [(center, center + d) for d in distances])
    values = np.array([float(np.vdot(vec, op @ vec)) for op in ops])

    fitted_xi, quality = _fit_exponential(distances[1:], values[1:])
    return CorrelationProfile(
        distances=distances,
        values=values,
        fitted_xi=fitted_xi,
        fit_quality=quality,
    )


def _fit_exponential(distances, values):
    mask = np.abs(values) > 1e-14
    x = np.asarray(distances, dtype=float)[mask]
    y = np.log(np.abs(np.asarray(values)[mask]))
    if len(x) < 2:
        return None, 0.0
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    quality = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if slope >= 0 or quality < 0.9:
        return None, quality
    return -1.0 / slope, quality
