"""Eigensolvers and ground-state observables for the rotor chain.

Every solver works on H alone through lowest_eigenpairs; only spectrum takes
a chemical potential mu_tilde, whose -mu_tilde Q is -mu_tilde M on sector M. H
commutes with the total angular momentum L, so spectrum, mass_gap and
charge_scan solve its total-L blocks (_block): a block holds each multiplet
once, and its level stands for 2L + 1 states, one per M = -L .. L.
ground_state solves the L = 0 block, and the correlations read <n_i . n_j>
there off lattice.coupled_dots, after swaps (lattice.swap) that bring site i
next to site j.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .lattice import (DYNAMICS_DIM_CAP, ChainSpec, DimensionCapError, InvalidSpecError,
                      SparseOperator, build_hamiltonian, check_integer, coupled_dots,
                      coupling_order, env_cap, sector_basis, swap)

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

# a solve goes to Lanczos above this many states, for every k. On total-L blocks
# of 154-1044 states (2 cores, one BLAS thread) dense eigh stayed faster up to
# about 256 states at k = 1, 400 at k = 2, 512 at k = 8 and 640 at k = 40
# (Lanczos timed with its deflation check); of one value, 384 kept the summed
# solve time of each k within 18% of always taking the faster solver
DENSE_CUTOFF = 384
RESIDUAL_TOL = 1e-8
DEGENERACY_TOL = 1e-6
# spectrum orders levels within TIE_TOL * max(1, |E|) of each other by label, and
# charge_scan gives such a tie to the smallest charge
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


def _lanczos(matrix, k: int, max_iter: int):
    """The k lowest pairs of a sparse matrix or LinearOperator by restarted Lanczos, ascending."""
    dim = matrix.shape[0]
    try:
        vals, vecs = spla.eigsh(matrix, k=k, which="SA", tol=0, v0=_start_vector(dim),
                                maxiter=max_iter)
    except spla.ArpackError as exc:  # ArpackNoConvergence included
        raise NonConvergenceError(f"Lanczos did not converge for k={k}, dim={dim}: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _gated_residuals(op: SparseOperator, method: str, vals, vecs) -> np.ndarray:
    """|op v - E v| of each pair (E, column v); NonConvergenceError if one exceeds RESIDUAL_TOL."""
    # entries near the float limit overflow here; an inf or NaN residual fails the gate
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.array([np.linalg.norm(op.matrix @ vecs[:, i] - vals[i] * vecs[:, i])
                              for i in range(len(vals))])
    # written so that a NaN residual fails the gate too
    if not np.all(residuals <= RESIDUAL_TOL):
        raise NonConvergenceError(f"{method} eigenpair residual {residuals.max():.3g} exceeds "
                                  f"RESIDUAL_TOL = {RESIDUAL_TOL:g} for k={len(vals)}, "
                                  f"dim={op.dimension}")
    return residuals


def lowest_eigenpairs(op: SparseOperator, k: int) -> SpectrumResult:
    """k lowest eigenpairs of a Hermitian operator, 1 <= k <= dimension.

    ROTORSIM_MAX_ITER is read first and refused above ARPACK's 2^31 - 1; k *
    dimension above DYNAMICS_DIM_CAP^2 raises DimensionCapError before anything
    is allocated. method is "dense" when k = dimension or dimension <=
    DENSE_CUTOFF (the k lowest pairs from LAPACK dsyevr), "diagonal" when no
    off-diagonal entry is stored, else "iterative" (restarted Lanczos from a
    fixed start vector). A LAPACK or ARPACK error, a residual above
    RESIDUAL_TOL or a deflation shift that overflows raises NonConvergenceError.

    Lanczos can skip a copy of an exactly degenerate level while every residual
    passes the gate, so an iterative solve with k > 1 is checked by deflation
    (Parlett, The Symmetric Eigenvalue Problem, ch. 13): one k = 1 Lanczos from
    the same start vector on H + s V V^T, V the found vectors, s twice H's
    largest absolute row sum. A level more than DEGENERACY_TOL below the k-th is
    added, the k lowest kept, and the check runs again, each round under the
    iteration cap and the residual gate. The check is one more start vector,
    orthogonal to the found space, not a proof.
    """
    max_iter = env_cap(ITERATION_CAP_ENV, DEFAULT_ITERATION_CAP)
    if max_iter > 2**31 - 1:  # ARPACK's maxiter is a 32-bit integer; 2^31 wraps negative
        raise InvalidSpecError(f"{ITERATION_CAP_ENV} must be a positive integer up to "
                               f"{2**31 - 1}, got {str(max_iter)!r}")
    dim = op.dimension
    check_integer("k", k)
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dimension, got k={k}, dimension={dim}")
    if k * dim > DYNAMICS_DIM_CAP**2:
        raise DimensionCapError(f"{k} levels of a {dim}-state operator exceed the solve cap "
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
        vals, vecs = _lanczos(op.matrix, k, max_iter)
    residuals = _gated_residuals(op, method, vals, vecs)

    if method == "iterative" and k > 1:
        with np.errstate(over="ignore"):
            shift = 2.0 * abs(op.matrix).sum(axis=1).max()
        if not math.isfinite(shift):
            raise NonConvergenceError(f"the deflation shift of a {dim}-state operator overflows")
        while True:
            deflated = spla.LinearOperator(
                (dim, dim), matvec=lambda x: op.matrix @ x + shift * (vecs @ (vecs.T @ x)),
                dtype=float)
            val, vec = _lanczos(deflated, 1, max_iter)
            residual = _gated_residuals(op, method, val, vec)
            if not val[0] < vals[-1] - DEGENERACY_TOL:
                break
            order = np.argsort(np.append(vals, val), kind="stable")[:k]
            vals, vecs = np.append(vals, val)[order], np.hstack([vecs, vec])[:, order]
            residuals = np.append(residuals, residual)[order]
    return SpectrumResult(method=method, eigenvalues=np.asarray(vals, dtype=float),
                          sector_labels=None, residual_norms=residuals, eigenvectors=vecs)


def _block(spec: ChainSpec, total_l: int) -> SparseOperator:
    """H on the total-L block, in its coupled basis (lattice.sector_basis with coupled)."""
    return build_hamiltonian(sector_basis(spec, total_l, coupled=True))


def _check_charge_term(spec: ChainSpec, mu: float):
    max_charge = spec.n_sites * spec.l_max
    if not math.isfinite(abs(mu) * max_charge):
        raise ValueError(f"mu * M overflows: mu up to {mu:.9g} at charge {max_charge}")


def spectrum(spec: ChainSpec, k: int, mu_tilde: float = 0.0) -> SpectrumResult:
    """k lowest levels of H - mu_tilde Q with their total-M labels; no vectors.

    A non-finite mu_tilde raises InvalidSpecError, and one whose |mu_tilde| N l_max
    overflows ValueError. Each block L = 0 .. N l_max is solved for min(k, its
    dimension) levels; a level E enters once per label M = -L .. L, as
    E - mu_tilde M. Levels sort by (energy, label); a run within TIE_TOL *
    max(1, |E|) of its first level E, which ties multiplets, counts as one
    energy. method names the slowest solver that ran: iterative, diagonal, dense.
    """
    if isinstance(mu_tilde, bool) or not (isinstance(mu_tilde, numbers.Real)
                                          and math.isfinite(mu_tilde)):
        raise InvalidSpecError(f"mu_tilde must be a finite number, got {mu_tilde!r}")
    check_integer("k", k)
    if k < 1:
        raise ValueError(f"need at least one level, got k={k}")
    _check_charge_term(spec, mu_tilde)
    levels = []  # (energy, M, residual)
    methods = set()
    for total_l in range(spec.n_sites * spec.l_max + 1):
        block = _block(spec, total_l)
        res = lowest_eigenpairs(block, min(k, block.dimension))
        methods.add(res.method)
        levels += [(e - mu_tilde * label, label, r)
                   for e, r in zip(res.eigenvalues, res.residual_norms)
                   for label in range(-total_l, total_l + 1)]
    levels.sort(key=lambda item: item[:2])
    # levels equal in exact arithmetic differ by rounding noise across blocks: a run
    # of ties is keyed by its first energy and ordered by label
    runs = [levels[0][0]]
    for energy, _, _ in levels[1:]:
        tied = abs(energy - runs[-1]) <= TIE_TOL * max(1.0, abs(runs[-1]))
        runs.append(runs[-1] if tied else energy)
    order = sorted(range(len(levels)), key=lambda i: (runs[i], levels[i][1]))[:k]
    energies, labels, residuals = (np.array(column) for column in zip(*(levels[i] for i in order)))
    return SpectrumResult(method=max(methods, key=("dense", "diagonal", "iterative").index),
                          eigenvalues=energies, sector_labels=labels, residual_norms=residuals,
                          eigenvectors=None)


def ground_state(spec: ChainSpec):
    """Ground state of H as (energy, basis, vector), basis = sector_basis(spec, 0, coupled=True).

    That H's lowest level is a singlet was checked against the dense M = 0
    minimum for l_max 1-3, open and periodic, kappa 0 to 1000
    (tests/test_spectra.py), not proven. The ground state of H - mu_tilde Q
    is H's lowest level on the sector M that spectrum(spec, 1, mu_tilde) labels.
    """
    basis = sector_basis(spec, 0, coupled=True)
    res = lowest_eigenpairs(build_hamiltonian(basis), 1)
    return float(res.eigenvalues[0]), basis, res.eigenvectors[:, 0]


def mass_gap(spec: ChainSpec):
    """(E1 - E0, degeneracy of E1) of H, solved on its total-L blocks.

    E1 is the lowest level more than DEGENERACY_TOL above E0. Block L = 0 is
    solved for 2 levels, then L = 1, 2, ... for 1 each, up to the first block
    whose lowest level lies DEGENERACY_TOL or more above the E1 candidate; that
    no later block holds E1 is checked on the oracle grid, not proven. Each
    solved block is solved again, k doubled, until a level lies that far above
    E1, and each of its copies of E1 counts 2L + 1 states.
    """
    blocks, levels = {}, {}  # per solved L: H on the block, its levels

    def e0_e1():
        e0 = min(vals[0] for vals in levels.values())
        return e0, min((e for vals in levels.values() for e in vals if e > e0 + DEGENERACY_TOL),
                       default=math.inf)

    for total_l in range(spec.n_sites * spec.l_max + 1):
        block = _block(spec, total_l)
        vals = lowest_eigenpairs(block, min(2 if total_l == 0 else 1, block.dimension)).eigenvalues
        if total_l and vals[0] >= e0_e1()[1] + DEGENERACY_TOL:
            break
        blocks[total_l], levels[total_l] = block, vals
    for total_l, block in blocks.items():
        # E1 only falls as levels are added, so a block once past it stays past it
        while (levels[total_l][-1] < e0_e1()[1] + DEGENERACY_TOL
               and len(levels[total_l]) < block.dimension):
            k = min(2 * len(levels[total_l]), block.dimension)
            levels[total_l] = lowest_eigenpairs(block, k).eigenvalues
    # E1 is finite: H's levels span its diagonal, whose sum_i L_i^2 takes 0 and 2
    # over the same bond constant, and with every block whole every level is solved
    e0, e1 = e0_e1()
    degeneracy = sum((2 * total_l + 1) * np.count_nonzero(np.abs(vals - e1) < DEGENERACY_TOL)
                     for total_l, vals in levels.items())
    return float(e1 - e0), int(degeneracy)


def charge_scan(spec: ChainSpec, mu_grid) -> ChargeScan:
    """Ground-state charge along an ascending grid of mu_tilde >= 0.

    Q commutes with H, so with E_M the lowest level of sector M >= 0 at
    mu = 0, the ground energy is min_M (E_M - mu M) and the ground charge
    the smallest M within TIE_TOL * max(1, |E|) of it. Sector M holds one
    member of each multiplet with L >= M, so E_M = min over L >= M of E_0(L),
    the lowest level of block L (_block). critical_mu = min_{M>=1} (E_M - E_0)
    / M, None when no grid point is charged. A grid of bools raises
    InvalidSpecError; one that is not finite, ascending and non-negative, or
    whose mu * M overflows at M = N l_max, ValueError.
    """
    if any(isinstance(mu, (bool, np.bool_)) for mu in np.ravel(np.asarray(mu_grid, dtype=object))):
        raise InvalidSpecError("mu_grid must hold numbers, not bools")
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
    lowest = np.array([lowest_eigenpairs(_block(spec, total_l), 1).eigenvalues[0]
                       for total_l in charges])
    lowest = np.minimum.accumulate(lowest[::-1])[::-1]  # E_M = min over L >= M of E_0(L)
    energies = lowest[None, :] - mu_grid[:, None] * charges[None, :]
    ground_energy = energies.min(axis=1)
    # levels equal in exact arithmetic differ by rounding noise
    tied = energies <= (ground_energy + TIE_TOL * np.maximum(1.0, np.abs(ground_energy)))[:, None]
    ground = np.argmax(tied, axis=1)

    critical = None
    if np.any(ground >= 1):
        critical = float(np.min((lowest[1:] - lowest[0]) / charges[1:]))
    return ChargeScan(
        mu_values=mu_grid,
        ground_charge=ground,
        ground_energy=ground_energy,
        critical_mu=critical,
    )


def _ground_dots(spec: ChainSpec, pairs) -> np.ndarray:
    """<n_i . n_j> in the ground state of H per (i, j), on its L = 0 block.

    Swaps move the site at the lower coupling position p next to the other, at
    q, for coupled_dots; a later pair with the same p and a larger q goes on.
    """
    _, basis, vec = ground_state(spec)
    position = np.argsort(coupling_order(spec))
    values, moved = [], {}  # lower position -> (where its site is, the swapped vector)
    for i, j in pairs:
        p, q = sorted((position[i], position[j]))
        at, state = moved[p] if p in moved and moved[p][0] < q else (p, vec)
        while at < q - 1:
            state, at = swap(basis, at) @ state, at + 1
        moved[p] = (at, state)
        row, col, value = coupled_dots(basis, at, q)
        values.append(state[row] @ (value * state[col]))
    return np.array(values)


def correlation(spec: ChainSpec, i: int, j: int) -> float:
    """<n_i . n_j> in the ground state of H; a bool or non-integral i or j is refused."""
    check_integer("i", i)
    check_integer("j", j)
    if not (0 <= i < spec.n_sites and 0 <= j < spec.n_sites):
        raise ValueError(f"site indices out of range: ({i}, {j})")
    return float(_ground_dots(spec, [(i, j)])[0])


def correlation_profile(spec: ChainSpec) -> CorrelationProfile:
    """Ground-state correlations of H from the central site with a log-linear decay fit.

    The fit runs over distances >= 1; fitted_xi is withheld when the
    r^2 of the fit drops below 0.9 (non-asymptotic at small sizes) or
    fewer than two usable distances remain.
    """
    if spec.n_sites < 4 or spec.boundary != "open":
        raise ValueError("correlation_profile needs an open chain of >= 4 sites")
    center = (spec.n_sites - 1) // 2
    distances = np.arange(0, spec.n_sites - center)
    values = _ground_dots(spec, [(center, center + d) for d in distances])

    fitted_xi, quality = _fit_exponential(distances[1:], values[1:])
    return CorrelationProfile(distances, values, fitted_xi, quality)


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
