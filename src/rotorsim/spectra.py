"""Eigensolvers and ground-state observables for the rotor chain.

Dense diagonalization below DENSE_CUTOFF doubles as the oracle for the
iterative (Lanczos) path above it; the crossover is frozen so the
``method`` label in results is reproducible.

Every solver works on H alone, one total-M sector at a time: on sector M
the term -mu_tilde Q is the constant -mu_tilde M, and the pi rotation about x
maps sector M onto -M, which therefore has the same levels.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .dynamics import DYNAMICS_DIM_CAP
from .lattice import (ChainSpec, DimensionCapError, SparseOperator, build_hamiltonian,
                      direction_dots, sector_basis)

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
ITERATION_CAP_ENV = "ROTORSIM_MAX_ITER"
DEFAULT_ITERATION_CAP = 100_000
# deterministic Lanczos start vector, fixed seed policy
_SEED = 0x5EED


def _iteration_cap() -> int:
    raw = os.environ.get(ITERATION_CAP_ENV)
    return int(raw) if raw else DEFAULT_ITERATION_CAP


class NonConvergenceError(RuntimeError):
    """Iterative solver failed to converge within the iteration cap."""


@dataclass
class SpectrumResult:
    """Low-lying levels, ascending in energy (units E0).

    lowest_eigenpairs fills eigenvectors (columns), spectrum sector_labels;
    the other is None.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_norms: np.ndarray
    method: str
    sector_labels: np.ndarray | None = None


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


def lowest_eigenpairs(op: SparseOperator, k: int, method: str | None = None) -> SpectrumResult:
    """k lowest eigenpairs of a Hermitian operator.

    method defaults to "dense" for dimension <= DENSE_CUTOFF and
    "iterative" (implicitly restarted Lanczos with reorthogonalization,
    deterministic start vector) above; pass it explicitly to override.
    An iterative solve of a diagonal operator becomes "diagonal": the
    levels are its sorted diagonal, the vectors unit vectors, because
    Lanczos from one start vector cannot resolve exactly degenerate
    levels. Only an explicit "dense" may take k = dimension. A residual
    norm above RESIDUAL_TOL raises NonConvergenceError.
    """
    dim = op.dimension
    if not 1 <= k <= dim or (k == dim and method != "dense"):
        raise ValueError(f"need 1 <= k < dimension, got k={k}, dimension={dim}")
    if method is None:
        method = "dense" if dim <= DENSE_CUTOFF else "iterative"
    # no stored off-diagonal nonzero; count_nonzero() would sort op in place
    if method == "iterative" and (np.count_nonzero(op.matrix.data)
                                  == np.count_nonzero(op.matrix.diagonal())):
        method = "diagonal"

    if method == "diagonal":
        diagonal = op.matrix.diagonal()
        order = np.argsort(diagonal, kind="stable")[:k]
        vals, vecs = diagonal[order], np.zeros((dim, k))
        vecs[order, np.arange(k)] = 1.0
    elif method == "dense":
        vals, vecs = np.linalg.eigh(op.matrix.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    elif method == "iterative":
        try:
            vals, vecs = spla.eigsh(
                op.matrix, k=k, which="SA", tol=0,
                v0=_start_vector(dim), maxiter=_iteration_cap(),
            )
        except spla.ArpackNoConvergence as exc:
            raise NonConvergenceError(
                f"Lanczos did not converge for k={k}, dim={dim}: {exc}"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        raise ValueError(f"unknown method {method!r}")

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
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        residual_norms=residuals,
        method=method,
    )


def _solve_sector(block: SparseOperator, k: int) -> SpectrumResult:
    """Lowest min(k, block dimension) eigenpairs of one sector block.

    k * dimension bounds both a whole-block dense matrix and about k Lanczos
    vectors; above DYNAMICS_DIM_CAP^2 (134 MB of floats) it is refused first.
    """
    dim = block.dimension
    k = min(k, dim)
    if k * dim > DYNAMICS_DIM_CAP**2:
        raise DimensionCapError(f"{k} levels of a {dim}-state sector exceed the solve cap "
                                f"k * dimension <= {DYNAMICS_DIM_CAP}^2")
    return lowest_eigenpairs(block, k, method="dense" if k == dim else None)


def _sector_hamiltonian(spec: ChainSpec, m: int):
    """Codes of the total-M = m sector and H, which does not contain mu_tilde, on it."""
    codes = sector_basis(spec, m)
    return codes, build_hamiltonian(spec, codes)


def spectrum(spec: ChainSpec, k: int) -> SpectrumResult:
    """k lowest levels of H - mu_tilde Q with their total-M labels; no vectors.

    H is solved once on each sector M = 0 .. N l_max; a level E enters as
    E - mu_tilde M with label M and, for M > 0, as E + mu_tilde M with label
    -M. Levels sort by (energy, label). method is "dense" only if every
    sector was solved densely, "iterative" if Lanczos ran on any, and
    "diagonal" otherwise.
    """
    if k < 1:
        raise ValueError(f"need at least one level, got k={k}")
    levels = []  # (energy, M, residual)
    methods = set()
    for m in range(spec.n_sites * spec.l_max + 1):
        res = _solve_sector(_sector_hamiltonian(spec, m)[1], k)
        methods.add(res.method)
        levels += [(e - spec.mu_tilde * label, label, r)
                   for e, r in zip(res.eigenvalues, res.residual_norms)
                   for label in ((m, -m) if m else (0,))]
    levels.sort(key=lambda item: item[:2])
    levels = levels[:k]
    return SpectrumResult(
        eigenvalues=np.array([e for e, _, _ in levels]),
        eigenvectors=None,
        residual_norms=np.array([r for _, _, r in levels]),
        method=max(methods, key=("dense", "diagonal", "iterative").index),
        sector_labels=np.array([m for _, m, _ in levels]),
    )


def _ground(spec: ChainSpec):
    """Codes of the ground sector m (see ground_state), energy E - mu_tilde m, sector vector."""
    m = 0 if spec.mu_tilde == 0.0 else int(spectrum(spec, k=1).sector_labels[0])
    codes, block = _sector_hamiltonian(spec, m)
    res = _solve_sector(block, k=1)
    # contiguous: vdot over a strided column would sum in another order
    return (codes, float(res.eigenvalues[0]) - spec.mu_tilde * m,
            np.ascontiguousarray(res.eigenvectors[:, 0]))


def ground_state(spec: ChainSpec):
    """Ground eigenpair (energy, full-space vector) of H - mu_tilde Q.

    The vector is zero outside one total-M sector m. At mu_tilde = 0, m = 0:
    the ground multiplet of the SU(2)-invariant H has an M = 0 member.
    Otherwise m is the label of spectrum's lowest level (ties: most negative M).
    """
    codes, energy, sector_vec = _ground(spec)
    vec = np.zeros(spec.dimension)
    vec[codes] = sector_vec
    return energy, vec


def mass_gap(spec: ChainSpec):
    """(E1 - E0, degeneracy of E1) at mu_tilde = 0.

    Under SU(2) a multiplet of total L has one member in each sector
    |M| <= L, so E0 and E1 are the lowest distinct levels of sector 0.
    With c_M the levels of sector M within DEGENERACY_TOL of E1, the
    degeneracy is c_0 + 2 (c_1 + c_2 + ...) up to the first c_M = 0.
    """
    if spec.mu_tilde != 0.0:
        raise ValueError("mass_gap is defined at mu_tilde = 0")

    def window(m, k, e1_of):
        # the window is closed once a level lies clearly above E1
        _, block = _sector_hamiltonian(spec, m)
        while True:
            vals = _solve_sector(block, k).eigenvalues
            e = e1_of(vals)
            if (e is not None and vals[-1] - e >= DEGENERACY_TOL) or len(vals) == block.dimension:
                return vals
            k *= 2

    def first_excited(vals):
        above = vals[vals > vals[0] + DEGENERACY_TOL]
        return above[0] if len(above) else None

    # the ground level, one member of the E1 multiplet and a level above it
    vals = window(0, 3, first_excited)
    e0, e1 = vals[0], first_excited(vals)
    if e1 is None:
        raise NonConvergenceError("no level above the ground multiplet found")
    degeneracy = 0
    for m in range(spec.n_sites * spec.l_max + 1):
        if m > 0:
            # sector m holds no more levels up to E1 than sector m - 1
            k = int(np.sum(vals < e1 + DEGENERACY_TOL)) + 1
            vals = window(m, k, lambda v: e1)
        count = int(np.sum(np.abs(vals - e1) < DEGENERACY_TOL))
        if count == 0:
            break
        degeneracy += count if m == 0 else 2 * count
    return float(e1 - e0), degeneracy


def charge_scan(spec: ChainSpec, mu_grid) -> ChargeScan:
    """Ground-state charge along an ascending grid of mu_tilde >= 0.

    Q commutes with H, so with E_M the lowest level of sector M >= 0 at
    mu = 0, the ground energy is min_M (E_M - mu M) and the ground charge
    the smallest M attaining it. critical_mu = min_{M>=1} (E_M - E_0) / M,
    None when no grid point is charged. spec.mu_tilde is ignored. A grid
    whose mu * M overflows at the largest charge M = N l_max is refused.
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
    max_charge = spec.n_sites * spec.l_max
    if not math.isfinite(float(mu_grid[-1]) * max_charge):
        raise ValueError(f"mu * M overflows: mu up to {mu_grid[-1]:.9g} at charge {max_charge}")

    charges = np.arange(max_charge + 1)
    lowest = np.array([_solve_sector(_sector_hamiltonian(spec, m)[1], k=1).eigenvalues[0]
                       for m in charges])
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
    """Ground-state <n_i . n_j> at mu_tilde = 0."""
    if spec.mu_tilde != 0.0:
        raise ValueError("correlation is defined at mu_tilde = 0")
    if not (0 <= i < spec.n_sites and 0 <= j < spec.n_sites):
        raise ValueError(f"site indices out of range: ({i}, {j})")
    codes, _, vec = _ground(spec)
    (op,) = direction_dots(spec, codes, [(i, j)])
    return float(np.vdot(vec, op @ vec))


def correlation_profile(spec: ChainSpec) -> CorrelationProfile:
    """Correlations from the central site with a log-linear decay fit.

    The fit runs over distances >= 1; fitted_xi is withheld when the
    r^2 of the fit drops below 0.9 (non-asymptotic at small sizes) or
    fewer than two usable distances remain.
    """
    if spec.n_sites < 4 or spec.boundary != "open" or spec.mu_tilde != 0.0:
        raise ValueError("correlation_profile needs an open chain of >= 4 sites at mu_tilde = 0")
    center = (spec.n_sites - 1) // 2
    codes, _, vec = _ground(spec)
    distances = np.arange(0, spec.n_sites - center)
    ops = direction_dots(spec, codes, [(center, center + d) for d in distances])
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
