"""Real-time evolution under an adiabatic switch-on of the bond coupling.

Time is measured in units of hbar/E0. The Hamiltonian along the ramp is
H(t) = sum_i L_i^2 + kappa(t) * B with B the bond operator, so only a
single scalar varies and dH/dt = kappa'(t) * B.

H(t) conserves total M and commutes with the pi rotation R and the site
reflection P (see rotorsim.lattice), and the ramp starts in the M = 0 ground
state, which lies in the (R+, P+) block of that sector. K and B are built on
the M = 0 sector, whose size DYNAMICS_DIM_CAP bounds, and the time steps run
on their (R+, P+) block (lattice.even_block), about a quarter of the sector.
DYNAMICS_STEP_CAP bounds the number of time steps.

kappa(t) is a known schedule, so each fixed-dt pass diagonalizes the H(t) of
its steps ahead of the state loop, in stacked eigh chunks that double from 1
step up to a byte budget; the results are bit for bit those of one eigh per step.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import CODATA2018
from .design import Geometry, rotational_quantum
from .lattice import (DYNAMICS_DIM_CAP, ChainSpec, DimensionCapError, build_interaction,
                      build_kinetic, even_block, sector_basis)

__all__ = [
    "DYNAMICS_DIM_CAP",
    "DYNAMICS_STEP_CAP",
    "RampSchedule",
    "EvolutionResult",
    "propagate",
    "adiabatic_ratio",
    "physical_ramp_time",
]

# steps per ramp, checked before anything is built and after each dt halving
DYNAMICS_STEP_CAP = 1_000_000
STEP_ERROR_TOL = 1e-8
DEGENERATE_GAP = 1e-9
# rate * B|psi0> is squared inside the norm of the adiabatic matrix element
RATE_NORM_LIMIT = math.sqrt(sys.float_info.max)
# bytes of float64 matrices in one stacked eigh of the time steps: chunks of
# about 42 to 75 steps on the 6- and 8-state blocks, 1 step from 37 states up
_CHUNK_BYTES = 64 * 1024


@dataclass(frozen=True)
class RampSchedule:
    """Coupling ramp kappa(t) over t in [0, duration] (units hbar/E0)."""

    kappa_start: float
    kappa_end: float
    duration: float
    shape: str = "linear"

    def __post_init__(self):
        for name in ("kappa_start", "kappa_end", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.kappa_start < 0 or self.kappa_end < 0:
            raise ValueError("kappa values must be non-negative")
        if self.shape not in ("linear", "smoothstep"):
            raise ValueError(f"shape must be 'linear' or 'smoothstep', got {self.shape!r}")
        # the largest |rate()|, 1.5x the linear rate under smoothstep; an
        # infinite rate would turn every adiabatic ratio into NaN
        peak = ((self.kappa_end - self.kappa_start) / self.duration
                * (1.5 if self.shape == "smoothstep" else 1.0))
        if not math.isfinite(peak):
            raise ValueError(f"the peak kappa rate must be finite, got {peak} for kappa "
                             f"{self.kappa_start!r} -> {self.kappa_end!r} over duration "
                             f"{self.duration!r}")

    def kappa(self, t: float) -> float:
        s = min(max(t / self.duration, 0.0), 1.0)
        if self.shape == "smoothstep":
            s = 3.0 * s**2 - 2.0 * s**3
        return self.kappa_start + (self.kappa_end - self.kappa_start) * s

    def rate(self, t: float) -> float:
        """d kappa / dt."""
        s = t / self.duration
        if s < 0.0 or s > 1.0:
            return 0.0
        ds = 1.0 / self.duration
        if self.shape == "smoothstep":
            ds *= 6.0 * s - 6.0 * s**2
        return (self.kappa_end - self.kappa_start) * ds


@dataclass
class EvolutionResult:
    """Outcome of one ramp propagation."""

    final_fidelity: float
    norm_drift: float
    max_adiabatic_ratio: float
    step_count: int
    accepted_dt: float
    trace: list | None = None  # (t, fidelity_to_instantaneous_gs, norm, kappa)


def _sector_parts(spec: ChainSpec):
    """M = 0 sector codes, with K = sum_i L_i^2 and B dense on them; the cap is checked first."""
    codes = sector_basis(spec, 0)
    if len(codes) > DYNAMICS_DIM_CAP:
        raise DimensionCapError(
            f"M = 0 sector dimension {len(codes)} exceeds the dynamics cap {DYNAMICS_DIM_CAP}"
        )
    kinetic = build_kinetic(spec, codes).matrix.toarray()
    bond = build_interaction(spec, codes).matrix.toarray()
    return codes, kinetic, bond


def _check_rate(schedule, bond):
    """Refuse a ramp whose peak rate * B|psi0> could overflow the adiabatic ratio.

    The max abs row sum of B bounds |B psi| for a unit psi, and the rate
    peaks at mid-ramp (1.5x the linear rate under smoothstep); below the
    limit every adiabatic ratio is finite, since the gap is at least
    DEGENERATE_GAP.
    """
    peak = abs(schedule.rate(0.5 * schedule.duration))
    bound = peak * float(np.abs(bond).sum(axis=1).max())
    if not bound < RATE_NORM_LIMIT:
        raise ValueError(f"the peak kappa rate {peak:.9g} is too fast: the adiabatic matrix "
                         f"element may reach {bound:.9g}, whose square overflows")


def _step_count(duration, dt):
    steps = duration / dt
    if not steps <= DYNAMICS_STEP_CAP:
        raise DimensionCapError(f"{steps:.6g} time steps exceed the step cap {DYNAMICS_STEP_CAP}")
    return max(1, math.ceil(steps))


def _pass_solves(k_block, b_block, schedule, n_steps, step_dt):
    """Yield (phases, vecs) per step, each stacked over (full, first half, second half).

    H = K + kappa * B at each sub-step's midpoint. One stacked eigh solves a
    chunk of steps. A chunk doubles from 1 step up to _CHUNK_BYTES of stacked
    matrices, so a rejected pass solves at most about twice the steps it took.
    """
    limit = max(1, _CHUNK_BYTES // (3 * k_block.nbytes))
    half_dt = 0.5 * step_dt
    dts = np.array([step_dt, half_dt, half_dt])[:, None]
    t, step, size = 0.0, 0, 1
    while step < n_steps:
        size = min(size, limit, n_steps - step)
        kappas = []
        for _ in range(size):
            kappas.append((schedule.kappa(t + 0.5 * step_dt), schedule.kappa(t + 0.5 * half_dt),
                           schedule.kappa((t + half_dt) + 0.5 * half_dt)))
            t += step_dt
        vals, vecs = np.linalg.eigh(k_block + np.array(kappas)[..., None, None] * b_block)
        yield from zip(np.exp(-1j * vals * dts), vecs)
        step += size
        size *= 2


def _rotate(vecs, phases, psi):
    """exp(-i H dt) psi from H's eigenvectors: exactly unitary for any dt."""
    return vecs @ (phases * (vecs.T @ psi))  # H is real symmetric, so vecs are real


def propagate(spec: ChainSpec, schedule: RampSchedule, dt: float,
              record_trace: bool = False, trace_stride: int = 50) -> EvolutionResult:
    """Evolve from the ground state at kappa_start through the ramp.

    K and B are built on the M = 0 sector; the ground states at kappa_start
    and kappa_end are found there and projected onto its (R+, P+) block,
    where every step and trace row then runs. A start or end state with
    weight outside the block (norm off 1 by more than 1e-12) is refused
    (ValueError). Fixed-step unitary stepping with an embedded half-step
    error estimate; if a step's full/half discrepancy exceeds
    STEP_ERROR_TOL the step size is halved (globally, to stay
    deterministic) and the run restarts, unless the step count would pass
    DYNAMICS_STEP_CAP (DimensionCapError). The accepted state of each
    step is the two-half-step result, from H(t) diagonalized ahead of the
    state loop in stacked chunks (_pass_solves). Fidelity is measured against the
    exact ground state at kappa_end. A ramp whose kappa * B is not finite,
    or whose adiabatic ratio could overflow (_check_rate), is refused
    (ValueError) before any diagonalization, and so is a spec whose kappa
    is not the schedule's kappa_start.
    """
    if spec.kappa != schedule.kappa_start:
        raise ValueError(f"the ramp starts at kappa_start = {schedule.kappa_start!r}, "
                         f"not at the spec's kappa = {spec.kappa!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    _step_count(schedule.duration, dt)  # refuse before anything is built
    codes, kinetic, bond = _sector_parts(spec)
    # kappa(t) stays between its end values, so this bounds every entry of H(t);
    # Python floats overflow to inf without a numpy warning
    kappa_max = max(schedule.kappa_start, schedule.kappa_end)
    if not math.isfinite(float(np.abs(kinetic).max()) + kappa_max * float(np.abs(bond).max())):
        raise ValueError(f"kappa * B is not finite for kappa up to {kappa_max:.9g}")
    _check_rate(schedule, bond)

    v = even_block(spec, codes)
    ends = []
    for kappa in (schedule.kappa_start, schedule.kappa_end):
        ground = v.T @ np.linalg.eigh(kinetic + kappa * bond)[1][:, 0]
        if abs(np.linalg.norm(ground) - 1.0) > 1e-12:
            raise ValueError(f"the M = 0 ground state at kappa = {kappa:.9g} is not in the "
                             "(R+, P+) block")
        ends.append(ground)
    psi0, target = ends[0].astype(complex), ends[1]
    # K and B are symmetric, so (V^T K)^T = K V
    k_block, b_block = v.T @ (v.T @ kinetic).T, v.T @ (v.T @ bond).T

    while True:
        n_steps = _step_count(schedule.duration, dt)
        step_dt = schedule.duration / n_steps
        psi, t = psi0, 0.0
        trace = [] if record_trace else None
        solves = _pass_solves(k_block, b_block, schedule, n_steps, step_dt)
        for step, (phases, vecs) in enumerate(solves):
            full = _rotate(vecs[0], phases[0], psi)
            half = _rotate(vecs[2], phases[2], _rotate(vecs[1], phases[1], psi))
            if not np.linalg.norm(full - half) <= STEP_ERROR_TOL:  # NaN fails too
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
    fidelity = float(abs(np.vdot(target, psi)) ** 2)
    try:
        max_ratio = adiabatic_ratio(spec, schedule, samples=16, parts=(kinetic, bond))[0]
    except ValueError:
        max_ratio = float("nan")
    return EvolutionResult(
        final_fidelity=fidelity,
        norm_drift=abs(norm - 1.0),
        max_adiabatic_ratio=max_ratio,
        step_count=n_steps,
        accepted_dt=step_dt,
        trace=trace,
    )


def adiabatic_ratio(spec: ChainSpec, schedule: RampSchedule, samples: int, *,
                    parts=None):
    """Worst adiabaticity quotient |<psi0| dH/dt |psi1>| / (E1 - E0)^2.

    Sampled at `samples` evenly spaced times; the first excited level
    may be degenerate, so the matrix element is taken as the norm of the
    dH/dt image of the ground state projected onto the whole E1
    eigenspace (basis-independent, reduces to the plain matrix element
    in the non-degenerate case). Every SU(2) multiplet has an M = 0
    member, so the M = 0 sector, or its (K, B) passed as `parts`, gives
    the whole space's value. Returns (max_ratio, time_of_max).
    """
    if samples < 2:
        raise ValueError(f"need samples >= 2, got {samples}")
    kinetic, bond = parts if parts is not None else _sector_parts(spec)[1:]
    _check_rate(schedule, bond)
    times = np.linspace(0.0, schedule.duration, samples)
    best = (0.0, 0.0)
    for t in times:
        rate = schedule.rate(t)
        if rate == 0.0:
            continue
        vals, vecs = np.linalg.eigh(kinetic + schedule.kappa(t) * bond)
        gap = vals[1] - vals[0]
        if gap < DEGENERATE_GAP:
            raise ValueError(f"degenerate gap {gap} at t = {t}")
        excited = np.abs(vals - vals[1]) < 1e-9
        image = rate * (bond @ vecs[:, 0])
        element = float(np.linalg.norm(vecs[:, excited].conj().T @ image))
        ratio = element / gap**2
        if ratio > best[0]:
            best = (ratio, float(t))
    return best


def physical_ramp_time(geom: Geometry, duration: float) -> float:
    """Convert a dimensionless duration to seconds: t = duration * hbar / E0."""
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    return duration * CODATA2018.hbar / rotational_quantum(geom)
