"""Real-time evolution under an adiabatic switch-on of the bond coupling.

Time is measured in units of hbar/E0. The Hamiltonian along the ramp is
H(t) = sum_i L_i^2 + kappa(t) * B with B the bond operator, so only a
single scalar varies and dH/dt = kappa'(t) * B.

H(t) commutes with the total angular momentum and the site reflection P, and
the ramp starts in the ground state, a singlet with P = +1: the time steps run
on the P+ part of the coupled L = 0 block (3 states on 3x1 and 2x2, 76 on
6x1). DYNAMICS_DIM_CAP bounds the M = 0 sector, on which _ramp_setup alone
holds K and B dense, and DYNAMICS_STEP_CAP the step count.

kappa(t) is a known schedule, so each fixed-dt pass diagonalizes its H(t)
ahead of the state loop in stacked eigh chunks that double up to a byte
budget, applies one composed matrix per step and tests step errors per chunk.
"""

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .constants import CODATA2018
from .design import Geometry, rotational_quantum
from .lattice import (DYNAMICS_DIM_CAP, ChainSpec, DimensionCapError, build_interaction,
                      build_kinetic, reflection, sector_basis)

__all__ = [
    "DYNAMICS_DIM_CAP",
    "DYNAMICS_STEP_CAP",
    "RampSchedule",
    "EvolutionResult",
    "propagate",
    "physical_ramp_time",
]

# steps per ramp, checked before anything is built and after each dt halving
DYNAMICS_STEP_CAP = 1_000_000
STEP_ERROR_TOL = 1e-8
# trace rows: every TRACE_STRIDE-th step and the last
TRACE_STRIDE = 50
# evenly spaced times of the adiabatic ratio, both ends included
ADIABATIC_SAMPLES = 16
DEGENERATE_GAP = 1e-9
# rate * B|psi0> is squared inside the norm of the adiabatic matrix element
RATE_NORM_LIMIT = math.sqrt(sys.float_info.max)
# bytes of float64 matrices in one stacked eigh of the time steps: chunks of
# up to 303 steps on the 3-state blocks of 3x1 and 2x2, 1 step from 37 states up
_CHUNK_BYTES = 64 * 1024


def _check_real(name, value):
    """Refuse a bool or a non-real value with a ValueError naming it, as ChainSpec does."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class RampSchedule:
    """Coupling ramp kappa(t), t a float or an array, over [0, duration] (units hbar/E0)."""

    kappa_start: float
    kappa_end: float
    duration: float
    shape: str = "linear"

    def __post_init__(self):
        for name in ("kappa_start", "kappa_end", "duration"):
            _check_real(name, getattr(self, name))
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

    def kappa(self, t):
        s = np.clip(t / self.duration, 0.0, 1.0)
        if self.shape == "smoothstep":
            s = s * s * (3.0 - 2.0 * s)  # no pow: equal bits for a float and an array
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


def _ramp_setup(spec, schedule):
    """(K, B) on the ramp's block, the end states there and the adiabatic ratio.

    The one holder of K and B dense on the M = 0 sector, built after its size
    is checked against DYNAMICS_DIM_CAP, for _check_rate, the end-state guard
    and adiabatic_ratio (NaN at a degenerate gap). The block is the P+ part of
    the L = 0 block, spanned by P's +1 eigenvectors S ordered so that S^T K S
    is diagonal and ascending, which speeds the small step solves. An end state
    (the block's ground state at kappa_start or kappa_end) whose level is off
    the sector's lowest by more than 1e-9 * max(1, |E|) is refused (ValueError).
    """
    sector = sector_basis(spec, 0)
    if len(sector.codes) > DYNAMICS_DIM_CAP:
        raise DimensionCapError(f"M = 0 sector dimension {len(sector.codes)} exceeds the "
                                f"dynamics cap {DYNAMICS_DIM_CAP}")
    kinetic = build_kinetic(sector).matrix.toarray()
    bond = build_interaction(sector).matrix.toarray()
    _check_rate(schedule, bond)
    block = sector_basis(spec, 0, coupled=True)
    vals, vecs = np.linalg.eigh(reflection(block).toarray())
    s = vecs[:, vals > 0]
    s = s @ np.linalg.eigh(s.T @ (build_kinetic(block).matrix @ s))[1]  # K commutes with P
    k_block, b_block = (s.T @ (build(block).matrix @ s) for build in (build_kinetic,
                                                                       build_interaction))
    ends = []
    for kappa in (schedule.kappa_start, schedule.kappa_end):
        levels, states = np.linalg.eigh(k_block + kappa * b_block)
        lowest = np.linalg.eigvalsh(kinetic + kappa * bond)[0]
        if abs(levels[0] - lowest) > 1e-9 * max(1.0, abs(lowest)):
            raise ValueError(f"the M = 0 ground state at kappa = {kappa:.9g} is not in the "
                             "P+ part of the L = 0 block")
        ends.append(states[:, 0])
    try:
        max_ratio = adiabatic_ratio(schedule, kinetic, bond)
    except ValueError:
        max_ratio = float("nan")
    return k_block, b_block, ends[0].astype(complex), ends[1], max_ratio


def _step_count(duration, dt):
    steps = duration / dt
    if not steps <= DYNAMICS_STEP_CAP:
        raise DimensionCapError(f"{steps:.6g} time steps exceed the step cap {DYNAMICS_STEP_CAP}")
    return max(1, math.ceil(steps))


def _pass_solves(k_block, b_block, schedule, ends):
    """Yield (chunk, steps, phases, vecs) per chunk (a slice) of the steps ending at `ends`.

    Sub-steps (full, first half, second half) take H = K + kappa * B at their
    midpoints, a chunk's kappas from one call. One stacked eigh solves a
    chunk; chunks double from 1 step up to _CHUNK_BYTES of stacked matrices, so
    a rejected pass solves at most about twice the steps it took. `steps` holds
    each step's two halves as one matrix, V2 (P2 (V2^T V1) P1) V1^T with P =
    exp(-i vals dt / 2); `phases` and `vecs` are the full steps' P^2 and V.
    """
    step_dt, half_dt = ends[0], 0.5 * ends[0]
    dts = np.array([step_dt, half_dt, half_dt])
    # the midpoints from a step's start t: t + dt/2, t + dt/4 and (t + dt/2) + dt/4
    shifts = np.array([0.0, 0.0, half_dt])
    limit = max(1, _CHUNK_BYTES // (3 * k_block.nbytes))
    step, size, start = 0, 1, 0.0
    while step < len(ends):
        chunk = slice(step, step + min(size, limit, len(ends) - step))
        starts = np.concatenate([[start], ends[step:chunk.stop - 1]])
        kappas = schedule.kappa((starts[:, None] + shifts) + 0.5 * dts)
        vals, vecs = np.linalg.eigh(k_block + kappas[:, :, None, None] * b_block)
        phases = np.exp(-1j * vals * dts[:, None])
        # V1 C^T with C^T = P1 (V1^T V2) P2, then V2 (V1 C^T)^T, each a real matmul
        core = (phases[:, 1, :, None] * (np.swapaxes(vecs[:, 1], 1, 2) @ vecs[:, 2])
                * phases[:, 2, None, :])
        left = np.swapaxes((vecs[:, 1] @ core.view(float)).view(complex), 1, 2).copy()
        yield chunk, (vecs[:, 2] @ left.view(float)).view(complex), phases[:, 0], vecs[:, 0]
        step, size, start = chunk.stop, 2 * size, ends[chunk.stop - 1]


def propagate(spec: ChainSpec, schedule: RampSchedule, dt: float,
              record_trace: bool = False) -> EvolutionResult:
    """Evolve from the ground state at kappa_start through the ramp.

    Every step and trace row runs on the block of _ramp_setup, which refuses
    an end state off the M = 0 sector's lowest level (ValueError). Fixed-step
    unitary stepping with an embedded half-step error estimate; if a step's
    full/half discrepancy exceeds STEP_ERROR_TOL the step size is halved
    (globally, to stay deterministic) and the run restarts, unless the step
    count would pass DYNAMICS_STEP_CAP (DimensionCapError). The accepted
    state of each step is the two-half-step result, one matrix per step from
    H(t) diagonalized ahead of the state loop in stacked chunks
    (_pass_solves); the full steps and the error test run once per chunk, on
    its steps' start states. Trace rows (every TRACE_STRIDE-th step and the
    last) come from chunks that passed, one stacked eigh each. Fidelity is to
    the exact ground state at kappa_end. A ramp whose kappa * B is not finite
    (ChainSpec, at the larger end kappa) or whose adiabatic ratio could
    overflow (_check_rate), a dt that is not a positive finite real and a spec
    kappa other than kappa_start are refused (ValueError) before any eigh.
    """
    if spec.kappa != schedule.kappa_start:
        raise ValueError(f"the ramp starts at kappa_start = {schedule.kappa_start!r}, "
                         f"not at the spec's kappa = {spec.kappa!r}")
    _check_real("dt", dt)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    # refuse before anything is built; kappa(t) stays between its end values,
    # so ChainSpec's bound at the larger one bounds every entry of H(t)
    _step_count(schedule.duration, dt)
    replace(spec, kappa=max(schedule.kappa_start, schedule.kappa_end))
    k_block, b_block, psi0, target, max_ratio = _ramp_setup(spec, schedule)

    while True:
        n_steps = _step_count(schedule.duration, dt)
        step_dt = schedule.duration / n_steps
        ends = np.cumsum(np.full(n_steps, step_dt))  # the running t += step_dt, bit for bit
        traced = np.r_[np.arange(n_steps - 1) % TRACE_STRIDE == 0, True]
        psi, trace = psi0, [] if record_trace else None
        for chunk, steps, phases, vecs in _pass_solves(k_block, b_block, schedule, ends):
            starts = np.empty((len(steps), len(psi)), dtype=complex)
            for start, step in zip(starts, steps):
                start[:] = psi
                psi = step @ psi
            # every full step of the chunk at once, against the half steps' end states
            full = np.einsum("sij,sj->si", vecs, phases * np.einsum("sji,sj->si", vecs, starts))
            halves = np.concatenate([starts[1:], psi[None]])
            if not np.all(np.linalg.norm(full - halves, axis=1) <= STEP_ERROR_TOL):  # NaN fails
                break
            if record_trace:
                times, states = ends[chunk][traced[chunk]], halves[traced[chunk]]
                kappas = schedule.kappa(times)
                ground = np.linalg.eigh(k_block + kappas[:, None, None] * b_block)[1][..., 0]
                trace += zip(times.tolist(), (np.abs((ground * states).sum(1)) ** 2).tolist(),
                             np.linalg.norm(states, axis=1).tolist(), kappas.tolist())
        else:  # every step accepted
            break
        dt = 0.5 * step_dt

    norm = float(np.linalg.norm(psi))
    fidelity = float(abs(np.vdot(target, psi)) ** 2)
    return EvolutionResult(
        final_fidelity=fidelity,
        norm_drift=abs(norm - 1.0),
        max_adiabatic_ratio=max_ratio,
        step_count=n_steps,
        accepted_dt=step_dt,
        trace=trace,
    )


def adiabatic_ratio(schedule: RampSchedule, kinetic, bond) -> float:
    """Worst adiabaticity quotient |<psi0| dH/dt |psi1>| / (E1 - E0)^2 of H = K + kappa B.

    Sampled at ADIABATIC_SAMPLES evenly spaced times; the first excited
    level may be degenerate, so the matrix element is taken as the norm of
    the dH/dt image of the ground state projected onto the whole E1
    eigenspace (basis-independent, reduces to the plain matrix element in
    the non-degenerate case). Every SU(2) multiplet has an M = 0 member, so
    K and B dense on the M = 0 sector give the whole space's value. A gap
    below DEGENERATE_GAP is refused (ValueError).
    """
    best = 0.0
    for t in np.linspace(0.0, schedule.duration, ADIABATIC_SAMPLES):
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
        best = max(best, element / gap**2)
    return best


def physical_ramp_time(geom: Geometry, duration: float) -> float:
    """Convert a dimensionless duration to seconds: t = duration * hbar / E0."""
    _check_real("duration", duration)
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be non-negative and finite, got {duration!r}")
    return duration * CODATA2018.hbar / rotational_quantum(geom)
