import math
from dataclasses import replace

import numpy as np
import pytest

import rotorsim.dynamics
from rotorsim.cli import main
from rotorsim.dynamics import (
    STEP_ERROR_TOL,
    RampSchedule,
    _ramp_setup,
    adiabatic_ratio,
    physical_ramp_time,
    propagate,
)
from rotorsim.lattice import (Basis, ChainSpec, DimensionCapError, build_interaction,
                              build_kinetic, reflection, sector_basis)

from conftest import all_codes, even_block, oracle_propagate, raising_operator


TWO_SITE = ChainSpec(2, 1, kappa=0.0)


def full_space_ramp(spec, schedule, dt, trace_stride):
    """The midpoint-exponential ramp in the whole product space, no sectors.

    Returns (fidelity, n_steps, step dt, trace, adiabatic ratio). The ratio is
    the largest |<E1 eigenspace| dH/dt |psi0>| / (E1 - E0)^2 of the whole
    space at 16 evenly spaced times, both ends included.
    """
    basis = Basis(spec, all_codes(spec))
    kinetic = build_kinetic(basis).matrix.toarray()
    bond = build_interaction(basis).matrix.toarray()
    ratio = 0.0
    for t in np.linspace(0.0, schedule.duration, 16):
        vals, vecs = np.linalg.eigh(kinetic + schedule.kappa(t) * bond)
        image = schedule.rate(t) * (bond @ vecs[:, 0])
        element = np.linalg.norm(vecs[:, np.abs(vals - vals[1]) < 1e-9].T @ image)
        ratio = max(ratio, element / (vals[1] - vals[0]) ** 2)

    def ground(kappa):
        return np.linalg.eigh(kinetic + kappa * bond)[1][:, 0]

    def step(psi, t, h):
        vals, vecs = np.linalg.eigh(kinetic + schedule.kappa(t + 0.5 * h) * bond)
        return vecs @ (np.exp(-1j * vals * h) * (vecs.conj().T @ psi))

    while True:
        n_steps = max(1, math.ceil(schedule.duration / dt))
        h = schedule.duration / n_steps
        psi, t, trace = ground(schedule.kappa_start).astype(complex), 0.0, []
        for i in range(n_steps):
            half = step(step(psi, t, 0.5 * h), t + 0.5 * h, 0.5 * h)
            if np.linalg.norm(step(psi, t, h) - half) > STEP_ERROR_TOL:
                dt = 0.5 * h
                break
            psi, t = half, t + h
            if i % trace_stride == 0 or i == n_steps - 1:
                fid = abs(np.vdot(ground(schedule.kappa(t)), psi)) ** 2
                trace.append((t, fid, np.linalg.norm(psi), schedule.kappa(t)))
        else:
            return abs(np.vdot(ground(schedule.kappa_end), psi)) ** 2, n_steps, h, trace, ratio


def record_step_stacks(monkeypatch):
    """Record the shape (steps, 3, b, b) of every stacked eigh of the time steps."""
    shapes = []

    def recording(matrix, eigh=np.linalg.eigh):
        if matrix.ndim == 4:  # the full step and its two halves, per step of a chunk
            assert matrix.shape[1] == 3
            shapes.append(matrix.shape)
        return eigh(matrix)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


class TestRampSchedule:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            RampSchedule(0.0, 0.5, duration=0.0)
        with pytest.raises(ValueError):
            RampSchedule(-0.1, 0.5, duration=1.0)
        with pytest.raises(ValueError):
            RampSchedule(0.0, 0.5, duration=1.0, shape="bezier")

    def test_linear_endpoints(self):
        ramp = RampSchedule(0.1, 0.7, duration=10.0)
        assert ramp.kappa(0.0) == pytest.approx(0.1)
        assert ramp.kappa(10.0) == pytest.approx(0.7)
        assert ramp.rate(5.0) == pytest.approx(0.06)

    @pytest.mark.parametrize("field", ["kappa_start", "kappa_end", "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        args = {"kappa_start": 0.0, "kappa_end": 0.5, "duration": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RampSchedule(**args)

    @pytest.mark.parametrize("field", ["kappa_start", "kappa_end", "duration"])
    @pytest.mark.parametrize("value", [True, "0"])
    def test_rejects_bool_or_non_real(self, field, value):
        # True would otherwise be kappa 1 or duration 1, and "0" a bare TypeError
        args = {"kappa_start": 0.0, "kappa_end": 0.5, "duration": 10.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a real number, got {value!r}"):
            RampSchedule(**args)

    def test_admits_numpy_reals(self):
        ramp = RampSchedule(np.float64(0.0), np.int64(1), np.float32(2.0))
        assert ramp.rate(1.0) == 0.5

    @pytest.mark.parametrize("kappa_end, duration, shape", [
        (0.5, 1e-320, "linear"), (1.7e308, 0.1, "linear"), (1.7e308, 1.0, "smoothstep"),
    ])
    def test_rejects_infinite_rate(self, kappa_end, duration, shape):
        with pytest.raises(ValueError, match="peak kappa rate must be finite, got inf"):
            RampSchedule(0.0, kappa_end, duration=duration, shape=shape)

    def test_admits_the_largest_finite_rate(self):
        assert RampSchedule(0.0, 1.7e308, duration=1.0).rate(0.5) == 1.7e308
        assert RampSchedule(0.0, 1.1e308, duration=1.0, shape="smoothstep").rate(0.5) == \
            pytest.approx(1.65e308)

    @pytest.mark.parametrize("shape", ["linear", "smoothstep"])
    def test_kappa_of_an_array_is_kappa_of_each_time(self, shape):
        ramp = RampSchedule(0.1, 0.7, duration=3.0, shape=shape)
        times = np.linspace(-0.5, 3.5, 97)
        assert ramp.kappa(times).tolist() == [ramp.kappa(float(t)) for t in times]

    def test_smoothstep_flat_endpoints(self):
        ramp = RampSchedule(0.0, 1.0, duration=4.0, shape="smoothstep")
        assert ramp.rate(0.0) == 0.0
        assert ramp.rate(4.0) == pytest.approx(0.0, abs=1e-15)
        assert ramp.kappa(2.0) == pytest.approx(0.5)


class TestPropagate:
    def test_stationary_state(self):
        result = propagate(ChainSpec(2, 1, kappa=0.3), RampSchedule(0.3, 0.3, duration=25.0),
                           dt=0.1)
        assert result.final_fidelity == pytest.approx(1.0, abs=1e-8)
        assert result.norm_drift < 1e-9

    def test_refuses_a_spec_kappa_other_than_kappa_start(self):
        with pytest.raises(ValueError, match="kappa_start = 0.0, not at the spec's kappa = 0.7"):
            propagate(ChainSpec(2, 1, kappa=0.7), RampSchedule(0.0, 0.5, duration=1.0), dt=0.05)

    def test_slow_ramp_stays_in_ground_state(self):
        result = propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=200.0), dt=0.05)
        assert result.final_fidelity > 0.99
        assert result.norm_drift < 1e-9

    def test_fast_ramp_golden_and_diabatic(self):
        fast = propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=1.0), dt=0.05)
        slow = propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=200.0), dt=0.05)
        assert fast.final_fidelity == pytest.approx(0.9960910, abs=1e-5)
        assert fast.final_fidelity < slow.final_fidelity

    def test_duration_ladder_monotone(self):
        fidelities = [
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=d), dt=0.05).final_fidelity
            for d in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(fidelities, fidelities[1:]))
        assert fidelities[-1] > 0.999

    def test_dt_convergence(self):
        ramp = RampSchedule(0.0, 0.5, duration=10.0)
        coarse = propagate(TWO_SITE, ramp, dt=0.02).final_fidelity
        fine = propagate(TWO_SITE, ramp, dt=0.01).final_fidelity
        assert abs(coarse - fine) < 1e-6

    def test_trace_recording(self, monkeypatch):
        monkeypatch.setattr(rotorsim.dynamics, "TRACE_STRIDE", 10)
        result = propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=5.0), dt=0.05,
                           record_trace=True)
        assert result.trace is not None and len(result.trace) >= 2
        for t, fid, norm, kappa in result.trace:
            assert 0.0 <= fid <= 1.0 + 1e-10
            assert norm == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= kappa <= 0.5

    @pytest.mark.parametrize("dt", [True, "0.05"])
    def test_rejects_bool_or_non_real_dt(self, dt, monkeypatch):
        # dt = True would otherwise step at dt = 1
        def refuse(spec, m):
            raise AssertionError("built")

        monkeypatch.setattr(rotorsim.dynamics, "sector_basis", refuse)
        with pytest.raises(ValueError, match=f"dt must be a real number, got {dt!r}"):
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=2.0), dt=dt)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=1.0), dt=0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=1.0), dt=dt)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            propagate(ChainSpec(6, 2, kappa=0.0),
                      RampSchedule(0.0, 0.5, duration=1.0), dt=0.1)

    @pytest.mark.parametrize("n_sites, admitted", [(7, True), (8, False)])
    def test_cap_applies_to_m0_sector_before_building(self, n_sites, admitted, monkeypatch):
        # 7x1 has 3432 states at M = 0, 8x1 has 12870 (of 65536 in all)
        class Built(Exception):
            pass

        def refuse(basis):
            raise Built

        monkeypatch.setattr(rotorsim.dynamics, "build_kinetic", refuse)
        monkeypatch.setattr(rotorsim.dynamics, "build_interaction", refuse)
        ramp = RampSchedule(0.0, 0.5, duration=1.0)
        with pytest.raises(Built if admitted else DimensionCapError):
            propagate(ChainSpec(n_sites, 1), ramp, dt=0.1)


class TestSectorPropagator:
    """The M = 0 propagator against the same stepping in the full space.

    The adiabatic ratio is compared too, against the whole space's E1
    eigenspace. It is a selection-rule zero on every spec here: B|psi0> is a
    singlet and the E1 eigenspace holds none, so a ratio over the ground
    state's own symmetry block has to change this test on purpose.
    """

    @pytest.mark.parametrize("spec", [ChainSpec(3, 1), ChainSpec(2, 2), ChainSpec(2, 1)])
    @pytest.mark.parametrize("schedule", [
        RampSchedule(0.0, 0.6, duration=1.5),
        RampSchedule(0.1, 0.9, duration=1.5, shape="smoothstep"),
    ])
    def test_matches_full_space(self, spec, schedule, monkeypatch):
        self.check(spec, schedule, monkeypatch)

    def test_matches_full_space_on_a_periodic_chain(self, monkeypatch):
        # 256 product states: a short ramp (128 steps) keeps the oracle to a few seconds
        self.check(ChainSpec(4, 1, boundary="periodic"),
                   RampSchedule(0.2, 0.8, duration=0.15), monkeypatch)

    def test_matches_full_space_on_a_periodic_chain_under_smoothstep(self, monkeypatch):
        self.check(ChainSpec(4, 1, boundary="periodic"),
                   RampSchedule(0.2, 0.8, duration=0.15, shape="smoothstep"), monkeypatch)

    @staticmethod
    def check(spec, schedule, monkeypatch):
        spec = replace(spec, kappa=schedule.kappa_start)
        monkeypatch.setattr(rotorsim.dynamics, "TRACE_STRIDE", 2)
        result = propagate(spec, schedule, dt=0.3, record_trace=True)
        fidelity, n_steps, step_dt, trace, ratio = full_space_ramp(spec, schedule, 0.3, 2)
        assert result.step_count == n_steps
        assert result.accepted_dt == step_dt
        assert result.accepted_dt < 0.3  # the error test halved dt at least once
        assert result.final_fidelity == pytest.approx(fidelity, abs=1e-12)
        assert abs(result.max_adiabatic_ratio - ratio) <= 1e-12
        assert len(result.trace) == len(trace)
        for row, oracle_row in zip(result.trace, trace):
            assert row == pytest.approx(oracle_row, abs=1e-12)


class TestStackedSolves:
    """propagate against the sequential stepper (conftest.oracle_propagate).

    One matrix per step rounds differently from the oracle's two rotations,
    so the step decisions are compared exactly and the values within 1e-12.
    """

    LINEAR = RampSchedule(0.0, 0.5, duration=10.0)
    SMOOTH = RampSchedule(0.0, 0.5, duration=10.0, shape="smoothstep")
    STEP_0 = [(200, 0), (400, 0), (800, 0)]

    @staticmethod
    def assert_matches(result, oracle):
        assert result.step_count == oracle.step_count
        assert result.accepted_dt == oracle.accepted_dt
        assert result.max_adiabatic_ratio == oracle.max_adiabatic_ratio
        assert result.final_fidelity == pytest.approx(oracle.final_fidelity, abs=1e-12)
        assert result.norm_drift <= 1e-12
        assert (result.trace is None) == (oracle.trace is None)
        for row, oracle_row in zip(result.trace or [], oracle.trace or [], strict=True):
            assert row == pytest.approx(oracle_row, abs=1e-12)

    @pytest.mark.parametrize("spec, schedule, rejected", [
        (ChainSpec(3, 1), LINEAR, STEP_0),
        (ChainSpec(2, 2), LINEAR, STEP_0),
        # the dt = 0.0125 pass fails inside the chunks of steps 15-30 and 31-62
        (ChainSpec(3, 1), SMOOTH, [(200, 0), (400, 0), (800, 23)]),
        (ChainSpec(2, 2), SMOOTH, [(200, 0), (400, 0), (800, 47)]),
        (ChainSpec(4, 1, kappa=0.2, boundary="periodic"),
         RampSchedule(0.2, 1.3, duration=10.0, shape="smoothstep"),
         [(200, 0), (400, 0), (800, 0), (1600, 187)]),
    ])
    def test_matches_the_sequential_stepper(self, spec, schedule, rejected, monkeypatch):
        monkeypatch.setattr(rotorsim.dynamics, "TRACE_STRIDE", 7)
        result = propagate(spec, schedule, dt=0.05, record_trace=True)
        oracle, oracle_rejected = oracle_propagate(spec, schedule, 0.05, record_trace=True,
                                                   trace_stride=7)
        assert oracle_rejected == rejected
        self.assert_matches(result, oracle)

    def test_trace_rows_are_solved_only_for_accepted_steps(self, monkeypatch):
        # the 3x3 matrices outside the stacked steps are the trace rows' and the
        # set-up's three (the order by K and the two end states); the dt = 0.0125
        # pass fails at step 23, inside the chunk of steps 15-30, so its rows at
        # steps 0, 7 and 14 are solved and those at 21 and 28 are not
        solved = []

        def recording(matrix, eigh=np.linalg.eigh):
            if matrix.ndim < 4 and matrix.shape[-1] == 3:
                solved.append(math.prod(matrix.shape[:-2]))
            return eigh(matrix)
        monkeypatch.setattr(np.linalg, "eigh", recording)
        monkeypatch.setattr(rotorsim.dynamics, "TRACE_STRIDE", 7)
        result = propagate(ChainSpec(3, 1), self.SMOOTH, dt=0.05, record_trace=True)
        assert len(result.trace) == len(range(0, 1600, 7)) + 1  # and the last step
        assert sum(solved) == len(result.trace) + 3 + 3

    def test_chunks_double_up_to_the_byte_budget(self, monkeypatch):
        stacks = record_step_stacks(monkeypatch)
        result = propagate(ChainSpec(3, 1), self.LINEAR, dt=0.05)
        limit = rotorsim.dynamics._CHUNK_BYTES // (3 * 8 * 3 * 3)  # the 3-state block
        sizes = [shape[0] for shape in stacks]
        # three passes rejected at step 0, then 1600 accepted steps
        assert limit == 303
        assert sizes[:3] == [1, 1, 1]
        assert sizes[3:12] == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        assert set(sizes[12:-1]) == {limit}
        assert 0 < sizes[-1] <= limit
        assert sum(sizes[3:]) == result.step_count == 1600

    def test_kappas_are_taken_per_chunk(self, monkeypatch):
        # a pass's kappas are formed chunk by chunk, not for all its steps at once,
        # so the memory of a long ramp does not grow with its step count
        sizes = []
        kappa = RampSchedule.kappa

        def recording(schedule, t):
            sizes.append(np.size(t))
            return kappa(schedule, t)
        monkeypatch.setattr(RampSchedule, "kappa", recording)
        result = propagate(ChainSpec(3, 1), self.LINEAR, dt=0.05, record_trace=True)
        assert result.step_count == 1600
        assert 0 < max(sizes) <= 3 * 303  # (full, half, half) of the 3-state chunk limit

    def test_large_block_steps_one_at_a_time(self, monkeypatch):
        # the 76-state block of 6x1: one step's three matrices pass the budget
        stacks = record_step_stacks(monkeypatch)
        schedule = RampSchedule(0.0, 0.5, duration=0.2)
        result = propagate(ChainSpec(6, 1), schedule, dt=0.05)
        assert 3 * 8 * 76 * 76 > rotorsim.dynamics._CHUNK_BYTES
        assert {shape for shape in stacks} == {(1, 3, 76, 76)}
        oracle, _ = oracle_propagate(ChainSpec(6, 1), schedule, 0.05)
        self.assert_matches(result, oracle)

    def test_long_ramp_keeps_its_norm(self):
        # 6400 accepted steps of one composed matrix each on the 10-state block
        result = propagate(ChainSpec(4, 1), RampSchedule(0.0, 0.5, duration=40.0), dt=0.05)
        assert result.step_count == 6400
        assert result.norm_drift <= 1e-12


class TestBlockStepping:
    """Every step runs on the P+ part of the L = 0 block."""

    @pytest.mark.parametrize("spec, size", [(ChainSpec(3, 1), 3), (ChainSpec(2, 2), 3)])
    def test_steps_run_on_the_block(self, spec, size, monkeypatch):
        stacks = record_step_stacks(monkeypatch)
        propagate(spec, RampSchedule(0.0, 0.6, duration=0.5), dt=0.1)
        assert {shape[-2:] for shape in stacks} == {(size, size)}

    def test_start_state_outside_the_block_is_refused(self, monkeypatch, tmp_path, capsys):
        # the L = 2 block in place of L = 0: its lowest level at kappa = 0 is 6, not 0
        def total_l_2(spec, m, coupled=False):
            return sector_basis(spec, 2 if coupled else m, coupled)
        monkeypatch.setattr(rotorsim.dynamics, "sector_basis", total_l_2)
        with pytest.raises(ValueError, match=r"at kappa = 0 is not in the P\+ part of the L = 0"):
            propagate(ChainSpec(3, 1), RampSchedule(0.0, 0.6, duration=0.5), dt=0.1)
        out = tmp_path / "out"
        code = main(["sim", "ramp", "--sites", "3", "--lmax", "1", "--duration", "0.5",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "block" in captured.err
        assert captured.out == ""
        assert not out.exists() or not any(out.iterdir())

    def test_block_without_the_ground_state_is_refused(self, monkeypatch):
        # -P keeps the P- part, which misses the all-l = 0 ground state at kappa = 0.2
        monkeypatch.setattr(rotorsim.dynamics, "reflection", lambda basis: -reflection(basis))
        with pytest.raises(ValueError, match=r"at kappa = 0.2 is not in the P\+ part"):
            propagate(ChainSpec(4, 1, kappa=0.2), RampSchedule(0.2, 0.6, duration=0.5), dt=0.1)


class TestSingletBlock:
    """The ramp's block against its oracle, the singlets of the (R+, P+) block V of
    sector 0: the null space of W = L_+ V."""

    SINGLETS = [(ChainSpec(3, 1), 3), (ChainSpec(2, 2), 3), (ChainSpec(4, 1), 10),
                (ChainSpec(3, 2), 9)]

    @pytest.mark.parametrize("spec, count", SINGLETS)
    def test_singlet_counts(self, spec, count):
        k_block, b_block, psi0, target, _ = _ramp_setup(
            spec, RampSchedule(0.0, 0.5, duration=1.0))
        assert k_block.shape == b_block.shape == (count, count)
        assert psi0.shape == target.shape == (count,)

    @pytest.mark.parametrize("spec, count", SINGLETS)
    def test_casimir_spectrum_is_even_l(self, spec, count):
        # W^T W = V^T L_- L_+ V is L^2 on the block: l(l + 1) at even l only
        basis = sector_basis(spec, 0)
        w = raising_operator(basis) @ even_block(basis)
        vals = np.linalg.eigvalsh((w.T @ w).toarray())
        even = np.array([l * (l + 1.0) for l in range(0, spec.n_sites * spec.l_max + 1, 2)])
        assert np.abs(vals[:, None] - even[None, :]).min(axis=1).max() <= 1e-9
        assert np.count_nonzero(vals < 1.0) == count
        assert np.abs(vals[:count]).max() <= 1e-9
        assert vals[count] >= 6.0 - 1e-9

    @pytest.mark.parametrize("spec, count", SINGLETS)
    def test_block_has_the_singlet_levels(self, spec, count):
        # K + kappa B on the P+ part of the L = 0 block has the levels of the
        # oracle's singlets of the (R+, P+) block; K is diagonal there, ascending
        basis = sector_basis(spec, 0)
        v = even_block(basis)
        w = raising_operator(basis) @ v
        vals, vecs = np.linalg.eigh((w.T @ w).toarray())
        singlets = v @ vecs[:, vals < 1.0]
        kinetic, bond = (build(basis).matrix.toarray() for build in (build_kinetic,
                                                                    build_interaction))
        k_block, b_block, _, _, _ = _ramp_setup(spec, RampSchedule(0.0, 0.5, duration=1.0))
        assert np.abs(k_block - np.diag(np.diag(k_block))).max() <= 1e-12
        assert np.all(np.diff(np.diag(k_block)) >= -1e-12)
        for kappa in (0.0, 0.5, 1.349):
            oracle = np.linalg.eigvalsh(singlets.T @ (kinetic + kappa * bond) @ singlets)
            levels = np.linalg.eigvalsh(k_block + kappa * b_block)
            assert np.abs(levels - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())


class TestAdiabaticRatio:
    """adiabatic_ratio(schedule, K, B) with K and B dense on the M = 0 sector."""

    @staticmethod
    def sector_parts(spec):
        basis = sector_basis(spec, 0)
        return build_kinetic(basis).matrix.toarray(), build_interaction(basis).matrix.toarray()

    def test_zero_rate(self):
        ratio = adiabatic_ratio(RampSchedule(0.4, 0.4, duration=5.0), *self.sector_parts(TWO_SITE))
        assert ratio == 0.0

    def test_halves_when_duration_doubles(self):
        parts = self.sector_parts(TWO_SITE)
        short = adiabatic_ratio(RampSchedule(0.0, 0.5, duration=100.0), *parts)
        long = adiabatic_ratio(RampSchedule(0.0, 0.5, duration=200.0), *parts)
        assert short == pytest.approx(2.0 * long, rel=1e-9)

    def test_joint_criterion_with_fidelity(self):
        # small criterion value must go hand in hand with high fidelity
        for duration in (50.0, 200.0):
            ramp = RampSchedule(0.0, 0.5, duration=duration)
            ratio = adiabatic_ratio(ramp, *self.sector_parts(TWO_SITE))
            result = propagate(TWO_SITE, ramp, dt=0.05)
            assert ratio < 0.05
            assert result.final_fidelity > 0.99


class TestPhysicalRampTime:
    def test_nano_picoseconds(self, nano):
        t = physical_ramp_time(nano, 1.0)
        assert 1e-12 <= t <= 10e-12
        assert t == pytest.approx(2.488e-12, rel=1e-3)

    def test_micro_nanoseconds(self, micro):
        assert physical_ramp_time(micro, 1.0) == pytest.approx(2.764e-9, rel=1e-3)

    def test_zero_duration(self, micro):
        assert physical_ramp_time(micro, 0.0) == 0.0

    @pytest.mark.parametrize("duration", [-1.0, math.inf, math.nan])
    def test_rejects_negative_or_non_finite(self, micro, duration):
        with pytest.raises(ValueError, match="duration"):
            physical_ramp_time(micro, duration)

    @pytest.mark.parametrize("duration", [True, "1"])
    def test_rejects_bool_or_non_real(self, micro, duration):
        # True would otherwise read as a duration of 1, 2.76e-9 s on micro
        with pytest.raises(ValueError, match=f"duration must be a real number, got {duration!r}"):
            physical_ramp_time(micro, duration)


class TestStepCap:
    def test_refused_before_anything_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def refuse(spec, m):
            raise Built

        monkeypatch.setattr(rotorsim.dynamics, "sector_basis", refuse)
        with pytest.raises(DimensionCapError, match="step cap"):
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=1e300), dt=0.05)
        with pytest.raises(Built):
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=100.0), dt=0.05)

    def test_checked_again_after_each_halving(self, monkeypatch):
        # 5 steps of 0.3 are rejected and halved to 10, then 20, ...
        schedule = RampSchedule(0.0, 0.6, duration=1.5)
        accepted = propagate(ChainSpec(3, 1), schedule, dt=0.3).step_count
        assert accepted > 5
        monkeypatch.setattr(rotorsim.dynamics, "DYNAMICS_STEP_CAP", accepted)
        assert propagate(ChainSpec(3, 1), schedule, dt=0.3).step_count == accepted
        monkeypatch.setattr(rotorsim.dynamics, "DYNAMICS_STEP_CAP", accepted - 1)
        with pytest.raises(DimensionCapError, match="step cap"):
            propagate(ChainSpec(3, 1), schedule, dt=0.3)


class TestOverflow:
    def test_overflowing_coupling_refused_before_any_eigh(self, monkeypatch):
        def eigh(matrix):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(ValueError, match=r"kappa \* B is not finite"):
            propagate(TWO_SITE, RampSchedule(0.0, 1.7e308, duration=1.0), dt=0.05)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", ["linear", "smoothstep"])
    def test_rate_that_overflows_the_adiabatic_element_refused(self, monkeypatch, shape):
        # 0.5 / 1e-300 is a finite rate, but rate * B|psi0> squared is not
        def eigh(matrix):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        schedule = RampSchedule(0.0, 0.5, duration=1e-300, shape=shape)
        with pytest.raises(ValueError, match="adiabatic matrix element"):
            propagate(TWO_SITE, schedule, dt=0.05)

    @pytest.mark.filterwarnings("error")
    def test_fast_rate_below_the_limit_gives_a_finite_ratio(self):
        result = propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=1e-150), dt=0.05)
        assert math.isfinite(result.max_adiabatic_ratio)

    def test_nan_step_error_is_rejected_not_accepted(self, monkeypatch):
        # NaN eigenvalues in the stacked step solves make a NaN error estimate,
        # which halves dt until the step cap, like any failed step
        def nan_steps(matrix, eigh=np.linalg.eigh):
            vals, vecs = eigh(matrix)
            return (vals * np.nan if matrix.ndim > 2 else vals), vecs

        monkeypatch.setattr(np.linalg, "eigh", nan_steps)
        monkeypatch.setattr(rotorsim.dynamics, "DYNAMICS_STEP_CAP", 16)
        with pytest.raises(DimensionCapError, match="step cap"):
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=0.5), dt=0.05)
