import math

import numpy as np
import pytest
import scipy.sparse as sp

import rotorsim.dynamics
from rotorsim.cli import main
from rotorsim.dynamics import (
    STEP_ERROR_TOL,
    RampSchedule,
    adiabatic_ratio,
    physical_ramp_time,
    propagate,
)
from rotorsim.lattice import ChainSpec, DimensionCapError, build_interaction, build_kinetic

from conftest import all_codes


TWO_SITE = ChainSpec(2, 1, kappa=0.0)


def full_space_ramp(spec, schedule, dt, trace_stride):
    """The midpoint-exponential ramp in the whole product space, no sectors."""
    kinetic = build_kinetic(spec, all_codes(spec)).matrix.toarray()
    bond = build_interaction(spec, all_codes(spec)).matrix.toarray()

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
            return abs(np.vdot(ground(schedule.kappa_end), psi)) ** 2, n_steps, h, trace


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

    def test_smoothstep_flat_endpoints(self):
        ramp = RampSchedule(0.0, 1.0, duration=4.0, shape="smoothstep")
        assert ramp.rate(0.0) == 0.0
        assert ramp.rate(4.0) == pytest.approx(0.0, abs=1e-15)
        assert ramp.kappa(2.0) == pytest.approx(0.5)


class TestPropagate:
    def test_stationary_state(self):
        result = propagate(TWO_SITE, RampSchedule(0.3, 0.3, duration=25.0), dt=0.1)
        assert result.final_fidelity == pytest.approx(1.0, abs=1e-8)
        assert result.norm_drift < 1e-9

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

    def test_trace_recording(self):
        result = propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=5.0), dt=0.05,
                           record_trace=True, trace_stride=10)
        assert result.trace is not None and len(result.trace) >= 2
        for t, fid, norm, kappa in result.trace:
            assert 0.0 <= fid <= 1.0 + 1e-10
            assert norm == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= kappa <= 0.5

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

        def refuse(spec, codes):
            raise Built

        monkeypatch.setattr(rotorsim.dynamics, "build_kinetic", refuse)
        monkeypatch.setattr(rotorsim.dynamics, "build_interaction", refuse)
        ramp = RampSchedule(0.0, 0.5, duration=1.0)
        with pytest.raises(Built if admitted else DimensionCapError):
            propagate(ChainSpec(n_sites, 1), ramp, dt=0.1)


class TestSectorPropagator:
    """The M = 0 propagator against the same stepping in the full space."""

    @pytest.mark.parametrize("spec", [ChainSpec(3, 1), ChainSpec(2, 2)])
    @pytest.mark.parametrize("schedule", [
        RampSchedule(0.0, 0.6, duration=1.5),
        RampSchedule(0.1, 0.9, duration=1.5, shape="smoothstep"),
    ])
    def test_matches_full_space(self, spec, schedule):
        result = propagate(spec, schedule, dt=0.3, record_trace=True, trace_stride=2)
        fidelity, n_steps, step_dt, trace = full_space_ramp(spec, schedule, 0.3, 2)
        assert result.step_count == n_steps
        assert result.accepted_dt == step_dt
        assert result.accepted_dt < 0.3  # the error test halved dt at least once
        assert result.final_fidelity == pytest.approx(fidelity, abs=1e-12)
        assert len(result.trace) == len(trace)
        for row, oracle_row in zip(result.trace, trace):
            assert row == pytest.approx(oracle_row, abs=1e-12)


class TestEvenBlockStepping:
    """Every step runs on the (R+, P+) block of the M = 0 sector."""

    @pytest.mark.parametrize("spec, size", [(ChainSpec(3, 1), 6), (ChainSpec(2, 2), 8)])
    def test_steps_run_on_the_block(self, spec, size, monkeypatch):
        sizes = set()

        def recording(kinetic, bond, schedule, psi, t, dt, _step=rotorsim.dynamics._step):
            sizes.add(len(psi))
            return _step(kinetic, bond, schedule, psi, t, dt)
        monkeypatch.setattr(rotorsim.dynamics, "_step", recording)
        propagate(spec, RampSchedule(0.0, 0.6, duration=0.5), dt=0.1)
        assert sizes == {size}

    def test_start_state_outside_the_block_is_refused(self, monkeypatch, tmp_path, capsys):
        # an isometry without the first code, the all-l = 0 ground state at kappa = 0
        def leaving(spec, codes):
            return sp.identity(len(codes), format="csc")[:, 1:7]
        monkeypatch.setattr(rotorsim.dynamics, "even_block", leaving)
        with pytest.raises(ValueError, match=r"not in the \(R\+, P\+\) block"):
            propagate(ChainSpec(3, 1), RampSchedule(0.0, 0.6, duration=0.5), dt=0.1)
        out = tmp_path / "out"
        code = main(["sim", "ramp", "--sites", "3", "--lmax", "1", "--duration", "0.5",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "block" in captured.err
        assert captured.out == ""
        assert not out.exists() or not any(out.iterdir())


class TestAdiabaticRatio:
    def test_zero_rate(self):
        ratio, _ = adiabatic_ratio(TWO_SITE, RampSchedule(0.4, 0.4, duration=5.0), 8)
        assert ratio == 0.0

    def test_halves_when_duration_doubles(self):
        short, _ = adiabatic_ratio(TWO_SITE, RampSchedule(0.0, 0.5, duration=100.0), 32)
        long, _ = adiabatic_ratio(TWO_SITE, RampSchedule(0.0, 0.5, duration=200.0), 32)
        assert short == pytest.approx(2.0 * long, rel=1e-9)

    def test_joint_criterion_with_fidelity(self):
        # small criterion value must go hand in hand with high fidelity
        for duration in (50.0, 200.0):
            ramp = RampSchedule(0.0, 0.5, duration=duration)
            ratio, _ = adiabatic_ratio(TWO_SITE, ramp, 16)
            result = propagate(TWO_SITE, ramp, dt=0.05)
            assert ratio < 0.05
            assert result.final_fidelity > 0.99

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            adiabatic_ratio(TWO_SITE, RampSchedule(0.0, 0.5, duration=1.0), 1)


class TestPhysicalRampTime:
    def test_nano_picoseconds(self, nano):
        t = physical_ramp_time(nano, 1.0)
        assert 1e-12 <= t <= 10e-12
        assert t == pytest.approx(2.488e-12, rel=1e-3)

    def test_micro_nanoseconds(self, micro):
        assert physical_ramp_time(micro, 1.0) == pytest.approx(2.764e-9, rel=1e-3)

    def test_zero_duration(self, micro):
        assert physical_ramp_time(micro, 0.0) == 0.0

    def test_rejects_negative(self, micro):
        with pytest.raises(ValueError):
            physical_ramp_time(micro, -1.0)


class TestStepCap:
    def test_refused_before_anything_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def refuse(spec):
            raise Built

        monkeypatch.setattr(rotorsim.dynamics, "_sector_parts", refuse)
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
        with pytest.raises(ValueError, match="adiabatic matrix element"):
            adiabatic_ratio(TWO_SITE, schedule, samples=4)

    @pytest.mark.filterwarnings("error")
    def test_fast_rate_below_the_limit_gives_a_finite_ratio(self):
        result = propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=1e-150), dt=0.05)
        assert math.isfinite(result.max_adiabatic_ratio)

    def test_nan_step_error_is_rejected_not_accepted(self, monkeypatch):
        # a NaN error estimate halves dt until the step cap, like any failed step
        monkeypatch.setattr(rotorsim.dynamics, "_step", lambda k, b, s, psi, t, dt: psi * np.nan)
        monkeypatch.setattr(rotorsim.dynamics, "DYNAMICS_STEP_CAP", 16)
        with pytest.raises(DimensionCapError, match="step cap"):
            propagate(TWO_SITE, RampSchedule(0.0, 0.5, duration=0.5), dt=0.05)
