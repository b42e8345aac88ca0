"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py

The counter test traces every workload at two seeds and takes about a minute.
"""

import json

import pytest

import run  # configures the process before numpy is imported
import prepare
import spans
import workloads

REFERENCE = json.loads(run.REFERENCE.read_text())
# work counts the seed must not move; serialize.bytes varies with the digits
COUNTERS = ["lattice.build_calls", "lattice.restrict_calls", "spectra.ground_state_calls",
            "spectra.dense_eigh_calls", "spectra.arpack_calls", "dynamics.step_eigh_calls",
            "dynamics.steps", "dynamics.dt_halvings", "design.feasibility_calls"]


@pytest.fixture(scope="module")
def cli():
    return prepare.import_cli()


def _counters(cli, workload, seed, tmp_path):
    ops = workloads.make_ops(workload, seed, prepare.ROOT)
    rep = run.run_rep(cli, ops, tmp_path / f"{workload}-{seed}", traced=True)
    assert all(code == 0 for code, _ in rep.outputs)
    metrics = spans.layer_metrics(rep.tracer.spans)
    return {name: metrics[name] for name in COUNTERS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counters_repeat_across_seeds(cli, workload, tmp_path):
    first = _counters(cli, workload, 1, tmp_path)
    assert any(first.values())
    assert _counters(cli, workload, 4, tmp_path) == first


def test_checker_flags_perturbed_reference():
    reference = REFERENCE["chain_gap"]
    summary = dict(reference)
    assert workloads.compare_reference("gap", summary, reference) == []
    summary["gap/gap/gap"] *= 1 + 1e-10
    assert workloads.compare_reference("gap", summary, reference) == []
    summary["gap/gap/gap"] *= 1 + 1e-6
    assert workloads.compare_reference("gap", summary, reference) != []
    del summary["gap/gap/degeneracy"]
    problems = workloads.compare_reference("gap", summary, reference)
    assert any("missing" in p for p in problems)


def test_checker_flags_broken_invariants():
    gap_op, = [op for op in workloads.make_ops("chain_gap", 0, prepare.ROOT)
               if op.label == "gap"]
    assert workloads.check_op(gap_op, {"gap/gap/degeneracy": 3}, {}) == []
    assert workloads.check_op(gap_op, {"gap/gap/degeneracy": 1}, {}) != []
    ramp_op = workloads.make_ops("ramp", 0, prepare.ROOT)[0]
    drift = f"{ramp_op.label}/ramp/norm_drift"
    assert workloads.check_op(ramp_op, {drift: 1e-14}, {}) == []
    assert workloads.check_op(ramp_op, {drift: 1e-6}, {}) != []


@pytest.mark.parametrize("sites,lmax", [(3, 2), (5, 1)])
def test_oracle_matches_reference_critical_mu(sites, lmax):
    expected = REFERENCE["charge_staircase"][f"charge_{sites}x{lmax}/critical_mu"]
    assert abs(workloads.critical_mu_oracle(sites, lmax, 1.0) - expected) <= 1e-10


def test_missing_names_are_listed_not_fatal(cli, monkeypatch):
    from rotorsim import lattice
    original = lattice.SparseOperator.restrict
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("lattice", "rotorsim.lattice", "no_such_builder"),
        ("lattice", "rotorsim.lattice", "SparseOperator.no_such_method"),
        ("lattice", "rotorsim.no_such_module", "build"),
    ])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lattice.SparseOperator.restrict is not original
    finally:
        tracer.uninstall()
    assert lattice.SparseOperator.restrict is original
    assert tracer.missing == ["rotorsim.lattice.no_such_builder",
                              "rotorsim.lattice.SparseOperator.no_such_method",
                              "rotorsim.no_such_module.build"]


def test_self_time_subtracts_children():
    parent = spans.Span("spectrum", "spectra", None, 0, 10_000_000_000)
    child = spans.Span("eigh", "linalg", 0, 2_000_000_000, 5_000_000_000, {"n": 10})
    assert spans.self_times([parent, child]) == [7.0, 3.0]
    metrics = spans.layer_metrics([parent, child])
    assert metrics["spectra.dense_eigh_s"] == 3.0
    assert metrics["spectra.dense_eigh_n3"] == 1000
    assert metrics["spectra.spectrum_self_s"] == 7.0


def test_reference_speed_divides_out_a_uniform_slowdown():
    times = [2.0, 4.0]
    assert run.at_reference_speed(times, [run.PACE_REF_S] * 3) == pytest.approx(3.0)
    # half the time at the reference speed, half at half of it: the work
    # takes three quarters of the time at the reference speed
    paces = [run.PACE_REF_S, 2 * run.PACE_REF_S]
    assert run.at_reference_speed(times, paces) == pytest.approx(2.25)
    assert run.at_reference_speed([1.5 * t for t in times],
                                  [1.5 * p for p in paces]) == pytest.approx(2.25)
