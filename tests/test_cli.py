import json
import math
import tempfile
import time
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotorsim import bundled_config
from rotorsim.cli import main
from rotorsim.design import SCAN_PARAMETERS, SCAN_STEPS_CAP

from conftest import oracle_csv_text, oracle_json_text


def run(argv):
    return main([str(a) for a in argv])


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def micro_config(tmp_path, micro_doc):
    return write_config(tmp_path / "micro.json", micro_doc)


@pytest.fixture
def nano_config(tmp_path, nano_doc):
    return write_config(tmp_path / "nano.json", nano_doc)


class TestDesignReport:
    def test_micro_passes(self, micro_config, tmp_path):
        out = tmp_path / "out"
        assert run(["design", "report", "--config", micro_config, "--out", out]) == 0
        doc = json.loads((out / "feasibility_report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["overall_verdict"] == "pass"
        assert doc["effective"]["effective_coupling"] == pytest.approx(1.61, abs=0.01)
        assert doc["effective"]["effective_speed"] == pytest.approx(1.05e4, rel=1e-2)

    def test_nano_warns_but_exits_zero(self, nano_config, tmp_path):
        out = tmp_path / "out"
        assert run(["design", "report", "--config", nano_config, "--out", out]) == 0
        doc = json.loads((out / "feasibility_report.json").read_text())
        assert doc["overall_verdict"] == "warn"

    def test_strict_turns_warn_into_exit_3(self, nano_config, tmp_path):
        assert run(["design", "report", "--config", nano_config,
                    "--out", tmp_path / "out", "--strict"]) == 3

    def test_failing_geometry_exit_3(self, micro_config, tmp_path):
        # closing the sphere gap down to the rotor radius breaks the
        # scale hierarchy outright
        assert run(["design", "report", "--config", micro_config,
                    "--gamma", "4e-7", "--out", tmp_path / "out"]) == 3

    def test_flag_overrides_config(self, micro_config, tmp_path):
        out = tmp_path / "out"
        run(["design", "report", "--config", micro_config,
             "--temperature", "2e-6", "--out", out])
        doc = json.loads((out / "feasibility_report.json").read_text())
        assert doc["config"]["temperature_K"] == 2e-6

    def test_invalid_geometry_exit_2(self, micro_config, tmp_path):
        assert run(["design", "report", "--config", micro_config,
                    "--dx", "1e-9", "--out", tmp_path / "out"]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path, micro_doc):
        cfg = write_config(tmp_path / "bad.json", {**micro_doc, "voltage_V": 1.0})
        assert run(["design", "report", "--config", cfg, "--out", tmp_path / "out"]) == 2

    def test_missing_config_key_exit_2(self, tmp_path, micro_doc):
        doc = dict(micro_doc)
        del doc["gamma_m"]
        cfg = write_config(tmp_path / "bad.json", doc)
        assert run(["design", "report", "--config", cfg, "--out", tmp_path / "out"]) == 2

    def test_unreadable_config_exit_2(self, tmp_path):
        assert run(["design", "report", "--config", tmp_path / "absent.json",
                    "--out", tmp_path / "out"]) == 2

    def test_reruns_byte_identical(self, micro_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["design", "report", "--config", micro_config, "--out", out_a])
        run(["design", "report", "--config", micro_config, "--out", out_b])
        assert (out_a / "feasibility_report.json").read_bytes() == \
               (out_b / "feasibility_report.json").read_bytes()

    def test_bundled_configs_resolve(self):
        for name in ("micro", "nano"):
            doc = json.loads(bundled_config(name).read_text())
            assert set(doc) >= {"delta_m", "rho_m", "alpha_m", "gamma_m", "dx_m"}


class TestDesignScan:
    def test_temperature_sweep(self, micro_config, tmp_path):
        out = tmp_path / "out"
        assert run(["design", "scan", "--config", micro_config,
                    "--parameter", "temperature_K", "--start", "1e-6",
                    "--stop", "1e-3", "--steps", "7", "--out", out]) == 0
        lines = (out / "design_scan.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + rows
        doc = json.loads((out / "design_scan.json").read_text())
        assert len(doc["rows"]) == 7

    def test_endpoint_matches_single_report(self, micro_config, tmp_path):
        out = tmp_path / "scan"
        run(["design", "scan", "--config", micro_config, "--parameter", "gamma_m",
             "--start", "2.5e-6", "--stop", "5e-6", "--steps", "3", "--out", out])
        rows = json.loads((out / "design_scan.json").read_text())["rows"]
        single = tmp_path / "single"
        run(["design", "report", "--config", micro_config, "--out", single])
        report = json.loads((single / "feasibility_report.json").read_text())
        assert rows[0]["effective_coupling"] == pytest.approx(
            report["effective"]["effective_coupling"], rel=1e-9)
        assert rows[0]["overall_verdict"] == report["overall_verdict"]

    def test_unknown_parameter_exit_2(self, micro_config, tmp_path):
        assert run(["design", "scan", "--config", micro_config,
                    "--parameter", "voltage_V", "--start", "1", "--stop", "2",
                    "--steps", "3", "--out", tmp_path / "out"]) == 2

    def test_bad_range_exit_2(self, micro_config, tmp_path):
        assert run(["design", "scan", "--config", micro_config,
                    "--parameter", "gamma_m", "--start", "0", "--stop", "1e-6",
                    "--steps", "3", "--out", tmp_path / "out"]) == 2


# output stem -> argv of a command that writes it; gap and report write no table
FORMAT_RUNS = {
    "design_scan": ["design", "scan", "--parameter", "gamma_m", "--start", "2e-6",
                    "--stop", "3e-6", "--steps", "3"],
    "feasibility_report": ["design", "report"],
    "spectrum": ["sim", "spectrum", "--sites", "2", "--lmax", "1"],
    "gap": ["sim", "gap", "--sites", "2", "--lmax", "1"],
    "charge_scan": ["sim", "charge-scan", "--sites", "2", "--lmax", "1", "--mu-steps", "3"],
    "correlation": ["sim", "correlation", "--sites", "4", "--lmax", "1", "--kappa", "1"],
    "ramp": ["sim", "ramp", "--sites", "2", "--lmax", "1", "--duration", "1"],
}


@pytest.mark.parametrize("stem", FORMAT_RUNS)
@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
def test_format_selects_the_files_written(micro_config, tmp_path, stem, fmt):
    # the table when asked for; the JSON unless --format csv picked a table
    argv = FORMAT_RUNS[stem]
    out = tmp_path / "out"
    config = ["--config", micro_config] if argv[0] == "design" else []
    assert run(argv + config + ["--format", fmt, "--out", out]) == 0
    if stem in ("gap", "feasibility_report"):
        files = [f"{stem}.json"]
    else:
        files = {"json": [f"{stem}.json"], "csv": [f"{stem}.csv"],
                 "both": [f"{stem}.csv", f"{stem}.json"]}[fmt]
    assert sorted(path.name for path in out.iterdir()) == files


class TestSim:
    def test_gap_free_chain(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sim", "gap", "--sites", "2", "--lmax", "1",
                    "--kappa", "0", "--out", out]) == 0
        doc = json.loads((out / "gap.json").read_text())
        assert doc["gap"] == pytest.approx(2.0, abs=1e-12)
        assert doc["degeneracy"] == 6

    def test_spectrum_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sim", "spectrum", "--sites", "2", "--lmax", "1",
                    "--kappa", "0.5", "--k", "4", "--out", out]) == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert len(doc["eigenvalues"]) == 4
        assert (out / "spectrum.csv").exists()

    def test_charge_scan_single_site(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sim", "charge-scan", "--sites", "1", "--lmax", "1",
                    "--kappa", "0", "--mu-start", "0", "--mu-stop", "3",
                    "--mu-steps", "7", "--out", out]) == 0
        doc = json.loads((out / "charge_scan.json").read_text())
        assert doc["critical_mu"] == pytest.approx(2.0, abs=1e-9)

    def test_correlation_profile(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sim", "correlation", "--sites", "6", "--lmax", "1",
                    "--kappa", "1", "--out", out]) == 0
        doc = json.loads((out / "correlation.json").read_text())
        assert doc["fitted_xi"] == pytest.approx(1.21094, abs=1e-3)

    def test_ramp(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sim", "ramp", "--sites", "2", "--lmax", "1", "--kappa", "0",
                    "--kappa-end", "0.5", "--duration", "100", "--dt", "0.05",
                    "--out", out]) == 0
        doc = json.loads((out / "ramp.json").read_text())
        assert doc["final_fidelity"] > 0.999
        assert doc["norm_drift"] < 1e-9
        assert (out / "ramp.csv").exists()

    def test_from_geometry_derives_kappa(self, micro_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["sim", "gap", "--sites", "2", "--lmax", "1",
                    "--from-geometry", micro_config, "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "kappa = rotor_coupling = 1.34939976" in captured
        doc = json.loads((out / "gap.json").read_text())
        assert doc["config"]["kappa"] == pytest.approx(1.34939976, abs=1e-6)

    def test_sim_reruns_byte_identical(self, tmp_path):
        argv = ["sim", "spectrum", "--sites", "3", "--lmax", "1", "--kappa", "0.8"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(argv + ["--out", out_a])
        run(argv + ["--out", out_b])
        for name in ("spectrum.json", "spectrum.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_sites_exit_2(self, tmp_path):
        assert run(["sim", "gap", "--lmax", "1", "--out", tmp_path / "out"]) == 2

    def test_invalid_spec_exit_2(self, tmp_path):
        assert run(["sim", "gap", "--sites", "0", "--lmax", "1",
                    "--out", tmp_path / "out"]) == 2

    def test_dimension_cap_exit_5(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROTORSIM_DIM_CAP", "10")
        assert run(["sim", "gap", "--sites", "2", "--lmax", "1",
                    "--out", tmp_path / "out"]) == 5

    def test_nonconvergence_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROTORSIM_MAX_ITER", "1")
        assert run(["sim", "spectrum", "--sites", "7", "--lmax", "1",
                    "--kappa", "0.7", "--k", "2", "--out", tmp_path / "out"]) == 4

    def test_residual_gate_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr("rotorsim.spectra.RESIDUAL_TOL", 1e-30)
        assert run(["sim", "gap", "--sites", "2", "--lmax", "1",
                    "--kappa", "1", "--out", tmp_path / "out"]) == 4

    @pytest.mark.parametrize("flags", [
        ["--mu-stop", "nan"], ["--mu-stop", "inf"], ["--kappa", "nan"],
    ])
    def test_non_finite_input_exit_2(self, tmp_path, flags):
        out = tmp_path / "out"
        assert run(["sim", "charge-scan", "--sites", "2", "--lmax", "1",
                    "--out", out] + flags) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--duration", "inf"], ["--kappa-end", "nan"], ["--kappa-end", "inf"],
        ["--dt", "nan"], ["--dt", "inf"], ["--duration", "1e-320"],
    ])
    def test_non_finite_ramp_input_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run(["sim", "ramp", "--sites", "2", "--lmax", "1",
                    "--out", out] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_ramp_cap_on_m0_sector_exit_5(self, tmp_path):
        # 65536 states in all, 12870 at M = 0: refused before anything is built
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run(["sim", "ramp", "--sites", "8", "--lmax", "1", "--out", out]) == 5
        assert time.perf_counter() - start < 10.0
        assert not out.exists() or not any(out.iterdir())

    def test_non_integral_sites_in_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "chain.json", {"sites": 2.5, "lmax": 1})
        out = tmp_path / "out"
        assert run(["sim", "gap", "--config", cfg, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kappa", [None, [1], {"value": 1}])
    def test_wrong_json_type_in_config_exit_2(self, tmp_path, capsys, kappa):
        cfg = write_config(tmp_path / "chain.json", {"sites": 2, "lmax": 1, "kappa": kappa})
        err = assert_refused(["sim", "gap", "--config", cfg, "--out", tmp_path / "out"],
                             capsys, 2)
        assert err == f"error: sim config key 'kappa': cannot convert {kappa!r} to float\n"

    def test_unparsable_string_in_config_keeps_its_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "chain.json", {"sites": 2, "lmax": 1, "mu": "abc"})
        err = assert_refused(["sim", "gap", "--config", cfg, "--out", tmp_path / "out"],
                             capsys, 2)
        assert err == "error: could not convert string to float: 'abc'\n"

    def test_config_keys_that_are_not_read_exit_2(self, tmp_path, capsys):
        # the ramp settings are flags only, so a config may not hold them
        cfg = write_config(tmp_path / "chain.json", {
            "sites": 2, "lmax": 1, "kappa": 0.0, "kappa_end": 0.5,
            "duration": 1.0, "dt": 0.1, "shape": "smoothstep"})
        out = tmp_path / "out"
        assert run(["sim", "ramp", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown sim config keys: ")
        for key in ("dt", "duration", "kappa_end", "shape"):
            assert repr(key) in err
        assert not out.exists()

    def test_config_of_the_chain_keys_runs(self, tmp_path):
        cfg = write_config(tmp_path / "chain.json", {
            "sites": 2, "lmax": 1, "kappa": 0.5, "mu": 0.0, "boundary": "open"})
        out = tmp_path / "out"
        assert run(["sim", "gap", "--config", cfg, "--out", out]) == 0
        doc = json.loads((out / "gap.json").read_text())
        assert doc["config"] == {"sites": 2, "lmax": 1, "kappa": 0.5, "mu": 0.0,
                                 "boundary": "open"}


def assert_refused(argv, capsys, code):
    """Exit `code` within 10 s with an error line, no traceback, no output file; return stderr."""
    out_dir = argv[argv.index("--out") + 1]
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_dir.exists() or not any(out_dir.iterdir())
    return err


class TestCapsAndExtremeInput:
    def test_ramp_step_cap_exit_5(self, tmp_path, capsys):
        assert_refused(["sim", "ramp", "--sites", "2", "--lmax", "1", "--duration", "1e300",
                        "--out", tmp_path / "out"], capsys, 5)

    def test_scan_steps_cap_exit_5(self, micro_config, tmp_path, capsys):
        assert_refused(["design", "scan", "--config", micro_config, "--parameter", "gamma_m",
                        "--start", "2e-6", "--stop", "3e-6", "--steps", "1000000000000",
                        "--out", tmp_path / "out"], capsys, 5)

    @pytest.mark.parametrize("flags", [
        ["scan", "--parameter", "gamma_m", "--start", "1e-300", "--stop", "1e300",
         "--steps", "5"],
        ["report", "--gamma", "1e-300"],
        ["report", "--magnetic-field", "1e300"],
        ["scan", "--parameter", "magnetic_field_T", "--start", "0", "--stop", "1e300",
         "--steps", "5"],
        ["scan", "--parameter", "gamma_m", "--start", "2e-6", "--stop", "inf", "--steps", "5"],
        ["scan", "--parameter", "gamma_m", "--start", "nan", "--stop", "3e-6", "--steps", "5"],
    ])
    def test_extreme_design_input_exit_2(self, micro_config, tmp_path, capsys, flags):
        assert_refused(["design", flags[0], "--config", micro_config] + flags[1:]
                       + ["--out", tmp_path / "out"], capsys, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", [
        *(("report", flag) for flag in ("--delta", "--rho", "--alpha", "--gamma", "--dx",
                                        "--temperature", "--magnetic-field")),
        ("scan", "--start"), ("scan", "--stop"),
    ])
    def test_non_finite_design_flag_refused_at_parse_time(self, micro_config, tmp_path, capsys,
                                                           command, flag, value):
        argv = ["design", command, "--config", micro_config]
        if command == "scan":
            argv += ["--parameter", "gamma_m", "--start", "2e-6", "--stop", "3e-6",
                     "--steps", "3"]
        err = assert_refused(argv + [f"{flag}={value}", "--out", tmp_path / "out"], capsys, 2)
        assert f"argument {flag}: expected a finite number, got '{value}'" in err

    @pytest.mark.parametrize("gamma", [1e-300, 1e300])
    def test_extreme_from_geometry_exit_2(self, micro_doc, tmp_path, capsys, gamma):
        geometry = write_config(tmp_path / "geometry.json", {**micro_doc, "gamma_m": gamma})
        err = assert_refused(["sim", "gap", "--sites", "2", "--lmax", "1", "--from-geometry",
                              geometry, "--out", tmp_path / "out"], capsys, 2)
        assert err.startswith("error: geometry: ")

    @pytest.mark.parametrize("flags", [
        ["--mu-stop", "inf"], ["--mu-stop", "nan"], ["--mu-start=-inf"],
    ])
    def test_non_finite_mu_range_exit_2(self, tmp_path, capsys, flags):
        assert_refused(["sim", "charge-scan", "--sites", "2", "--lmax", "1",
                        "--out", tmp_path / "out"] + flags, capsys, 2)

    def test_charge_scan_with_nonzero_mu_exit_2(self, tmp_path, capsys):
        # the scan reads mu from its grid, so a --mu it would ignore is refused
        err = assert_refused(["sim", "charge-scan", "--sites", "2", "--lmax", "1", "--kappa",
                              "1", "--mu", "1.5", "--mu-steps", "3", "--out", tmp_path / "out"],
                             capsys, 2)
        assert "mu_tilde must be 0" in err

    @pytest.mark.parametrize("command", ["gap", "correlation", "ramp"])
    def test_nonzero_mu_outside_spectrum_exit_2(self, tmp_path, capsys, command):
        # only spectrum reads mu; every other command works on H alone
        err = assert_refused(["sim", command, "--sites", "4", "--lmax", "1", "--mu", "0.5",
                              "--out", tmp_path / "out"], capsys, 2)
        assert "mu_tilde must be 0" in err
        assert not (tmp_path / "out").exists()

    def test_nonzero_mu_in_config_outside_spectrum_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "chain.json", {"sites": 2, "lmax": 1, "mu": 0.7})
        err = assert_refused(["sim", "gap", "--config", cfg, "--out", tmp_path / "out"],
                             capsys, 2)
        assert "mu_tilde must be 0" in err

    def test_from_geometry_field_runs_only_spectrum(self, micro_doc, tmp_path, capsys):
        # 4 mT derives a nonzero mu_tilde: spectrum runs at it, the others refuse it
        geometry = write_config(tmp_path / "geometry.json",
                                {**micro_doc, "magnetic_field_T": 0.004})
        chain = ["--sites", "4", "--lmax", "1", "--from-geometry", geometry]
        assert run(["sim", "spectrum", *chain, "--out", tmp_path / "spectrum"]) == 0
        doc = json.loads((tmp_path / "spectrum" / "spectrum.json").read_text())
        assert doc["config"]["mu"] == 0.648220778
        capsys.readouterr()
        for command in ("gap", "charge-scan", "correlation", "ramp"):
            err = assert_refused(["sim", command, *chain, "--out", tmp_path / command],
                                 capsys, 2)
            assert "mu_tilde must be 0" in err

    def test_charge_scan_steps_cap_exit_5(self, tmp_path, capsys):
        assert_refused(["sim", "charge-scan", "--sites", "2", "--lmax", "1",
                        "--mu-steps", "10000000000000", "--out", tmp_path / "out"], capsys, 5)

    def test_overflowing_ramp_coupling_exit_2(self, tmp_path, capsys):
        err = assert_refused(["sim", "ramp", "--sites", "2", "--lmax", "1", "--kappa-end",
                              "1.7e308", "--duration", "1", "--out", tmp_path / "out"],
                             capsys, 2)
        assert "kappa * B" in err

    def test_ramp_too_fast_for_its_adiabatic_ratio_exit_2(self, tmp_path, capsys):
        err = assert_refused(["sim", "ramp", "--sites", "2", "--lmax", "1", "--duration",
                              "1e-300", "--out", tmp_path / "out"], capsys, 2)
        assert "adiabatic matrix element" in err

    def test_overflowing_charge_scan_grid_exit_2(self, tmp_path, capsys):
        err = assert_refused(["sim", "charge-scan", "--sites", "2", "--lmax", "1",
                              "--mu-start", "1e300", "--mu-stop", "1.7e308",
                              "--out", tmp_path / "out"], capsys, 2)
        assert "mu * M" in err

    def test_spectrum_solve_cap_exit_5(self, tmp_path, capsys, monkeypatch):
        # k = 50000 would densify the 48620-state M = 0 block of 9x1 (18.9 GB);
        # the cap refuses it before any eigensolver runs
        def unreachable(*args, **kwargs):
            raise AssertionError("an eigensolver ran before the solve cap was checked")
        monkeypatch.setattr("numpy.linalg.eigh", unreachable)
        monkeypatch.setattr("scipy.sparse.linalg.eigsh", unreachable)
        err = assert_refused(["sim", "spectrum", "--sites", "9", "--lmax", "1", "--k", "50000",
                              "--out", tmp_path / "out"], capsys, 5)
        assert "48620-state sector" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_spectrum_without_levels_exit_2(self, tmp_path, capsys, k):
        err = assert_refused(["sim", "spectrum", "--sites", "2", "--lmax", "1", "--k", k,
                              "--out", tmp_path / "out"], capsys, 2)
        assert f"k={k}" in err and "dimension" not in err


EXTREME_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-300, 1e300, -1e300,
                     5e-324, 1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-9, max_value=1e-5),
)
# small grids, or grids past the cap, which are refused before they are built
SCAN_STEPS = st.one_of(st.integers(2, 6), st.integers(-2, 1),
                       st.integers(SCAN_STEPS_CAP + 1, 10**13))
GEOMETRY_FLAGS = ["--delta", "--rho", "--alpha", "--gamma", "--dx",
                  "--temperature", "--magnetic-field"]


@st.composite
def design_argv(draw):
    overrides = draw(st.dictionaries(st.sampled_from(GEOMETRY_FLAGS), EXTREME_FLOATS,
                                     max_size=2))
    argv = ["--config", str(bundled_config(draw(st.sampled_from(["micro", "nano"]))))]
    for flag, value in overrides.items():
        argv.append(f"{flag}={value!r}")  # "=" keeps argparse off "-inf"
    if draw(st.booleans()):
        return ["design", "report"] + argv
    parameter = draw(st.sampled_from(sorted(SCAN_PARAMETERS) + ["voltage_V"]))
    start = draw(EXTREME_FLOATS)
    stop = draw(st.one_of(EXTREME_FLOATS, st.floats(1.0, 1e6).map(lambda f: f * start)))
    return (["design", "scan", "--parameter", parameter, f"--start={start!r}",
             f"--stop={stop!r}", f"--steps={draw(SCAN_STEPS)}"] + argv)


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(design_argv())
def test_design_cli_exit_codes_property(argv):
    with tempfile.TemporaryDirectory() as out:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv + ["--out", out])
    assert code in (0, 2, 3, 5)


# a lowered step cap keeps every ramp example fast: a ramp whose error test
# halves dt past it exits 5 at once
PROPERTY_STEP_CAP = 16
# hostile floats, among them the overflowing kappa_end and mu grid ends, and
# ordinary ones often enough that the solvers run too
SIM_FLOATS = st.one_of(EXTREME_FLOATS, st.sampled_from([1e300, 1e308, 1.7e308]),
                       st.floats(0.0, 4.0))
MICRO_GEOMETRY = json.loads(bundled_config("micro").read_text())


@st.composite
def sim_argv(draw):
    """(argv, geometry document or None) for a small chain and hostile floats."""
    argv = ["sim", draw(st.sampled_from(["spectrum", "gap", "charge-scan", "correlation",
                                         "ramp"])),
            f"--sites={draw(st.integers(1, 3))}", f"--lmax={draw(st.integers(1, 2))}",
            f"--k={draw(st.integers(-1, 8))}", f"--mu-steps={draw(SCAN_STEPS)}",
            f"--shape={draw(st.sampled_from(['linear', 'smoothstep']))}"]
    for flag in ("--kappa", "--mu-start", "--mu-stop", "--kappa-end"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(SIM_FLOATS)!r}")
    # each is rarely set, as most commands refuse a nonzero mu or a periodic chain < 3 sites
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--mu={draw(SIM_FLOATS)!r}")
    if draw(st.integers(0, 3)) == 0:
        argv.append("--boundary=periodic")
    # a step count that is tiny, or past the cap and refused before anything is built
    dt = draw(SIM_FLOATS)
    steps = draw(st.one_of(st.integers(1, 3), st.integers(PROPERTY_STEP_CAP + 1, 10**13)))
    argv += [f"--dt={dt!r}", f"--duration={dt * steps!r}"]
    geometry = None
    if draw(st.booleans()):
        geometry = {**MICRO_GEOMETRY, **draw(st.dictionaries(
            st.sampled_from(sorted(MICRO_GEOMETRY)), EXTREME_FLOATS, max_size=2))}
    return argv, geometry


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sim_argv())
def test_sim_cli_exit_codes_property(case):
    argv, geometry = case
    with tempfile.TemporaryDirectory() as out:
        if geometry is not None:
            path = f"{out}/geometry.json"
            with open(path, "w") as fh:
                json.dump(geometry, fh)
            argv = argv + ["--from-geometry", path]
        with warnings.catch_warnings(), \
                mock.patch("rotorsim.dynamics.DYNAMICS_STEP_CAP", PROPERTY_STEP_CAP):
            warnings.simplefilter("ignore")
            code = main(argv + ["--out", f"{out}/run"])
    assert code in (0, 2, 3, 4, 5)


BYTE_IDENTITY_RUNS = {
    "report": ["design", "report"],
    "scan_temperature": ["design", "scan", "--parameter", "temperature_K", "--start", "5e-6",
                         "--stop", "2e-5", "--steps", "40", "--format", "both"],
    "scan_field_from_zero": ["design", "scan", "--parameter", "magnetic_field_T", "--start",
                             "0", "--stop", "0.01", "--steps", "40", "--format", "both"],
    "spectrum": ["sim", "spectrum", "--sites", "3", "--lmax", "1", "--kappa", "1.3"],
    "spectrum_mu": ["sim", "spectrum", "--sites", "2", "--lmax", "2", "--kappa", "0.7",
                    "--mu", "-0.4"],
    "gap": ["sim", "gap", "--sites", "3", "--lmax", "1", "--kappa", "0"],
    "charge_scan": ["sim", "charge-scan", "--sites", "3", "--lmax", "1", "--kappa", "1",
                    "--mu-stop", "3.3", "--mu-steps", "12"],
    "correlation": ["sim", "correlation", "--sites", "4", "--lmax", "1", "--kappa", "1.1"],
    "ramp": ["sim", "ramp", "--sites", "2", "--lmax", "1", "--kappa-end", "0.8",
             "--duration", "3"],
}


def run_and_collect(root, capsys, micro_config):
    """{name: (exit code, stdout, {file: bytes})} for every byte-identity run."""
    results = {}
    for name, argv in BYTE_IDENTITY_RUNS.items():
        out = root / name
        config = ["--config", micro_config] if argv[0] == "design" else ["--format", "both"]
        code = run(argv + config + ["--out", out])
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        results[name] = (code, capsys.readouterr().out, files)
    return results


def test_cli_outputs_byte_identical_to_the_stdlib_writer(tmp_path, capsys, micro_config):
    fast = run_and_collect(tmp_path / "fast", capsys, micro_config)
    with mock.patch("rotorsim.serialize.to_json_text", oracle_json_text), \
            mock.patch("rotorsim.serialize.to_csv_text", oracle_csv_text):
        oracle = run_and_collect(tmp_path / "oracle", capsys, micro_config)
    assert [code for code, _, _ in fast.values()] == [0] * len(BYTE_IDENTITY_RUNS)
    assert sum(len(files) for _, _, files in fast.values()) == 16
    for name in BYTE_IDENTITY_RUNS:
        assert fast[name] == oracle[name], name
