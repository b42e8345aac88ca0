"""Batch command-line front end.

Commands:
    rotorsim design report   -- feasibility report for one geometry
    rotorsim design scan     -- one-parameter feasibility sweep (CSV)
    rotorsim sim spectrum    -- low-lying levels of a chain
    rotorsim sim gap         -- mass gap and degeneracy
    rotorsim sim charge-scan -- ground-state charge vs chemical potential
    rotorsim sim correlation -- correlation profile from the central site
    rotorsim sim ramp        -- adiabatic switch-on propagation

Inputs are JSON config files plus flag overrides (flags win). Exit
codes: 0 ok, 2 invalid input, 3 infeasible design, 4 solver
non-convergence, 5 resource cap exceeded.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import design
from .design import DesignError, Environment, Geometry
from .dynamics import RampSchedule, propagate
from .lattice import ChainSpec, DimensionCapError, InvalidSpecError
from .serialize import write_csv, write_json
from .spectra import NonConvergenceError, charge_scan, correlation_profile, mass_gap, spectrum

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4
EXIT_RESOURCE_CAP = 5

GEOMETRY_KEYS = {
    "delta_m": "wire_radius",
    "rho_m": "insulating_sphere_radius",
    "alpha_m": "conducting_sphere_radius",
    "gamma_m": "sphere_gap",
    "dx_m": "lattice_spacing",
}
ENVIRONMENT_KEYS = {
    "temperature_K": "temperature",
    "magnetic_field_T": "magnetic_field",
}
SIM_KEYS = {"sites", "lmax", "kappa", "mu", "boundary"}


class CliError(Exception):
    def __init__(self, exit_code, message):
        self.exit_code = exit_code
        super().__init__(message)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_INVALID, f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INVALID, f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError(EXIT_INVALID, f"config {path} must be a JSON object")
    return doc


def _geometry_environment(doc: dict):
    unknown = set(doc) - set(GEOMETRY_KEYS) - set(ENVIRONMENT_KEYS)
    if unknown:
        raise CliError(EXIT_INVALID, f"unknown geometry config keys: {sorted(unknown)}")
    missing = set(GEOMETRY_KEYS) - set(doc)
    if missing:
        raise CliError(EXIT_INVALID, f"missing geometry config keys: {sorted(missing)}")
    try:
        geom = Geometry(**{attr: float(doc[key]) for key, attr in GEOMETRY_KEYS.items()})
        env = Environment(**{attr: float(doc.get(key, 0.0))
                             for key, attr in ENVIRONMENT_KEYS.items()})
    except DesignError as exc:
        raise CliError(EXIT_INVALID, str(exc))
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_INVALID, f"invalid geometry config value: {exc}")
    return geom, env


def _geometry_doc(geom: Geometry, env: Environment) -> dict:
    doc = {key: getattr(geom, attr) for key, attr in GEOMETRY_KEYS.items()}
    doc.update({key: getattr(env, attr) for key, attr in ENVIRONMENT_KEYS.items()})
    return doc


def _resolve_geometry(args) -> tuple:
    doc = _load_config(args.config) if args.config else {}
    for key in list(GEOMETRY_KEYS) + list(ENVIRONMENT_KEYS):
        flag = getattr(args, key.rsplit("_", 1)[0], None)
        if flag is not None:
            doc[key] = flag
    return _geometry_environment(doc)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_document(geom, env, report) -> dict:
    return {
        "config": _geometry_doc(geom, env),
        "effective": vars(report.effective),
        "hierarchy_ratios": [list(entry) for entry in report.hierarchy_ratios],
        "inductance_ratio": report.inductance_ratio,
        "inductance_verdict": report.inductance_verdict,
        "temperature_ratio": report.temperature_ratio,
        "temperature_verdict": report.temperature_verdict,
        "chemical_potential": report.chemical_potential,
        "second_order_zeeman_ratio": report.second_order_zeeman_ratio,
        "critical_field_is_order_estimate": True,
        "overall_verdict": report.overall_verdict,
    }


def cmd_design_report(args) -> int:
    geom, env = _resolve_geometry(args)
    report = design.feasibility(geom, env)
    out = _outdir(args)
    write_json(out / "feasibility_report.json", _report_document(geom, env, report))
    print(f"overall verdict: {report.overall_verdict}")
    if report.overall_verdict == "fail":
        return EXIT_INFEASIBLE
    if report.overall_verdict == "warn" and args.strict:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_design_scan(args) -> int:
    geom, env = _resolve_geometry(args)
    try:
        rows = design.scan(geom, env, args.parameter, args.start, args.stop, args.steps)
    except DimensionCapError as exc:
        raise CliError(EXIT_RESOURCE_CAP, str(exc))
    except DesignError as exc:
        raise CliError(EXIT_INVALID, str(exc))
    out = _outdir(args)
    if args.format in ("csv", "both"):
        header = list(rows[0].keys())
        write_csv(out / "design_scan.csv", header, [[row[h] for h in header] for row in rows])
    if args.format in ("json", "both"):
        write_json(out / "design_scan.json",
                   {"config": _geometry_doc(geom, env),
                    "parameter": args.parameter, "rows": rows})
    print(f"wrote {len(rows)} scan rows")
    return EXIT_OK


def _chain_spec(args) -> ChainSpec:
    doc = _load_config(args.config) if args.config else {}
    unknown = set(doc) - SIM_KEYS
    if unknown:
        raise CliError(EXIT_INVALID, f"unknown sim config keys: {sorted(unknown)}")
    params = {
        "sites": args.sites if args.sites is not None else doc.get("sites"),
        "lmax": args.lmax if args.lmax is not None else doc.get("lmax"),
        "kappa": args.kappa if args.kappa is not None else doc.get("kappa", 0.0),
        "mu": args.mu if args.mu is not None else doc.get("mu", 0.0),
        "boundary": args.boundary or doc.get("boundary", "open"),
    }
    if args.from_geometry:
        geom, env = _geometry_environment(_load_config(args.from_geometry))
        try:
            g_eff = design.effective_coupling(geom)
            kappa = 9.0 / g_eff**4
            mu_eff = design.chemical_potential(env.magnetic_field, geom)
            mu_tilde = mu_eff / design.rotational_quantum(geom)
        except (ZeroDivisionError, OverflowError):
            raise DesignError("geometry", f"kappa or mu_tilde divides by zero or overflows "
                                          f"for {geom}") from None
        print(f"derived from geometry: g_eff = {g_eff:.9g}, "
              f"kappa = 9/g_eff^4 = {kappa:.9g}, mu_tilde = {mu_tilde:.9g}")
        params["kappa"] = kappa
        params["mu"] = mu_tilde
    if params["sites"] is None or params["lmax"] is None:
        raise CliError(EXIT_INVALID, "sites and lmax are required (flags or config)")
    try:
        return ChainSpec(
            n_sites=params["sites"],
            l_max=params["lmax"],
            kappa=float(params["kappa"]),
            boundary=str(params["boundary"]),
            mu_tilde=float(params["mu"]),
        )
    except DimensionCapError as exc:
        raise CliError(EXIT_RESOURCE_CAP, str(exc))
    except (InvalidSpecError, ValueError) as exc:
        raise CliError(EXIT_INVALID, str(exc))


def _spec_doc(spec: ChainSpec) -> dict:
    return {
        "sites": spec.n_sites,
        "lmax": spec.l_max,
        "kappa": spec.kappa,
        "mu": spec.mu_tilde,
        "boundary": spec.boundary,
    }


def cmd_sim(args) -> int:
    spec = _chain_spec(args)
    out = _outdir(args)
    want_csv = args.format in ("csv", "both")
    try:
        if args.subcommand == "spectrum":
            res = spectrum(spec, k=args.k)
            doc = {
                "config": _spec_doc(spec),
                "method": res.method,
                "eigenvalues": res.eigenvalues,
                "sector_labels": res.sector_labels,
                "residual_norms": res.residual_norms,
            }
            write_json(out / "spectrum.json", doc)
            if want_csv:
                rows = [
                    [i, res.eigenvalues[i], int(res.sector_labels[i]), res.residual_norms[i]]
                    for i in range(len(res.eigenvalues))
                ]
                write_csv(out / "spectrum.csv", ["index", "energy", "sector", "residual"], rows)
            print(f"lowest level: {res.eigenvalues[0]:.9g}")
        elif args.subcommand == "gap":
            gap, degeneracy = mass_gap(spec)
            write_json(out / "gap.json", {
                "config": _spec_doc(spec), "gap": gap, "degeneracy": degeneracy,
            })
            print(f"gap = {gap:.9g}, degeneracy = {degeneracy}")
        elif args.subcommand == "charge-scan":
            if args.mu_steps > design.SCAN_STEPS_CAP:
                raise CliError(EXIT_RESOURCE_CAP, f"{args.mu_steps} mu steps exceed the scan "
                                                  f"cap {design.SCAN_STEPS_CAP}")
            grid = np.linspace(args.mu_start, args.mu_stop, args.mu_steps)
            scan_res = charge_scan(spec, grid)
            write_json(out / "charge_scan.json", {
                "config": _spec_doc(spec),
                "mu_values": scan_res.mu_values,
                "ground_charge": scan_res.ground_charge,
                "ground_energy": scan_res.ground_energy,
                "critical_mu": scan_res.critical_mu,
            })
            if want_csv:
                rows = list(zip(scan_res.mu_values, scan_res.ground_charge,
                                scan_res.ground_energy))
                write_csv(out / "charge_scan.csv", ["mu", "Q", "energy"], rows)
            print(f"critical_mu = {scan_res.critical_mu}")
        elif args.subcommand == "correlation":
            profile = correlation_profile(spec)
            write_json(out / "correlation.json", {
                "config": _spec_doc(spec),
                "distances": profile.distances,
                "values": profile.values,
                "fitted_xi": profile.fitted_xi,
                "fit_quality": profile.fit_quality,
            })
            if want_csv:
                rows = list(zip(profile.distances, profile.values))
                write_csv(out / "correlation.csv", ["distance", "value"], rows)
            print(f"fitted_xi = {profile.fitted_xi}")
        elif args.subcommand == "ramp":
            schedule = RampSchedule(
                kappa_start=spec.kappa, kappa_end=args.kappa_end,
                duration=args.duration, shape=args.shape,
            )
            result = propagate(spec, schedule, dt=args.dt, record_trace=want_csv)
            write_json(out / "ramp.json", {
                "config": {**_spec_doc(spec), "kappa_end": args.kappa_end,
                           "duration": args.duration, "dt": args.dt, "shape": args.shape},
                "final_fidelity": result.final_fidelity,
                "norm_drift": result.norm_drift,
                "max_adiabatic_ratio": result.max_adiabatic_ratio,
                "step_count": result.step_count,
                "accepted_dt": result.accepted_dt,
            })
            if want_csv and result.trace is not None:
                write_csv(out / "ramp.csv",
                          ["t", "fidelity_to_instantaneous_gs", "norm", "kappa"],
                          result.trace)
            print(f"final fidelity = {result.final_fidelity:.9g}")
        else:  # pragma: no cover - argparse restricts choices
            raise CliError(EXIT_INVALID, f"unknown sim subcommand {args.subcommand!r}")
    except DimensionCapError as exc:
        raise CliError(EXIT_RESOURCE_CAP, str(exc))
    except NonConvergenceError as exc:
        raise CliError(EXIT_NONCONVERGED, str(exc))
    except (InvalidSpecError, ValueError) as exc:
        raise CliError(EXIT_INVALID, str(exc))
    return EXIT_OK


def finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports bad argv as invalid input (exit 2 from main) instead of exiting."""

    def error(self, message):
        raise CliError(EXIT_INVALID, f"{self.prog}: {message}")


def _add_geometry_flags(parser):
    parser.add_argument("--config", help="geometry/environment JSON file")
    for key, attr in {**GEOMETRY_KEYS, **ENVIRONMENT_KEYS}.items():
        name, unit = key.rsplit("_", 1)  # the flag _resolve_geometry reads
        parser.add_argument("--" + name.replace("_", "-"), type=finite_float,
                            help=f"{attr.replace('_', ' ')}, {unit}")


def _add_common_flags(parser):
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rotorsim", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    p_design = top.add_parser("design", help="feasibility analysis")
    design_sub = p_design.add_subparsers(dest="subcommand", required=True)

    p_report = design_sub.add_parser("report", help="single feasibility report")
    _add_geometry_flags(p_report)
    _add_common_flags(p_report)
    p_report.add_argument("--strict", action="store_true",
                          help="treat warn verdicts as infeasible")
    p_report.set_defaults(func=cmd_design_report)

    p_scan = design_sub.add_parser("scan", help="one-parameter sweep")
    _add_geometry_flags(p_scan)
    _add_common_flags(p_scan)
    p_scan.add_argument("--parameter", required=True)
    p_scan.add_argument("--start", type=finite_float, required=True)
    p_scan.add_argument("--stop", type=finite_float, required=True)
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.set_defaults(func=cmd_design_scan)

    p_sim = top.add_parser("sim", help="chain simulation")
    p_sim.add_argument("subcommand",
                       choices=["spectrum", "gap", "charge-scan", "correlation", "ramp"])
    p_sim.add_argument("--config", help="chain spec JSON file")
    p_sim.add_argument("--sites", type=int)
    p_sim.add_argument("--lmax", type=int)
    p_sim.add_argument("--kappa", type=float)
    p_sim.add_argument("--mu", type=float)
    p_sim.add_argument("--boundary", choices=["open", "periodic"])
    p_sim.add_argument("--from-geometry", dest="from_geometry",
                       help="derive kappa and mu from a geometry JSON file")
    p_sim.add_argument("--k", type=int, default=6, help="levels for spectrum")
    p_sim.add_argument("--mu-start", type=finite_float, default=0.0)
    p_sim.add_argument("--mu-stop", type=finite_float, default=4.0)
    p_sim.add_argument("--mu-steps", type=int, default=17)
    p_sim.add_argument("--kappa-end", type=float, default=0.5)
    p_sim.add_argument("--duration", type=float, default=100.0)
    p_sim.add_argument("--dt", type=float, default=0.05)
    p_sim.add_argument("--shape", choices=["linear", "smoothstep"], default="linear")
    _add_common_flags(p_sim)
    p_sim.set_defaults(func=cmd_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
