"""Batch command-line front end.

Commands:
    rotorsim design report   -- feasibility report for one geometry
    rotorsim design scan     -- one-parameter feasibility sweep (CSV)
    rotorsim sim spectrum    -- low-lying levels of a chain
    rotorsim sim gap         -- mass gap and degeneracy
    rotorsim sim charge-scan -- ground-state charge vs chemical potential
    rotorsim sim correlation -- correlation profile from the central site
    rotorsim sim ramp        -- adiabatic switch-on propagation

Inputs are JSON config files plus flag overrides (flags win); the geometry
and environment keys are those of design.SCAN_PARAMETERS, the chain keys
those of SIM_KEYS. Every command writes <name>.csv when --format is csv or
both and it has a table, and <name>.json unless --format csv picked a table.
Exit codes, mapped in main only: 0 ok, 2 invalid input, 3 infeasible design,
4 solver non-convergence, 5 resource cap exceeded.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import design
from .design import SCAN_PARAMETERS, DesignError, Environment, Geometry
from .dynamics import RampSchedule, propagate
from .lattice import ChainSpec, DimensionCapError
from .serialize import write_csv, write_json
from .spectra import NonConvergenceError, charge_scan, correlation_profile, mass_gap, spectrum

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4
EXIT_RESOURCE_CAP = 5

# sim config key and flag -> (ChainSpec field, default); a default's type converts the value.
# mu is no ChainSpec field: it is spectrum's mu_tilde, and every other command needs it 0
SIM_KEYS = {
    "sites": ("n_sites", None),
    "lmax": ("l_max", None),
    "kappa": ("kappa", 0.0),
    "mu": (None, 0.0),
    "boundary": ("boundary", "open"),
}


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


def _fields(doc: dict, target: str) -> dict:
    """The config values of one SCAN_PARAMETERS target as floats, by attribute."""
    try:
        return {attr: float(doc.get(key, 0.0))
                for key, (owner, attr) in SCAN_PARAMETERS.items() if owner == target}
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_INVALID, f"invalid geometry config value: {exc}")


def _geometry_environment(doc: dict):
    unknown = set(doc) - set(SCAN_PARAMETERS)
    if unknown:
        raise CliError(EXIT_INVALID, f"unknown geometry config keys: {sorted(unknown)}")
    missing = {key for key, (owner, _) in SCAN_PARAMETERS.items()
               if owner == "geometry"} - set(doc)
    if missing:
        raise CliError(EXIT_INVALID, f"missing geometry config keys: {sorted(missing)}")
    return Geometry(**_fields(doc, "geometry")), Environment(**_fields(doc, "environment"))


def _geometry_doc(geom: Geometry, env: Environment) -> dict:
    owners = {"geometry": geom, "environment": env}
    return {key: getattr(owners[owner], attr) for key, (owner, attr) in SCAN_PARAMETERS.items()}


def _resolve_geometry(args) -> tuple:
    doc = _load_config(args.config) if args.config else {}
    for key in SCAN_PARAMETERS:
        flag = getattr(args, key.rsplit("_", 1)[0])
        if flag is not None:
            doc[key] = flag
    return _geometry_environment(doc)


def _write(args, stem, doc, header=None, rows=None):
    """<stem>.csv if --format is csv or both and rows are given; <stem>.json unless only that."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = rows is not None and args.format in ("csv", "both")
    if table:
        write_csv(out / f"{stem}.csv", header, rows)
    if not (table and args.format == "csv"):
        write_json(out / f"{stem}.json", doc)


def cmd_design_report(args) -> int:
    geom, env = _resolve_geometry(args)
    report = design.feasibility(geom, env)
    _write(args, "feasibility_report", {
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
    })
    print(f"overall verdict: {report.overall_verdict}")
    if report.overall_verdict == "fail" or (report.overall_verdict == "warn" and args.strict):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_design_scan(args) -> int:
    geom, env = _resolve_geometry(args)
    rows = design.scan(geom, env, args.parameter, args.start, args.stop, args.steps)
    header = list(rows[0].keys())
    _write(args, "design_scan",
           {"config": _geometry_doc(geom, env), "parameter": args.parameter, "rows": rows},
           header, [[row[h] for h in header] for row in rows])
    print(f"wrote {len(rows)} scan rows")
    return EXIT_OK


def _chain_spec(args):
    """(ChainSpec, config): config holds every SIM_KEYS value, mu among them."""
    doc = _load_config(args.config) if args.config else {}
    unknown = set(doc) - set(SIM_KEYS)
    if unknown:
        raise CliError(EXIT_INVALID, f"unknown sim config keys: {sorted(unknown)}")
    params = {key: doc.get(key, default) if getattr(args, key) is None else getattr(args, key)
              for key, (_, default) in SIM_KEYS.items()}
    if args.from_geometry:
        geom, env = _geometry_environment(_load_config(args.from_geometry))
        try:
            eff = design.effective_params(geom)
            mu_tilde = design.chemical_potential(env.magnetic_field) / eff.rotational_quantum
        except (ZeroDivisionError, OverflowError):
            raise DesignError("geometry", f"kappa or mu_tilde divides by zero or overflows "
                                          f"for {geom}") from None
        print(f"derived from geometry: g_eff = {eff.effective_coupling:.9g}, "
              f"kappa = rotor_coupling = {eff.rotor_coupling:.9g}, mu_tilde = {mu_tilde:.9g}")
        params.update(kappa=eff.rotor_coupling, mu=mu_tilde)
    if params["sites"] is None or params["lmax"] is None:
        raise CliError(EXIT_INVALID, "sites and lmax are required (flags or config)")
    config = {key: params[key] if default is None else _convert(key, params[key], type(default))
              for key, (_, default) in SIM_KEYS.items()}
    spec = ChainSpec(**{field: config[key] for key, (field, _) in SIM_KEYS.items() if field})
    return spec, config


def _convert(key, value, kind):
    """kind(value); a JSON value of the wrong type (null, list, object) is invalid input."""
    try:
        return kind(value)
    except TypeError:
        raise CliError(EXIT_INVALID, f"sim config key {key!r}: cannot convert {value!r} "
                                     f"to {kind.__name__}") from None


def cmd_sim(args) -> int:
    spec, config = _chain_spec(args)
    if config["mu"] != 0.0 and args.subcommand != "spectrum":
        raise CliError(EXIT_INVALID, f"mu_tilde must be 0 for sim {args.subcommand}, got "
                                     f"{config['mu']!r}; only sim spectrum takes mu")
    if args.subcommand == "spectrum":
        res = spectrum(spec, k=args.k, mu_tilde=config["mu"])
        _write(args, "spectrum", {
            "config": config,
            "method": res.method,
            "eigenvalues": res.eigenvalues,
            "sector_labels": res.sector_labels,
            "residual_norms": res.residual_norms,
        }, ["index", "energy", "sector", "residual"],
            [[i, energy, int(label), residual] for i, (energy, label, residual)
             in enumerate(zip(res.eigenvalues, res.sector_labels, res.residual_norms))])
        print(f"lowest level: {res.eigenvalues[0]:.9g}")
    elif args.subcommand == "gap":
        gap, degeneracy = mass_gap(spec)
        _write(args, "gap", {"config": config, "gap": gap, "degeneracy": degeneracy})
        print(f"gap = {gap:.9g}, degeneracy = {degeneracy}")
    elif args.subcommand == "charge-scan":
        if args.mu_steps > design.SCAN_STEPS_CAP:
            raise CliError(EXIT_RESOURCE_CAP, f"{args.mu_steps} mu steps exceed the scan "
                                              f"cap {design.SCAN_STEPS_CAP}")
        scan_res = charge_scan(spec, np.linspace(args.mu_start, args.mu_stop, args.mu_steps))
        _write(args, "charge_scan", {
            "config": config,
            "mu_values": scan_res.mu_values,
            "ground_charge": scan_res.ground_charge,
            "ground_energy": scan_res.ground_energy,
            "critical_mu": scan_res.critical_mu,
        }, ["mu", "Q", "energy"],
            list(zip(scan_res.mu_values, scan_res.ground_charge, scan_res.ground_energy)))
        print(f"critical_mu = {scan_res.critical_mu}")
    elif args.subcommand == "correlation":
        profile = correlation_profile(spec)
        _write(args, "correlation", {
            "config": config,
            "distances": profile.distances,
            "values": profile.values,
            "fitted_xi": profile.fitted_xi,
            "fit_quality": profile.fit_quality,
        }, ["distance", "value"], list(zip(profile.distances, profile.values)))
        print(f"fitted_xi = {profile.fitted_xi}")
    else:  # ramp
        schedule = RampSchedule(kappa_start=spec.kappa, kappa_end=args.kappa_end,
                                duration=args.duration, shape=args.shape)
        result = propagate(spec, schedule, dt=args.dt,
                           record_trace=args.format in ("csv", "both"))
        _write(args, "ramp", {
            "config": {**config, "kappa_end": args.kappa_end, "duration": args.duration,
                       "dt": args.dt, "shape": args.shape},
            "final_fidelity": result.final_fidelity,
            "norm_drift": result.norm_drift,
            "max_adiabatic_ratio": result.max_adiabatic_ratio,
            "step_count": result.step_count,
            "accepted_dt": result.accepted_dt,
        }, ["t", "fidelity_to_instantaneous_gs", "norm", "kappa"], result.trace)
        print(f"final fidelity = {result.final_fidelity:.9g}")
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
    for key, (_, attr) in SCAN_PARAMETERS.items():
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
    p_sim.add_argument("--mu", type=float, help="chemical potential mu_tilde; spectrum only")
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
        error, code = exc, exc.exit_code
    except DimensionCapError as exc:
        error, code = exc, EXIT_RESOURCE_CAP
    except NonConvergenceError as exc:
        error, code = exc, EXIT_NONCONVERGED
    except ValueError as exc:  # InvalidSpecError and DesignError among them
        error, code = exc, EXIT_INVALID
    print(f"error: {error}", file=sys.stderr)
    return code


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
