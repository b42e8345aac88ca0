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
A document's fields after the config are its command's result record's, in
order; sim gap and design scan, which have no record, list theirs literally.
Exit codes, mapped in main only: 0 ok, 2 invalid input, 3 infeasible design,
4 solver non-convergence, 5 resource cap exceeded.
"""

import argparse
import dataclasses
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import design
from .design import SCAN_PARAMETERS, Environment, Geometry
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
    return {attr: _convert(key, doc.get(key, 0.0), float, "geometry")
            for key, (owner, attr) in SCAN_PARAMETERS.items() if owner == target}


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


def _record(result, omit=None) -> dict:
    """dataclasses.asdict(result) less the field named omit."""
    return {key: value for key, value in dataclasses.asdict(result).items() if key != omit}


def cmd_design_report(args) -> int:
    geom, env = _resolve_geometry(args)
    report = design.feasibility(geom, env)
    _write(args, "feasibility_report", {
        "config": _geometry_doc(geom, env), **_record(report, "overall_verdict"),
        "critical_field_is_order_estimate": True, "overall_verdict": report.overall_verdict})
    print(f"overall verdict: {report.overall_verdict}")
    if report.overall_verdict == "fail" or (report.overall_verdict == "warn" and args.strict):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_design_scan(args) -> int:
    geom, env = _resolve_geometry(args)
    # one Table in both files, so its float cells are formatted once
    table = design.scan(geom, env, args.parameter, args.start, args.stop, args.steps)
    _write(args, "design_scan",
           {"config": _geometry_doc(geom, env), "parameter": args.parameter, "rows": table},
           table.header, table)
    print(f"wrote {len(table)} scan rows")
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
        report = design.feasibility(*_geometry_environment(_load_config(args.from_geometry)))
        eff = report.effective
        mu_tilde = report.chemical_potential / eff.rotational_quantum
        print(f"derived from geometry: g_eff = {eff.effective_coupling:.9g}, "
              f"kappa = rotor_coupling = {eff.rotor_coupling:.9g}, mu_tilde = {mu_tilde:.9g}")
        params.update(kappa=eff.rotor_coupling, mu=mu_tilde)
    if params["sites"] is None or params["lmax"] is None:
        raise CliError(EXIT_INVALID, "sites and lmax are required (flags or config)")
    config = {key: params[key] if default is None else _convert(key, params[key], type(default))
              for key, (_, default) in SIM_KEYS.items()}
    spec = ChainSpec(**{field: config[key] for key, (field, _) in SIM_KEYS.items() if field})
    return spec, config


def _convert(key, value, kind, section="sim"):
    """kind(value); a JSON value of the wrong type (true, false, null, list, object) is
    invalid input."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except TypeError:
            pass
    raise CliError(EXIT_INVALID, f"{section} config key {key!r}: cannot convert {value!r} "
                                 f"to {kind.__name__}")


def cmd_sim(args) -> int:
    spec, config = _chain_spec(args)
    if config["mu"] != 0.0 and args.subcommand != "spectrum":
        raise CliError(EXIT_INVALID, f"mu_tilde must be 0 for sim {args.subcommand}, got "
                                     f"{config['mu']!r}; only sim spectrum takes mu")
    if args.subcommand == "spectrum":
        res = spectrum(spec, k=args.k, mu_tilde=config["mu"])
        _write(args, "spectrum", {"config": config, **_record(res, "eigenvectors")},
               ["index", "energy", "sector", "residual"],
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
        _write(args, "charge_scan", {"config": config, **_record(scan_res)},
               ["mu", "Q", "energy"],
               list(zip(scan_res.mu_values, scan_res.ground_charge, scan_res.ground_energy)))
        print(f"critical_mu = {scan_res.critical_mu}")
    elif args.subcommand == "correlation":
        profile = correlation_profile(spec)
        _write(args, "correlation", {"config": config, **_record(profile)},
               ["distance", "value"], list(zip(profile.distances, profile.values)))
        xi = profile.fitted_xi
        print("fitted_xi = None" if xi is None else f"fitted_xi = {xi:.9g}")
    else:  # ramp
        schedule = RampSchedule(kappa_start=spec.kappa, kappa_end=args.kappa_end,
                                duration=args.duration, shape=args.shape)
        result = propagate(spec, schedule, dt=args.dt,
                           record_trace=args.format in ("csv", "both"))
        _write(args, "ramp", {
            "config": {**config, "kappa_end": args.kappa_end, "duration": args.duration,
                       "dt": args.dt, "shape": args.shape},
            **_record(result, "trace"),
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


def _add_chain_flags(parser):
    parser.add_argument("--config", help="chain spec JSON file")
    parser.add_argument("--sites", type=int)
    parser.add_argument("--lmax", type=int)
    parser.add_argument("--kappa", type=float)
    parser.add_argument("--mu", type=float, help="chemical potential mu_tilde; spectrum only")
    parser.add_argument("--boundary", choices=["open", "periodic"])
    parser.add_argument("--from-geometry", dest="from_geometry",
                        help="derive kappa and mu from a geometry JSON file")


def _add_common_flags(parser):
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")


@cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rotorsim", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    p_design = top.add_parser("design", help="feasibility analysis")
    design_sub = p_design.add_subparsers(dest="subcommand", required=True)

    # no abbreviations: --sta is not --start, as in every sim command
    p_report = design_sub.add_parser("report", help="single feasibility report",
                                     allow_abbrev=False)
    _add_geometry_flags(p_report)
    _add_common_flags(p_report)
    p_report.add_argument("--strict", action="store_true",
                          help="treat warn verdicts as infeasible")
    p_report.set_defaults(func=cmd_design_report)

    p_scan = design_sub.add_parser("scan", help="one-parameter sweep", allow_abbrev=False)
    _add_geometry_flags(p_scan)
    _add_common_flags(p_scan)
    p_scan.add_argument("--parameter", required=True)
    p_scan.add_argument("--start", type=finite_float, required=True)
    p_scan.add_argument("--stop", type=finite_float, required=True)
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.set_defaults(func=cmd_design_scan)

    p_sim = top.add_parser("sim", help="chain simulation")
    sim_sub = p_sim.add_subparsers(dest="subcommand", required=True)
    # each command takes the chain flags and only the flags it reads; no
    # abbreviations, so --k cannot stand for --kappa where --k is not taken
    sim = {name: sim_sub.add_parser(name, help=text, allow_abbrev=False) for name, text in [
        ("spectrum", "low-lying levels"), ("gap", "mass gap and degeneracy"),
        ("charge-scan", "ground-state charge vs chemical potential"),
        ("correlation", "correlation profile from the central site"),
        ("ramp", "adiabatic switch-on propagation")]}
    for p_cmd in sim.values():
        _add_chain_flags(p_cmd)
        _add_common_flags(p_cmd)
        p_cmd.set_defaults(func=cmd_sim)
    sim["spectrum"].add_argument("--k", type=int, default=6, help="number of levels")
    sim["charge-scan"].add_argument("--mu-start", type=finite_float, default=0.0)
    sim["charge-scan"].add_argument("--mu-stop", type=finite_float, default=4.0)
    sim["charge-scan"].add_argument("--mu-steps", type=int, default=17)
    sim["ramp"].add_argument("--kappa-end", type=float, default=0.5)
    sim["ramp"].add_argument("--duration", type=float, default=100.0)
    sim["ramp"].add_argument("--dt", type=float, default=0.05)
    sim["ramp"].add_argument("--shape", choices=["linear", "smoothstep"], default="linear")

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
