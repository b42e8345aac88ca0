"""The benchmark workloads: seeded CLI invocations, output summaries and checks.

Each workload is a list of `rotorsim` command lines drawn from a seed. The
seed moves parameters only inside ranges where the amount of work is the
same, so timings and work counts compare across seeds.
"""

import json
import math
import random
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

RELATIVE_TOL = 1e-8
# values at the rounding floor (norm drift, symmetry-forbidden matrix
# elements) differ in their last bits between BLAS builds
ABSOLUTE_FLOOR = 1e-12
CRITICAL_MU_TOL = 1e-10
NORM_DRIFT_TOL = 1e-9
TRIPLET = 3

DESIGN_CONFIGS = ("micro", "nano")
DESIGN_SCAN_STEPS = 2000
# parameter -> (start, stop) as multiples of the config value; the field is
# zero in both configs, so its range is absolute, in tesla
DESIGN_SCAN_RANGES = {
    "delta_m": (0.8, 1.25),
    "rho_m": (0.8, 1.25),
    "alpha_m": (0.8, 1.25),
    "gamma_m": (0.8, 1.25),
    "dx_m": (0.8, 1.25),
    "temperature_K": (0.5, 2.0),
    "magnetic_field_T": (0.0, 0.01),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `--out <dir>/<label>` is appended when it runs."""

    label: str
    argv: tuple


def chain_gap(rng, root):
    kappa = rng.uniform(0.8, 1.2)
    chain = ("--sites", "8", "--lmax", "1", "--kappa", repr(kappa), "--boundary", "open")
    return [Op("gap", ("sim", "gap") + chain),
            Op("correlation", ("sim", "correlation") + chain)]


def charge_staircase(rng, root):
    grid = ("--kappa", "1", "--mu-start", "0", "--mu-stop", repr(rng.uniform(3.8, 4.2)),
            "--mu-steps", "9")
    return [Op(f"charge_{sites}x{lmax}",
               ("sim", "charge-scan", "--sites", str(sites), "--lmax", str(lmax)) + grid)
            for sites, lmax in ((3, 2), (5, 1))]


def ramp(rng, root):
    # linear only: under smoothstep the rejected passes, and so the number of
    # eigh calls, change with kappa_end
    schedule = ("--kappa", "0", "--kappa-end", repr(rng.uniform(0.45, 0.55)),
                "--duration", "10", "--dt", "0.05", "--shape", "linear", "--format", "both")
    return [Op(f"ramp_{sites}x{lmax}",
               ("sim", "ramp", "--sites", str(sites), "--lmax", str(lmax)) + schedule)
            for sites, lmax in ((3, 1), (2, 2))]


def design_sweep(rng, root):
    ops = []
    for name in DESIGN_CONFIGS:
        path = root / "src" / "rotorsim" / "data" / f"{name}.json"
        base = json.loads(path.read_text())
        for parameter, (lo, hi) in DESIGN_SCAN_RANGES.items():
            scale = base[parameter] or 1.0
            start = lo * scale * rng.uniform(0.95, 1.05)
            stop = hi * scale * rng.uniform(0.95, 1.05)
            ops.append(Op(f"scan_{name}_{parameter}",
                          ("design", "scan", "--config", str(path), "--parameter", parameter,
                           "--start", repr(start), "--stop", repr(stop),
                           "--steps", str(DESIGN_SCAN_STEPS), "--format", "both")))
        ops.append(Op(f"report_{name}", ("design", "report", "--config", str(path))))
    return ops


WORKLOADS = {
    "chain_gap": chain_gap,
    "charge_staircase": charge_staircase,
    "ramp": ramp,
    "design_sweep": design_sweep,
}


def make_ops(workload: str, seed: int, root) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), root)


# Tiny versions of every subcommand the workloads use; run once before
# timing so lazy imports and first-call costs are paid in set-up.
def warm_up_ops(root) -> list:
    config = str(root / "src" / "rotorsim" / "data" / "micro.json")
    tiny = ("--lmax", "1", "--kappa", "1")
    return [
        Op("gap", ("sim", "gap", "--sites", "2") + tiny),
        Op("correlation", ("sim", "correlation", "--sites", "4") + tiny),
        Op("charge", ("sim", "charge-scan", "--sites", "2", "--mu-stop", "0.5",
                      "--mu-steps", "3") + tiny),
        Op("ramp", ("sim", "ramp", "--sites", "2", "--lmax", "1", "--duration", "0.5")),
        Op("scan", ("design", "scan", "--config", config, "--parameter", "gamma_m",
                    "--start", "2e-6", "--stop", "3e-6", "--steps", "3")),
        Op("report", ("design", "report", "--config", config)),
    ]


# --- output summaries -----------------------------------------------------

_CRITICAL_MU = re.compile(r"critical_mu = (\S+)")


def _flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}/{key}", out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten(item, f"{prefix}/{index}", out)
    else:
        out[prefix] = value


def summarize(label: str, outdir, stdout: str) -> dict:
    """Flat {key: value} view of an op's JSON outputs.

    Design-scan rows are reduced to their count, per-column sums and verdict
    counts. critical_mu is read from stdout, which prints it in full; the
    JSON file rounds it to 9 digits.
    """
    out = {}
    for path in sorted(outdir.glob("*.json")):
        doc = json.loads(path.read_text())
        rows = doc.pop("rows", None)
        if rows:
            doc["rows"] = {"count": len(rows)}
            for key, value in rows[0].items():
                if isinstance(value, (int, float)):
                    doc["rows"][f"sum_{key}"] = math.fsum(row[key] for row in rows)
            for row in rows:
                key = f"verdict_{row['overall_verdict']}"
                doc["rows"][key] = doc["rows"].get(key, 0) + 1
        _flatten(doc, f"{label}/{path.stem}", out)
    match = _CRITICAL_MU.search(stdout)
    if match and match.group(1) != "None":
        out[f"{label}/critical_mu"] = float(match.group(1))
    return out


def _close(a, b) -> bool:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RELATIVE_TOL, abs_tol=ABSOLUTE_FLOOR)


def compare_reference(label: str, summary: dict, reference: dict) -> list:
    """Problems found comparing an op's summary with the reference values."""
    problems = []
    for key, expected in reference.items():
        if not key.startswith(label + "/"):
            continue
        if key not in summary:
            problems.append(f"{key}: missing from output")
        elif not _close(summary[key], expected):
            problems.append(f"{key}: {summary[key]!r} != reference {expected!r}")
    return problems


def check_op(op: Op, summary: dict, oracles: dict) -> list:
    """Checks that hold for every seed."""
    problems = []
    subcommand = op.argv[1]
    if subcommand == "gap":
        degeneracy = summary.get(f"{op.label}/gap/degeneracy")
        if degeneracy != TRIPLET:
            problems.append(f"first excited level has degeneracy {degeneracy}, not a triplet")
    elif subcommand == "charge-scan":
        got, want = summary.get(f"{op.label}/critical_mu"), oracles[op.label]
        if got is None or abs(got - want) > CRITICAL_MU_TOL:
            problems.append(f"critical_mu {got!r} differs from the oracle {want!r}")
    elif subcommand == "ramp":
        drift = summary.get(f"{op.label}/ramp/norm_drift")
        if drift is None or drift > NORM_DRIFT_TOL:
            problems.append(f"ramp norm_drift {drift!r} exceeds {NORM_DRIFT_TOL}")
    return problems


# --- independent oracle for the charge staircase --------------------------

def _direction_matrices(l_max: int):
    """(n_z, n_+) in the |l, m> basis from their closed-form matrix elements."""
    states = [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    index = {state: i for i, state in enumerate(states)}
    nz = np.zeros((len(states), len(states)))
    nplus = np.zeros_like(nz)
    for l, m in states:
        if l < l_max:
            nz[index[l + 1, m], index[l, m]] = math.sqrt(
                ((l + 1) ** 2 - m**2) / ((2 * l + 1) * (2 * l + 3)))
            nplus[index[l + 1, m + 1], index[l, m]] = -math.sqrt(
                (l + m + 1) * (l + m + 2) / ((2 * l + 1) * (2 * l + 3)))
        if l >= 1 and abs(m + 1) <= l - 1:
            nplus[index[l - 1, m + 1], index[l, m]] = math.sqrt(
                (l - m - 1) * (l - m) / ((2 * l - 1) * (2 * l + 1)))
    return nz + nz.T, nplus, states


def critical_mu_oracle(n_sites: int, l_max: int, kappa: float) -> float:
    """min over M >= 1 of (E_M - E_0) / M on an open chain at mu = 0.

    E_M is the lowest eigenvalue of the dense total-M block, built here from
    the matrix elements rather than by rotorsim. Q commutes with H, so level
    E_M(mu) = E_M - mu M, and the ground charge first leaves 0 at this mu.
    """
    nz, nplus, states = _direction_matrices(l_max)
    d = len(states)
    l2 = np.array([l * (l + 1) for l, _ in states], dtype=float)
    m_site = np.array([m for _, m in states])
    dot = np.kron(nz, nz) + 0.5 * (np.kron(nplus, nplus.T) + np.kron(nplus.T, nplus))
    bond = 2.0 * np.eye(d * d) - 2.0 * dot

    dim = d**n_sites
    h = sp.csr_matrix((dim, dim))
    total_m = np.zeros(dim, dtype=int)
    for site in range(n_sites):
        stride = d ** (n_sites - 1 - site)
        digit = (np.arange(dim) // stride) % d
        h += sp.diags(l2[digit])
        total_m += m_site[digit]
        if site < n_sites - 1:
            h += kappa * sp.kron(sp.kron(sp.identity(d**site), bond), sp.identity(stride // d))
    h = h.tocsr()
    lowest = {m: np.linalg.eigvalsh(h[total_m == m][:, total_m == m].toarray())[0]
              for m in range(n_sites * l_max + 1)}
    return float(min((lowest[m] - lowest[0]) / m for m in range(1, n_sites * l_max + 1)))


def oracles(ops) -> dict:
    """Oracle critical_mu per charge-scan op."""
    out = {}
    for op in ops:
        if op.argv[1] == "charge-scan":
            flags = dict(zip(op.argv[2::2], op.argv[3::2]))
            out[op.label] = critical_mu_oracle(int(flags["--sites"]), int(flags["--lmax"]),
                                               float(flags["--kappa"]))
    return out
