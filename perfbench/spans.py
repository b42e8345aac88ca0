"""Span tracing around the public functions of each rotorsim layer.

The tracer wraps functions from the outside: nothing in the package is
edited. A span records name, layer, parent span, start and end, and a few
work counts read from the call's arguments or result. Per-layer metrics
are derived from the spans after the run. A layer's self time is its span
minus the part covered by its child spans.
"""

import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field

# (layer, module, qualified name). Public names only; a name that a later
# version deletes or renames is reported as missing, not an error.
TARGETS = [
    ("cli", "rotorsim.cli", "main"),
    ("design", "rotorsim.design", "scan"),
    ("design", "rotorsim.design", "feasibility"),
    ("serialize", "rotorsim.serialize", "write_json"),
    ("serialize", "rotorsim.serialize", "write_csv"),
    ("lattice", "rotorsim.lattice", "build_hamiltonian"),
    ("lattice", "rotorsim.lattice", "build_grand_canonical"),
    ("lattice", "rotorsim.lattice", "build_kinetic"),
    ("lattice", "rotorsim.lattice", "build_interaction"),
    ("lattice", "rotorsim.lattice", "build_charge"),
    ("lattice", "rotorsim.lattice", "sector_decompose"),
    ("lattice", "rotorsim.lattice", "SparseOperator.restrict"),
    ("spectra", "rotorsim.spectra", "spectrum"),
    ("spectra", "rotorsim.spectra", "lowest_eigenpairs"),
    ("spectra", "rotorsim.spectra", "ground_state"),
    ("spectra", "rotorsim.spectra", "mass_gap"),
    ("spectra", "rotorsim.spectra", "charge_scan"),
    ("spectra", "rotorsim.spectra", "correlation"),
    ("spectra", "rotorsim.spectra", "correlation_profile"),
    ("dynamics", "rotorsim.dynamics", "propagate"),
    ("dynamics", "rotorsim.dynamics", "adiabatic_ratio"),
    ("linalg", "numpy.linalg", "eigh"),
    ("linalg", "scipy.sparse.linalg", "eigsh"),
]

BUILDS = {"build_hamiltonian", "build_grand_canonical", "build_kinetic",
          "build_interaction", "build_charge"}
SOLVER_DRIVERS = {"spectrum", "lowest_eigenpairs", "ground_state", "mass_gap"}
OBSERVABLES = {"correlation_profile", "correlation", "charge_scan"}

# name -> unit, in the order they are reported
PER_LAYER = {
    "lattice.build_s": "s",
    "lattice.build_calls": "count",
    "lattice.build_nnz": "count",
    "lattice.max_dim": "states",
    "lattice.sector_s": "s",
    "lattice.restrict_calls": "count",
    "spectra.dense_eigh_s": "s",
    "spectra.dense_eigh_calls": "count",
    "spectra.dense_eigh_n3": "count",
    "spectra.arpack_s": "s",
    "spectra.arpack_calls": "count",
    "spectra.arpack_dim_sum": "states",
    "spectra.ground_state_calls": "count",
    "spectra.spectrum_self_s": "s",
    "spectra.observable_s": "s",
    "spectra.max_residual": "norm",
    "dynamics.propagate_s": "s",
    "dynamics.step_eigh_s": "s",
    "dynamics.step_eigh_calls": "count",
    "dynamics.steps": "count",
    "dynamics.dt_halvings": "count",
    "dynamics.adiabatic_s": "s",
    "design.scan_s": "s",
    "design.feasibility_calls": "count",
    "serialize.write_s": "s",
    "serialize.bytes": "bytes",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace_overhead_s": "s",
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)


def _attrs(name, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name in BUILDS:
        return {"dim": result.dimension, "nnz": result.matrix.nnz}
    if name in ("eigh", "eigsh"):
        return {"n": args[0].shape[0]}
    if name in ("spectrum", "lowest_eigenpairs"):
        return {"max_residual": float(max(getattr(result, "residual_norms", ()), default=0.0))}
    if name == "propagate":
        dt = kwargs.get("dt", args[2] if len(args) > 2 else None)
        halvings = round(math.log2(dt / result.accepted_dt)) if dt else 0
        return {"steps": result.step_count, "dt_halvings": halvings}
    if name in ("write_json", "write_csv"):
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Install wrappers, collect spans in memory, restore on uninstall."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None, time.perf_counter_ns())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            span.attrs = _attrs(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for layer, module_name, qualname in TARGETS:
            owner_name, _, name = qualname.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(layer, name, original)
            self._patch(owner, name, original, wrapper)
            if module_name.startswith("rotorsim"):
                # `from .lattice import build_charge` binds the function in
                # the importing module too; rebind every such alias
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("rotorsim") and mod is not owner:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover, in seconds."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    return [(s.end_ns - s.start_ns - c) * 1e-9 for s, c in zip(spans, child_ns)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repetition (process metrics excluded)."""
    m = {name: 0 for name in PER_LAYER if not name.startswith(("process.", "trace_"))}
    for span, self_s in zip(spans, self_times(spans)):
        name, a = span.name, span.attrs
        if name in BUILDS:
            m["lattice.build_s"] += self_s
            m["lattice.build_calls"] += 1
            m["lattice.build_nnz"] += a["nnz"]
            m["lattice.max_dim"] = max(m["lattice.max_dim"], a["dim"])
        elif name in ("sector_decompose", "restrict"):
            m["lattice.sector_s"] += self_s
            m["lattice.restrict_calls"] += name == "restrict"
        elif name == "eigh":
            # attributed to the layer that called it
            parent = spans[span.parent].layer if span.parent is not None else None
            if parent == "spectra":
                m["spectra.dense_eigh_s"] += self_s
                m["spectra.dense_eigh_calls"] += 1
                m["spectra.dense_eigh_n3"] += a["n"] ** 3
            elif parent == "dynamics":
                m["dynamics.step_eigh_s"] += self_s
                m["dynamics.step_eigh_calls"] += 1
        elif name == "eigsh":
            m["spectra.arpack_s"] += self_s
            m["spectra.arpack_calls"] += 1
            m["spectra.arpack_dim_sum"] += a["n"]
        elif name in SOLVER_DRIVERS:
            m["spectra.spectrum_self_s"] += self_s
            m["spectra.ground_state_calls"] += name == "ground_state"
            m["spectra.max_residual"] = max(m["spectra.max_residual"],
                                            a.get("max_residual", 0.0))
        elif name in OBSERVABLES:
            m["spectra.observable_s"] += self_s
        elif name == "propagate":
            m["dynamics.propagate_s"] += self_s
            m["dynamics.steps"] += a["steps"]
            m["dynamics.dt_halvings"] += a["dt_halvings"]
        elif name == "adiabatic_ratio":
            m["dynamics.adiabatic_s"] += self_s
        elif name in ("scan", "feasibility"):
            m["design.scan_s"] += self_s
            m["design.feasibility_calls"] += name == "feasibility"
        elif name in ("write_json", "write_csv"):
            m["serialize.write_s"] += self_s
            m["serialize.bytes"] += a["bytes"]
        elif name == "main":
            m["cli.self_s"] += self_s
    return m


def span_records(spans, rep: int) -> list:
    """JSON-ready rows: [rep, id, parent, layer, name, start_ns, end_ns, attrs]."""
    return [[rep, i, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.attrs]
            for i, s in enumerate(spans)]
