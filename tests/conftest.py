import csv
import io
import json

import numpy as np
import pytest
from scipy.special import sph_harm_y

from rotorsim import Geometry

MICRO = dict(
    wire_radius=100e-9,
    insulating_sphere_radius=400e-9,
    conducting_sphere_radius=500e-9,
    sphere_gap=2.5e-6,
    lattice_spacing=12.5e-6,
)
NANO = dict(
    wire_radius=1e-9,
    insulating_sphere_radius=12e-9,
    conducting_sphere_radius=5e-9,
    sphere_gap=25e-9,
    lattice_spacing=125e-9,
)


@pytest.fixture
def micro():
    return Geometry(**MICRO)


@pytest.fixture
def nano():
    return Geometry(**NANO)


@pytest.fixture
def micro_doc():
    return dict(delta_m=100e-9, rho_m=400e-9, alpha_m=500e-9,
                gamma_m=2.5e-6, dx_m=12.5e-6,
                temperature_K=1e-5, magnetic_field_T=0.0)


@pytest.fixture
def nano_doc():
    return dict(delta_m=1e-9, rho_m=12e-9, alpha_m=5e-9,
                gamma_m=25e-9, dx_m=125e-9,
                temperature_K=0.05, magnetic_field_T=0.0)


def quadrature_direction_element(l_bra, m_bra, l_ket, m_ket, component,
                                 n_theta=64, n_phi=128):
    """<l_bra, m_bra| n_component |l_ket, m_ket> by direct integration.

    Gauss-Legendre in cos(theta), uniform trapezoid in phi; both exact
    for the band-limited integrand at these node counts. Independent of
    the closed-form recursion used in the library.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    bra = sph_harm_y(l_bra, m_bra, th, ph).conj()
    ket = sph_harm_y(l_ket, m_ket, th, ph)
    if component == "z":
        factor = np.cos(th)
    elif component == "+":
        factor = np.sin(th) * np.exp(1j * ph)
    elif component == "-":
        factor = np.sin(th) * np.exp(-1j * ph)
    else:
        raise ValueError(component)
    integrand = bra * factor * ket
    return (integrand.sum(axis=1) * (2.0 * np.pi / n_phi)) @ weights


def random_geometries(n, seed=20240817):
    """Valid random geometries, log-uniform over device-plausible decades."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        delta = 10 ** rng.uniform(-9.5, -6.5)
        rho = delta * 10 ** rng.uniform(0.3, 1.5)
        alpha = delta * 10 ** rng.uniform(0.3, 1.5)
        gamma = max(rho, alpha) * 10 ** rng.uniform(0.2, 1.2)
        dx = gamma * 10 ** rng.uniform(0.4, 1.2)
        if dx <= delta:
            continue
        out.append(Geometry(
            wire_radius=delta,
            insulating_sphere_radius=rho,
            conducting_sphere_radius=alpha,
            sphere_gap=gamma,
            lattice_spacing=dx,
        ))
    return out


# --- serialization oracle ----------------------------------------------------
# The writer rotorsim.serialize replaced: a per-value Python walk, the
# indented stdlib encoder and csv.writer per row. Its bytes are the contract.

def oracle_normalize(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: oracle_normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_normalize(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [oracle_normalize(v) for v in obj.tolist()]
    return obj


def oracle_json_text(document):
    payload = {"schema_version": 1}
    payload.update(oracle_normalize(document))
    return json.dumps(payload, indent=2) + "\n"


def _oracle_cell(value):
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, np.floating):
        return f"{float(value):.9g}"
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def oracle_csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_oracle_cell(v) for v in row])
    return buf.getvalue()
