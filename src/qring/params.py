"""Units, material database, and assembly of a fully-specified problem.

Everything downstream works in Hartree atomic units (hbar = e = m_e =
4*pi*eps0 = 1). Conversions to/from eV happen only at I/O boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, _real, _widen

# CODATA 2018 Hartree energy in eV
HARTREE_EV = 27.211386245988


def ev_to_hartree(e: float) -> float:
    return e / HARTREE_EV


def hartree_to_ev(e: float) -> float:
    return e * HARTREE_EV


@dataclass(frozen=True)
class SystemParams:
    """Coefficients of V(r, theta) = A r^2 + B / r^2 + C + D_theta cos(theta) / r^2.

    All fields in Hartree atomic units. ``delta`` is the Aharonov-Bohm
    flux ratio phi_AB / phi_0 and is dimensionless. ``D_theta`` is the
    dipole coefficient with any dielectric screening already applied.
    """

    A: float
    B: float
    C: float
    D_theta: float
    mu: float
    delta: float = 0.0

    def __post_init__(self):
        vals = _widen((self.A, self.B, self.C, self.D_theta, self.mu, self.delta))
        if not all(map(math.isfinite, vals)):
            raise ParameterError("SystemParams fields must be finite")
        object.__setattr__(self, "delta", float(vals[-1]))  # a float, whatever number type came
        if self.A <= 0:
            raise ParameterError(f"A must be > 0 for bound states, got {self.A}")
        if self.B < 0:
            raise ParameterError(f"B must be >= 0, got {self.B}")
        if self.mu <= 0:
            raise ParameterError(f"mu must be > 0, got {self.mu}")

    @property
    def a_length(self) -> float:
        # oscillator length, a^2 = 1 / sqrt(2 mu A)
        return (2.0 * self.mu * self.A) ** -0.25


@dataclass(frozen=True)
class MaterialSpec:
    """Named semiconductor parameter set.

    m_star in units of the electron mass, eps_r the static dielectric
    constant, lam the dimensionless ring strength, hbar_omega0 the
    confinement quantum in eV.
    """

    name: str
    m_star: float
    eps_r: float
    lam: float = 2.0
    hbar_omega0: float = 1.0

    def __post_init__(self):
        for field, name, strict in (("m_star", "m_star", True), ("eps_r", "eps_r", True),
                                    ("lam", "lambda", False), ("hbar_omega0", "hbar_omega0", True)):
            object.__setattr__(self, field, _real(name, getattr(self, field), 0, strict))


@dataclass(frozen=True)
class PhoParams:
    """Pseudoharmonic well: D_e (dissociation energy) and r_e (equilibrium radius)."""

    D_e: float
    r_e: float

    def __post_init__(self):
        for name in ("D_e", "r_e"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0, strict=True))


def from_material(mat: MaterialSpec, D: float, delta: float = 0.0) -> SystemParams:
    """Build SystemParams from a material and a dipole moment D (atomic units).

    A = m* omega0^2 / 2, B = lambda^2 / (2 m*), C = 0, D_theta = D / eps_r,
    with omega0 converted from the material's hbar_omega0 (eV).
    """
    D = _real("dipole moment D", D, 0)
    w0 = ev_to_hartree(mat.hbar_omega0)
    return SystemParams(
        A=mat.m_star * w0 * w0 / 2.0,
        B=mat.lam * mat.lam / (2.0 * mat.m_star),
        C=0.0,
        D_theta=D / mat.eps_r,
        mu=mat.m_star,
        delta=delta,
    )


def from_pho(p: PhoParams, mu: float, delta: float = 0.0) -> SystemParams:
    """Map a pseudoharmonic well onto the ring potential.

    A = D_e / r_e^2, B = D_e r_e^2, C = -2 D_e, no dipole term.
    """
    return SystemParams(
        A=p.D_e / _real("r_e^2", p.r_e * p.r_e, 0, strict=True),  # it can underflow to 0
        B=p.D_e * p.r_e * p.r_e,
        C=-2.0 * p.D_e,
        D_theta=0.0,
        mu=mu,
        delta=delta,
    )


def is_tan_inkson(params: SystemParams, rtol: float = 1e-12) -> bool:
    """True when C = -2 sqrt(A B), the ring form whose minimum sits at V = 0."""
    rtol = _real("rtol", rtol, 0)
    target = -2.0 * math.sqrt(params.A * params.B)
    if target == 0.0:
        return params.C == 0.0
    return abs(params.C - target) <= rtol * abs(target)


_BUILTINS = (
    MaterialSpec("GaAs", m_star=0.067, eps_r=12.65),
    # x = 0.3 aluminium fraction: m* = 0.067 + 0.085 x
    MaterialSpec("GaAlAs_x0.3", m_star=0.067 + 0.085 * 0.3, eps_r=12.65),
    MaterialSpec("CdSe", m_star=0.13, eps_r=9.3),
)


def builtin_materials() -> list[MaterialSpec]:
    return list(_BUILTINS)


def get_material(name: str) -> MaterialSpec:
    for mat in _BUILTINS:
        if mat.name == name:
            return mat
    known = ", ".join(m.name for m in _BUILTINS)
    raise ParameterError(f"unknown material {name!r} (built in: {known})")


def parse_config(text: str) -> dict:
    """Parse flat key=value configuration text.

    Blank lines and #-comments are skipped. Values stay strings; the CLI
    owns type conversion and unknown-key rejection.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParameterError(f"config line {lineno}: empty key")
        if not value:
            raise ParameterError(f"config line {lineno}: empty value for key {key!r}")
        if key in out:
            raise ParameterError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out
