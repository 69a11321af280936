"""Analytic eigenvalue chain for the ring potential.

V(r, theta) = A r^2 + B/r^2 + C + D_theta cos(theta)/r^2 with an
Aharonov-Bohm flux ratio delta. Separation in polar coordinates gives an
angular Mathieu problem (handled in qring.mathieu) and a radial
pseudoharmonic problem solved in closed form here. Two independent
algebraic routes to the energy are evaluated and required to agree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import mathieu
from .errors import EvaluationError, ParameterError, QringError, SupercriticalError
from .mathieu import Branch
from .params import MaterialSpec, SystemParams, ev_to_hartree, from_material, hartree_to_ev


@dataclass(frozen=True)
class QuantumState:
    """Bound-state label (n_r, m, parity, delta)."""

    n_r: int
    m: int
    parity: Branch
    delta: float = 0.0

    def __post_init__(self):
        if self.n_r < 0 or int(self.n_r) != self.n_r:
            raise ParameterError(f"n_r must be a non-negative integer, got {self.n_r}")
        if self.m < 0 or int(self.m) != self.m:
            raise ParameterError(f"m must be a non-negative integer, got {self.m}")
        if self.parity is Branch.SE and self.m == 0:
            raise ParameterError("m = 0 states exist only for the ce branch")
        if not math.isfinite(self.delta):
            raise ParameterError("delta must be finite")


@dataclass(frozen=True)
class SpectrumRow:
    """One computed state: angular chain, radial chain, and energy."""

    state: QuantumState
    q_mathieu: float = math.nan
    char_value: float = math.nan
    E_theta: float = math.nan
    eta: float = math.nan
    alpha: float = math.nan
    lambda_eff: float = math.nan
    E: float = math.nan  # atomic units
    correction: float = math.nan  # lambda_eff - sqrt(2 mu B + m^2)
    branch_note: str = ""
    material: Optional[str] = None
    D: Optional[float] = None
    e_hw0: Optional[float] = None
    e_ev: Optional[float] = None
    error: Optional[str] = None


def _check_delta(state: QuantumState, params: SystemParams):
    if state.delta != params.delta:
        raise ParameterError(
            f"state.delta = {state.delta} disagrees with params.delta = {params.delta}"
        )


def angular_eigenvalue(state: QuantumState, params: SystemParams):
    """Angular eigenvalue E_theta = delta^2 - c/4 with c the Mathieu value.

    Returns (E_theta, char_value, q_mathieu, branch_note). Integer flux
    routes through the integer-order characteristic values with the state's
    parity label; non-integer flux uses the single merged fractional family.
    """
    _check_delta(state, params)
    delta = params.delta
    q = 4.0 * params.mu * params.D_theta
    nu = 2.0 * (state.m + delta)
    # route on nu, not delta: float summation can land m + delta on an exact
    # integer even when delta alone is a hair off one
    if nu == 2.0 * round(nu / 2.0):
        m_eff = int(round(nu / 2.0))
        if m_eff < 0 or (state.parity is Branch.SE and m_eff < 1):
            raise ParameterError(
                f"shifted order {m_eff} out of range for {state.parity.value}"
            )
        mc = mathieu.char_value(m_eff, state.parity, q)
        note = f"integer({'a' if state.parity is Branch.CE else 'b'}_{2 * m_eff})"
    else:
        mc = mathieu.char_value_fractional(nu, q)
        note = "fractional(merged)"
    e_theta = delta * delta - mc.value / 4.0
    return e_theta, mc.value, q, note


def radial_exponent(E_theta: float, params: SystemParams):
    """(eta, alpha) of the radial indicial problem.

    eta = E_theta - 2 mu beta + 1/4 with beta = B + delta^2/(2 mu);
    alpha = (1 + sqrt(1 - 4 eta)) / 4 is the regular-solution exponent.
    """
    beta = params.B + params.delta * params.delta / (2.0 * params.mu)
    eta = E_theta - 2.0 * params.mu * beta + 0.25
    disc = 1.0 - 4.0 * eta
    if disc < 0.0:
        raise SupercriticalError(
            f"1 - 4 eta = {disc} < 0: inverse-square collapse, no regular state"
        )
    return eta, (1.0 + math.sqrt(disc)) / 4.0


def energy(state: QuantumState, params: SystemParams) -> SpectrumRow:
    """Full spectrum row for one state.

    E = sqrt(2 A / mu) (2 n_r + 1 + sqrt(c/4 + 2 mu B)) + C, cross-checked
    against the quantization chain eps = (4 n_r + 4 alpha + 1)/a^2,
    E = eps/(2 mu) + C; the two routes must agree to 1e-12 relative.
    """
    e_theta, c, q, note = angular_eigenvalue(state, params)
    eta, alpha = radial_exponent(e_theta, params)

    root_arg = c / 4.0 + 2.0 * params.mu * params.B
    if root_arg < 0.0:
        raise SupercriticalError(f"root term argument {root_arg} < 0")
    lam_eff = math.sqrt(root_arg)
    omega_like = math.sqrt(2.0 * params.A / params.mu)
    E_closed = omega_like * (2 * state.n_r + 1 + lam_eff) + params.C

    a2 = 1.0 / math.sqrt(2.0 * params.mu * params.A)
    eps = (4 * state.n_r + 4.0 * alpha + 1.0) / a2
    E_chain = eps / (2.0 * params.mu) + params.C

    scale = max(abs(E_closed), abs(E_chain), omega_like)
    if abs(E_closed - E_chain) > 1e-12 * scale:
        raise EvaluationError(
            f"energy routes disagree: closed {E_closed!r} vs chain {E_chain!r}",
            term_trace=[("closed", E_closed), ("chain", E_chain)],
        )

    lam0 = math.sqrt(2.0 * params.mu * params.B + state.m * state.m)
    return SpectrumRow(
        state=state,
        q_mathieu=q,
        char_value=c,
        E_theta=e_theta,
        eta=eta,
        alpha=alpha,
        lambda_eff=lam_eff,
        E=E_closed,
        correction=lam_eff - lam0,
        branch_note=note,
    )


def qr_energy(state: QuantumState, mat: MaterialSpec, D: float) -> SpectrumRow:
    """Spectrum row for a material ring with dipole moment D (atomic units).

    Adds energies in hbar*omega0 units and in eV to the row.
    """
    params = from_material(mat, D, state.delta)
    row = energy(state, params)
    w0 = ev_to_hartree(mat.hbar_omega0)
    return replace(
        row,
        material=mat.name,
        D=D,
        e_hw0=row.E / w0,
        e_ev=hartree_to_ev(row.E),
    )


def correction(state: QuantumState, mat: MaterialSpec, D: float) -> float:
    """Dimensionless dipole correction lambda_eff - lambda_0.

    lambda_0 = sqrt(lambda^2 + m^2) uses the integer m baseline; in
    hbar*omega0 units this equals the energy correction.
    """
    return qr_energy(state, mat, D).correction


def transition(
    state_hi: QuantumState, state_lo: QuantumState, mat: MaterialSpec, D: float
):
    """Transition energies with and without the dipole, and the relative shift.

    Returns (dE_withD, dE_noD, rel_shift) with energies in hbar*omega0
    units. The two states must differ only in m.
    """
    if state_hi.n_r != state_lo.n_r:
        raise ParameterError("transition requires equal n_r")
    if state_hi.delta != state_lo.delta:
        raise ParameterError("transition requires equal delta")
    if state_hi.parity is not state_lo.parity:
        raise ParameterError("transition requires equal parity")
    if state_hi.m == state_lo.m:
        raise ParameterError("transition requires different m")
    hi_d = qr_energy(state_hi, mat, D)
    lo_d = qr_energy(state_lo, mat, D)
    hi_0 = qr_energy(state_hi, mat, 0.0)
    lo_0 = qr_energy(state_lo, mat, 0.0)
    de_with = hi_d.e_hw0 - lo_d.e_hw0
    de_no = hi_0.e_hw0 - lo_0.e_hw0
    if de_no == 0.0:
        raise ParameterError("degenerate reference transition (dE = 0 at D = 0)")
    return de_with, de_no, (de_with - de_no) / de_no


def ab_correction(
    state: QuantumState, mat: MaterialSpec, delta: float, D: float = 0.0
) -> float:
    """Flux correction lambda_eff(delta) - lambda_eff(0) at fixed dipole D.

    In hbar*omega0 units. At D = 0 this reduces to
    sqrt(lambda^2 + (m+delta)^2) - sqrt(lambda^2 + m^2) and is identical
    for both parity labels.
    """
    on = qr_energy(replace(state, delta=delta), mat, D)
    off = qr_energy(replace(state, delta=0.0), mat, D)
    return on.lambda_eff - off.lambda_eff


@dataclass(frozen=True)
class SweepConfig:
    """Grid for sweep(): every material x state x D combination."""

    materials: tuple
    states: tuple
    d_values: tuple

    def __post_init__(self):
        for d in self.d_values:
            if not math.isfinite(d) or d < 0:
                raise ParameterError(f"sweep D values must be finite and >= 0, got {d}")


def _sort_key(row: SpectrumRow):
    s = row.state
    return (row.material or "", s.parity.value, s.m, s.n_r, s.delta, row.D or 0.0)


def sweep(config: SweepConfig) -> list:
    """Evaluate the grid; per-row failures are recorded, not raised.

    Rows come back in the deterministic order (material, parity, m, n_r,
    delta, D).
    """
    tasks = [
        (mat, state, d)
        for mat in config.materials
        for state in config.states
        for d in config.d_values
    ]

    def run(task):
        mat, state, d = task
        try:
            return qr_energy(state, mat, d)
        except QringError as exc:
            return SpectrumRow(state=state, material=mat.name, D=d, error=str(exc))

    rows = [run(t) for t in tasks]
    rows.sort(key=_sort_key)
    return rows
