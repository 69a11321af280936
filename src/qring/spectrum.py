"""Analytic eigenvalue chain for the ring potential.

V(r, theta) = A r^2 + B/r^2 + C + D_theta cos(theta)/r^2 with an
Aharonov-Bohm flux ratio delta. Separation in polar coordinates gives an
angular Mathieu problem (handled in qring.mathieu) and a radial
pseudoharmonic problem solved in closed form here. Two independent
algebraic routes to the energy are evaluated and required to agree.

The chain runs over arrays of rows, one equal block per state over a D or delta
axis, with one Mathieu solve per lattice for all states; a row that fails keeps
its own error. The scalar functions are the length-one case. A table over
materials, states and an axis (sweep, and each table command of qring.cli) is
one such chain per distinct material, with all of its distinct states; a
repeated material or state repeats rows, not solves.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import mathieu
from .errors import EvaluationError, ParameterError, SupercriticalError, _count, _widen
from .mathieu import Branch, _fail, _raise_first
from .params import MaterialSpec, SystemParams, ev_to_hartree, from_material, hartree_to_ev


@dataclass(frozen=True)
class QuantumState:
    """Bound-state label (n_r, m, parity, delta)."""

    n_r: int
    m: int
    parity: Branch
    delta: float = 0.0

    def __post_init__(self):
        for name in ("n_r", "m"):  # kept as ints, and delta as a float, whatever number type came
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "delta", float(_widen(self.delta)))
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


# the numeric SpectrumRow fields, in the order qr_energies returns them
_COLUMNS = ("q_mathieu", "char_value", "E_theta", "eta", "alpha", "lambda_eff", "E",
            "correction", "e_hw0", "e_ev")


def _check_delta(state: QuantumState, params: SystemParams):
    if state.delta != params.delta:
        raise ParameterError(
            f"state.delta = {state.delta} disagrees with params.delta = {params.delta}"
        )


def _branch_note(state: QuantumState) -> str:
    """SpectrumRow.branch_note of state's rows that have no error."""
    nu = 2.0 * (state.m + state.delta)
    if nu % 2.0:  # nan where nu overflows; every row of such a state fails
        return "fractional(merged)"
    return f"integer({'a' if state.parity is Branch.CE else 'b'}_{int(nu)})"


def _angular(m, se, q, delta, errors):
    """E_theta = delta^2 - c/4 and c over arrays m, se (parity is se), q and delta.

    Rows whose errors entry is set are skipped; rows that fail here get one.
    """
    with np.errstate(over="ignore"):  # such a row fails a domain rule of the kernel
        nu = 2.0 * (m + delta)
    # route on nu, not delta: float summation can land m + delta on an exact
    # integer even when delta alone is a hair off one
    m_eff = np.rint(nu / 2.0)
    integer = nu == 2.0 * m_eff
    c = np.full(nu.shape, np.nan)
    live = np.equal(errors, None)
    for rows, branch, order in ((integer & live & ~se, Branch.CE, m_eff),
                                (integer & live & se, Branch.SE, m_eff),
                                (~integer & live, None, nu)):
        if rows.any():
            c[rows], errors[rows], _ = mathieu.char_values(branch, order[rows], q[rows])
    with np.errstate(over="ignore"):
        return delta * delta - c / 4.0, c


def _radial(e_theta, params: SystemParams, delta, errors):
    """(eta, alpha) over arrays; supercritical rows get an error and nan."""
    with np.errstate(over="ignore"):  # a flux beyond the order cap has failed already
        beta = params.B + delta * delta / (2.0 * params.mu)
    eta = e_theta - 2.0 * params.mu * beta + 0.25
    disc = 1.0 - 4.0 * eta
    _fail(errors, disc < 0.0, lambda i: SupercriticalError(
        f"1 - 4 eta = {float(disc[i])} < 0: inverse-square collapse, no regular state"))
    return eta, (1.0 + np.sqrt(np.where(disc >= 0.0, disc, np.nan))) / 4.0


def _chain(states, params: SystemParams, q, delta, errors):
    """The columns of energy() over arrays q and delta, in blocks of states.

    params supplies A, B, C and mu. A row that fails gets its error, and nan
    in every column.
    """
    # m, parity is se, 2 n_r + 1, 4 n_r and lambda_0, repeated over each state's block
    per_state = [(float(s.m), s.parity is Branch.SE, 2.0 * s.n_r + 1.0, 4.0 * s.n_r,
                  math.sqrt(2.0 * params.mu * params.B + float(s.m) * s.m)) for s in states]
    m, se, odd, four, lam0 = np.repeat(per_state, q.size // len(states), axis=0).T
    e_theta, c = _angular(m, se == 1.0, q, delta, errors)
    eta, alpha = _radial(e_theta, params, delta, errors)

    root_arg = c / 4.0 + 2.0 * params.mu * params.B
    _fail(errors, root_arg < 0.0,
          lambda i: SupercriticalError(f"root term argument {float(root_arg[i])} < 0"))
    lam_eff = np.sqrt(np.where(root_arg >= 0.0, root_arg, np.nan))
    omega_like = math.sqrt(2.0 * params.A / params.mu)
    E_closed = omega_like * (odd + lam_eff) + params.C

    a2 = 1.0 / math.sqrt(2.0 * params.mu * params.A)
    eps = (four + 4.0 * alpha + 1.0) / a2
    E_chain = eps / (2.0 * params.mu) + params.C

    scale = np.maximum(np.maximum(np.abs(E_closed), np.abs(E_chain)), omega_like)

    # the comparison reads inf > inf as agreement, so an overflowed route fails by name
    finite = np.isfinite([E_closed, E_chain, alpha, lam_eff]).all(axis=0)

    def disagree(i):
        closed, chain = float(E_closed[i]), float(E_chain[i])
        verdict = "disagree" if finite[i] else "overflow"
        return EvaluationError(f"energy routes {verdict}: closed {closed!r} vs chain {chain!r}",
                               term_trace=[("closed", closed), ("chain", chain)])

    with np.errstate(invalid="ignore"):  # inf - inf, where finite is False already
        _fail(errors, ~finite | (np.abs(E_closed - E_chain) > 1e-12 * scale), disagree)
    failed = np.not_equal(errors, None)
    cols = dict(q_mathieu=q, char_value=c, E_theta=e_theta, eta=eta, alpha=alpha,
                lambda_eff=lam_eff, E=E_closed, correction=lam_eff - lam0)
    return {k: np.where(failed, np.nan, v) for k, v in cols.items()}


def angular_eigenvalue(state: QuantumState, params: SystemParams):
    """Angular eigenvalue E_theta = delta^2 - c/4 with c the Mathieu value.

    Returns (E_theta, char_value, q_mathieu, branch_note). Integer flux
    routes through the integer-order characteristic values with the state's
    parity label; non-integer flux uses the single merged fractional family.
    """
    _check_delta(state, params)
    q = 4.0 * params.mu * params.D_theta
    errors = np.full(1, None)
    e_theta, c = _angular(np.array([float(state.m)]), np.array([state.parity is Branch.SE]),
                          np.array([q]), np.array([params.delta]), errors)
    _raise_first(errors)
    return float(e_theta[0]), float(c[0]), q, _branch_note(state)


def radial_exponent(E_theta: float, params: SystemParams):
    """(eta, alpha) of the radial indicial problem.

    eta = E_theta - 2 mu beta + 1/4 with beta = B + delta^2/(2 mu);
    alpha = (1 + sqrt(1 - 4 eta)) / 4 is the regular-solution exponent.
    """
    errors = np.full(1, None)
    eta, alpha = _radial(np.array([E_theta]), params, np.array([params.delta]), errors)
    _raise_first(errors)
    return float(eta[0]), float(alpha[0])


def energy(state: QuantumState, params: SystemParams) -> SpectrumRow:
    """Full spectrum row for one state.

    E = sqrt(2 A / mu) (2 n_r + 1 + sqrt(c/4 + 2 mu B)) + C, cross-checked
    against the quantization chain eps = (4 n_r + 4 alpha + 1)/a^2,
    E = eps/(2 mu) + C; the two routes must agree to 1e-12 relative.
    """
    _check_delta(state, params)
    errors = np.full(1, None)
    q = np.array([4.0 * params.mu * params.D_theta])
    cols = _chain([state], params, q, np.array([params.delta]), errors)
    _raise_first(errors)
    return SpectrumRow(state=state, branch_note=_branch_note(state),
                       **{k: float(v[0]) for k, v in cols.items()})


def qr_energies(state: QuantumState, mat: MaterialSpec, D, delta=None):
    """qr_energy over arrays of dipole moment D and flux delta, broadcast.

    D and delta are scalars or 1-d; a broadcast shape of more dimensions
    raises ParameterError. delta defaults to state.delta. Returns (cols,
    errors): cols maps the numeric SpectrumRow fields, e_hw0 and e_ev
    included, to arrays over the rows; errors is an object array over the
    same rows, so the columns' masks and index arrays select from it too.
    errors[i] is row i's QringError, or None, and its columns are nan.
    """
    return _energies([state], mat, D, delta)


def _energies(states, mat: MaterialSpec, D, delta=None):
    """qr_energies of states in one chain: each column holds a block of rows per state.

    Every block runs over D and delta; delta defaults to each state's own.
    """
    D, flux = np.broadcast_arrays(np.atleast_1d(_widen(D)), _widen(0.0 if delta is None else delta))
    if D.ndim > 1:
        raise ParameterError(f"D and delta must be scalars or 1-d arrays, got shape {D.shape}")
    delta = (np.repeat([s.delta for s in states], D.size) if delta is None
             else np.tile(flux, len(states)))
    D = np.tile(D, len(states))
    errors = np.full(D.size, None)
    with np.errstate(over="ignore"):
        d_theta = D / mat.eps_r
    try:
        params = from_material(mat, 0.0, 0.0)
    except ParameterError as exc:  # a valid row raises the material's error, word for word
        params = None
        errors.fill(exc)
    invalid = ~((D >= 0.0) & np.isfinite(d_theta) & np.isfinite(delta))
    for i in invalid.nonzero()[0]:  # the row's own error, as qr_energy raises it
        try:
            row_state = replace(states[0], delta=float(delta[i]))
            from_material(mat, float(D[i]), row_state.delta)
        except ParameterError as exc:
            errors[i] = exc
    if params is None:
        return {k: np.full(errors.size, np.nan) for k in _COLUMNS}, errors
    cols = _chain(states, params, 4.0 * params.mu * d_theta, delta, errors)
    cols["e_hw0"] = cols["E"] / ev_to_hartree(mat.hbar_omega0)
    cols["e_ev"] = hartree_to_ev(cols["E"])
    return cols, errors


def _solve(mats, states, D, delta=None):
    """A table's grid in chain calls: one _energies call per distinct material.

    Yields (mat, rows) for each entry of mats, sorted by name: a material
    listed k times comes k times in a row and is solved once. Each call takes
    every distinct state over D and delta (delta defaults to each state's
    own); rows[state] is (cols, errors) of state's block.
    """
    distinct, last = list(dict.fromkeys(states)), None
    for mat in sorted(mats if distinct else (), key=lambda m: m.name):
        if mat != last:
            cols, errors = _energies(distinct, mat, D, delta)
            parts = [np.split(v, len(distinct)) for v in (errors, *cols.values())]
            rows, last = {s: (dict(zip(cols, p[1:])), p[0]) for s, *p in zip(distinct, *parts)}, mat
        yield mat, rows


def _rows(state: QuantumState, mat: MaterialSpec, D, cols, errors):
    """SpectrumRows of state on mat over an array of D, from qr_energies' output."""
    keys = list(cols)
    note = _branch_note(state)
    rows = []
    for d, err, *values in zip(np.atleast_1d(D).tolist(), errors,
                               *(cols[k].tolist() for k in keys)):
        if err is not None:
            rows.append(SpectrumRow(state=state, material=mat.name, D=d, error=str(err)))
        else:
            rows.append(SpectrumRow(state=state, branch_note=note, material=mat.name, D=d,
                                    **dict(zip(keys, values))))
    return rows


def qr_energy(state: QuantumState, mat: MaterialSpec, D: float) -> SpectrumRow:
    """Spectrum row for a material ring with dipole moment D (atomic units).

    Adds energies in hbar*omega0 units and in eV to the row.
    """
    cols, errors = qr_energies(state, mat, D)
    _raise_first(errors)
    return _rows(state, mat, D, cols, errors)[0]


def correction(state: QuantumState, mat: MaterialSpec, D: float) -> float:
    """Dimensionless dipole correction lambda_eff - lambda_0.

    lambda_0 = sqrt(lambda^2 + m^2) uses the integer m baseline; in
    hbar*omega0 units this equals the energy correction.
    """
    return qr_energy(state, mat, D).correction


def _transitions(mats, lows, m_hi, D):
    """transition of (lo with m = m_hi, lo) for each lo of lows on each material of mats.

    Yields (mat, lo, dE_withD, dE_noD, rel_shift), with arrays over D, in the
    order of _solve over [0, *D]. A pair raises what the scalar form would at
    its first D that fails: that D's pair, the reference pair, then the
    remaining pairs in D order.
    """
    # there is no se state with m = 0: such a pair is left out of the solve and
    # raises when the loop reaches it, after the pairs before it
    his = [replace(lo, m=m_hi) for lo in lows if lo.parity is Branch.CE or m_hi]
    if any(lo.m == m_hi for lo in lows):
        raise ParameterError("transition requires different m")
    for mat, rows in _solve(mats, [*his, *lows], np.append(0.0, D)):
        for lo in lows:
            hi = replace(lo, m=m_hi)
            (hi_cols, hi_err), (lo_cols, lo_err) = rows[hi], rows[lo]
            _raise_first([*hi_err[1:2], *lo_err[1:2], hi_err[0], lo_err[0]])
            de = hi_cols["e_hw0"] - lo_cols["e_hw0"]
            de_no = float(de[0])
            if de_no == 0.0:
                raise ParameterError("degenerate reference transition (dE = 0 at D = 0)")
            _raise_first(e for pair in zip(hi_err[1:], lo_err[1:]) for e in pair)
            yield mat, lo, de[1:], de_no, (de[1:] - de_no) / de_no


def transition(
    state_hi: QuantumState, state_lo: QuantumState, mat: MaterialSpec, D
):
    """Transition energies with and without the dipole, and the relative shift.

    Returns (dE_withD, dE_noD, rel_shift) with energies in hbar*omega0
    units. The two states must differ only in m. D may be an array: dE_withD
    and rel_shift are then arrays over it. This is one pair of the
    transitions table: both states go through one chain call, over D with
    the D = 0 reference put in front as row 0.
    """
    for field in ("n_r", "delta", "parity"):
        if getattr(state_hi, field) != getattr(state_lo, field):
            raise ParameterError(f"transition requires equal {field}")
    (_, _, de_with, de_no, rel), = _transitions([mat], [state_lo], state_hi.m, D)
    if np.ndim(D) == 0:
        return float(de_with[0]), de_no, float(rel[0])
    return de_with, de_no, rel


def ab_correction(
    state: QuantumState, mat: MaterialSpec, delta: float, D: float = 0.0
) -> float:
    """Flux correction lambda_eff(delta) - lambda_eff(0) at fixed dipole D.

    In hbar*omega0 units. At D = 0 this reduces to
    sqrt(lambda^2 + (m+delta)^2) - sqrt(lambda^2 + m^2) and is identical
    for both parity labels.
    """
    cols, errors = qr_energies(state, mat, D, [delta, 0.0])
    _raise_first(errors)
    return float(cols["lambda_eff"][0] - cols["lambda_eff"][1])


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
        named = {}
        for mat in self.materials:  # the rows name their material by name alone
            if named.setdefault(mat.name, mat) != mat:
                raise ParameterError(f"two different materials share the name {mat.name!r}")


def _groups(config: SweepConfig):
    """The sweep grid in output order, one distinct (material, state) at a time.

    Yields (mat, state, D, cols, errors): state's block of its material's one
    chain call (errors an object array like the columns), over D in stable
    sorted order. A (material, state) that the grid holds k times has each of
    its rows repeated k times, so the rows come in the order of a sort of the
    grid by (material, parity, m, n_r, delta, D) and rows with equal keys are
    equal.
    """
    d_values = np.sort(np.array(config.d_values, dtype=float), kind="stable")
    mats, states = Counter(config.materials), Counter(config.states)
    for mat, rows in _solve(mats, states, d_values):
        for state in sorted(states, key=lambda s: (s.parity.value, s.m, s.n_r, s.delta)):
            each = np.repeat(np.arange(d_values.size), mats[mat] * states[state])
            cols, errors = rows[state]
            yield mat, state, d_values[each], {c: v[each] for c, v in cols.items()}, errors[each]


def sweep(config: SweepConfig) -> list:
    """Evaluate the grid; per-row failures are recorded, not raised.

    Rows come back in the deterministic order (material, parity, m, n_r,
    delta, D); repeated inputs give equal rows, next to each other.
    """
    rows = []
    for mat, state, D, cols, errors in _groups(config):
        rows += _rows(state, mat, D, cols, errors)
    return rows
