"""Library contract under adversarial numbers.

Every public call that reads a number, and every number field of the value
objects that public calls consume, fed Python ints up to 10**400, numpy
int64 and float32 scalars, bools, signed zeros, subnormals, infinities and nan,
must return finite numbers or raise a QringError, with warnings as errors,
within a fixed wall-time budget; the oracles run on fixed small grids. The
draws are derandomized unless pytest is run with --hypothesis-seed=N, which
then picks them.
"""
import math
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import core, given, settings
from hypothesis import strategies as st

from qring import (Branch, MaterialSpec, PhoParams, QuantumState, QringError, SweepConfig,
                   SystemParams, ab_correction, angular_eigenvalue, angular_fd_eigs, char_value,
                   char_value_fractional, char_value_series, convergence_report, correction,
                   count_radial_nodes, energy, eval_angular, fourier_coeffs, from_material,
                   from_pho, gamma, get_material, hyp1f1_poly, is_tan_inkson, laguerre, make_wave,
                   normalization_constant, normalize_numeric, psi, qr_energy, radial_exponent,
                   radial_fd_eigs, radial_profile, series_p8_estimate, sweep, transition)
from qring.hyper import hyp3f2_unit

_BUDGET_S = 5.0  # per call; an order near 2**16 at q = 1e4 takes 0.34 s (x86-64, 2 cores)

_SPECIAL = [0, 1, 3, 4, 5, -1, 2**16, 2**16 + 1, 2**63, 2**64, 10**200, 10**400, -10**400,
            True, False, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 0.21, 1e4, 2e4, 1e308,
            math.inf, -math.inf, math.nan]

_NUMBERS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-10**400, 10**400),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats(),
)
_GAAS = get_material("GaAs")
_PARAMS = from_material(_GAAS, 1.0)
_SPEC = {b: make_wave(QuantumState(1, 1, b), _PARAMS) for b in Branch}


def _wave(b, a=None, alpha=None, N=None, **coeffs):
    """_SPEC[b] with the given WaveSpec and FourierCoeffs fields replaced, as a caller may."""
    spec = _SPEC[b]
    fields = {k: v for k, v in dict(a=a, alpha=alpha, N=N).items() if v is not None}
    return replace(spec, coeffs=replace(spec.coeffs, **coeffs), **fields)


# each public function with the arguments it draws from _NUMBERS, then any fixed ones
_CALLS = {
    "char_value": (lambda m, q, b: char_value(m, b, q).value, 2),
    "fourier_coeffs": (lambda m, q, b: fourier_coeffs(m, b, q).coeffs, 2),
    "char_value_fractional": (lambda nu, q, b: char_value_fractional(nu, q).value, 2),
    "char_value_series": (lambda m, p, b: char_value_series(m, p), 2),
    "series_p8_estimate": (lambda m, p, b: series_p8_estimate(m, p), 2),
    "hyp1f1_poly": (lambda n, b_, x, b: hyp1f1_poly(n, b_, x), 3),
    "laguerre": (lambda n, k, x, b: laguerre(n, k, x), 3),
    "qr_energy": (lambda n_r, m, delta, D, b: qr_energy(QuantumState(n_r, m, b, delta), _GAAS, D).E,
                  4),
    "ab_correction": (lambda m, delta, D, b: ab_correction(QuantumState(0, m, b), _GAAS, delta, D),
                      3),
    "make_wave": (lambda n_r, m, delta, D, b: make_wave(
        QuantumState(n_r, m, b, delta), from_material(_GAAS, D, delta)).N, 4),
    "gamma": (lambda x, b: gamma(x), 1),
    "normalization_constant": (lambda n_r, alpha, a, b: normalization_constant(n_r, alpha, a), 3),
    "MaterialSpec": (lambda m_star, eps_r, lam, hw, b: from_material(
        MaterialSpec("x", m_star, eps_r, lam, hw), 1.0).A, 4),
    "from_material": (lambda D, delta, b: from_material(_GAAS, D, delta).D_theta, 2),
    "QuantumState": (lambda n_r, m, delta, b: QuantumState(n_r, m, b, delta).delta, 3),
    "from_pho": (lambda D_e, r_e, mu, delta, b: from_pho(PhoParams(D_e, r_e), mu, delta).A, 4),
    "SweepConfig": (lambda d0, d1, b: [row.E for row in sweep(SweepConfig(
        (_GAAS,), (QuantumState(0, 1, b),), (d0, d1))) if row.error is None], 2),
    "radial_exponent": (lambda e_theta, b: radial_exponent(e_theta, _PARAMS), 1),
    "eval_angular": (lambda theta, delta, b: eval_angular(theta, _SPEC[b].coeffs, delta), 2),
    "psi": (lambda r, theta, b: psi(_SPEC[b], r, theta), 2),
    "radial_profile": (lambda r0, r1, b: radial_profile(_SPEC[b], [r0, r1]).rows, 2),
    # the oracles on fixed grids: a larger N or n_max costs seconds per call
    "angular_fd_eigs": (lambda delta, p, b: angular_fd_eigs(delta, p, 64).eigenvalues, 2),
    "radial_fd_eigs": (lambda e_theta, b: radial_fd_eigs(e_theta, _PARAMS, 3).eigenvalues, 1),
    "is_tan_inkson": (lambda rtol, b: is_tan_inkson(_PARAMS, rtol), 1),
    # the fields of the value objects that public calls consume
    "SystemParams energy": (lambda A, B, C, mu, b: energy(
        QuantumState(0, 1, b), SystemParams(A, B, C, 0.01, mu)).E, 4),
    "SystemParams angular_eigenvalue": (lambda B, D_theta, mu, delta, b: angular_eigenvalue(
        QuantumState(0, 1, b, delta), SystemParams(0.02, B, 0.0, D_theta, mu, delta))[:2], 4),
    "SystemParams make_wave": (lambda A, D_theta, mu, delta, b: make_wave(
        QuantumState(0, 1, b, delta), SystemParams(A, 0.3, 0.0, D_theta, mu, delta)).N, 4),
    "SystemParams radial_fd_eigs": (lambda A, B, mu, delta, b: radial_fd_eigs(
        -0.5, SystemParams(A, B, 0.0, 0.0, mu, delta), 3).eigenvalues, 4),
    "WaveSpec psi": (lambda a, alpha, N, r, b: psi(_wave(b, a, alpha, N), r, 0.3), 4),
    "WaveSpec normalize_numeric": (lambda a, alpha, N, b: normalize_numeric(
        _wave(b, a, alpha, N)), 3),
    "WaveSpec radial_profile": (lambda a, alpha, N, r, b: radial_profile(
        _wave(b, a, alpha, N), [0.0, r]).rows, 4),
    "WaveSpec count_radial_nodes": (lambda a, alpha, N, b: count_radial_nodes(
        _wave(b, a, alpha, N)), 3),
    "FourierCoeffs eval_angular": (lambda order, q, c0, truncation, b: eval_angular(
        0.3, _wave(b, order=order, q=q, coeffs=[c0, 0.5], truncation=truncation).coeffs), 4),
    "FourierCoeffs normalize_numeric": (lambda c0, c1, q, value, b: normalize_numeric(
        _wave(b, coeffs=[c0, c1], q=q, value=value)), 4),
    "transition": (lambda n_r, m_hi, m_lo, D, b: transition(
        QuantumState(n_r, m_hi, b), QuantumState(n_r, m_lo, b), _GAAS, D), 4),
    "correction": (lambda n_r, m, D, b: correction(QuantumState(n_r, m, b), _GAAS, D), 3),
    "hyp3f2_unit": (lambda a1, a2, b1, b2, b: hyp3f2_unit(a1, a2, 1.5, b1, b2), 4),
    "convergence_report": (lambda v0, v1, v2, b: convergence_report([v0, v1, v2]).extrapolated,
                           3),
}


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget


@settings(derandomize=core.global_force_seed is None, deadline=None,
          max_examples=30 * len(_CALLS), database=None)  # about 30 draws per call
@given(st.sampled_from(sorted(_CALLS)), st.lists(_NUMBERS, min_size=4, max_size=4),
       st.sampled_from([Branch.CE, Branch.SE]))
def test_every_public_call_returns_a_finite_number_or_a_typed_error(name, numbers, branch):
    call, arity = _CALLS[name]
    args = numbers[:arity]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, _BUDGET_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call(*args, branch)
            except QringError:
                return
    except _OverBudget:
        pytest.fail(f"{name}{tuple(args)} took more than {_BUDGET_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert np.all(np.isfinite(out)), (name, args, out)
