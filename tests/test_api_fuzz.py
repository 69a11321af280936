"""Library contract under adversarial numbers.

Every public scalar function, fed Python ints up to 10**400, numpy int64 and
float32 scalars, bools, signed zeros, subnormals, infinities and nan, must
return finite numbers or raise a QringError, with warnings as errors, within
a fixed wall-time budget. The draws are derandomized unless pytest is run
with --hypothesis-seed=N, which then picks them.
"""
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import core, given, settings
from hypothesis import strategies as st

from qring import (Branch, QuantumState, QringError, ab_correction, char_value,
                   char_value_fractional, char_value_series, fourier_coeffs, from_material,
                   get_material, hyp1f1_poly, laguerre, make_wave, qr_energy, series_p8_estimate)

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
}


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget


@settings(derandomize=core.global_force_seed is None, deadline=None, max_examples=300,
          database=None)
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
