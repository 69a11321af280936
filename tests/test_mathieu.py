"""Characteristic-value engine checks.

scipy.special.mathieu_a/b serve as an extra independent oracle here (the
package itself never calls them); the acceptance suite separately pins
the series and collocation routes.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy import special

from qring import (
    Branch,
    ConvergenceError,
    ParameterError,
    char_value,
    char_value_fractional,
    char_value_series,
    eval_angular,
    fourier_coeffs,
    series_p8_estimate,
)
from qring import mathieu


def test_q_zero_exact():
    for m in range(11):
        assert char_value(m, Branch.CE, 0.0).value == 4.0 * m * m
        if m:
            assert char_value(m, Branch.SE, 0.0).value == 4.0 * m * m


def test_continuity_at_small_q():
    # a_2m(q) -> 4 m^2 like q^2, no jump from the q = 0 short-circuit
    for m in (0, 1, 3):
        v = char_value(m, Branch.CE, 1e-7).value
        assert abs(v - 4 * m * m) < 1e-8


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 5.0, 25.0])
def test_against_scipy(q):
    # 33 and up start the truncation above 32, past the order itself
    for m in (*range(6), 33, 40, 100):
        a = char_value(m, Branch.CE, q).value
        assert a == pytest.approx(float(special.mathieu_a(2 * m, q)), abs=1e-7)
        if m:
            b = char_value(m, Branch.SE, q).value
            assert b == pytest.approx(float(special.mathieu_b(2 * m, q)), abs=1e-7)


def test_even_in_q():
    for m, br in ((0, Branch.CE), (2, Branch.CE), (1, Branch.SE), (3, Branch.SE)):
        assert char_value(m, br, 0.7).value == pytest.approx(
            char_value(m, br, -0.7).value, abs=1e-13)


def test_interlacing():
    # a_0 < b_2 < a_2 < b_4 < a_4 < ... for q > 0
    q = 2.0
    seq = [char_value(0, Branch.CE, q).value]
    for m in range(1, 6):
        seq.append(char_value(m, Branch.SE, q).value)
        seq.append(char_value(m, Branch.CE, q).value)
    assert all(x < y for x, y in zip(seq, seq[1:]))


def test_ab_gap_shrinks_with_m():
    # gap ~ 2 q^{2m} / (4^{2m-1} ((2m-1)!)^2): needs q large enough that the
    # high-m splits stay above the double-precision floor
    q = 10.0
    gaps = [char_value(m, Branch.CE, q).value - char_value(m, Branch.SE, q).value
            for m in range(1, 6)]
    assert all(g > 0 for g in gaps)
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    expected_m5 = 2.0 * q**10 / (4**9 * math.factorial(9) ** 2)
    assert gaps[4] == pytest.approx(expected_m5, rel=0.05)


def test_rejections():
    with pytest.raises(ParameterError):
        char_value(0, Branch.SE, 1.0)
    with pytest.raises(ParameterError):
        char_value(-1, Branch.CE, 1.0)
    with pytest.raises(ParameterError):
        char_value(1, Branch.CE, 2e4)  # |q| bound
    with pytest.raises(ParameterError):
        char_value_fractional(4.0, 0.5)  # even integer order
    with pytest.raises(ParameterError):
        char_value_fractional(-0.5, 0.5)
    with pytest.raises(ParameterError):
        char_value_series(3, 0.1)  # series derived for 2m >= 8 only


def test_fractional_limits_to_integer_orders():
    q = 0.8
    for m in (1, 2):
        a = char_value(m, Branch.CE, q).value
        b = char_value(m, Branch.SE, q).value
        from_above = char_value_fractional(2 * m + 1e-9, q).value
        from_below = char_value_fractional(2 * m - 1e-9, q).value
        assert abs(from_above - a) < 1e-6
        assert abs(from_below - b) < 1e-6
        # the two integer-order values bracket the nearby fractional family
        assert b < from_below < from_above < a or b < a


def test_fractional_reduces_to_nu_squared_at_q_zero():
    for nu in (0.5, 1.0, 2.5, 3.0, 6.2):
        assert char_value_fractional(nu, 0.0).value == pytest.approx(
            nu * nu, abs=1e-12)


def test_fractional_large_order_matches_second_order():
    # far from any resonance lambda_nu = nu^2 + q^2 / (2 (nu^2 - 1)) + O(q^4 / nu^6)
    nu, q = 80.6, 0.2
    assert char_value_fractional(nu, q).value == pytest.approx(
        nu * nu + q * q / (2.0 * (nu * nu - 1.0)), abs=1e-9)


def test_series_estimate_positive_and_scales():
    for m in (4, 5, 6):
        e1 = series_p8_estimate(m, 0.5)
        e2 = series_p8_estimate(m, 1.0)
        assert e1 > 0
        # p^8 scaling, up to the floating-point floor term
        assert e2 >= e1


def _ode_residual(coeffs, c, q):
    """Max residual of 4 T'' + (c - 2 q cos(theta)) T over a theta grid."""
    th = np.linspace(0.0, 2 * np.pi, 181)
    if coeffs.branch is Branch.CE:
        k = np.arange(len(coeffs.coeffs))
        basis = np.cos(np.outer(th, k))
    else:
        k = np.arange(1, len(coeffs.coeffs) + 1)
        basis = np.sin(np.outer(th, k))
    t = basis @ coeffs.coeffs
    tpp = basis @ (-(k**2) * coeffs.coeffs)
    scale = max(abs(c), 1.0) * np.max(np.abs(t))
    return np.max(np.abs(4 * tpp + (c - 2 * q * np.cos(th)) * t)) / scale


@pytest.mark.parametrize("m,branch", [(0, Branch.CE), (1, Branch.CE),
                                      (3, Branch.CE), (1, Branch.SE),
                                      (2, Branch.SE)])
def test_fourier_coeffs_solve_the_ode(m, branch):
    q = 1.3
    mc = char_value(m, branch, q)
    fc = fourier_coeffs(m, branch, q)
    assert _ode_residual(fc, mc.value, q) < 1e-11


def test_fourier_coeffs_unit_norm_and_sign():
    for m, branch in ((0, Branch.CE), (2, Branch.CE), (1, Branch.SE)):
        fc = fourier_coeffs(m, branch, 0.9)
        v = fc.coeffs.copy()
        if branch is Branch.CE:
            v[0] *= math.sqrt(2.0)  # undo the cos(0) convention factor
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert v[np.argmax(np.abs(v))] > 0


def test_fourier_coeffs_q_zero():
    fc = fourier_coeffs(0, Branch.CE, 0.0)
    assert fc.coeffs.shape == (1,)
    assert fc.coeffs[0] == pytest.approx(1 / math.sqrt(2))
    fc = fourier_coeffs(2, Branch.SE, 0.0)
    assert fc.coeffs[1] == 1.0 and abs(fc.coeffs).sum() == 1.0


def test_eval_angular_flux_phase():
    fc = fourier_coeffs(1, Branch.CE, 0.5)
    th = np.linspace(0, 2 * np.pi, 50)
    plain = eval_angular(th, fc, delta=0.0)
    fluxed = eval_angular(th, fc, delta=0.3)
    assert np.allclose(np.abs(plain), np.abs(fluxed), atol=1e-14)
    assert np.allclose(fluxed, np.exp(0.3j * th) * plain, atol=1e-14)


@pytest.mark.parametrize("m,branch,q", [(500, Branch.CE, 1e4), (100, Branch.SE, 1e3)])
def test_eval_angular_against_mpmath(m, branch, q):
    fc = fourier_coeffs(m, branch, q)
    th = np.linspace(0.0, 2 * np.pi, 41)
    got = eval_angular(th, fc)
    with mpmath.workdps(40):
        trig = mpmath.cos if branch is Branch.CE else mpmath.sin
        shift = 0 if branch is Branch.CE else 1
        ref = [float(mpmath.fsum(float(c) * trig((k + shift) * mpmath.mpf(float(t)))
                                 for k, c in enumerate(fc.coeffs))) for t in th]
    assert np.max(np.abs(got.real - ref)) <= 1e-13
    assert np.all(got.imag == 0.0)
    assert isinstance(eval_angular(0.3, fc), complex)


def test_eval_angular_orthogonality():
    # rectangle rule is exact for trig polynomials on the periodic grid
    n = 512
    th = np.arange(n) * (2 * np.pi / n)
    h = 2 * np.pi / n
    fcs = [fourier_coeffs(m, Branch.CE, 0.7) for m in (0, 1, 2)]
    fcs += [fourier_coeffs(m, Branch.SE, 0.7) for m in (1, 2)]
    vals = [eval_angular(th, fc) for fc in fcs]
    for i in range(len(vals)):
        for j in range(len(vals)):
            g = float(np.real(np.sum(np.conj(vals[i]) * vals[j])) * h)
            expect = math.pi if i == j else 0.0
            assert g == pytest.approx(expect, abs=1e-10)


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts the eigh_tridiagonal calls the Mathieu solver makes."""
    calls = []
    real = mathieu.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(mathieu, "eigh_tridiagonal", counted)
    return calls


@pytest.mark.parametrize("q", [0.1, 0.2118, 0.56])
def test_one_eigensolve_per_value(eig_calls, q):
    for m in range(4):
        solves = [lambda: char_value(m, Branch.CE, q),
                  lambda: fourier_coeffs(m, Branch.CE, q),
                  lambda: char_value_fractional(2.0 * (m + 0.3), q)]
        if m:
            solves += [lambda: char_value(m, Branch.SE, q),
                       lambda: fourier_coeffs(m, Branch.SE, q)]
        for solve in solves:
            eig_calls.clear()
            solve()
            assert len(eig_calls) == 1


def test_large_q_doubles_the_truncation(eig_calls):
    char_value(10, Branch.CE, 1e4)
    assert eig_calls == [65, 129]  # K = 64 fails the residual bound, K = 128 meets it


@pytest.mark.parametrize("q", [0.2, 25.0, 1e4])
@pytest.mark.parametrize("m", [0, 3, 33, 100])
def test_returned_pair_meets_residual_bound(m, q):
    cases = [(Branch.CE, m), (None, 2.0 * (m + 0.3))]
    if m:
        cases.append((Branch.SE, m))
    for branch, order in cases:
        value, vec, K = mathieu._solve(branch, order, q)
        tail = abs(vec[-1]) if branch is not None else math.hypot(vec[0], vec[-1])
        assert abs(q) * tail <= 1e-12
        # an exact eigenvalue lies within |q| * tail: doubling K moves the
        # value by no more than that plus rounding
        wide = mathieu._refined_eig(*mathieu._tridiag(branch, order, 2 * K, q))[0]
        assert abs(wide - value) <= 1e-12 + 8 * np.spacing(abs(value))


@pytest.mark.parametrize("m,delta,q", [(31, 0.3, 1000.0), (63, 0.3, 3000.0),
                                       (127, 0.5, 1e4)])
def test_fractional_index_survives_mirror_states(m, delta, q):
    # at K = 2 << bit_length(m) the bottom end of the Floquet lattice sits a
    # site or two past the mirror states near -nu; the wanted vector alone meets
    # the residual bound there, but the sorted index would pick the next value up
    nu = 2.0 * (m + delta)
    wide = mathieu._refined_eig(*mathieu._tridiag(None, nu, 4096, q))[0]
    assert char_value_fractional(nu, q).value == pytest.approx(wide, rel=1e-12)


def test_truncation_cap_raises_with_last_value(monkeypatch):
    monkeypatch.setattr(mathieu, "_TRUNC_CAP", 64)
    with pytest.raises(ConvergenceError) as info:
        char_value(10, Branch.CE, 1e4)
    assert math.isfinite(info.value.last)


def test_orders_past_the_truncation_cap_are_parameter_errors():
    # K would start above _TRUNC_CAP; the error names the largest solvable order
    with pytest.raises(ParameterError, match="2047"):
        char_value(2048, Branch.CE, 0.1)
    with pytest.raises(ParameterError, match="2047"):
        char_value_fractional(4096.5, 0.1)
    with pytest.raises(ParameterError):
        fourier_coeffs(2048, Branch.SE, 0.1)
    assert char_value(2048, Branch.CE, 0.0).value == 4096.0 ** 2
    assert char_value_fractional(4096.5, 0.0).value == 4096.5 ** 2
    assert math.isfinite(char_value(2047, Branch.CE, 0.1).value)
