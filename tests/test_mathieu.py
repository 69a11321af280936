"""Characteristic-value engine checks.

scipy.special.mathieu_a/b serve as an extra independent oracle here (the
package itself never calls them); the acceptance suite separately pins
the series and collocation routes.
"""
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import eigh_tridiagonal

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
    # 33 and up cut the window off the lattice bottom, so the Sturm count confirms them
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


# an order on each side of the first window's half-width 5, so that one call
# reaches both the bottom and the cut stacks of the cosine and sine lattices;
# log10 of the distance eps of nu from 2m; |q| log-uniform over [1e-6, 1e4]
_EDGE = st.tuples(st.integers(0, 5), st.integers(6, 299), st.floats(-12.0, -4.0),
                  st.builds(lambda x, sign: sign * 10.0 ** x,
                            st.floats(-6.0, 4.0), st.sampled_from([1.0, -1.0])))


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(rows=st.lists(_EDGE, min_size=1, max_size=3))
@example(rows=[(0, 299, -12.0, -1e4), (5, 6, -4.0, 0.8), (1, 150, -9.0, 7e3)])
def test_fractional_orders_tend_to_the_integer_values(rows):
    # DLMF 28.12(i): lambda_nu -> a_2m as nu decreases to 2m, and -> b_2m as
    # it increases to 2m. By Hellmann-Feynman d lambda/d nu = sum_k 2 (nu+2k) v_k^2
    # for the unit eigenvector v, which Cauchy-Schwarz bounds by 2 sqrt(<v, D v>)
    # <= 2 sqrt(lambda + 2|q|): the couplings of the lattice have norm at most
    # 2|q|. The band is monotone in nu, so |lambda_(2m +- eps) - lambda_2m| is at
    # most 2 eps sqrt(max(lambda_(2m +- eps), lambda_2m) + 2|q|); 4 ulp more
    # cover the rounding of the two values. One array call per lattice.
    low, high, x, q = zip(*rows)
    m, q, eps = np.array(low + high), np.tile(q, 2), np.tile(10.0 ** np.array(x), 2)
    se = m > 0  # there is no b_0, and nu must stay positive
    up, down = 2.0 * m + eps, 2.0 * m[se] - eps[se]
    values = []
    for branch, order, x in ((Branch.CE, m, q), (Branch.SE, m[se], q[se]),
                             (None, np.concatenate([up, down]), np.concatenate([q, q[se]]))):
        value, errors, _ = mathieu.char_values(branch, order, x)
        assert all(err is None for err in errors)
        values.append(value)
    a, b, band = values
    for edge, nu, near, x in ((a, up, band[:m.size], q), (b, down, band[m.size:], q[se])):
        gap = np.abs(nu - np.rint(nu))  # eps as nu holds it, exactly
        slope = 2.0 * np.sqrt(np.maximum(edge, near) + 2.0 * np.abs(x))
        assert np.all(np.abs(near - edge) <= gap * slope + 4.0 * np.spacing(np.abs(edge)))


def test_fractional_reduces_to_nu_squared_at_q_zero():
    for nu in (0.5, 1.0, 2.5, 3.0, 6.2):
        assert char_value_fractional(nu, 0.0).value == pytest.approx(
            nu * nu, abs=1e-12)


def test_fractional_large_order_matches_second_order():
    # far from any resonance lambda_nu = nu^2 + q^2 / (2 (nu^2 - 1)) + O(q^4 / nu^6)
    nu, q = 80.6, 0.2
    assert char_value_fractional(nu, q).value == pytest.approx(
        nu * nu + q * q / (2.0 * (nu * nu - 1.0)), abs=1e-9)


def _c8_exact(nu):
    """The q^8 coefficient of lambda_nu(q) that series_p8_estimate states, as an exact rational."""
    n2 = Fraction(nu) ** 2
    num = 1469 * n2**5 + 9144 * n2**4 - 140354 * n2**3 + 64228 * n2**2 + 827565 * n2 + 274748
    return num / (8192 * (n2 - 1) ** 7 * (n2 - 4) ** 3 * (n2 - 9) * (n2 - 16))


def _floquet_residual(nu, c, q, depth=6):
    """nu^2 - c + q (R_1 + L_1) in exact rationals, R and L the two-sided
    continued fractions A_{+-1}/A_0 of the Floquet recurrence
    ((nu+2k)^2 - c) A_k + q (A_{k-1} + A_{k+1}) = 0, cut at depth sites."""
    total = Fraction(nu) ** 2 - c
    for side in (1, -1):
        ratio = Fraction(0)
        for k in range(depth, 0, -1):
            ratio = -q / ((nu + 2 * side * k) ** 2 - c + q * ratio)
        total += q * ratio
    return total


@pytest.mark.parametrize("nu, q", [(Fraction(8), Fraction(1, 1000)), (Fraction(9, 2), Fraction(1, 1000)),
                                   (Fraction(33, 5), Fraction(1, 1000)), (Fraction(100), Fraction(1, 10))])
def test_series_c8_cancels_the_floquet_residual_through_q8(nu, q):
    # with c2..c6 of A&S 20.2.25 and the stated c8, the residual is O(q^10):
    # halving q divides it by 2^10; a c8 off by 1e-9 leaves a q^8 term
    n2 = nu * nu
    c2 = 1 / (2 * (n2 - 1))
    c4 = (5 * n2 + 7) / (32 * (n2 - 1) ** 3 * (n2 - 4))
    c6 = (9 * n2**2 + 58 * n2 + 29) / (64 * (n2 - 1) ** 5 * (n2 - 4) * (n2 - 9))

    def ratio(c8):
        r = [_floquet_residual(nu, n2 + c2 * x**2 + c4 * x**4 + c6 * x**6 + c8 * x**8, x)
             for x in (q, q / 2)]
        return float(r[0] / r[1])

    assert ratio(_c8_exact(nu)) == pytest.approx(1024.0, abs=1e-3)
    assert abs(ratio(_c8_exact(nu) * (1 + Fraction(1, 10**9))) - 1024.0) > 100.0


def test_series_estimate_positive_and_scales():
    for m in (4, 5, 6):
        e1 = series_p8_estimate(m, 0.5)
        e2 = series_p8_estimate(m, 1.0)
        assert e1 > 0
        # p^8 scaling, up to the floating-point floor term
        assert e2 >= e1
    # beyond 2m = 8 the estimate is exactly c8 p^8 plus the 4-ulp floor
    p = 1e4
    for m in (50, 200, 2048, 65536):
        expect = float(_c8_exact(2 * m)) * p**8 + 4.0 * float(np.spacing(4.0 * m * m))
        assert series_p8_estimate(m, p) == pytest.approx(expect, rel=1e-12)
    # in t = 1/nu^2 the closed form underflows at huge orders instead of overflowing
    assert 0.0 <= series_p8_estimate(10**22, 1.0) < math.inf
    assert 0.0 <= series_p8_estimate(10**150, 1.0) < math.inf


def _series_exact(m, p):
    """char_value_series' four terms (A&S 20.2.25 at order 2m) as an exact rational."""
    m, p = Fraction(m), Fraction(p)
    n1 = 4 * m * m - 1
    return (4 * m * m + p * p / (2 * n1) + (20 * m * m + 7) * p**4 / (32 * n1**3 * (n1 - 3))
            + (144 * m**4 + 232 * m * m + 29) * p**6 / (64 * n1**5 * (n1 - 3) * (n1 - 8)))


@pytest.mark.parametrize("m", [4, 5, 100, 10**31, 10**77, 10**153, int(mathieu._ORDER_MAX)],
                         ids=lambda m: f"{m:.3g}")
def test_series_is_finite_up_to_the_largest_order(m):
    # the q^4 and q^6 terms used to overflow in n1^3 and n1^5 from m ~ 2e30
    for p in (0.5, 3.0):
        got = char_value_series(m, p)
        assert abs(Fraction(got) / _series_exact(m, p) - 1) <= 1e-15
        assert math.isfinite(series_p8_estimate(m, p))


def test_series_rejects_orders_past_the_largest():
    for series in (char_value_series, series_p8_estimate):
        for m in (10**154, math.inf, math.nan):
            with pytest.raises(ParameterError, match="3 < m <="):
                series(m, 0.5)


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


def test_every_live_row_has_a_window():
    # on the cosine and sine lattices windows[i] is None exactly where
    # errors[i] is set; q = 0 has its one site
    for branch, order, q in ((Branch.CE, [0, 2, 3, 1e150, 70000], [0.0, 0.0, 0.3, 0.1, 0.5]),
                             (Branch.SE, [1, 3, 3], [0.0, 0.0, 2e4])):
        _, errors, windows = mathieu.char_values(branch, order, q, _windows=True)
        assert np.array_equal(np.equal(windows, None), np.not_equal(errors, None))
        for o, x, window in zip(order, q, windows):
            if x == 0.0 and window is not None:
                site = int(o) - (branch is Branch.SE)
                assert window[0] == site and window[1].tolist() == [1.0]
    # the Floquet lattice keeps no window at q = 0
    _, errors, windows = mathieu.char_values(None, [0.5, 3.3, -1.0, 6.6], [0.0, 0.21, 0.0, 0.0],
                                             _windows=True)
    assert list(np.equal(errors, None)) == [True, True, False, True]
    assert list(np.equal(windows, None)) == [True, False, True, True]
    # and a caller that does not ask keeps none
    for branch, order in ((Branch.CE, 3), (None, 3.3)):
        assert list(mathieu.char_values(branch, order, [0.0, 0.21])[2]) == [None, None]


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


def _wide_value(branch, order, q, K):
    """Reference value on the lattice cut at K sites from the wanted one.

    An independent dense solve: scipy's tridiagonal eigensolver at the q = 0
    sorted index, then one long-double Rayleigh quotient of its vector.
    """
    if branch is Branch.CE:
        k = np.arange(order + K + 1)
        d, e = (2.0 * k) ** 2, np.full(k.size - 1, q)
        e[0] *= math.sqrt(2.0)
        idx = order
    elif branch is Branch.SE:
        k = np.arange(1, order + K + 1)
        d, e, idx = (2.0 * k) ** 2, np.full(k.size - 1, q), order - 1
    else:
        k = np.arange(-K - math.ceil(order), K + 1)
        d, e = (order + 2.0 * k) ** 2, np.full(k.size - 1, q)
        idx = int(np.sum((d < order * order) & (k != 0)))
    _, v = eigh_tridiagonal(d, e, select="i", select_range=(idx, idx))
    vl, dl, el = (a.astype(np.longdouble) for a in (v[:, 0], d, e))
    tv = dl * vl
    tv[:-1] += el * vl[1:]
    tv[1:] += el * vl[:-1]
    return float(np.dot(vl, tv) / np.dot(vl, vl))


@pytest.mark.parametrize("q", [0.1, 0.2118, 0.56])
def test_one_eigensolve_per_value(solves, q):
    # at these q the first window meets the bound: one matrix, solved once, of
    # 11 sites at the bottom of the cosine and sine lattices, by eigh, and of
    # 21 on the Floquet one, by iteration
    for m in range(4):
        cases = [(("eigh", 1, 11), lambda: char_value(m, Branch.CE, q)),
                 (("eigh", 1, 11), lambda: fourier_coeffs(m, Branch.CE, q)),
                 (("iteration", 1, 21), lambda: char_value_fractional(2.0 * (m + 0.3), q))]
        if m:
            cases += [(("eigh", 1, 11), lambda: char_value(m, Branch.SE, q)),
                      (("eigh", 1, 11), lambda: fourier_coeffs(m, Branch.SE, q))]
        for solve, call in cases:
            solves.clear()
            call()
            assert solves == [solve]


def test_one_stacked_eigensolve_per_batch(solves):
    q = np.linspace(0.0, 0.56, 1001)  # the sweep grid's range of q
    for m in range(4):
        solves.clear()
        values, errors, _ = mathieu.char_values(Branch.CE, m, q)
        assert solves == [("eigh", 1000, 11)]  # q = 0 is exact and takes no solve
        assert list(errors) == [None] * 1001 and values[0] == 4.0 * m * m
        assert [char_value(m, Branch.CE, x).value for x in q[::100]] == list(values[::100])
    # at larger q only the rows that miss the bound are solved again, wider
    q = np.linspace(0.0, 3.0, 1001)
    solves.clear()
    values, errors, _ = mathieu.char_values(Branch.CE, 3, q)
    assert solves[0] == ("eigh", 1000, 11)
    wider = [stack for path, stack, n in solves[1:] if (path, n) == ("eigh", 21)]
    assert len(wider) == len(solves) - 1 and 0 < sum(wider) < 1000
    # in as few stacks as fit the budget, of even size
    assert len(wider) == -(-sum(wider) // (mathieu._STACK_ENTRIES // 21 ** 2))
    assert max(wider) - min(wider) <= 1
    assert [char_value(3, Branch.CE, x).value for x in q[::100]] == list(values[::100])


def test_orders_off_the_lattice_take_no_solve(solves):
    values, errors, _ = mathieu.char_values(Branch.SE, np.array([0, 1, 0]), 0.2)
    assert solves == [("eigh", 1, 11)]  # the one order se holds, alone in its stack
    assert [e is None for e in errors] == [False, True, False] and np.isnan(values[::2]).all()


def test_repeated_rows_are_solved_once(solves, monkeypatch):
    order = np.array([6.6, 2.5, 6.6, 6.6, 2.5, 7.3, -1.0, 6.6])
    q = np.array([0.21, 0.21, 0.21, 0.5, 0.21, 0.21, 0.21, 0.0])
    values, errors, windows = mathieu.char_values(None, order, q, _windows=True)
    # four distinct live pairs at q != 0; the negative order and q = 0 take no solve
    assert solves == [("iteration", 4, 21)]
    singles = [mathieu.char_values(None, o, x, _windows=True) for o, x in zip(order, q)]
    assert np.array_equal(values, [v[0] for v, _, _ in singles], equal_nan=True)
    assert [repr(e) for e in errors] == [repr(e[0]) for _, e, _ in singles]
    for window, (_, _, single) in zip(windows, singles):
        assert (window is None) == (single[0] is None)
        if window is not None:
            assert window[0] == single[0][0] and window[1].tolist() == single[0][1].tolist()
    # a row that fails its solve: each copy carries an equal ConvergenceError
    monkeypatch.setattr(mathieu, "_HALF_CAP", 10)
    _, errors, windows = mathieu.char_values(Branch.CE, [3, 3, 4], [500.0, 500.0, 0.2],
                                             _windows=True)
    assert [type(e) for e in errors] == [ConvergenceError, ConvergenceError, type(None)]
    assert str(errors[0]) == str(errors[1]) and list(windows[:2]) == [None, None]


def test_the_flux_workload_solves_each_distinct_matrix_once(solves, capsys):
    from qring.cli import _floats_from_range, run

    grid = "0.001:1.001:0.002"
    assert run(["ab-sweep", "--material", "GaAs", "--m", "0,1,2,3", "--parity", "ce,se",
                "--D", "10", "--delta-range", grid]) == 0
    # seven states over 501 non-integer fluxes: 3,507 Floquet rows, as many as
    # distinct orders nu = 2(m + delta) at one q, and the iteration certifies
    # every one: eigh solves only the states' zero-flux rows, at the bottom of
    # the cosine and sine lattices
    nus = {2.0 * (m + d) for m in range(4) for d in _floats_from_range(grid)}
    assert {(path, n) for path, _, n in solves} == {("iteration", 21), ("eigh", 11)}
    assert sum(stack for path, stack, _ in solves if path == "iteration") == len(nus) == 2001
    assert sum(stack for path, stack, _ in solves if path == "eigh") == 7
    assert all(stack * n * n <= mathieu._STACK_ENTRIES for _, stack, n in solves)
    assert len(capsys.readouterr().out.splitlines()) == 1 + 7 * 501


def test_a_single_row_skips_the_search_for_repeats(monkeypatch):
    calls = []
    real = np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    char_value(3, Branch.CE, 0.21)
    char_value_fractional(6.6, 0.21)
    fourier_coeffs(2, Branch.SE, 0.21)
    assert calls == []
    mathieu.char_values(Branch.CE, 3, [0.21, 0.3])
    assert len(calls) == 1


def test_large_q_doubles_the_truncation(solves):
    value = char_value(10, Branch.CE, 1e4).value
    # the window doubles until |q| * tail <= 1e-12; the first one, cut off the
    # lattice bottom, is tried by iteration and then by eigh
    assert solves == [("iteration", 1, 11)] + [("eigh", 1, n) for n in (11, 21, 41, 81, 161)]
    assert value == pytest.approx(float(special.mathieu_a(20, 1e4)), rel=1e-12)


@pytest.mark.parametrize("q", [0.2, 25.0, 1e4])
@pytest.mark.parametrize("m", [0, 3, 33, 100])
def test_returned_pair_meets_residual_bound(m, q):
    cases = [(Branch.CE, m), (None, 2.0 * (m + 0.3))]
    if m:
        cases.append((Branch.SE, m))
    for branch, order in cases:
        values, errors, windows = mathieu.char_values(branch, np.array([order]), np.array([q]),
                                                      _windows=True)
        assert errors == [None]
        lo, vec = windows[0]
        at_bottom = branch is not None and lo == 0
        tail = abs(vec[-1]) if at_bottom else math.hypot(vec[0], vec[-1])
        assert abs(q) * tail <= 1e-12
        # an exact eigenvalue lies within |q| * tail: a lattice cut far
        # beyond the window moves the value by no more than that plus rounding
        wide = _wide_value(branch, order, q, 4 * vec.size)
        assert abs(wide - values[0]) <= 1e-12 + 8 * np.spacing(abs(values[0]))


@pytest.mark.parametrize("m,delta,q", [(31, 0.3, 1000.0), (63, 0.3, 3000.0),
                                       (127, 0.5, 1e4)])
def test_fractional_index_survives_mirror_states(m, delta, q):
    # the mirror states near -nu sit below the wanted value; a window that cuts
    # through them must not shift the label, which the Sturm count confirms
    nu = 2.0 * (m + delta)
    wide = _wide_value(None, nu, q, 4096)
    assert char_value_fractional(nu, q).value == pytest.approx(wide, rel=1e-12)


def _window_value(nu, q, lo, n):
    """Long-double Rayleigh quotient of scipy's tridiagonal eigenvector at the
    label's sorted position, on the Floquet window of n sites from site lo."""
    d = (nu + 2.0 * (lo + np.arange(n))) ** 2
    pos = int(np.sum(d < nu * nu))
    _, v = eigh_tridiagonal(d, np.full(n - 1, q), select="i", select_range=(pos, pos))
    vl, dl = v[:, 0].astype(np.longdouble), d.astype(np.longdouble)
    tv = dl * vl
    tv[:-1] += q * vl[1:]
    tv[1:] += q * vl[:-1]
    return float(np.dot(vl, tv) / np.dot(vl, vl))


# nu within 0.05 of an odd integer up to 599, where the mirror site k = -nu of
# the Floquet lattice meets nu^2 at q = 0; |q| log-uniform over [1e-300, 1e4],
# either sign
_NEAR_ODD = st.builds(lambda j, off: 2.0 * j + 1.0 + off,
                      st.integers(0, 299), st.floats(-0.05, 0.05))
_Q = st.builds(lambda x, sign: sign * 10.0 ** x,
               st.floats(-300.0, 4.0), st.sampled_from([1.0, -1.0]))


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(rows=st.lists(st.tuples(_NEAR_ODD, _Q), min_size=1, max_size=4),
       mates=st.lists(st.tuples(_NEAR_ODD, _Q), max_size=4))
# where nu^2 and (nu - 2)^2 meet, and a wide window at the largest order and q
@example(rows=[(1.0, 0.2), (0.96, -0.21), (1.04, 3.0), (3.03, 30.0)], mates=[(599.0, 1e4)])
def test_iterated_floquet_rows_match_eigh_and_their_own_scalar_solves(rows, mates):
    order, q = (np.array(a) for a in zip(*rows + mates))
    values, errors, windows = mathieu.char_values(None, order, q, _windows=True)
    for nu, x, value, error, (lo, vec) in list(zip(order, q, values, errors, windows))[:len(rows)]:
        assert error is None
        # the value of an eigensolve of the same window at the label's position
        assert abs(value - _window_value(nu, x, lo, vec.size)) <= 2 * np.spacing(abs(value))
        # bit for bit the scalar solve, vector too, whatever its stack-mates, and even in q
        single, _, (window,) = mathieu.char_values(None, nu, x, _windows=True)
        assert single[0] == value and window[0] == lo and window[1].tolist() == vec.tolist()
        assert mathieu.char_values(None, nu, -x)[0][0] == value


# The orderings hold within 8 ulp of the larger value: at high m the gap
# a_2m - b_2m ~ q^(2m) / (4^(2m-1) ((2m-1)!)^2) drops below rounding, and near
# |q| ~ 7e3 a band is flatter than an ulp, so the two ends round either way.
_ULPS = 8.0


def _at_most(x, y):
    return np.all(x <= y + _ULPS * np.spacing(np.maximum(np.abs(x), np.abs(y))))


# m up to 299; nu = 2m + 1 + off with |off| log-uniform below 1, near the odd
# integer; |q| log-uniform over [1e-6, 1e4], either sign
_BAND = st.tuples(st.integers(0, 299),
                  st.builds(lambda x, sign: sign * 10.0 ** x,
                            st.floats(-12.0, -0.01), st.sampled_from([1.0, -1.0])),
                  st.builds(lambda x, sign: sign * 10.0 ** x,
                            st.floats(-6.0, 4.0), st.sampled_from([1.0, -1.0])))


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(rows=st.lists(_BAND, min_size=1, max_size=4))
@example(rows=[(0, -0.5, 0.2), (3, 1e-12, -1e-6), (150, 0.3, 7e3), (299, -1e-3, -1e4)])
def test_characteristic_values_keep_their_symmetry_and_order(rows):
    # DLMF 28.2(v) and 28.12(i): for q != 0, b_2m <= a_2m <= b_2m+2, and the
    # Floquet band nu in (2m, 2m + 2) runs from a_2m to b_2m+2; each value is
    # even in q, bit for bit. One array call per lattice, q and -q together.
    m, off, q = (np.array(a) for a in zip(*rows))
    k = m.size

    def both_signs(branch, order, x):
        values, errors, _ = mathieu.char_values(branch, np.tile(order, 2), np.concatenate([x, -x]))
        assert all(err is None for err in errors)
        assert values[:x.size].tolist() == values[x.size:].tolist()
        return values[:x.size]

    a = both_signs(Branch.CE, m, q)
    b = both_signs(Branch.SE, np.concatenate([m + 1, np.maximum(m, 1)]), np.tile(q, 2))
    band = both_signs(None, 2.0 * m + 1.0 + off, q)
    above, below = b[:k], b[k:]
    assert _at_most(below[m > 0], a[m > 0]) and _at_most(a, above)
    assert _at_most(a, band) and _at_most(band, above)


@pytest.mark.parametrize("branch,order,q,bottom,top", [
    (Branch.CE, 5, 3.0, 0, 20), (Branch.SE, 5, -40.0, 0, 20), (None, 7.6, 2.0, -20, 8),
    (None, 3.4, 0.5, -12, 6)])
def test_sturm_count_matches_the_spectrum(branch, order, q, bottom, top):
    k = np.arange(bottom, top + 1)
    d = mathieu._diagonal(branch, order, k)
    e = np.broadcast_to(mathieu._coupling(branch, q, k[:-1]), (k.size - 1,))
    w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    x = np.concatenate([(w[:-1] + w[1:]) / 2.0, [w[0] - 1.0, w[-1] + 1.0]])
    rows = np.ones(x.size // 2)
    count = mathieu._sturm_count(branch, order * rows, q * rows, bottom * rows.astype(int),
                                 top * rows.astype(int), x[: 2 * rows.size].reshape(2, -1))
    assert list(count.ravel()) == [int(np.sum(w < v)) for v in x[: 2 * rows.size]]
    # a row of a shorter segment counts only its own sites
    short = mathieu._sturm_count(branch, np.array([order, order]), np.array([q, q]),
                                 np.array([bottom, bottom + 3]), np.array([top, top]),
                                 np.array([[w[5] + 1e-9] * 2, [w[-1] + 1.0] * 2]))
    assert list(short[:, 0]) == [6, top - bottom + 1]
    assert list(short[:, 1]) == [int(np.sum(np.linalg.eigvalsh(
        np.diag(d[3:]) + np.diag(e[3:], 1) + np.diag(e[3:], -1)) < w[5] + 1e-9)), top - bottom - 2]


def test_sturm_count_rejects_a_wrong_label(monkeypatch):
    # hand the kernel a wrong eigenpair; the label count must refuse it on
    # every window that does not reach the bottom of the lattice. First the
    # iteration, from a start at the other member of the 2 x 2 block of the
    # centre site and the one below it: at nu = 1.01, where nu^2 and
    # (nu - 2)^2 nearly meet, it converges to that member and meets its
    # residual bound, and eigh then gives the vector one above the wanted one
    iterate, eigh = mathieu._inverse_iteration, np.linalg.eigh
    converged = []

    def from_the_other_member(d, e, shift, tol):
        h = d.shape[1] // 2
        vec = iterate(d, e, d[:, h] + d[:, h - 1] - shift, tol)
        converged.append(bool(np.isfinite(vec).all()))
        return vec

    monkeypatch.setattr(mathieu, "_inverse_iteration", from_the_other_member)
    def one_above(a):
        w, v = eigh(a)
        return w, np.roll(v, -1, axis=-1)

    monkeypatch.setattr(np.linalg, "eigh", one_above)
    monkeypatch.setattr(mathieu, "_HALF_CAP", 64)
    with pytest.raises(ConvergenceError):
        char_value_fractional(1.01, 0.2)
    assert converged == [True] * 3  # half-widths 10, 20 and 40
    # then eigh's wrong vector alone, where the iteration gives up
    monkeypatch.setattr(mathieu, "_inverse_iteration", lambda d, e, shift, tol: d * np.nan)
    with pytest.raises(ConvergenceError):
        char_value_fractional(2.0 * (40 + 0.3), 0.2)
    with pytest.raises(ConvergenceError):
        char_value(100, Branch.SE, 0.2)


def test_truncation_cap_raises_with_last_value(monkeypatch):
    monkeypatch.setattr(mathieu, "_HALF_CAP", 16)
    with pytest.raises(ConvergenceError) as info:
        char_value(10, Branch.CE, 1e4)
    # the values at half-widths 10 and 5, the last two below the cap
    assert math.isfinite(info.value.last) and math.isfinite(info.value.previous)
    assert info.value.last != info.value.previous


def test_orders_past_the_truncation_cap_are_parameter_errors():
    # the Sturm count runs over every site below the window; the error names the limit
    with pytest.raises(ParameterError, match="65536"):
        char_value(65537, Branch.CE, 0.1)
    with pytest.raises(ParameterError, match="65536"):
        char_value_fractional(2 * 65536 + 0.5, 0.1)
    with pytest.raises(ParameterError):
        fourier_coeffs(65537, Branch.SE, 0.1)
    # at q = 0 the value is exact for every order whose square is finite
    assert char_value(65537, Branch.CE, 0.0).value == 131074.0 ** 2
    assert char_value_fractional(2 * 65536 + 0.5, 0.0).value == 131072.5 ** 2
    # a vector holds m + 1 coefficients, so the cap holds for it at q = 0 as well
    with pytest.raises(ParameterError, match="65536"):
        fourier_coeffs(65537, Branch.SE, 0.0)
    fc = fourier_coeffs(65536, Branch.SE, 0.0)
    assert fc.coeffs[-1] == 1.0 and not fc.coeffs[:-1].any() and fc.value == 131072.0 ** 2
    values, errors, _ = mathieu.char_values(Branch.CE, 1e160, 0.0)
    assert np.isnan(values[0]) and "overflows" in str(errors[0])


_CAP = "(m, or nu/2 at fractional order) is above the largest solvable order 65536"
_OVERFLOW = "(m, or nu/2 at fractional order): its characteristic value overflows a double"
_Q_BIG = "|q| = 20000.0 exceeds truncation-validity bound 10000.0"
# orders that the cosine (m >= 0) or sine (m >= 1) lattice does not hold, at q = 0 too
_OFF_LATTICE = {branch: [(order, q, f"order {order} out of range for {branch.value}")
                         for order in orders for q in (0.0, 0.2)]
                for branch, orders in ((Branch.CE, (-1.0, 2.5)), (Branch.SE, (0.0,)))}


@pytest.mark.parametrize("branch,rows", [
    (branch, [(2.0, 0.7, None), (3.0, 0.0, None),
              (3.0, math.nan, "q must be finite"),
              (3.0, 2e4, _Q_BIG),
              (70000.0, 1.0, f"order 70000.0 {_CAP}"),
              (70000.0, -2e4, _Q_BIG),  # also above the order cap
              (1e160, 0.0, f"order 1e+160 {_OVERFLOW}"),
              (1e160, 0.5, f"order 1e+160 {_CAP}"),  # also overflows
              (math.nan, 0.0, f"order nan {_OVERFLOW}"),
              (math.nan, math.nan, "q must be finite"),  # also an overflowing order
              # Python ints past int64, and past a double (inf), widen to float64
              # first; the messages show the element as given
              (2**64, 0.21, f"order {2**64} {_CAP}"),
              (10**200, 0.0, f"order {10**200} {_OVERFLOW}"),
              (10**400, 0.0, f"order {10**400} {_OVERFLOW}")]
     + _OFF_LATTICE[branch])
    for branch in (Branch.CE, Branch.SE)
] + [(None, [
    (1.5, 0.3, None), (2.5, 0.0, None),
    (-1.0, 0.5, "fractional order must be positive and finite, got -1.0"),
    (0.0, 0.5, "fractional order must be positive and finite, got 0.0"),
    (math.nan, math.nan, "fractional order must be positive and finite, got nan"),  # and q
    (math.inf, 0.0, "fractional order must be positive and finite, got inf"),
    (4.0, 2e4, "nu = 4.0 is an even integer; use char_value"),  # and |q|
    (1e160, 0.0, "nu = 1e+160 is an even integer; use char_value"),  # and overflows
    (1.5, math.nan, "q must be finite"),
    (1.5, -2e4, _Q_BIG),
    (200001.0, 1.0, f"order 100000.5 {_CAP}"),
    (200001.0, 2e4, _Q_BIG),  # also above the order cap
    (10**400, 0.0, f"fractional order must be positive and finite, got {10**400}"),
    (np.float32(0.21), 0.0, None),  # widened, so no cast of a bound to float32 warns
])] + [(call, rows) for call, rows in (  # the public calls whose domain is not one batch
    (fourier_coeffs, [((2**63, Branch.CE, 0.0), f"order {2**63} {_CAP}"),
                      ((65536, Branch.CE, 0.0), None)]),
    (char_value_series, [((2**63, 1e308), "|q| = 1e+308 exceeds truncation-validity bound "
                                          "10000.0"),
                         ((2**63, np.float32(0.21)), None), ((5, math.nan), "q must be finite")]),
    (series_p8_estimate, [((2**63, 1e308), "|q| = 1e+308 exceeds truncation-validity bound "
                                           "10000.0")]),
)], ids=lambda v: getattr(v, "__name__", None))
def test_domain_rules_apply_in_order_within_one_batch(branch, rows):
    # a row that breaks several rules gets the message of the first; the valid
    # rows of the batch keep their scalar values, and no cast of an order warns
    if callable(branch):  # a public call, one row at a time
        for args, message in rows:
            if message is None:
                assert np.all(np.isfinite(getattr(branch(*args), "coeffs", branch(*args))))
            else:
                with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                    branch(*args)
        return
    order, q, messages = zip(*rows)
    values, errors, _ = mathieu.char_values(branch, list(order), list(q))
    assert [None if err is None else str(err) for err in errors] == list(messages)
    assert all(isinstance(err, ParameterError) for err in errors if err is not None)
    for v, nu, x, message in zip(values, order, q, messages):
        if message is None:
            scalar = (char_value_fractional(nu, x) if branch is None
                      else char_value(int(nu), branch, x))
            assert v == scalar.value
        else:
            assert np.isnan(v)


def test_results_echo_the_doubles_they_were_solved_with():
    # a float32 q or nu was echoed as float32, though the solve widened it
    q = np.float32(0.21)
    for out in (char_value(3, Branch.CE, q), char_value_fractional(np.float32(1.5), q),
                fourier_coeffs(3, Branch.SE, q)):
        assert type(out.q) is float and out.q == float(q)
    assert type(char_value_fractional(np.float32(1.5), q).order_nu) is float
    assert char_value(3, Branch.CE, q).value == char_value(3, Branch.CE, float(q)).value


@pytest.mark.parametrize("m", [2048, 5000])
def test_orders_past_2047_match_the_series(m):
    for branch in (Branch.CE, Branch.SE):
        for p in (0.1, 1.0, 10.0):
            c = char_value(m, branch, p).value
            assert abs(c - char_value_series(m, p)) <= series_p8_estimate(m, p)
    fc = fourier_coeffs(m, Branch.SE, 1.0)
    assert np.all(fc.coeffs[: m - 10] == 0.0) and fc.coeffs[m - 1] > 0.99
    assert _ode_residual(fc, char_value(m, Branch.SE, 1.0).value, 1.0) < 1e-11
    # far from any resonance lambda_nu = nu^2 + q^2 / (2 (nu^2 - 1)) + O(q^4 / nu^6)
    nu = 2.0 * m + 0.5
    assert char_value_fractional(nu, 10.0).value == pytest.approx(
        nu * nu + 100.0 / (2.0 * (nu * nu - 1.0)), abs=4 * np.spacing(nu * nu))
