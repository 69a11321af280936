import math
import time

import mpmath
import numpy as np
import pytest

from qring.errors import EvaluationError, IntegrationError, ParameterError, PoleError
from qring.hyper import (
    gamma,
    gauss_laguerre,
    hyp1f1_poly,
    hyp3f2_unit,
    laguerre,
    laguerre_overlap_closed,
    laguerre_overlap_quad,
    normalization_constant,
)


def test_gamma_positive_axis():
    for x in np.linspace(0.05, 30.0, 157):
        assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-13)


def test_gamma_reflection():
    for x in (-0.5, -1.5, -2.3, -7.7):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -13.0):
        with pytest.raises(EvaluationError):
            gamma(x)


def _weighted_error(got, ref, x, b):
    # error relative to the largest value, both weighted by sqrt(x^(b-1) e^-x),
    # the scale at which the polynomial enters a normalized wavefunction
    logw = 0.5 * ((b - 1.0) * np.log(np.maximum(x, 1e-300)) - x)
    w = np.exp(logw - np.max(logw))
    return np.max(np.abs(got - ref) * w) / np.max(np.abs(ref) * w)


@pytest.mark.parametrize("b", [1.0, 4.5, 40.5, 200.5])
@pytest.mark.parametrize("n", [5, 15, 20, 25, 30, 45, 60])
def test_hyp1f1_against_mpmath(n, b):
    # the roots of the degree-n polynomial lie below 4n + 2b
    x = np.linspace(0.0, 4.0 * n + 2.0 * b + 40.0, 300)
    ref = np.array([float(mpmath.hyp1f1(-n, b, mpmath.mpf(float(t)))) for t in x])
    assert _weighted_error(hyp1f1_poly(n, b, x), ref, x, b) <= 1e-13


@pytest.mark.parametrize("b", [-0.5, -2.5])
def test_hyp1f1_negative_b_against_mpmath(b):
    # x^(b-1) is not integrable at 0 here, so the error is relative to the largest value
    x = np.linspace(0.0, 30.0, 61)
    for n in range(7):
        ref = np.array([float(mpmath.hyp1f1(-n, b, mpmath.mpf(float(t)))) for t in x])
        assert np.max(np.abs(hyp1f1_poly(n, b, x) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_laguerre_against_mpmath():
    for n in (0, 1, 4, 20, 40):
        for k in (-0.5, 0.0, 1.5, 30.0):
            # from x > 0: the weight x^k is unbounded at 0 for k < 0
            x = np.linspace(0.01, 4.0 * n + 2.0 * k + 40.0, 120)
            ref = np.array([float(mpmath.laguerre(n, k, mpmath.mpf(float(t)))) for t in x])
            got = np.array([laguerre(n, k, float(t)) for t in x])
            assert _weighted_error(got, ref, x, k + 1.0) <= 1e-13
    # binom(2000, 1000) ~ 1e600: no double holds the value
    with pytest.raises(EvaluationError):
        laguerre(1000, 1000.0, 1.0)


def test_hyp1f1_rejects_polynomial_breakdown():
    with pytest.raises(ParameterError):
        hyp1f1_poly(2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        hyp1f1_poly(3, -1.0, 1.0)
    # b = -5 sits past the n = 3 terms, still rejected for safety
    with pytest.raises(ParameterError):
        hyp1f1_poly(3, -5.0, 1.0)


@pytest.mark.parametrize("function,args", [
    (hyp3f2_unit, (math.nan, 1.0, 1.0, 1.0, 1.0)), (hyp3f2_unit, (-math.inf, 1.0, 1.0, 1.0, 1.0)),
    (hyp3f2_unit, (-3, 1.0, math.nan, 1.5, 2.5)),
    (hyp3f2_unit, (-3, 1.0, 1.0, math.inf, 2.5)), (hyp3f2_unit, (-3, 1.0, 1.0, 1.5, -math.inf)),
    (laguerre, (2, math.nan, 1.0)), (laguerre, (2, math.inf, 1.0)),
    (hyp1f1_poly, (2, math.nan, 1.0)), (hyp1f1_poly, (2, math.inf, 1.0)),
    (hyp1f1_poly, (2, -math.inf, 1.0)),
    (normalization_constant, (1, 0.0, 1.0)), (normalization_constant, (1, 0.5, -1.0)),
    (normalization_constant, (1, 1.0, math.nan))],
    ids=lambda v: getattr(v, "__name__", repr(v)))
def test_non_finite_parameters_are_parameter_errors(function, args):
    # nan passed every check and came back as nan; -inf and a nan first 3F2
    # parameter raised a raw OverflowError or ValueError from int() or round().
    # normalization_constant also refuses alpha <= 0 and a <= 0.
    with pytest.raises(ParameterError):
        function(*args)


def test_hyp3f2_against_mpmath():
    cases = [(0, 1.5, 2.5, 0.7, 3.0), (2, 3.0, 1.5, 2.5, -4.5),
             (3, 2.0, 1.5, 1.0, -1.5), (5, 5.5, 0.5, 2.0, -6.5)]
    for n, a2, a3, b1, b2 in cases:
        ours = hyp3f2_unit(-n, a2, a3, b1, b2)
        ref = float(mpmath.hyp3f2(-n, a2, a3, b1, b2, 1))
        assert ours == pytest.approx(ref, rel=1e-10)


def test_hyp3f2_pole():
    # denominator parameter hits a non-positive integer inside the sum
    with pytest.raises(PoleError):
        hyp3f2_unit(-3, 1.0, 1.0, -1.0, 0.5)


def test_gauss_laguerre_exact_for_polynomials():
    # E[x^3] under the Gamma(alpha+1) weight: (alpha+1)(alpha+2)(alpha+3)
    assert gauss_laguerre(lambda x: x ** 3, 2, 0.5) == pytest.approx(13.125, abs=1e-13)
    # int x^alpha e^-x L_n^alpha(x)^2 dx / Gamma(alpha+1) = binom(n+alpha, n);
    # the outermost weights are far below machine epsilon of the largest
    for n, alpha in ((30, 0.5), (60, 3.0), (40, 199.5)):
        exact = math.exp(math.lgamma(n + alpha + 1) - math.lgamma(n + 1)
                         - math.lgamma(alpha + 1))
        got = gauss_laguerre(lambda x: laguerre(n, alpha, x) ** 2, n + 1, alpha)
        assert got == pytest.approx(exact, rel=1e-12)


def test_gauss_laguerre_rejects_underresolved_integrand():
    # degree 6 is beyond both the 2- and the 3-point rule
    with pytest.raises(IntegrationError):
        gauss_laguerre(lambda x: x ** 6, 2, 0.5)


def test_gauss_laguerre_names_an_overflowing_integrand():
    # exp(800 x) overflows at the outer node: no numpy warning, and no silent inf or nan
    with pytest.raises(IntegrationError, match="overflows a double"):
        gauss_laguerre(lambda x: np.exp(800.0 * x), 2, 0.5)


def test_recurrence_and_rule_sizes_are_refused_before_any_work():
    # one recurrence step per degree: 2**63 steps used not to return
    start = time.perf_counter()
    for call in (lambda: hyp1f1_poly(2**63, 0.5, 0.0), lambda: laguerre(10**7, 0.5, 0.3),
                 lambda: hyp3f2_unit(-2**63, 1.0, 1.0, 1.5, 2.5)):
        with pytest.raises(ParameterError, match="is above 1000000$"):
            call()
    assert time.perf_counter() - start < 1.0
    # 1001 points would build an 8 MB Jacobi matrix; 30,001 would ask for 7.2 GB
    with pytest.raises(ParameterError, match="is above 1000$"):
        gauss_laguerre(lambda x: x, 1001, 0.5)


def test_ints_past_the_largest_double_are_parameter_errors():
    # they widen to inf, which is not finite; float() used to raise a raw OverflowError
    for call in (lambda: gamma(10**400), lambda: normalization_constant(3, 10**400, 1.0),
                 lambda: hyp3f2_unit(-3, 10**400, 1.0, 1.5, 2.5)):
        with pytest.raises(ParameterError, match="must be finite"):
            call()


def test_scalar_overflow_is_an_evaluation_error():
    # a float product overflows to inf without a warning; the scalar path names it
    with pytest.raises(EvaluationError, match="overflows a double"):
        hyp1f1_poly(50, 11.0, -5e7)
    with pytest.raises(EvaluationError, match="overflows a double"):
        laguerre(50, 10.0, -4e7)  # the polynomial is finite, its binomial multiple is not
    # math.gamma raised a raw OverflowError past x ~ 171.6, float32 widened or not
    for x in (172.0, 1e308, np.float32(1e38)):
        with pytest.raises(EvaluationError, match="overflows a double") as err:
            gamma(x)
        assert err.value.term_trace == [("x", float(x))]
    # the 3F2 sum overflowed to nan and was returned; a float32 a2 warned
    for a2, b1 in ((1e308, 1.5), (1.0, 5e-324)):
        with pytest.raises(EvaluationError, match="3F2 sum overflows a double") as err:
            hyp3f2_unit(-3, a2, 1.0, b1, 2.5)
        assert err.value.term_trace[-1][0] == "sum"
    assert (hyp3f2_unit(-3, np.float32(3e38), 1.0, 1.5, 2.5)
            == hyp3f2_unit(-3, float(np.float32(3e38)), 1.0, 1.5, 2.5))
    # the bracket's denominator overflows to inf: it returned N = 0.0
    with pytest.raises(EvaluationError, match="bracket under the square root is 0.0"):
        normalization_constant(1, 60.0, 1.0)


def test_overlap_quad_gamma_identities():
    # weight q^{k+1/2}: half a power off the natural Laguerre weight, so no
    # orthogonality; small cases reduce to Gamma functions by hand
    for k in (0.5, 1.5, 2.0):
        g = math.gamma(k + 1.5)
        assert laguerre_overlap_quad(0, 0, k) == pytest.approx(g, rel=1e-10)
        # L_1^k = k + 1 - q: integral (k+1) Gamma(k+3/2) - Gamma(k+5/2)
        assert laguerre_overlap_quad(0, 1, k) == pytest.approx(-g / 2, rel=1e-10)
        assert laguerre_overlap_quad(0, 1, k) == laguerre_overlap_quad(1, 0, k)


def test_overlap_quad_frozen_point():
    assert laguerre_overlap_quad(1, 2, 1.5) == pytest.approx(-2.875, abs=1e-9)


def test_overlap_closed_form_disagrees():
    # the closed form stays for auditing; quadrature is authoritative
    q = laguerre_overlap_quad(1, 2, 1.5)
    c = laguerre_overlap_closed(1, 2, 1.5)
    assert c == pytest.approx(-111.13690808231, rel=1e-9)
    assert abs(c / q - 38.6563158547) < 1e-6


def test_normalization_constant_frozen_values():
    assert normalization_constant(0, 0.75, 1.0) == pytest.approx(1.2265828778, rel=1e-9)
    assert normalization_constant(3, 1.25, 1.0) == pytest.approx(0.015931873182, rel=1e-9)
    assert normalization_constant(2, 2.0, 1.0) == pytest.approx(0.0030768034282, rel=1e-9)


def test_normalization_constant_scales_inversely_with_a():
    # closed form carries an explicit 1/a inside the prefactor
    n0 = normalization_constant(1, 0.75, 1.0)
    n2 = normalization_constant(1, 0.75, 2.0)
    assert n0 / n2 == pytest.approx(2.0, rel=1e-12)
