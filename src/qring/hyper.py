"""Terminating hypergeometric machinery.

Gamma from the standard library with its poles rejected, the terminating 1F1
with negative integer first parameter by the three-term Laguerre recurrence
(generalized Laguerre polynomials are its multiples), a terminating 3F2 at
unit argument, the closed-form normalization constant, and the Gauss-Laguerre
rule with Christoffel weights, exact for these polynomials.

Every series here terminates by construction; there is deliberately no
general nonterminating hypergeometric evaluator.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (EvaluationError, IntegrationError, ParameterError, PoleError, _MAX_POINTS,
                     _count, _real, _widen)


def gamma(x: float) -> float:
    """Gamma(x) for real x, poles at non-positive integers rejected, overflow named."""
    x = _real("gamma argument", x)
    if x <= 0.0 and x == round(x):
        raise EvaluationError(f"gamma pole at x = {x}", term_trace=[("x", x)])
    try:
        return math.gamma(x)
    except OverflowError:
        raise EvaluationError(f"gamma({x}) overflows a double", term_trace=[("x", x)]) from None


def hyp1f1_poly(n_r: int, b: float, x: float) -> float:
    """Terminating 1F1(-n_r, b, x) = sum_{k<=n_r} (-n_r)_k / (b)_k x^k / k!.

    By the Laguerre recurrence rescaled to M_j = 1F1(-j, b, x):
    (b+j) M_{j+1} = (2j+b-x) M_j - j M_{j-1}, stable where the power sum
    cancels. x may be an array; n_r = 0 gives the scalar 1.0. One step per
    degree, so n_r is at most _MAX_POINTS; a scalar that overflows raises.
    """
    n, b, x = _count("n_r", n_r, _MAX_POINTS), _real("b", b), _widen(x)
    if b <= 0.0 and b == round(b):
        raise ParameterError(f"b must be finite and not a non-positive integer, got {b}")
    scalar, prev, cur = x.ndim == 0, 0.0, 1.0
    x = float(x) if scalar else x  # a float overflows to inf without a warning
    for j in range(n):
        prev, cur = cur, ((2 * j + b - x) * cur - j * prev) / (b + j)
    if scalar and not math.isfinite(cur):
        raise EvaluationError(f"1F1(-{n}, {b}, {x}) overflows a double")
    return cur


def laguerre(n: int, k: float, x: float) -> float:
    """Generalized Laguerre L_n^{(k)}(x) = binom(n+k, n) 1F1(-n, k+1, x)."""
    n, k = _count("degree", n), _real("order k", k, -1, strict=True)
    try:  # lgamma, exp and a scalar product overflow by name
        log_binom = math.lgamma(n + k + 1.0) - math.lgamma(n + 1.0) - math.lgamma(k + 1.0)
        value = math.exp(log_binom) * hyp1f1_poly(n, k + 1.0, x)
        if np.ndim(value) == 0 and not math.isfinite(value):
            raise OverflowError
    except OverflowError:
        raise EvaluationError(f"L_n^(k) overflows a double for n = {n}, k = {k}") from None
    return value


def hyp3f2_unit(a1: int, a2: float, a3: float, b1: float, b2: float) -> float:
    """Terminating 3F2(a1, a2, a3; b1, b2; 1) with a1 = -n a non-positive integer.

    Raises PoleError if a denominator Pochhammer vanishes before the series
    has terminated (either via a1 or via an earlier-vanishing numerator).
    A sum that overflows a double raises EvaluationError; -a1 is at most _MAX_POINTS.
    """
    n = _count("-a1", -a1, _MAX_POINTS)
    a2, a3, b1, b2 = map(_real, ("a2", "a3", "b1", "b2"), (a2, a3, b1, b2))
    acc = 1.0
    term = 1.0
    for k in range(n):
        num = (k - n) * (a2 + k) * (a3 + k)
        if num == 0.0:
            break  # series terminated early through a numerator factor
        den = (b1 + k) * (b2 + k) * (k + 1)
        if den == 0.0:
            raise PoleError(
                f"3F2 denominator Pochhammer vanished at k={k} "
                f"(b1+k={b1 + k}, b2+k={b2 + k}) before termination"
            )
        term *= num / den
        acc += term
    if not math.isfinite(acc):  # float arithmetic overflows to inf or nan without raising
        raise EvaluationError("3F2 sum overflows a double", term_trace=[("sum", acc)])
    return acc


def normalization_constant(n_r: int, alpha: float, a: float) -> float:
    """Closed-form wavefunction normalization constant.

    Evaluates the closed Gamma/3F2 expression verbatim:

        N = Gamma(n+2a+1/2) / (Gamma(2a+1/2) a Gamma(n+2a+1/2)) *
            sqrt( 2 Gamma(2a+1/2) Gamma(-1/2) /
                  (Gamma(n+2a+1/2) Gamma(2a+1) Gamma(n-1/2) * F) ),
        F = 3F2(-n, 2a+1, 3/2; 2a+1/2, -n+3/2; 1)

    This form is cross-validated against direct quadrature normalization
    (wavefun.normalize_numeric); the numerically validated value is
    authoritative where the two disagree. See DISCREPANCIES.md.
    """
    n, alpha = _count("n_r", n_r), _real("alpha", alpha, 0, strict=True)
    a = _real("length scale a", a, 0, strict=True)
    trace = []

    def traced(label, fn, *args):
        val = fn(*args)
        trace.append((label, val))
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite factor {label} = {val}", term_trace=trace)
        return val

    g_top = traced("gamma(n+2a+1/2)", gamma, n + 2 * alpha + 0.5)
    g_half = traced("gamma(2a+1/2)", gamma, 2 * alpha + 0.5)
    prefactor = traced("prefactor", lambda: g_top / (g_half * a * g_top))  # inf for a tiny a
    g_neg = traced("gamma(-1/2)", gamma, -0.5)
    g_2a1 = traced("gamma(2a+1)", gamma, 2 * alpha + 1.0)
    g_nm = traced("gamma(n-1/2)", gamma, n - 0.5)
    f32 = traced(
        "3F2", hyp3f2_unit, -n, 2 * alpha + 1.0, 1.5, 2 * alpha + 0.5, -n + 1.5
    )
    bracket = 2.0 * g_half * g_neg / (g_top * g_2a1 * g_nm * f32)
    trace.append(("bracket", bracket))
    if not 0.0 < bracket < math.inf:  # 0 where the denominator overflowed: N = 0 is never right
        raise EvaluationError(
            f"bracket under the square root is {bracket}", term_trace=trace
        )
    return traced("N", lambda: prefactor * math.sqrt(bracket))


def gauss_laguerre(f, n: int, alpha: float) -> float:
    """Gauss-Laguerre value of int_0^inf x^alpha e^-x f(x) dx / Gamma(alpha+1).

    Exact for a polynomial f of degree < 2n. Nodes: eigenvalues of the Jacobi
    matrix. Weights: Christoffel numbers 1 / sum_{k<n} p_k(x)^2, orthonormal p_k
    by the recurrence on the same entries (Gautschi 2004), so even the outermost
    keep their relative accuracy. f takes the node array. IntegrationError
    when the (n+1)-point rule disagrees, or a sum or f overflows at a node.
    n > 1000 is a ParameterError before the (n+1)^2 matrix is built (sums overflow from ~190).
    """
    _count("points", n, 1000)
    k = np.arange(n + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised by name below
        diag, off = 2.0 * k + alpha + 1.0, np.sqrt(k * (k + alpha))  # off[0] = 0
        jacobi = np.diag(diag)  # symmetric tridiagonal; the n-point rule's is its leading block
        jacobi.flat[n + 1::n + 2] = off[1:]  # the subdiagonal, all that eigvalsh reads of it
        values, d, e = [], diag.tolist(), off.tolist()  # floats index faster than numpy scalars
        for size in (n, n + 1):
            nodes = np.linalg.eigvalsh(jacobi[:size, :size])
            prev, cur, total = 0.0, 1.0, np.ones(size)
            for j in range(size - 1):
                prev, cur = cur, ((nodes - d[j]) * cur - e[j] * prev) / e[j + 1]
                total += cur * cur
            values.append(float((f(nodes) / total).sum()))
            if not math.isfinite(values[-1] + total.sum()):  # an infinite sum drops its node
                raise IntegrationError(f"Gauss-Laguerre {size}-point rule overflows a double")
    low, value = values
    if not abs(value - low) <= 1e-10 * max(1.0, abs(value)):
        raise IntegrationError(f"Gauss-Laguerre {n}/{n + 1}-point gap: {low} vs {value}")
    return value


def laguerre_overlap_quad(n: int, m: int, k: float) -> float:
    """Audit oracle: int_0^inf q^{k+1/2} e^-q L_n^k(q) L_m^k(q) dq by Gauss-Laguerre."""
    return gamma(k + 1.5) * gauss_laguerre(
        lambda t: laguerre(n, k, t) * laguerre(m, k, t), (n + m) // 2 + 1, k + 0.5)


def laguerre_overlap_closed(n: int, m: int, k: float) -> float:
    """Audit subject: the closed Gamma/3F2 form of the same overlap integral.

    Known to disagree with the quadrature oracle away from n = m = 0;
    kept verbatim for the committed audit. See DISCREPANCIES.md.
    """
    pref = (
        gamma(n + k + 1.0) ** 2
        * gamma(m + k + 1.0)
        * gamma(k + 1.5)
        * gamma(m - 0.5)
        / (math.factorial(n) * math.factorial(m) * gamma(k + 1.0) * gamma(-0.5))
    )
    return pref * hyp3f2_unit(-n, k + 1.5, 1.5, k + 1.0, -m + 1.5)
