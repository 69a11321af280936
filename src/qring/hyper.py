"""Terminating hypergeometric machinery.

Gamma from the standard library with its poles rejected, generalized Laguerre
polynomials by three-term recurrence, the terminating 1F1 with negative
integer first parameter, a terminating 3F2 at unit argument, and the
closed-form wavefunction normalization constant.

Every series here terminates by construction; there is deliberately no
general nonterminating hypergeometric evaluator.
"""
from __future__ import annotations

import math

from .errors import EvaluationError, ParameterError, PoleError


def gamma(x: float) -> float:
    """Gamma(x) for real x, poles at non-positive integers rejected."""
    if not math.isfinite(x):
        raise ParameterError(f"gamma argument must be finite, got {x}")
    if x <= 0.0 and x == round(x):
        raise EvaluationError(f"gamma pole at x = {x}", term_trace=[("x", x)])
    return math.gamma(x)


def hyp1f1_poly(n_r: int, b: float, x: float) -> float:
    """Terminating 1F1(-n_r, b, x) = sum_{k<=n_r} (-n_r)_k / (b)_k x^k / k!.

    Forward recurrence on term ratios; exact termination after n_r+1 terms.
    """
    if n_r < 0 or int(n_r) != n_r:
        raise ParameterError(f"n_r must be a non-negative integer, got {n_r}")
    if b <= 0.0 and b == round(b):
        raise ParameterError(f"b must not be a non-positive integer, got {b}")
    n_r = int(n_r)
    acc = 1.0
    term = 1.0
    for k in range(n_r):
        term *= (-n_r + k) / ((b + k) * (k + 1)) * x
        acc += term
    return acc


def laguerre(n: int, k: float, x: float) -> float:
    """Generalized Laguerre L_n^{(k)}(x) via the stable three-term recurrence."""
    if n < 0 or int(n) != n:
        raise ParameterError(f"degree must be a non-negative integer, got {n}")
    if k <= -1.0:
        raise ParameterError(f"order must satisfy k > -1, got {k}")
    n = int(n)
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + k - x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1 + k - x) * cur - (j - 1 + k) * prev) / j
    return cur


def hyp3f2_unit(a1: int, a2: float, a3: float, b1: float, b2: float) -> float:
    """Terminating 3F2(a1, a2, a3; b1, b2; 1) with a1 = -n a non-positive integer.

    Raises PoleError if a denominator Pochhammer vanishes before the series
    has terminated (either via a1 or via an earlier-vanishing numerator).
    """
    if a1 > 0 or int(a1) != a1:
        raise ParameterError(f"first parameter must be a non-positive integer, got {a1}")
    n = int(-a1)
    acc = 1.0
    term = 1.0
    for k in range(n):
        num = (a1 + k) * (a2 + k) * (a3 + k)
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
    if n_r < 0 or int(n_r) != n_r:
        raise ParameterError(f"n_r must be a non-negative integer, got {n_r}")
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    if a <= 0.0:
        raise ParameterError(f"length scale a must be > 0, got {a}")
    n = int(n_r)
    trace = []

    def traced(label, fn, *args):
        val = fn(*args)
        trace.append((label, val))
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite factor {label} = {val}", term_trace=trace)
        return val

    g_top = traced("gamma(n+2a+1/2)", gamma, n + 2 * alpha + 0.5)
    g_half = traced("gamma(2a+1/2)", gamma, 2 * alpha + 0.5)
    prefactor = g_top / (g_half * a * g_top)
    trace.append(("prefactor", prefactor))
    g_neg = traced("gamma(-1/2)", gamma, -0.5)
    g_2a1 = traced("gamma(2a+1)", gamma, 2 * alpha + 1.0)
    g_nm = traced("gamma(n-1/2)", gamma, n - 0.5)
    f32 = traced(
        "3F2", hyp3f2_unit, -n, 2 * alpha + 1.0, 1.5, 2 * alpha + 0.5, -n + 1.5
    )
    bracket = 2.0 * g_half * g_neg / (g_top * g_2a1 * g_nm * f32)
    trace.append(("bracket", bracket))
    if not math.isfinite(bracket) or bracket < 0.0:
        raise EvaluationError(
            f"bracket under the square root is {bracket}", term_trace=trace
        )
    return prefactor * math.sqrt(bracket)


def laguerre_overlap_quad(n: int, m: int, k: float) -> float:
    """Audit oracle: int_0^inf q^{k+1/2} e^-q L_n^k(q) L_m^k(q) dq by quadrature."""
    from scipy.integrate import quad

    upper = 60.0 + 10.0 * (n + m) + 5.0 * abs(k)
    val, err = quad(
        lambda t: t ** (k + 0.5) * math.exp(-t) * laguerre(n, k, t) * laguerre(m, k, t),
        0.0,
        upper,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=300,
    )
    if err > 1e-9 * max(1.0, abs(val)):
        from .errors import IntegrationError

        raise IntegrationError(f"overlap quadrature error {err} too large")
    return val


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
