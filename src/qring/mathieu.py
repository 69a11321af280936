"""Mathieu characteristic values and angular eigenfunctions.

The angular equation Phi'' + (c - 2 q cos 2z) Phi = 0 with pi-periodic
solutions leads, in the Fourier basis, to symmetric tridiagonal eigenvalue
problems. Cosine-elliptic solutions of even order couple cos(2kz) modes,
sine-elliptic ones couple sin(2kz); a real Floquet exponent nu couples the
shifted lattice exp(i(nu+2k)z), k in Z. All three are solved by one routine:
truncated tridiagonal diagonalization with one long-double Rayleigh-quotient
refinement step. The truncation K starts at twice the first power of two
>= 32 above the order m (nu/2 on the Floquet lattice) and doubles until
|q| * tail <= 1e-12, a bound on the distance to an exact eigenvalue, and
tail <= 1e-14 of the largest Fourier coefficient (see _solve).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, ParameterError

_TRUNC_START = 64
_TRUNC_CAP = 4096
_TRUNC_TOL = 1e-12  # residual bound |q| * tail on the characteristic value
_TAIL_TOL = 1e-14  # outermost coefficient relative to the largest
_Q_BOUND = 1e4  # truncation-validity bound for |q|


class Branch(enum.Enum):
    CE = "ce"
    SE = "se"


@dataclass(frozen=True)
class MathieuChar:
    """One characteristic value: order nu = 2(m+delta), parameter q, value c.

    branch is None for fractional order, where the ce/se families merge
    into a single analytic family.
    """

    order_nu: float
    q: float
    branch: Optional[Branch]
    value: float


@dataclass(frozen=True)
class FourierCoeffs:
    """Fourier coefficients of a pi-periodic (in z) angular eigenfunction.

    CE: coeffs[k] multiplies cos(2kz), k >= 0.
    SE: coeffs[k] multiplies sin(2(k+1)z), k >= 0.
    Normalized so 2*A0^2 + sum A^2 = 1 (CE) / sum B^2 = 1 (SE), which makes
    the angular function square-integrate to pi over a full period.
    """

    branch: Branch
    order: int
    q: float
    coeffs: np.ndarray
    truncation: int


def _tridiag(branch: Optional[Branch], order, K: int, q: float):
    """Truncated (d, e) and the sorted index of the wanted eigenvalue.

    CE couples cos(2kz), k = 0..K; SE couples sin(2kz), k = 1..K; branch
    None is the Floquet lattice exp(i(nu+2k)z), k = -K..K, with order nu.
    """
    if branch is Branch.CE:
        d = (2.0 * np.arange(K + 1)) ** 2
        e = np.full(K, q)
        e[0] = math.sqrt(2.0) * q  # couples the constant mode to cos 2z
        return d, e, order
    if branch is Branch.SE:
        return (2.0 * np.arange(1, K + 1)) ** 2, np.full(K - 1, q), order - 1
    k = np.arange(-K, K + 1)
    d = (order + 2.0 * k) ** 2
    # sorted position of the nu^2-continued eigenvalue: count lattice points
    # (nu+2k)^2 strictly below nu^2. Strict inequality resolves the odd-integer
    # tie to the lower member of the near-degenerate pair.
    return d, np.full(2 * K, q), int(np.sum((d < order * order) & (k != 0)))


def _refined_eig(d, e, idx):
    """Eigenpair at sorted index idx, with one long-double Rayleigh step.

    LAPACK gives the value to ~1e-12 absolute here; re-evaluating the
    Rayleigh quotient of the converged vector in extended precision cuts
    that to ~1e-14, which the series comparisons need.
    """
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(idx, idx))
    vec = v[:, 0]
    vl = vec.astype(np.longdouble)
    dl = d.astype(np.longdouble)
    el = e.astype(np.longdouble)
    tv = dl * vl
    tv[:-1] += el * vl[1:]
    tv[1:] += el * vl[:-1]
    value = float(np.dot(vl, tv) / np.dot(vl, vl))
    return value, vec


def _check_q(q: float):
    if not math.isfinite(q):
        raise ParameterError("q must be finite")
    if abs(q) > _Q_BOUND:
        raise ParameterError(f"|q| = {abs(q)} exceeds truncation-validity bound {_Q_BOUND}")


def _solve(branch: Optional[Branch], order, q: float):
    """(value, unit eigenvector, K) of the wanted eigenvalue, one solve per K.

    tail is the outermost coefficient, on the Floquet lattice the bottom one
    and every top one with |nu+2k| >= 2K - nu, its mirror, so that the states
    near -nu below the wanted index fit too. The zero-padded vector then has
    residual <= |q| * tail in the untruncated operator: an exact eigenvalue
    lies that close (Parlett, The Symmetric Eigenvalue Problem, 1998, 4.5).
    """
    m = order if branch is not None else order / 2.0
    K = max(_TRUNC_START, 2 << int(m).bit_length())  # twice the smallest power of two > m
    value = prev = None
    while K <= _TRUNC_CAP:
        prev, (value, vec) = value, _refined_eig(*_tridiag(branch, order, K, q))
        tail = (abs(vec[-1]) if branch is not None
                else math.hypot(vec[0], np.max(np.abs(vec[2 * K - int(order):]))))
        if abs(q) * tail <= _TRUNC_TOL and tail <= _TAIL_TOL * np.max(np.abs(vec)):
            return value, vec, K
        K *= 2
    raise ConvergenceError(
        f"residual bound |q| * tail above {_TRUNC_TOL} at truncation {_TRUNC_CAP}",
        last=value,
        previous=prev,
    )


def char_value(m: int, branch: Branch, q: float) -> MathieuChar:
    """Characteristic value of integer even order 2m (a-type for CE, b-type for SE)."""
    if m < 0 or int(m) != m:
        raise ParameterError(f"m must be a non-negative integer, got {m}")
    m = int(m)
    if branch is Branch.SE and m == 0:
        raise ParameterError("SE requires m >= 1 (no sine-elliptic order-0 state)")
    _check_q(q)
    if q == 0.0:
        return MathieuChar(2.0 * m, 0.0, branch, float((2 * m) ** 2))
    return MathieuChar(2.0 * m, q, branch, _solve(branch, m, q)[0])


def char_value_fractional(nu: float, q: float) -> MathieuChar:
    """Characteristic value lambda_nu(q) for a real non-even-integer order nu.

    The value continues nu^2 from q = 0 along the analytic family of the
    Floquet lattice (nu+2k)^2. Approaching an even integer 2m from above
    meets the CE value, from below the SE value; route exact even integers
    through char_value instead.
    """
    if not math.isfinite(nu) or nu <= 0:
        raise ParameterError(f"fractional order must be positive and finite, got {nu}")
    if nu == 2.0 * round(nu / 2.0):
        raise ParameterError(f"nu = {nu} is an even integer; use char_value")
    _check_q(q)
    if q == 0.0:
        return MathieuChar(nu, 0.0, None, nu * nu)
    return MathieuChar(nu, q, None, _solve(None, nu, q)[0])


# --- small-q polynomial form, valid for m > 3 ---

_NS = 5  # series kept through x^4, x = q^2


def _pmul(a, b):
    out = np.zeros(_NS)
    for i in range(_NS):
        if a[i] == 0.0:
            continue
        out[i:] += a[i] * b[: _NS - i]
    return out


def _pinv_shifted(delta_j, u):
    # 1/(delta_j - u) mod x^_NS for a series u with u[0] = 0
    w = u / delta_j
    acc = np.zeros(_NS)
    acc[0] = 1.0
    term = acc.copy()
    for _ in range(1, _NS):
        term = _pmul(term, w)
        acc = acc + term
    return acc / delta_j


def _cf_coeffs(nu: float):
    """Coefficients (c2, c4, c6, c8) of lambda_nu(q) = nu^2 + sum c_{2k} q^{2k}.

    Extracted order-by-order from the two-sided continued-fraction recursion
    of the Fourier three-term recurrence, as truncated polynomial arithmetic
    in x = q^2. Depth 4 suffices for orders through q^8.
    """
    chat = np.zeros(_NS)
    xpoly = np.zeros(_NS)
    xpoly[1] = 1.0
    for _ in range(_NS):
        total = np.zeros(_NS)
        for s in (1.0, -1.0):
            expr = np.zeros(_NS)
            for depth in range(4, 0, -1):
                delta_j = (nu + 2.0 * depth * s) ** 2 - nu * nu
                expr = _pmul(xpoly, _pinv_shifted(delta_j, chat + expr))
            total += expr
        chat = -total
    return chat[1], chat[2], chat[3], chat[4]


def char_value_series(m: int, p: float) -> float:
    """Four-term small-p polynomial for the order-2m characteristic value.

    Valid for m > 3, where the a/b pair is degenerate through the retained
    orders. Truncation error is O(p^8); see series_p8_estimate.
    """
    if int(m) != m or m <= 3:
        raise ParameterError(f"series form requires integer m > 3, got {m}")
    m = int(m)
    n1 = 4 * m * m - 1
    return (
        4.0 * m * m
        + p * p / (2.0 * n1)
        + (20.0 * m * m + 7.0) * p ** 4 / (32.0 * n1 ** 3 * (n1 - 3))
        + (144.0 * m ** 4 + 232.0 * m * m + 29.0) * p ** 6
        / (64.0 * n1 ** 5 * (n1 - 3) * (n1 - 8))
    )


def series_p8_estimate(m: int, p: float) -> float:
    """Estimate of the first omitted term of char_value_series.

    |c8(2m)| p^8 from the continued-fraction recursion, plus the a/b
    splitting contribution when it lands exactly at order q^8 (2m = 8),
    plus a floor of 4 ulp of the leading term: the series and any float64
    reference value cannot be distinguished more finely than that.
    """
    if int(m) != m or m <= 3:
        raise ParameterError(f"series form requires integer m > 3, got {m}")
    m = int(m)
    c8 = abs(_cf_coeffs(2.0 * m)[3])
    if 2 * m == 8:
        # half of the leading-order a-b splitting 2 q^{2m}/(4^{2m-1}((2m-1)!)^2)
        c8 += 1.0 / (4.0 ** (2 * m - 1) * math.factorial(2 * m - 1) ** 2)
    return c8 * p ** 8 + 4.0 * float(np.spacing(4.0 * m * m))


def fourier_coeffs(m: int, branch: Branch, q: float) -> FourierCoeffs:
    """Fourier coefficients of the order-2m angular eigenfunction.

    Sign fixed so the largest-magnitude coefficient is positive; at the
    returned truncation the outermost component of the unit eigenvector is
    <= 1e-14 of its largest.
    """
    if m < 0 or int(m) != m:
        raise ParameterError(f"m must be a non-negative integer, got {m}")
    m = int(m)
    if branch is Branch.SE and m == 0:
        raise ParameterError("SE requires m >= 1")
    _check_q(q)

    if q == 0.0:
        if branch is Branch.CE:
            coeffs = np.zeros(m + 1)
            coeffs[m] = 1.0 / math.sqrt(2.0) if m == 0 else 1.0
        else:
            coeffs = np.zeros(m)
            coeffs[m - 1] = 1.0
        return FourierCoeffs(branch, m, 0.0, coeffs, len(coeffs))

    _, vec, K = _solve(branch, m, q)
    # eigenvector is unit-norm; the constant CE mode carries sqrt(2) in the
    # matrix, so dividing it back restores 2*A0^2 + sum A^2 = 1
    coeffs = vec.copy()
    if branch is Branch.CE:
        coeffs[0] /= math.sqrt(2.0)
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return FourierCoeffs(branch, m, q, coeffs, K)


def eval_angular(theta, coeffs: FourierCoeffs, delta: float = 0.0):
    """Angular factor Theta(theta) = e^{i delta theta} * trig sum.

    The trig sum uses the integer-order coefficients; the flux enters as a
    Bloch-type phase. That is exact at q = 0 or integer delta, and is the
    adopted convention otherwise (the phase never changes |Theta|, so the
    pi-normalization holds for any delta). Accepts scalar or array theta.
    """
    th = np.asarray(theta, dtype=float)
    acc = np.zeros_like(th)
    if coeffs.branch is Branch.CE:
        for k, ck in enumerate(coeffs.coeffs):
            acc = acc + ck * np.cos(k * th)
    else:
        for k, ck in enumerate(coeffs.coeffs):
            acc = acc + ck * np.sin((k + 1) * th)
    out = acc * np.exp(1j * delta * th)
    if np.isscalar(theta) or getattr(theta, "ndim", 0) == 0:
        return complex(out)
    return out
