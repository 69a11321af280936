"""Eigenfunction evaluation, quadrature normalization, and radial profiles.

The separation ansatz carries an r^(-1/2) prefactor, so the physical
radial factor is

    f(r) = N (r/a)^(2 alpha - 1/2) a^(-1/2) e^(-r^2/2a^2) 1F1(-n_r, beta, r^2/a^2)

with beta = 2 alpha + 1/2. The combined exponent keeps r = 0 regular for
every alpha >= 1/4. N, the power and the Gaussian are evaluated as one
exponential of their summed logs, the polynomial by the 1F1 recurrence of
hyper, which also serves the quadrature normalization. The node count is the
Sturm count of the same recurrence's ratios, exact at every n_r.
The angular factor integrates to pi over a period, so normalization fixes N
through the radial integral alone.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import mathieu, spectrum
from .errors import _MAX_POINTS, EvaluationError, ParameterError, _count, _fields, _real
from .hyper import gauss_laguerre, hyp1f1_poly
from .params import SystemParams
from .spectrum import QuantumState


@dataclass(frozen=True)
class WaveSpec:
    """Everything needed to evaluate one normalized eigenfunction."""

    state: QuantumState
    params: SystemParams
    a: float
    alpha: float
    N: float
    coeffs: mathieu.FourierCoeffs

    def __post_init__(self):  # alpha >= 1/4, the regular exponent's floor, keeps r = 0 regular
        _fields(self, a=(0, True), alpha=(0.25,), N=(0, True))
        _real("beta = 2 alpha + 1/2", self.beta)

    @property
    def beta(self) -> float:
        return 2.0 * self.alpha + 0.5


def _closed_form_norm(n_r: int, alpha: float, a: float) -> float:
    # int_0^inf rho^(beta-1) e^-rho 1F1(-n,beta,rho)^2 drho = n! G(beta)^2 / G(n+beta),
    # taken in logs so large m (large beta) does not overflow
    beta = 2.0 * alpha + 0.5
    log_radial = math.lgamma(n_r + 1) + 2.0 * math.lgamma(beta) - math.lgamma(n_r + beta)
    return math.sqrt(2.0 / (math.pi * a)) * math.exp(-0.5 * log_radial)


def make_wave(state: QuantumState, params: SystemParams) -> WaveSpec:
    """Build a normalized WaveSpec (closed-form N; see normalize_numeric)."""
    _count("n_r", state.n_r, _MAX_POINTS)  # bounded as in hyp1f1_poly, the radial polynomial
    zero_flux = state.delta == params.delta == 0.0
    # at non-zero flux the angular value comes first, so that a bad input raises its own error
    e_theta = None if zero_flux else spectrum.angular_eigenvalue(state, params)[0]
    coeffs = mathieu.fourier_coeffs(state.m, state.parity, 4.0 * params.mu * params.D_theta)
    if zero_flux:  # one eigenpair gives value and coefficients
        e_theta = -coeffs.value / 4.0
    _, alpha = spectrum.radial_exponent(e_theta, params)
    a = params.a_length
    N = _closed_form_norm(state.n_r, alpha, a)
    if N < sys.float_info.min:
        # the density would print as zeros, then as 0 * inf = nan
        raise EvaluationError(
            f"normalization constant {N} underflows for {state}", term_trace=[("N", N)]
        )
    return WaveSpec(state=state, params=params, a=a, alpha=alpha, N=N, coeffs=coeffs)


def _radial_factor(spec: WaveSpec, r):
    # N (r/a)^(beta-1) e^(-rho/2) in one exponent: the power alone overflows at large m;
    # log 0 = -inf makes r = 0 exactly 0 (beta > 1). Far out the polynomial overflows before
    # the Gaussian acts (and a numpy square, where a float power raises): named below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = np.square(r / spec.a)
        scale = np.exp(math.log(spec.N) + 0.5 * ((spec.beta - 1.0) * np.log(rho) - rho))
        f = scale / math.sqrt(spec.a) * hyp1f1_poly(spec.state.n_r, spec.beta, rho)
        overflow = ~np.isfinite(r * np.abs(f) ** 2)
    if overflow.any():
        raise EvaluationError(f"density overflows at {int(overflow.sum())} of {overflow.size} "
                              f"grid points for {spec.state}", term_trace=[("N", spec.N)])
    return f


def psi(spec: WaveSpec, r, theta):
    """psi(r, theta), complex. Scalar or array arguments (broadcastable)."""
    with np.errstate(over="ignore"):  # coefficients far from unit norm can overflow: named below
        out = (_radial_factor(spec, _real("r", r, 0))
               * mathieu.eval_angular(theta, spec.coeffs, spec.params.delta))
    if not np.isfinite(out).all():
        raise EvaluationError(f"psi overflows for {spec.state}", term_trace=[("N", spec.N)])
    return complex(out) if np.isscalar(r) and np.isscalar(theta) else out


def normalize_numeric(spec: WaveSpec) -> float:
    """Normalization constant from direct quadrature of int |psi|^2 r dr dtheta.

    Authoritative over any closed-form N on disagreement. Radial part by the
    exact Gauss-Laguerre rule for 1F1(-n, beta, rho)^2 against the weight
    rho^(beta-1) e^-rho / Gamma(beta); angular part by the M-point rectangle
    rule, exact for e^(ij theta), |j| < M (the M-th roots of unity sum to 0).
    Theta's top frequency t is K - 1 (CE) or K (SE), K = coeffs.coeffs.size, so
    |Theta|^2 has |j| <= 2t: M = 2t + 1 is exact, and one point fewer aliases.
    """
    n, beta = spec.state.n_r, spec.beta
    radial = gauss_laguerre(lambda rho: hyp1f1_poly(n, beta, rho) ** 2, n + 1, beta - 1.0)
    points = 2 * (spec.coeffs.coeffs.size - (spec.coeffs.branch is mathieu.Branch.CE)) + 1
    step = 2.0 * math.pi / points
    tvals = mathieu.eval_angular(step * np.arange(points), spec.coeffs, spec.params.delta)
    with np.errstate(over="ignore"):  # an overflow is named below
        angular = float(np.sum(np.abs(tvals) ** 2) * step)
    try:  # float division by a product that underflowed to 0 raises, where numpy would warn
        N = math.sqrt(2.0 / (angular * spec.a * radial)) * math.exp(-0.5 * math.lgamma(beta))
    except ZeroDivisionError:
        N = math.nan
    if not 0.0 < N < math.inf:
        raise EvaluationError(f"quadrature normalization {N} for {spec.state}", term_trace=[
            ("angular", angular), ("radial", radial), ("a", spec.a), ("beta", beta)])
    return N


def renormalized(spec: WaveSpec) -> WaveSpec:
    """Copy of spec with N replaced by the quadrature value."""
    return replace(spec, N=normalize_numeric(spec))


@dataclass(frozen=True)
class ProfileTable:
    """Radial probability density |R(r)|^2 = r |f(r)|^2, plus the node count."""

    rows: tuple  # (r, R2) pairs
    nodes: int


def count_radial_nodes(spec: WaveSpec) -> int:
    """Zeros of the polynomial factor in r in (0, inf), by a Sturm count.

    M_j = 1F1(-j, beta, rho) are orthogonal polynomials, so the number of
    negative ratios M_{j+1}/M_j, j < n_r, at rho is the number of zeros of
    M_{n_r} in (0, rho) (Szego, Orthogonal Polynomials, 1939, ch. 6). At
    rho = 4 n_r + 2 beta + 20, past the largest zero, that is every node.
    The ratios run the recurrence of hyp1f1_poly and stay finite at any n_r;
    like it, the count costs one step per degree, O(n_r).
    """
    n, b = spec.state.n_r, spec.beta
    rho = 4.0 * n + 2.0 * b + 20.0
    ratio, count = 1.0, 0
    for j in range(n):
        ratio = (2 * j + b - rho - j / ratio) / (b + j)
        count += ratio < 0.0
    return count


def radial_profile(spec: WaveSpec, r_grid) -> ProfileTable:
    """Tabulated |R|^2 on the given grid; node count appended.

    The density is |R(r)|^2 = r |f(r)|^2, which integrates (times pi from
    the angular factor) to 1; its n_r = 0 maximum sits near r = a sqrt(2 alpha).
    """
    r = np.atleast_1d(_real("r_grid", r_grid, 0))
    if np.any(np.diff(r) < 0):
        raise ParameterError("r_grid must be ascending and non-negative")
    dens = r * np.abs(_radial_factor(spec, r)) ** 2
    return ProfileTable(
        rows=tuple(zip(r.tolist(), dens.tolist())),
        nodes=count_radial_nodes(spec),
    )
