"""Eigenfunction evaluation, quadrature normalization, and radial profiles.

The separation ansatz carries an r^(-1/2) prefactor, so the physical
radial factor is

    f(r) = N (r/a)^(2 alpha - 1/2) a^(-1/2) e^(-r^2/2a^2) 1F1(-n_r, beta, r^2/a^2)

with beta = 2 alpha + 1/2. The combined exponent keeps r = 0 regular for
every alpha >= 1/4. The angular factor integrates to pi over a period, so
normalization fixes N through the radial integral alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from . import mathieu, spectrum
from .errors import IntegrationError, ParameterError
from .hyper import hyp1f1_poly
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
    e_theta, _, q, _ = spectrum.angular_eigenvalue(state, params)
    _, alpha = spectrum.radial_exponent(e_theta, params)
    a = params.a_length
    coeffs = mathieu.fourier_coeffs(state.m, state.parity, q)
    return WaveSpec(
        state=state,
        params=params,
        a=a,
        alpha=alpha,
        N=_closed_form_norm(state.n_r, alpha, a),
        coeffs=coeffs,
    )


def _radial_factor(spec: WaveSpec, r):
    r = np.asarray(r, dtype=float)
    rho = (r / spec.a) ** 2
    f = np.array([hyp1f1_poly(spec.state.n_r, spec.beta, x) for x in np.atleast_1d(rho)])
    f = f.reshape(rho.shape) if rho.shape else f[0]
    expo = 2.0 * spec.alpha - 0.5  # > 0 whenever alpha > 1/4
    return (
        spec.N
        * (r / spec.a) ** expo
        / math.sqrt(spec.a)
        * np.exp(-rho / 2.0)
        * f
    )


def psi(spec: WaveSpec, r, theta):
    """psi(r, theta), complex. Scalar or array arguments (broadcastable)."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ParameterError("r must be >= 0")
    radial = _radial_factor(spec, r_arr)
    angular = mathieu.eval_angular(theta, spec.coeffs, spec.params.delta)
    out = radial * angular
    if np.isscalar(r) and np.isscalar(theta):
        return complex(out)
    return out


def normalize_numeric(spec: WaveSpec) -> float:
    """Normalization constant from direct quadrature of int |psi|^2 r dr dtheta.

    Authoritative over any closed-form N on disagreement. Radial part by
    adaptive quadrature in rho, angular part by the rectangle rule (exact
    for the trigonometric integrand).
    """
    beta = spec.beta
    n = spec.state.n_r

    def integrand(rho):
        return rho ** (beta - 1.0) * math.exp(-rho) * hyp1f1_poly(n, beta, rho) ** 2

    upper = 60.0 + 12.0 * n + 6.0 * beta
    radial, err = quad(integrand, 0.0, upper, epsabs=1e-14, epsrel=1e-11, limit=400)
    if not math.isfinite(radial) or radial <= 0 or err > 1e-10 * radial:
        raise IntegrationError(
            f"radial normalization quadrature unreliable: value {radial}, err {err}"
        )
    th = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    tvals = mathieu.eval_angular(th, spec.coeffs, spec.params.delta)
    angular = float(np.sum(np.abs(tvals) ** 2) * (th[1] - th[0]))
    return math.sqrt(2.0 / (angular * spec.a * radial))


def renormalized(spec: WaveSpec) -> WaveSpec:
    """Copy of spec with N replaced by the quadrature value."""
    return replace(spec, N=normalize_numeric(spec))


@dataclass(frozen=True)
class ProfileTable:
    """Radial probability density |R(r)|^2 = r |f(r)|^2, plus the node count."""

    rows: tuple  # (r, R2) pairs
    nodes: int


def count_radial_nodes(spec: WaveSpec) -> int:
    """Sign changes of the polynomial factor in r in (0, inf)."""
    n = spec.state.n_r
    if n == 0:
        return 0
    # all roots of the degree-n factor sit below rho ~ 4n + 2 beta
    rho = np.geomspace(1e-9, 4.0 * n + 2.0 * spec.beta + 20.0, 4096)
    vals = np.array([hyp1f1_poly(n, spec.beta, x) for x in rho])
    signs = np.sign(vals)
    keep = signs != 0
    return int(np.sum(np.abs(np.diff(signs[keep])) > 1))


def radial_profile(spec: WaveSpec, r_grid) -> ProfileTable:
    """Tabulated |R|^2 on the given grid; node count appended.

    The density is |R(r)|^2 = r |f(r)|^2, which integrates (times pi from
    the angular factor) to 1; its n_r = 0 maximum sits near r = a sqrt(2 alpha).
    """
    r = np.asarray(r_grid, dtype=float)
    if r.size and (np.any(r < 0) or np.any(np.diff(r) < 0)):
        raise ParameterError("r_grid must be ascending and non-negative")
    if r.size == 0:
        return ProfileTable(rows=(), nodes=count_radial_nodes(spec))
    f = _radial_factor(spec, r)
    dens = r * np.abs(f) ** 2
    return ProfileTable(
        rows=tuple(zip(r.tolist(), dens.tolist())),
        nodes=count_radial_nodes(spec),
    )
