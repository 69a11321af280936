"""Independent brute-force eigensolvers.

Nothing here reuses the analytic chain: the angular operator is
discretized directly on theta in [0, 2pi) (Fourier collocation by
default, second-order central differences as the alternative), and the
radial operator on an offset uniform grid. These exist so every analytic
claim can be tested without trusting the analytic code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError, SupercriticalError, _count, _real
from .params import SystemParams


@dataclass(frozen=True)
class FdSpectrum:
    grid_size: int
    eigenvalues: np.ndarray  # ascending
    method: str
    residuals: np.ndarray


def _fourier_diff_matrices(N: int):
    # spectral differentiation on the periodic grid theta_j = j h, h = 2 pi / N
    h = 2.0 * math.pi / N
    j = np.arange(N)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        half = diff * h / 2.0
        d1 = 0.5 * (-1.0) ** diff / np.tan(half)
        d2 = -((-1.0) ** diff) / (2.0 * np.sin(half) ** 2)
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d2, -(math.pi ** 2) / (3.0 * h * h) - 1.0 / 6.0)
    return d1, d2


def angular_fd_eigs(delta: float, p: float, N: int, method: str = "fourier") -> FdSpectrum:
    """Eigenvalues of d^2/dtheta^2 - 2i delta d/dtheta - (p/2) cos(theta).

    2pi-periodic single-valued discretization; the operator is Hermitian so
    the returned values (the angular energies E_theta, ascending) are real.
    """
    N = _count("N", N, 1024)  # the dense complex matrix holds N^2 entries
    if N < 64 or N % 2:
        raise ParameterError(f"N must be even and >= 64, got {N}")
    delta, p = _real("delta", delta), _real("p", p)
    # an entry is below N^2 + |delta| N + |p|: N times that bounds every sum in the solve
    _real(f"delta = {delta}, p = {p}: the operator bound on {N} points",
          N * (N * N + N * abs(delta) + abs(p)))
    th = np.arange(N) * (2.0 * math.pi / N)
    if method == "fourier":
        d1, d2 = _fourier_diff_matrices(N)
        H = d2.astype(complex) - 2j * delta * d1
    elif method == "fd":
        h = 2.0 * math.pi / N
        H = np.zeros((N, N), dtype=complex)
        np.fill_diagonal(H, -2.0 / (h * h))
        idx = np.arange(N)
        H[idx, (idx + 1) % N] += 1.0 / (h * h) - 1j * delta / h
        H[idx, (idx - 1) % N] += 1.0 / (h * h) + 1j * delta / h
    else:
        raise ParameterError(f"unknown method {method!r}")
    H -= np.diag((p / 2.0) * np.cos(th))

    herm_defect = float(np.max(np.abs(H - H.conj().T)))
    if herm_defect > 1e-12:
        raise NumericsError(f"discretized operator lost hermiticity: {herm_defect}")
    w, v = np.linalg.eigh(H)
    res = np.max(np.abs(H @ v - v * w[None, :]), axis=0)
    return FdSpectrum(grid_size=N, eigenvalues=w, method=method, residuals=res)


def radial_fd_eigs(E_theta: float, params: SystemParams, n_max: int) -> FdSpectrum:
    """Lowest n_max radial eigenvalues eps, Richardson-extrapolated.

    Solves -u'' - eta/r^2 u + 2 mu A r^2 u = eps u on r in (0, r_max] with
    Dirichlet walls, on offset grids r_j = (j+1/2) h so the 1/r^2 term never
    touches the singular point. Three grid levels; each eigenvalue is
    convergence_report's value over them, up to the first level whose observed
    order leaves [1.5, 2.5] around the scheme's 2: from there up, levels keep
    their finest-grid value and so stay ascending. n_max is at most 1000.
    """
    from scipy.linalg import eigh_tridiagonal  # scipy is needed only by the oracles

    levels = (1000, 2000, 4000)
    if not 1 <= n_max <= levels[0]:
        raise ParameterError(f"n_max must be in 1..{levels[0]} (the coarsest grid), got {n_max}")
    beta = params.B + params.delta * params.delta / (2.0 * params.mu)
    eta = _real("E_theta", E_theta) - 2.0 * params.mu * beta + 0.25
    if 1.0 - 4.0 * eta < 0.0:
        raise SupercriticalError(f"1 - 4 eta = {1.0 - 4.0 * eta} < 0")
    r_max = 9.0 * params.a_length

    vals = []
    for N in levels:  # the finest grid is solved with vectors, for the residual check
        h = r_max / N
        r = (np.arange(N) + 0.5) * h
        with np.errstate(over="ignore"):  # an entry past the largest double is refused by name
            d = _real(f"E_theta = {E_theta}: the radial operator",
                      2.0 / (h * h) - eta / r ** 2 + 2.0 * params.mu * params.A * r ** 2)
        e = np.full(N - 1, -1.0 / (h * h))
        vals.append(eigh_tridiagonal(d, e, eigvals_only=N < levels[-1], select="i",
                                     select_range=(0, n_max - 1)))
    v1, v2, (v3, v) = vals
    reports = [convergence_report(level) for level in zip(v1, v2, v3)]
    off = next((i for i, rep in enumerate(reports) if not 1.5 <= rep.order <= 2.5), n_max)
    extrap = np.concatenate([[rep.extrapolated for rep in reports[:off]], v3[off:]])

    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    res = np.max(np.abs(tv - v * v3[None, :]), axis=0)
    return FdSpectrum(
        grid_size=levels[-1],
        eigenvalues=extrap,
        method="fd-offset-richardson",
        residuals=res,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    extrapolated: float
    order: float  # nan when undefined
    flags: tuple


def convergence_report(seq) -> ConvergenceReport:
    """Richardson extrapolation from estimates at successively doubled grids.

    Uses the last three entries. A sequence already at the noise floor is
    flagged "converged" (order undefined); a non-contracting or
    sign-flipping difference pattern is flagged "unreliable" and the last
    value is returned unextrapolated.
    """
    vals = np.ravel(_real("estimates", seq)).tolist()
    if len(vals) < 3:
        raise ParameterError("need at least 3 grid levels")
    v1, v2, v3 = vals[-3:]
    d1, d2 = v2 - v1, v3 - v2
    scale = max(abs(v1), abs(v2), abs(v3), 1.0)
    if abs(d1) <= 1e-13 * scale and abs(d2) <= 1e-13 * scale:
        return ConvergenceReport(extrapolated=v3, order=math.nan, flags=("converged",))
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0 or abs(d2) >= abs(d1):
        return ConvergenceReport(extrapolated=v3, order=math.nan, flags=("unreliable",))
    order = math.log2(abs(d1) / abs(d2))
    return ConvergenceReport(
        extrapolated=v3 + d2 / (2.0 ** order - 1.0), order=order, flags=()
    )
