import math

import numpy as np
import pytest

from qring import (
    Branch,
    ConvergenceError,
    ParameterError,
    QuantumState,
    angular_eigenvalue,
    angular_fd_eigs,
    convergence_report,
    from_material,
    get_material,
    radial_fd_eigs,
)

GAAS = get_material("GaAs")


def test_free_rotor_spectrum():
    # p = 0, delta = 0: eigenvalues are -k^2, each k > 0 twice
    fd = angular_fd_eigs(0.0, 0.0, 64)
    top = np.sort(fd.eigenvalues)[::-1][:7]
    expect = np.array([0.0, -1.0, -1.0, -4.0, -4.0, -9.0, -9.0])
    assert np.max(np.abs(top - expect)) < 1e-10
    assert np.max(fd.residuals) < 1e-10


def test_flux_spectrum_gauge_periodic_up_to_offset():
    # delta -> delta + 1 relabels k -> k + 1 and shifts every level by the
    # constant (delta+1)^2 - delta^2; only the truncation edge disagrees
    delta = 0.2
    a = np.sort(angular_fd_eigs(delta, 0.4, 128).eigenvalues)[::-1][:40]
    b = np.sort(angular_fd_eigs(delta + 1.0, 0.4, 128).eigenvalues)[::-1][:40]
    assert np.max(np.abs(b - a - (2 * delta + 1.0))) < 1e-9


def test_half_flux_degeneracy():
    # at delta = 1/2 and p = 0 levels pair up: delta^2 - (k - 1/2)^2
    fd = angular_fd_eigs(0.5, 0.0, 64)
    top = np.sort(fd.eigenvalues)[::-1][:6]
    assert top[0] == pytest.approx(top[1], abs=1e-10)
    assert top[0] == pytest.approx(0.25 - 0.25, abs=1e-10)
    assert top[2] == pytest.approx(0.25 - 2.25, abs=1e-10)


def test_angular_grid_validation():
    with pytest.raises(ParameterError):
        angular_fd_eigs(0.0, 0.0, 63)
    with pytest.raises(ParameterError):
        angular_fd_eigs(0.0, 0.0, 32)
    with pytest.raises(ParameterError):
        angular_fd_eigs(0.0, 0.0, 64, method="spectral?")
    # refused before the N x N complex matrix is built: N = 20,000 would ask for 6.4 GB
    with pytest.raises(ParameterError, match="N = 1025 is above 1024$"):
        angular_fd_eigs(0.0, 0.1, 1025)
    # nan and an overflowing operator used to return nan eigenvalues or warn
    for delta, p in ((math.nan, 0.1), (math.inf, 0.1), (1e308, 0.1), (0.1, 10**400)):
        with pytest.raises(ParameterError):
            angular_fd_eigs(delta, p, 64)


def test_fd_method_second_order():
    params = from_material(GAAS, 5.0, 0.25)
    e_exact, _, _, _ = angular_eigenvalue(QuantumState(0, 1, Branch.CE, 0.25),
                                          params)
    q = 4.0 * params.mu * params.D_theta
    ests = []
    for N in (128, 256, 512):
        fd = angular_fd_eigs(0.25, q, N, method="fd")
        ests.append(fd.eigenvalues[np.argmin(np.abs(fd.eigenvalues - e_exact))])
    rep = convergence_report(ests)
    assert rep.flags == ()
    assert rep.order == pytest.approx(2.0, abs=0.1)
    assert rep.extrapolated == pytest.approx(e_exact, abs=1e-7)


def test_radial_ladder_from_matrix():
    params = from_material(GAAS, 5.0, 0.0)
    e_theta, _, _, _ = angular_eigenvalue(QuantumState(0, 1, Branch.CE), params)
    fd = radial_fd_eigs(e_theta, params, 4)
    steps = np.diff(fd.eigenvalues)
    exact = 4.0 / params.a_length**2
    assert np.max(np.abs(steps - exact) / exact) < 1e-8
    assert np.max(fd.residuals) < 1e-6 * np.max(np.abs(fd.eigenvalues))


def test_radial_levels_that_do_not_contract_keep_the_finest_grid(monkeypatch):
    # differences 1.0 then 1.5 grow: an extrapolation would move away from every grid
    import scipy.linalg

    levels = iter([1.0, 2.0, 3.5])

    def eigh_tridiagonal(d, e, eigvals_only, select, select_range):
        w = np.array([next(levels)])
        return w if eigvals_only else (w, np.eye(len(d), 1))

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", eigh_tridiagonal)
    params = from_material(GAAS, 0.0, 0.0)
    e_theta, _, _, _ = angular_eigenvalue(QuantumState(0, 0, Branch.CE), params)
    assert radial_fd_eigs(e_theta, params, 1).eigenvalues.tolist() == [3.5]


@pytest.mark.parametrize("D,m,parity", [(0.0, 10, Branch.CE), (10.0, 10, Branch.CE),
                                         (0.0, 0, Branch.CE), (5.0, 3, Branch.SE)])
def test_radial_levels_stay_ascending_past_the_resolved_ones(monkeypatch, D, m, parity):
    # near the top of the coarsest grid the observed order falls far below 2,
    # where extrapolating lifted one level above the next
    import scipy.linalg

    def eigh_tridiagonal(d, e, eigvals_only, select, select_range):
        # all levels by the root-free QL sweep, much faster than bisection;
        # the dummy vectors leave the residuals unchecked here
        w = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")[:select_range[1] + 1]
        return w if eigvals_only else (w, np.zeros((len(d), w.size)))

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", eigh_tridiagonal)
    params = from_material(GAAS, D, 0.0)
    e_theta, _, _, _ = angular_eigenvalue(QuantumState(0, m, parity), params)
    levels = radial_fd_eigs(e_theta, params, 1000).eigenvalues
    assert levels.size == 1000 and (np.diff(levels) > 0).all()


def test_radial_requires_subcritical():
    from qring import SupercriticalError, SystemParams

    params = SystemParams(A=0.5, B=0.0, C=0.0, D_theta=0.0, mu=1.0, delta=0.0)
    # positive angular energy means eta > 1/4: inverse-square collapse
    with pytest.raises(SupercriticalError):
        radial_fd_eigs(1.0, params, 2)
    with pytest.raises(ParameterError):
        radial_fd_eigs(0.0, params, 0)
    # more levels than the coarsest grid's 1000 sites
    with pytest.raises(ParameterError, match="coarsest grid"):
        radial_fd_eigs(0.0, params, 1001)
    # nan reached scipy's own ValueError; -1e308 overflowed the diagonal
    for e_theta in (math.nan, -1e308, 10**400):
        with pytest.raises(ParameterError):
            radial_fd_eigs(e_theta, params, 1)


def test_radial_bisection_failure_names_the_grid():
    # 2 mu A is finite, but LAPACK's bisection does not converge on a grid step of 8e-80
    from qring import SystemParams

    params = SystemParams(A=1e308, B=0.3, C=0.0, D_theta=0.01, mu=0.7)
    with pytest.raises(ConvergenceError, match="^radial grid of 1000 points"):
        radial_fd_eigs(-0.5, params, 2)


def test_convergence_report_clean_order2():
    v = 3.7
    seq = [v + 4e-4, v + 1e-4, v + 2.5e-5]
    rep = convergence_report(seq)
    assert rep.flags == ()
    assert rep.order == pytest.approx(2.0, abs=1e-9)
    assert rep.extrapolated == pytest.approx(v, abs=1e-12)


def test_convergence_report_noise_floor():
    rep = convergence_report([1.0, 1.0, 1.0])
    assert rep.flags == ("converged",)
    assert rep.extrapolated == 1.0
    assert math.isnan(rep.order)


def test_convergence_report_unreliable():
    rep = convergence_report([1.0, 2.0, 3.5])  # growing differences
    assert rep.flags == ("unreliable",)
    assert rep.extrapolated == 3.5
    rep = convergence_report([1.0, 0.5, 0.7])  # sign flip
    assert rep.flags == ("unreliable",)


def test_convergence_report_needs_three():
    with pytest.raises(ParameterError):
        convergence_report([1.0, 2.0])
