import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qring import (
    Branch,
    EvaluationError,
    IntegrationError,
    ParameterError,
    PhoParams,
    QringError,
    QuantumState,
    angular_eigenvalue,
    from_material,
    from_pho,
    get_material,
    make_wave,
    normalize_numeric,
    psi,
    radial_exponent,
    radial_profile,
    renormalized,
)
from qring import mathieu
from qring.hyper import hyp1f1_poly
from qring.mathieu import FourierCoeffs, eval_angular, fourier_coeffs
from qring.wavefun import count_radial_nodes

GAAS = get_material("GaAs")


def _spec(n_r=0, m=1, parity=Branch.CE, D=5.0, delta=0.0, mat=GAAS):
    return make_wave(QuantumState(n_r, m, parity, delta),
                     from_material(mat, D, delta))


@pytest.mark.parametrize("delta,expected", [
    (0.0, [("eigh", 1, 11)]), (0.25, [("iteration", 1, 21), ("eigh", 1, 11)])],
    ids=["0.0-1", "0.25-2"])  # delta and the number of solves
def test_make_wave_solves_the_zero_flux_angular_matrix_once(solves, delta, expected):
    # at zero flux one eigenpair gives both the value and the coefficients;
    # a flux shifts the value's order away from the coefficients' one, onto
    # the Floquet lattice
    spec = _spec(n_r=1, m=2, delta=delta)
    assert solves == expected
    e_theta = angular_eigenvalue(spec.state, spec.params)[0]
    assert spec.alpha == radial_exponent(e_theta, spec.params)[1]


def test_norm_scales_as_inverse_sqrt_a():
    """N depends on the confinement only through 1/sqrt(a)."""
    soft = _spec(mat=GAAS)
    stiff = _spec(mat=replace(GAAS, hbar_omega0=4.0))
    assert stiff.a < soft.a
    assert soft.N * math.sqrt(soft.a) == pytest.approx(
        stiff.N * math.sqrt(stiff.a), rel=1e-12)


def test_density_peaks_at_a_sqrt_2alpha():
    spec = _spec(n_r=0, m=2, D=0.0)
    grid = np.linspace(0.0, 6.0 * spec.a, 20001)
    table = radial_profile(spec, grid)
    dens = np.array([row[1] for row in table.rows])
    r_peak = grid[np.argmax(dens)]
    assert r_peak == pytest.approx(spec.a * math.sqrt(2.0 * spec.alpha),
                                   abs=grid[1] - grid[0])


def test_node_counts():
    # n_r = 400 and 5000 are past where hyp1f1_poly overflows; the ratios do not
    for n_r in (*range(5), 400, 5000):
        assert count_radial_nodes(_spec(n_r=n_r)) == n_r
    for m in (0, 10, 40, 100):
        for n_r in range(0, 41, 5):
            assert count_radial_nodes(_spec(n_r=n_r, m=m, D=10.0)) == n_r


def _grid_sign_changes(spec):
    # an independent count: sign changes of the polynomial factor on 4,096
    # geometric points out past its largest zero, while the recurrence is finite
    n = spec.state.n_r
    if n == 0:
        return 0
    rho = np.geomspace(1e-9, 4.0 * n + 2.0 * spec.beta + 20.0, 4096)
    signs = np.sign(hyp1f1_poly(n, spec.beta, rho))
    signs = signs[signs != 0]
    return int(np.sum(np.abs(np.diff(signs)) > 1))


@pytest.mark.parametrize("m", [0, 3, 250])
def test_sturm_node_count_matches_the_grid_sign_count(m):
    for n_r in (*range(12), *range(20, 351, 30)):
        spec = _spec(n_r=n_r, m=m, D=10.0)
        assert count_radial_nodes(spec) == _grid_sign_changes(spec) == n_r


def test_quadrature_confirms_closed_norm():
    for n_r in (0, 2, 20, 30, 60):
        for m, parity in ((0, Branch.CE), (2, Branch.SE)):
            spec = _spec(n_r=n_r, m=m, parity=parity, D=8.0)
            assert (spec.N / normalize_numeric(spec)) ** 2 == pytest.approx(
                1.0, abs=1e-11)


@pytest.mark.parametrize("mat", ["GaAs", "CdSe"])
def test_quadrature_norm_on_state_grid(mat):
    for m in (0, 1, 3, 10, 30, 100):
        for D in (0.0, 10.0):
            for n_r in range(31):
                spec = _spec(n_r=n_r, m=m, D=D, mat=get_material(mat))
                assert abs((spec.N / normalize_numeric(spec)) ** 2 - 1.0) <= 1e-12


def test_large_m_closed_norm_and_nodes():
    # beta ~ m here: Gamma(beta)^2 alone overflows a double, and at m = 150
    # so does the weight rho^(beta-1) near its peak
    for m in (100, 150):
        for n_r in (0, 2):
            spec = _spec(n_r=n_r, m=m, D=10.0)
            assert spec.N == pytest.approx(normalize_numeric(spec), rel=1e-9)
            assert count_radial_nodes(spec) == n_r


@pytest.mark.parametrize("n_r", [187, 200])
def test_quadrature_overflow_is_an_integration_error(n_r):
    # the Christoffel sum of the Gauss-Laguerre weights overflows at the outer
    # nodes from n_r = 187, and the integrand from about n_r = 200: an error
    # that names the overflow, with no numpy warning and no node dropped
    with pytest.raises(IntegrationError, match="overflows a double"):
        normalize_numeric(_spec(n_r=n_r, m=0, D=0.0))


@pytest.mark.parametrize("m,parity", [(1024, Branch.CE), (1024, Branch.SE), (2048, Branch.CE),
                                      (2048, Branch.SE)])
def test_angular_rule_does_not_alias_at_high_order(m, parity):
    """A high-order angular factor leaves the quadrature norm of a state unchanged.

    The radial part is the same and the angular integral is pi in both. A
    fixed 2,048-point rule aliases the dominant frequency 2m of |Theta|^2 at
    these orders (q = 0.2): onto the mean for CE, which reads the norm 1/sqrt(2)
    too small, and onto the zeros of sin^2(m theta) for SE, which reads it
    about 2e4 (m = 1024) and 4e4 (m = 2048) times too large. The grid sized
    to the coefficients is exact; what is left is the rounding of its nodes
    (1.2e-14 at most here).
    """
    spec = _spec(m=1, parity=parity)
    high = replace(spec, coeffs=fourier_coeffs(m, parity, 0.2))
    assert normalize_numeric(high) == pytest.approx(normalize_numeric(spec), rel=5e-14)


def _sized_grid_integral(spec):
    """normalize_numeric's angular grid size and rectangle sum of |Theta|^2 on it.

    Read through a spy on the one eval_angular call it makes.
    """
    seen = []

    def spy(theta, coeffs, delta=0.0):
        seen.append((theta, eval_angular(theta, coeffs, delta)))
        return seen[-1][1]

    with mock.patch.object(mathieu, "eval_angular", spy):
        normalize_numeric(spec)
    (theta, values), = seen
    assert np.allclose(theta, np.arange(theta.size) * (2.0 * math.pi / theta.size),
                       rtol=1e-15, atol=0.0)  # equispaced over one period
    return theta.size, _rectangle(values)


def _rectangle(values):
    return float(np.sum(np.abs(values) ** 2) * (2.0 * math.pi / values.size))


# Both rules are exact. What is left is the rounding of the nodes (each up to
# 4 pi u off), which the slope of |Theta|^2, about 2m, carries into the sum:
# 6.0e-14 at most over 150 seeded draws with m <= 3,000, growing about as sqrt(m).
ANGULAR_RTOL = 1e-13


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(parity=st.sampled_from(Branch), m=st.integers(0, 3000),
       q=st.floats(0.0, 50.0), delta=st.sampled_from([0.0, 0.3]), n_r=st.integers(0, 3))
def test_sized_angular_rule_is_exact(parity, m, q, delta, n_r):
    """The angular integral is pi on the sized grid, and on one twice as fine.

    Both grids are exact, so they agree to their rounding, not to a
    discretisation error. Where make_wave succeeds, the quadrature norm
    confirms the closed form.
    """
    m = max(m, parity is Branch.SE)
    coeffs = fourier_coeffs(m, parity, q)
    spec = replace(_spec(delta=delta), coeffs=coeffs)
    points, integral = _sized_grid_integral(spec)
    assert points == 2 * (coeffs.truncation - (parity is Branch.CE)) + 1
    assert integral == pytest.approx(math.pi, rel=ANGULAR_RTOL)
    fine = eval_angular(np.arange(2 * points) * (math.pi / points), coeffs, delta)
    assert integral == pytest.approx(_rectangle(fine), rel=ANGULAR_RTOL)
    try:
        wave = _spec(n_r=n_r, m=m, parity=parity, D=q * GAAS.eps_r / (4.0 * GAAS.m_star),
                     delta=delta)
    except QringError:  # N underflows past m ~ 300, or the dipole collapses the state
        return
    assert normalize_numeric(wave) == pytest.approx(wave.N, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(parity=st.sampled_from(Branch),
       body=st.lists(st.floats(-1.0, 1.0), max_size=40), top=st.floats(0.5, 1.0))
def test_sized_angular_rule_is_exact_for_any_trig_polynomial(parity, body, top):
    """As above for arbitrary coefficients, whose top one is not negligible.

    A Mathieu vector's outermost coefficient is <= 1e-14 of its largest, so a
    rule one point too small aliases only its square, below the rounding; here
    the top frequency carries weight, and any fewer points fail.
    """
    c = np.array([*body, top])
    norm = np.sum(c ** 2) + (c[0] ** 2 if parity is Branch.CE else 0.0)
    coeffs = FourierCoeffs(parity, 0, 0.0, c / math.sqrt(norm), c.size, 0.0)
    _, integral = _sized_grid_integral(replace(_spec(), coeffs=coeffs))
    assert integral == pytest.approx(math.pi, rel=ANGULAR_RTOL)


def test_renormalized_reproduces_closed_norm():
    spec = _spec()
    again = renormalized(spec)
    assert again.N == pytest.approx(spec.N, rel=1e-11)


def test_psi_is_single_valued_and_flux_modulated():
    delta = 0.3
    spec = _spec(m=1, D=3.0, delta=delta)
    r = 1.2 * spec.a
    # the physical density is 2pi-periodic even though the phase winds
    d0 = abs(psi(spec, r, 0.1)) ** 2
    d1 = abs(psi(spec, r, 0.1 + 2 * math.pi)) ** 2
    assert d0 == pytest.approx(d1, rel=1e-12)


def test_psi_rejects_negative_radius():
    spec = _spec()
    for r, theta in ((-0.5, 0.0), (math.nan, 0.3), (math.inf, 0.3), (spec.a, math.nan),
                     (np.array([0.0, math.nan]), 0.3), (10**400, 0.0), (1.0, 10**400)):
        with pytest.raises(ParameterError):
            psi(spec, r, theta)
    # r^2 / a^2 overflows: a numpy warning before, a named error now
    with pytest.raises(EvaluationError, match="overflows"):
        psi(spec, 1e308, 0.0)


def test_radial_profile_grid_validation():
    spec = _spec()
    with pytest.raises(ParameterError):
        radial_profile(spec, np.array([0.5, 0.1]))  # not ascending
    with pytest.raises(ParameterError):
        radial_profile(spec, np.array([-1.0, 0.5]))
    with pytest.raises(ParameterError):
        radial_profile(spec, np.array([0.0, math.nan]))
    with pytest.raises(ParameterError):
        radial_profile(spec, [0, 10**400])


def test_pho_wave_matches_direct_params():
    pho = PhoParams(D_e=0.3, r_e=4.0)
    params = from_pho(pho, mu=1.0)
    spec = make_wave(QuantumState(0, 0, Branch.CE), params)
    n_quad = normalize_numeric(spec)
    assert (spec.N / n_quad) ** 2 == pytest.approx(1.0, abs=1e-10)
    # peak of the PHO ground density sits near the ring radius r_e for a
    # deep well; with these parameters it lands within a few percent
    grid = np.linspace(0.0, 4.0 * pho.r_e, 8001)
    dens = np.array([row[1] for row in radial_profile(spec, grid).rows])
    assert grid[np.argmax(dens)] == pytest.approx(pho.r_e, rel=0.1)


def test_wavefunction_vanishes_at_origin():
    spec = _spec(m=0, D=0.0)
    # alpha > 1/4 guarantees r^(2 alpha - 1/2) -> 0
    assert abs(psi(spec, 0.0, 0.3)) == 0.0
    near = abs(psi(spec, 1e-8 * spec.a, 0.3))
    assert near < 1e-6
