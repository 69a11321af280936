import math
from dataclasses import replace

import numpy as np
import pytest

from qring import (
    Branch,
    ParameterError,
    PhoParams,
    QuantumState,
    from_material,
    from_pho,
    get_material,
    make_wave,
    normalize_numeric,
    psi,
    radial_profile,
    renormalized,
)
from qring.wavefun import count_radial_nodes

GAAS = get_material("GaAs")


def _spec(n_r=0, m=1, parity=Branch.CE, D=5.0, delta=0.0, mat=GAAS):
    return make_wave(QuantumState(n_r, m, parity, delta),
                     from_material(mat, D, delta))


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
    for n_r in range(5):
        assert count_radial_nodes(_spec(n_r=n_r)) == n_r
    for m in (0, 10, 40, 100):
        for n_r in range(0, 41, 5):
            assert count_radial_nodes(_spec(n_r=n_r, m=m, D=10.0)) == n_r


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
                     (np.array([0.0, math.nan]), 0.3)):
        with pytest.raises(ParameterError):
            psi(spec, r, theta)


def test_radial_profile_grid_validation():
    spec = _spec()
    with pytest.raises(ParameterError):
        radial_profile(spec, np.array([0.5, 0.1]))  # not ascending
    with pytest.raises(ParameterError):
        radial_profile(spec, np.array([-1.0, 0.5]))
    with pytest.raises(ParameterError):
        radial_profile(spec, np.array([0.0, math.nan]))


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
