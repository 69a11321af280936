import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qring import (
    Branch,
    EvaluationError,
    ParameterError,
    QringError,
    QuantumState,
    SupercriticalError,
    SweepConfig,
    SystemParams,
    ab_correction,
    angular_eigenvalue,
    char_value,
    correction,
    energy,
    fourier_coeffs,
    from_material,
    get_material,
    hyp1f1_poly,
    laguerre,
    normalization_constant,
    qr_energy,
    radial_exponent,
    sweep,
    transition,
)
from qring import spectrum
from qring.spectrum import qr_energies

GAAS = get_material("GaAs")


def test_state_validation():
    with pytest.raises(ParameterError):
        QuantumState(-1, 0, Branch.CE)
    with pytest.raises(ParameterError):
        QuantumState(0, -2, Branch.CE)
    with pytest.raises(ParameterError):
        QuantumState(0, 0, Branch.SE)  # se starts at m = 1


@pytest.mark.parametrize("name, call", [
    ("n_r", lambda v: QuantumState(v, 1, Branch.CE)),
    ("m", lambda v: QuantumState(0, v, Branch.CE)),
    ("m", lambda v: char_value(v, Branch.CE, 0.1)),
    ("m", lambda v: fourier_coeffs(v, Branch.SE, 0.1)),
    ("n_r", lambda v: hyp1f1_poly(v, 1.5, 0.3)),
    ("degree", lambda v: laguerre(v, 0.5, 0.3)),
    ("n_r", lambda v: normalization_constant(v, 1.0, 1.0)),
], ids=["QuantumState.n_r", "QuantumState.m", "char_value", "fourier_coeffs", "hyp1f1_poly",
        "laguerre", "normalization_constant"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1, 1.5])
def test_counts_must_be_non_negative_integers(name, call, value):
    # nan and inf used to escape int() as a raw ValueError or OverflowError
    with pytest.raises(ParameterError, match=f"^{name} must be a non-negative integer, got "):
        call(value)


def test_radial_ladder_spacing():
    """E(n_r + 1) - E(n_r) = 2 sqrt(2A/mu), independent of everything else."""
    params = from_material(GAAS, 7.0, 0.25)
    step = 2.0 * math.sqrt(2.0 * params.A / params.mu)
    rows = [energy(QuantumState(n, 1, Branch.CE, 0.25), params) for n in range(5)]
    for lo, hi in zip(rows, rows[1:]):
        assert hi.E - lo.E == pytest.approx(step, rel=1e-13)


# a state on each side of the first window's half-width 5, so that one call
# reaches both the bottom and the cut stacks of the cosine and sine lattices;
# n_r, and a flux that is an integer (integer order) or not (Floquet lattice)
_STATE_PAIR = st.tuples(st.integers(0, 5), st.integers(6, 40), st.sampled_from(list(Branch)),
                        st.integers(0, 20),
                        st.one_of(st.integers(0, 2).map(float), st.floats(0.0, 2.0)))


def _state_pair_energies(name, pairs, D, shift):
    """E of the two states shift(n_r, m, parity, delta) at each order of each pair,
    from one chain call, shaped (pair and order, state, D)."""
    states = [QuantumState(*label) for low, high, parity, n_r, delta in pairs
              for m in (max(low, parity is Branch.SE), high)
              for label in shift(n_r, m, parity, delta)]
    cols, errors = spectrum._energies(states, get_material(name), D)
    assert all(err is None for err in errors)
    return cols["E"].reshape(-1, 2, len(D))


_MATERIALS = st.sampled_from(["GaAs", "GaAlAs_x0.3", "CdSe"])
_DIPOLES = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4)


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(name=_MATERIALS, pairs=st.lists(_STATE_PAIR, min_size=1, max_size=3), D=_DIPOLES)
def test_radial_ladder_spacing_on_every_material_state_and_dipole(name, pairs, D):
    # E = w (2 n_r + 1 + lambda_eff) + C with w = sqrt(2A/mu), so each step of
    # n_r adds 2w exactly; the two roundings of each E (the sum, then the
    # product) keep the computed step within 4 ulp of E
    E = _state_pair_energies(name, pairs, D, lambda n_r, m, parity, delta: [
        (n_r, m, parity, delta), (n_r + 1, m, parity, delta)])
    params = from_material(get_material(name), 0.0)
    step = 2.0 * math.sqrt(2.0 * params.A / params.mu)
    assert np.all(np.abs(E[:, 1] - E[:, 0] - step) <= 4.0 * np.spacing(E[:, 1]))


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(name=_MATERIALS, pairs=st.lists(_STATE_PAIR, min_size=1, max_size=3), D=_DIPOLES)
def test_a_unit_of_flux_shifts_the_order_by_one(name, pairs, D):
    # (m, delta + 1) and (m + 1, delta) have the same order nu = 2 (m + delta + 1),
    # and so the same energy, up to the rounding of m + delta + 1 either way
    E = _state_pair_energies(name, pairs, D, lambda n_r, m, parity, delta: [
        (n_r, m, parity, delta + 1.0), (n_r, m + 1, parity, delta)])
    assert np.all(np.abs(E[:, 1] - E[:, 0]) <= 4.0 * np.spacing(E[:, 0]))


def test_reference_point_ground_m1():
    row = qr_energy(QuantumState(0, 1, Branch.CE), GAAS, 0.0)
    assert row.e_hw0 == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-12)
    assert row.e_ev == pytest.approx(row.e_hw0 * GAAS.hbar_omega0, rel=1e-12)
    assert row.correction == 0.0
    assert row.branch_note.startswith("integer")


def test_fractional_branch_note():
    row = qr_energy(QuantumState(0, 1, Branch.CE, 0.3), GAAS, 2.0)
    assert row.branch_note == "fractional(merged)"
    assert row.q_mathieu == pytest.approx(4 * GAAS.m_star * 2.0 / GAAS.eps_r)


def test_delta_mismatch_rejected():
    params = from_material(GAAS, 0.0, 0.0)
    with pytest.raises(ParameterError):
        energy(QuantumState(0, 1, Branch.CE, 0.5), params)


def test_integer_flux_shifts_order():
    # delta = 1 relabels m -> m + 1 for the angular problem
    shifted = qr_energy(QuantumState(0, 1, Branch.CE, 1.0), GAAS, 3.0)
    direct = qr_energy(QuantumState(0, 2, Branch.CE, 0.0), GAAS, 3.0)
    assert shifted.char_value == pytest.approx(direct.char_value, abs=1e-12)


def test_supercritical_rejected():
    # strong attractive dipole drives 1 - 4 eta below zero
    params = SystemParams(A=0.5, B=0.0, C=0.0, D_theta=40.0, mu=1.0, delta=0.0)
    with pytest.raises(SupercriticalError):
        energy(QuantumState(0, 0, Branch.CE), params)


def test_overflowing_routes_are_row_errors():
    # at delta = 6e153 beta = delta^2 / (2 mu) overflows: alpha and the chain
    # energy are inf while the closed-form energy is finite
    state = QuantumState(0, 0, Branch.CE)
    cols, errors = qr_energies(state, GAAS, 0.0, delta=[0.25, 6e153])
    assert errors[0] is None and all(math.isfinite(v[0]) for v in cols.values())
    assert isinstance(errors[1], EvaluationError)
    assert "energy routes overflow" in str(errors[1])
    assert all(math.isnan(v[1]) for v in cols.values())
    with pytest.raises(EvaluationError):
        qr_energy(replace(state, delta=6e153), GAAS, 0.0)


def test_qr_energies_rejects_more_than_one_dimension():
    state = QuantumState(0, 1, Branch.CE)
    grid = np.array([[0.0, 1.0], [2.0, 3.0]])
    for D, delta in ((grid, None), (-grid, None), ([0.0, 1.0], np.array([[0.1], [0.2]]))):
        with pytest.raises(ParameterError, match="1-d"):
            qr_energies(state, GAAS, D, delta)
    cols, errors = qr_energies(state, GAAS, [0.0, -1.0], 0.1)
    assert cols["E"].shape == (2,) and isinstance(errors[1], ParameterError)


def test_material_failure_is_an_error_on_every_row():
    # hbar_omega0 = 1e300 overflows A, so the material fails before any solve
    state = QuantumState(0, 1, Branch.CE)
    cols, errors = qr_energies(state, replace(GAAS, hbar_omega0=1e300), [0.0, 1.0, 5.0])
    assert len(errors) == 3 and all(isinstance(e, ParameterError) for e in errors)
    assert "must be finite" in str(errors[0])
    assert set(cols) == set(qr_energies(state, GAAS, 0.0)[0])
    assert all(c.shape == (3,) and np.isnan(c).all() for c in cols.values())


def test_failing_material_is_validated_once(monkeypatch):
    # valid rows take the material's error; only a row with its own bad D is rebuilt
    calls = []

    def counted(*args):
        calls.append(args)
        return from_material(*args)

    monkeypatch.setattr(spectrum, "from_material", counted)
    state, bad = QuantumState(0, 1, Branch.CE), replace(GAAS, hbar_omega0=1e300)
    _, errors = qr_energies(state, bad, np.linspace(0.0, 10.0, 1001))
    assert len(calls) == 1 and {str(e) for e in errors} == {"SystemParams fields must be finite"}
    _, errors = qr_energies(state, bad, [1.0, -1.0, 2.0])
    assert len(calls) == 3 and [str(e).split()[0] for e in errors] == ["SystemParams", "dipole",
                                                                        "SystemParams"]


def test_material_failure_columns_are_separate_arrays():
    state = QuantumState(0, 1, Branch.CE)
    cols, _ = qr_energies(state, replace(GAAS, hbar_omega0=1e300), [0.0, 1.0])
    cols["E"][0] = 5.0
    assert [k for k, c in cols.items() if not np.isnan(c).all()] == ["E"]


def test_qr_energies_errors_index_like_the_columns():
    # errors is an array over the rows: a column's mask or index array selects from it
    state = QuantumState(0, 0, Branch.CE)
    D = np.array([900.0, 0.0, -1.0, 10.0, 900.0])
    cols, errors = qr_energies(state, GAAS, D)
    failed = np.isnan(cols["E"])
    assert failed.tolist() == [True, False, True, False, True]
    assert np.equal(errors[failed], None).sum() == 0 and list(errors[~failed]) == [None] * 2
    order = np.argsort(D, kind="stable")
    assert [type(e) for e in errors[order]] == [ParameterError, type(None), type(None),
                                               SupercriticalError, SupercriticalError]
    assert np.array_equal(cols["E"][order], qr_energies(state, GAAS, D[order])[0]["E"],
                          equal_nan=True)


def test_sweep_rejects_two_materials_with_one_name():
    other = replace(GAAS, eps_r=13.0)
    with pytest.raises(ParameterError, match="'GaAs'"):
        SweepConfig((GAAS, get_material("CdSe"), other), (QuantumState(0, 0, Branch.CE),), (1.0,))
    # the same material twice is one material repeated
    SweepConfig((GAAS, replace(GAAS)), (QuantumState(0, 0, Branch.CE),), (1.0,))


def test_correction_sign_and_small_d_scaling():
    c1 = correction(QuantumState(0, 0, Branch.CE), GAAS, 0.1)
    c2 = correction(QuantumState(0, 0, Branch.CE), GAAS, 0.2)
    assert c1 < 0 and c2 < 0
    exponent = math.log(c2 / c1) / math.log(2.0)
    assert 1.95 <= exponent <= 2.05  # quadratic in D while p is small


def test_correction_magnitude_falls_with_m():
    vals = [abs(correction(QuantumState(0, m, Branch.CE), GAAS, 10.0))
            for m in range(4)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_transition_validation():
    hi = QuantumState(0, 2, Branch.CE)
    with pytest.raises(ParameterError):
        transition(hi, QuantumState(1, 1, Branch.CE), GAAS, 1.0)  # n_r differs
    with pytest.raises(ParameterError):
        transition(hi, QuantumState(0, 1, Branch.SE), GAAS, 1.0)  # parity differs
    with pytest.raises(ParameterError):
        transition(hi, QuantumState(0, 2, Branch.CE), GAAS, 1.0)  # same m
    with pytest.raises(ParameterError):
        transition(hi, QuantumState(0, 1, Branch.CE, 0.5), GAAS, 1.0)  # delta differs


def test_transition_shift_is_nr_independent():
    shifts = []
    for n_r in (0, 1, 2):
        _, _, s = transition(QuantumState(n_r, 1, Branch.CE),
                             QuantumState(n_r, 0, Branch.CE), GAAS, 10.0)
        shifts.append(s)
    assert max(shifts) - min(shifts) < 1e-14


def test_transition_over_an_array_of_d():
    hi, lo = QuantumState(0, 2, Branch.CE), QuantumState(0, 1, Branch.CE)
    d = [0.0, 3.0, 7.5]
    de_with, de_no, rel = transition(hi, lo, GAAS, np.array(d))
    for i, x in enumerate(d):
        assert (de_with[i], de_no, rel[i]) == transition(hi, lo, GAAS, x)
    # the batch raises what the scalar form raises at the first failing D
    for batch, first in (([1.0, 5e5, -1.0], 5e5), ([-1.0, 5e5], -1.0)):
        with pytest.raises(ParameterError) as single:
            transition(hi, lo, GAAS, first)
        with pytest.raises(ParameterError) as many:
            transition(hi, lo, GAAS, np.array(batch))
        assert str(many.value) == str(single.value)
    # with no D the D = 0 pair is still solved and checked
    de_with, de_no, rel = transition(hi, lo, GAAS, np.array([]))
    assert de_with.size == rel.size == 0 and de_no == transition(hi, lo, GAAS, 0.0)[1]
    with pytest.raises(ParameterError):
        transition(hi, lo, replace(GAAS, hbar_omega0=-1.0), np.array([]))


def test_transition_solves_each_state_once(energies_calls):
    # both states go through one chain call; the D = 0 reference rides along
    # as row 0 of each state's D array
    hi, lo = QuantumState(0, 2, Branch.CE), QuantumState(0, 1, Branch.CE)
    de_with, _, _ = transition(hi, lo, GAAS, np.linspace(0.0, 10.0, 11))
    assert energies_calls == [((hi, lo), GAAS)] and de_with.shape == (11,)


def test_repeated_grid_pairs_are_solved_once(energies_calls):
    # a (material, state) that the grid holds four times is solved in one
    # chain call, and each of its rows comes four times in a row
    state = QuantumState(0, 1, Branch.CE)
    d_values = (0.5, 0.0, 900.0, 0.5)
    rows = sweep(SweepConfig((GAAS, GAAS), (state, state), d_values))
    assert energies_calls == [((state,), GAAS)]
    single = sweep(SweepConfig((GAAS,), (state,), d_values))
    assert [(r.D, r.correction, r.error) for r in rows] == [
        (r.D, r.correction, r.error) for r in single for _ in range(4)]


def test_branch_notes_at_the_overflow_edge():
    # 2 (m + delta) overflows to inf at delta = 1e308: every row fails, and
    # naming the note of such a state must not raise either
    states = (QuantumState(0, 1, Branch.CE, 1e308), QuantumState(0, 1, Branch.SE, 1.0),
              QuantumState(0, 2, Branch.CE, 0.3))
    rows = sweep(SweepConfig((GAAS,), states, (0.0, 5.0)))
    notes = {}
    for row in rows:
        assert (row.error is not None) == (row.state.delta == 1e308)
        notes.setdefault(row.state, set()).add(row.branch_note)
    assert notes == {states[0]: {""}, states[1]: {"integer(b_4)"},
                     states[2]: {"fractional(merged)"}}


def test_ab_correction_zero_reference():
    assert ab_correction(QuantumState(0, 1, Branch.CE), GAAS, 0.0) == 0.0


def test_ab_correction_with_dipole_background():
    # D != 0 changes both endpoints; the correction must still be finite and
    # close to the D = 0 value for small D
    base = ab_correction(QuantumState(0, 1, Branch.CE), GAAS, 0.5, D=0.0)
    pert = ab_correction(QuantumState(0, 1, Branch.CE), GAAS, 0.5, D=0.5)
    assert abs(pert - base) < 1e-4
    assert pert != base


def test_sweep_ordering_and_rows():
    states = (QuantumState(1, 1, Branch.CE), QuantumState(0, 0, Branch.CE),
              QuantumState(0, 1, Branch.SE), QuantumState(0, 1, Branch.CE))
    cfg = SweepConfig((GAAS, get_material("CdSe")), states, (0.0, 5.0))
    rows = sweep(cfg)
    assert len(rows) == 16
    keys = [(r.material, r.state.parity.value, r.state.m, r.state.n_r, r.D)
            for r in rows]
    assert keys == sorted(keys)
    assert all(r.error is None for r in rows)


def test_sweep_records_row_errors(monkeypatch):
    # huge dipole drives the m = 0 row supercritical; others must survive
    states = (QuantumState(0, 0, Branch.CE), QuantumState(0, 3, Branch.CE))
    rows = sweep(SweepConfig((GAAS,), states, (0.0, 900.0)))
    failed = [r for r in rows if r.error]
    ok = [r for r in rows if not r.error]
    assert len(rows) == 4
    assert len(failed) == 1
    assert failed[0].state.m == 0 and failed[0].D == 900.0
    assert math.isnan(failed[0].E)
    assert all(math.isfinite(r.E) for r in ok)


def test_sweep_matches_qr_energy():
    mats = (get_material("CdSe"), GAAS)
    states = (QuantumState(1, 2, Branch.SE, 0.25), QuantumState(0, 1, Branch.CE, 0.25),
              QuantumState(0, 0, Branch.CE, 0.25), QuantumState(1, 1, Branch.CE, 0.25))
    d_values = (4.0, 0.0, 2.0)
    rows = sweep(SweepConfig(mats, states, d_values))
    tasks = sorted(((mat, state, d) for mat in mats for state in states for d in d_values),
                   key=lambda t: (t[0].name, t[1].parity.value, t[1].m, t[1].n_r,
                                  t[1].delta, t[2]))
    assert rows == [qr_energy(state, mat, d) for mat, state, d in tasks]


def test_sweep_rejects_bad_grid():
    with pytest.raises(ParameterError):
        SweepConfig((GAAS,), (QuantumState(0, 0, Branch.CE),), (-1.0,))


def test_angular_eigenvalue_zero_dipole_free_rotor():
    # at p = 0 the angular energies are delta^2 - (m + delta)^2
    for delta in (0.0, 0.25):
        params = from_material(GAAS, 0.0, delta)
        for m in (0, 1, 2):
            e, c, q, _ = angular_eigenvalue(QuantumState(0, m, Branch.CE, delta),
                                            params)
            assert q == 0.0
            assert e == pytest.approx(delta**2 - (m + delta) ** 2, abs=1e-12)


def test_radial_exponent_harmonic_case():
    params = SystemParams(A=0.5, B=0.0, C=0.0, D_theta=0.0, mu=1.0, delta=0.0)
    e_theta, _, _, _ = angular_eigenvalue(QuantumState(0, 1, Branch.CE), params)
    eta, alpha = radial_exponent(e_theta, params)
    # 1 - 4 eta = c + 8 mu B = 4 m^2 here
    assert alpha == pytest.approx((1 + 2.0) / 4.0, abs=1e-14)
    # 1 - 4 eta overflows to -inf (supercritical) or +inf (alpha); an int past a double is inf
    for e_theta, error in ((1e308, SupercriticalError), (-1.7e308, ParameterError),
                           (10**400, ParameterError), (math.nan, ParameterError)):
        with pytest.raises(error):
            radial_exponent(e_theta, params)


_STATE_LABELS = [(n_r, m, parity, delta) for n_r in (0, 2) for m in range(7)
                 for parity in Branch for delta in (0.0, 0.25, 0.5, 1.0)
                 if not (parity is Branch.SE and m == 0)]


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(mats=st.lists(st.sampled_from(["GaAs", "GaAlAs_x0.3", "CdSe"]), min_size=1,
                     max_size=3, unique=True),
       labels=st.lists(st.sampled_from(_STATE_LABELS), min_size=1, max_size=3),
       d_values=st.lists(st.one_of(st.floats(0.0, 20.0), st.sampled_from([900.0, 5e5])),
                         min_size=1, max_size=12))
# 900 drives m = 0 supercritical; 5e5 puts |q| above the 1e4 bound on every material
@example(mats=["GaAs"], labels=[(0, 0, Branch.CE, 0.0), (2, 3, Branch.SE, 0.25)],
         d_values=[0.0, 900.0, 5e5, 3.0])
def test_sweep_batch_matches_single_rows(mats, labels, d_values):
    mats = tuple(get_material(name) for name in mats)
    states = tuple(QuantumState(*label) for label in labels)
    rows = sweep(SweepConfig(mats, states, tuple(d_values)))
    tasks = sorted(((mat, state, d) for mat in mats for state in states for d in d_values),
                   key=lambda t: (t[0].name, t[1].parity.value, t[1].m, t[1].n_r,
                                  t[1].delta, t[2]))
    assert len(rows) == len(tasks)
    for row, (mat, state, d) in zip(rows, tasks):
        assert (row.material, row.state, row.D) == (mat.name, state, d)
        try:
            single = qr_energy(state, mat, d)
        except QringError as exc:
            assert row.error == str(exc)
            assert math.isnan(row.char_value) and math.isnan(row.E)
            continue
        assert row.error is None
        assert abs(row.char_value - single.char_value) <= np.spacing(abs(single.char_value))
        if row.char_value == single.char_value:
            assert row == single  # every other field follows from char_value
        else:
            for field in ("E_theta", "eta", "alpha", "lambda_eff", "E", "e_hw0", "e_ev"):
                assert getattr(row, field) == pytest.approx(getattr(single, field), rel=1e-14)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(labels=st.lists(st.sampled_from(_STATE_LABELS), min_size=1, max_size=5),
       D=st.sampled_from([0.0, 10.0, 900.0, 5e5, -1.0]),
       deltas=st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0, -1.0, -0.7]), min_size=1,
                       max_size=6))
def test_states_in_one_chain_match_one_call_per_state(labels, D, deltas):
    # several states at one material go through one chain: every column and
    # every row's error equal those of qr_energies called once per state
    states = [QuantumState(*label) for label in labels]
    cols, errors = spectrum._energies(states, GAAS, D, deltas)
    runs = [qr_energies(state, GAAS, D, deltas) for state in states]
    for key, column in cols.items():
        assert np.array_equal(column, np.concatenate([run[0][key] for run in runs]),
                              equal_nan=True), key
    assert [repr(e) for e in errors] == [repr(e) for run in runs for e in run[1]]
