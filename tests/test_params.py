import math

import numpy as np
import pytest

from qring import (
    HARTREE_EV,
    Branch,
    MaterialSpec,
    ParameterError,
    PhoParams,
    QuantumState,
    SystemParams,
    builtin_materials,
    energy,
    ev_to_hartree,
    from_material,
    from_pho,
    get_material,
    hartree_to_ev,
    is_tan_inkson,
    parse_config,
)


def test_unit_round_trip():
    assert hartree_to_ev(1.0) == HARTREE_EV
    for e in (0.0, 1.0, 13.6, 1e-4):
        assert ev_to_hartree(hartree_to_ev(e)) == pytest.approx(e, rel=1e-15)


def test_builtin_materials():
    names = [m.name for m in builtin_materials()]
    assert names == ["GaAs", "GaAlAs_x0.3", "CdSe"]
    gaas = get_material("GaAs")
    assert gaas.m_star == 0.067
    assert gaas.eps_r == 12.65
    assert gaas.lam == 2.0
    assert get_material("CdSe").m_star == 0.13
    with pytest.raises(Exception) as exc:
        get_material("nope")
    assert exc.value.exit_code == 3


def test_from_material_fields():
    gaas = get_material("GaAs")
    p = from_material(gaas, 5.0, 0.25)
    # B carries the lambda^2 ring term, D_theta the screened dipole
    assert p.B == pytest.approx(gaas.lam**2 / (2 * gaas.m_star), rel=1e-15)
    assert p.D_theta == pytest.approx(5.0 / gaas.eps_r, rel=1e-15)
    assert p.C == 0.0
    assert p.mu == gaas.m_star
    assert p.delta == 0.25
    hw = ev_to_hartree(gaas.hbar_omega0)
    assert p.A == pytest.approx(gaas.m_star * hw**2 / 2, rel=1e-15)
    with pytest.raises(ParameterError):
        from_material(gaas, -1.0, 0.0)


def test_oscillator_length():
    p = SystemParams(A=0.5, B=1.0, C=0.0, D_theta=0.0, mu=1.0, delta=0.0)
    assert p.a_length == 1.0  # 2 mu A = 1
    p2 = SystemParams(A=2.0, B=1.0, C=0.0, D_theta=0.0, mu=1.0, delta=0.0)
    assert p2.a_length == pytest.approx(4.0**-0.25)


def test_params_validation():
    good = dict(A=1.0, B=1.0, C=0.0, D_theta=0.0, mu=1.0, delta=0.0)
    SystemParams(**good)
    for field, bad in (("A", 0.0), ("A", -1.0), ("B", -0.1), ("mu", 0.0),
                       ("C", math.nan), ("delta", math.inf)):
        kw = dict(good)
        kw[field] = bad
        with pytest.raises(ParameterError):
            SystemParams(**kw)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            MaterialSpec("X", m_star=0.067, eps_r=12.65, hbar_omega0=bad)
    for field, bad in (("m_star", 0.0), ("eps_r", -1.0), ("lam", -0.5)):
        kw = dict(m_star=0.067, eps_r=12.65)
        kw[field] = bad
        with pytest.raises(ParameterError, match=field.replace("lam", "lambda")):
            MaterialSpec("X", **kw)
    for D_e, r_e in ((0.0, 3.0), (0.4, -1.0), (10**400, 1.0), (0.4, math.nan)):
        with pytest.raises(ParameterError):
            PhoParams(D_e=D_e, r_e=r_e)
    # Python ints past the largest double and nan used to be accepted
    for m_star, eps_r in ((math.nan, 12.0), (10**400, 1.0)):
        with pytest.raises(ParameterError, match="m_star"):
            MaterialSpec("x", m_star, eps_r)
    # r_e^2 underflows to 0: A = D_e / r_e^2 divided by zero
    with pytest.raises(ParameterError, match="r_e"):
        from_pho(PhoParams(0.4, 1e-200), 1.0)


def test_system_fields_are_read_as_doubles():
    good = dict(A=0.5, B=1.0, C=0.0, D_theta=0.01, mu=1.0)
    # each field widens, so a float32 or an int computes in double precision
    for field, narrow in (("A", np.float32(0.5)), ("mu", np.float32(1.0)), ("B", 1),
                          ("C", np.float32(0.25)), ("D_theta", np.float32(0.01))):
        p = SystemParams(**dict(good, **{field: narrow}))
        assert type(getattr(p, field)) is float and getattr(p, field) == float(narrow)
    # a float32 mu computed a_length in single precision: the energy routes disagreed
    E = energy(QuantumState(0, 1, Branch.CE), from_pho(PhoParams(0.4, 3.0), np.float32(1.0))).E
    assert E == energy(QuantumState(0, 1, Branch.CE), from_pho(PhoParams(0.4, 3.0), 1.0)).E
    # a float32 A near its largest value overflowed in a_length with a numpy warning
    assert SystemParams(**dict(good, A=np.float32(3e38))).a_length > 0.0
    # 2 mu A overflows, so a_length was 0.0, or underflows, so it was inf
    for A, mu, shown in ((1e308, 2.0, "inf"), (1.0, 1e308, "inf"), (5e-324, 0.1, "0.0")):
        with pytest.raises(ParameterError, match=f"^2 mu A must be finite and > 0, got {shown}$"):
            SystemParams(**dict(good, A=A, mu=mu))
    for field, bad, message in (("A", 0.0, "A must be finite and > 0, got 0.0"),
                                ("B", -1, "B must be finite and >= 0, got -1"),
                                ("mu", math.nan, "mu must be finite and > 0, got nan"),
                                ("C", math.inf, "C must be finite, got inf"),
                                ("delta", 10**400, f"delta must be finite, got {10**400}")):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SystemParams(**dict(good, **{field: bad}))


def test_pho_mapping_is_tan_inkson():
    pho = PhoParams(D_e=0.4, r_e=3.0)
    p = from_pho(pho, mu=1.0)
    assert p.A == pytest.approx(0.4 / 9.0)
    assert p.B == pytest.approx(0.4 * 9.0)
    assert p.C == pytest.approx(-0.8)
    assert is_tan_inkson(p)
    assert not is_tan_inkson(from_material(get_material("GaAs"), 0.0))


def test_parse_config():
    text = """
    # a comment
    material = GaAs
    D=5.0

    delta = 0.25   # trailing comment
    parity=ce
    """
    cfg = parse_config(text)
    assert cfg == {"material": "GaAs", "D": "5.0", "delta": "0.25", "parity": "ce"}


def test_parse_config_value_keeps_second_equals():
    assert parse_config("a=b=c") == {"a": "b=c"}


@pytest.mark.parametrize("bad", ["novalue", "=5", "key =", "= ", "a=1\na=2"])
def test_parse_config_rejects(bad):
    with pytest.raises(ParameterError):
        parse_config(bad)
