import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qring import Branch, QuantumState, ab_correction, from_material, get_material, make_wave
from qring.cli import _floats_from_range, _fmt, run

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli_process(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_materials_schema():
    code, out, err = _run(["materials"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,m_star,eps_r,lambda,hbar_omega0_eV"
    assert lines[1].startswith("GaAs,0.067,12.65,2,1")
    assert len(lines) == 4
    assert out.endswith("\n") and "\r" not in out


def test_energies_schema_and_value():
    code, out, _ = _run(["energies", "--material", "GaAs", "--m", "1",
                         "--parity", "ce"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "material,D,delta,nr,m,parity,p,char_value,alpha,lambda_eff,E_hw0,E_eV"
    row = lines[1].split(",")
    assert row[:6] == ["GaAs", "0", "0", "0", "1", "ce"]
    assert float(row[10]) == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-10)


def test_corrections_schema():
    code, out, _ = _run(["corrections", "--material", "GaAs", "--m", "0",
                         "--parity", "ce", "--D-range", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "material,D,p,m,parity,delta,char_value,lambda_eff,correction"
    assert float(lines[1].split(",")[-1]) == pytest.approx(-1.3962872298e-3, rel=1e-9)


def test_transitions_schema():
    code, out, _ = _run(["transitions", "--material", "GaAs", "--m-hi", "1",
                         "--m-lo", "0", "--parity", "ce", "--D-range", "0:10:10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "material,D,nr,m_hi,m_lo,parity,dE_withD,dE_noD,rel_shift_pct"
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(1.0316268251, rel=1e-8)


def test_ab_sweep_schema_and_defaults():
    code, out, _ = _run(["ab-sweep", "--material", "GaAs", "--m", "0",
                         "--parity", "ce", "--delta-range", "0:1:0.5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "material,D,m,parity,delta,lambda_eff,ab_correction"
    assert len(lines) == 4  # 0, 0.5, 1
    assert float(lines[-1].split(",")[-1]) == pytest.approx(math.sqrt(5) - 2,
                                                            abs=1e-10)


def test_ab_sweep_column_is_ab_correction():
    code, out, _ = _run(["ab-sweep", "--m", "0,1,2", "--parity", "ce,se", "--D", "10",
                         "--delta-range", "0:1:0.1"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 5 * 11  # (ce 0,1,2 + se 1,2) x 11 deltas
    gaas = get_material("GaAs")
    for _, d, m, parity, delta, _, ab in rows:
        state = QuantumState(0, int(m), Branch(parity))
        assert ab == _fmt(ab_correction(state, gaas, float(delta), D=float(d)))


def test_wavefunction_schema():
    code, out, _ = _run(["wavefunction", "--material", "GaAs", "--nr", "2",
                         "--m", "1", "--parity", "ce", "--points", "40"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,R2,nodes"
    assert len(lines) == 41
    assert all(line.split(",")[2] == "2" for line in lines[1:])


def test_energies_above_order_32():
    code, out, err = _run(["energies", "--m", "33,40,100", "--parity", "ce,se",
                           "--D", "10"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 6  # header + 3 orders x 2 parities
    assert err == ""


def test_wavefunction_large_m():
    code, out, err = _run(["wavefunction", "--m", "100", "--nr", "2", "--D", "10"])
    assert code == 0
    assert err == ""
    assert all(line.split(",")[2] == "2" for line in out.splitlines()[1:])


def test_wavefunction_underflowing_norm_is_numerics_error():
    # N underflows past m ~ 300 at D = 10; the densities used to print as 0, then nan
    code, out, err = _run(["wavefunction", "--m", "400", "--D", "10"])
    assert code == 2
    assert "numerics error" in err
    assert "nan" not in out and "Traceback" not in out + err
    code, out, _ = _run(["wavefunction", "--m", "200", "--D", "10"])
    assert code == 0
    assert "nan" not in out


def _mp_density(spec, r):
    # r |f(r)|^2 at 50 digits, with the program's N, alpha and a
    with mpmath.workdps(50):
        a, alpha, r = mpmath.mpf(spec.a), mpmath.mpf(spec.alpha), mpmath.mpf(r)
        rho = (r / a) ** 2
        f = (mpmath.mpf(spec.N) * (r / a) ** (2 * alpha - 0.5) / mpmath.sqrt(a)
             * mpmath.exp(-rho / 2) * mpmath.hyp1f1(-spec.state.n_r, 2 * alpha + 0.5, rho))
        return r * f * f


def _check_printed_densities(argv, m, n_r, D, r_max=8.0):
    code, out, err = _run(["wavefunction", *argv])
    assert code == 0 and err == ""
    assert "nan" not in out and "inf" not in out
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {int(row[2]) for row in rows} == {n_r}
    spec = make_wave(QuantumState(n_r, m, Branch.CE), from_material(get_material("GaAs"), D, 0.0))
    grid = np.linspace(0.0, r_max * spec.a, len(rows))
    ref = [_mp_density(spec, r) for r in grid]
    peak = max(ref)
    for row, exact in zip(rows, ref):
        # 2e-13 of the peak, plus half a unit in the 12th printed digit
        assert abs(mpmath.mpf(row[1]) - exact) <= 2e-13 * peak + 5e-12 * exact


@pytest.mark.parametrize("argv,m,n_r,D,r_max", [
    (["--m", "3", "--nr", "4", "--D", "7"], 3, 4, 7.0, 8.0),
    (["--m", "100", "--nr", "2", "--D", "10"], 100, 2, 10.0, 8.0),
    (["--m", "100", "--nr", "15", "--D", "10", "--r-max", "16"], 100, 15, 10.0, 16.0),
    (["--m", "20", "--nr", "25", "--D", "3", "--r-max", "14"], 20, 25, 3.0, 14.0),
    (["--m", "100", "--nr", "20", "--D", "10"], 100, 20, 10.0, 8.0),
])
def test_wavefunction_densities_match_mpmath(argv, m, n_r, D, r_max):
    _check_printed_densities(argv, m, n_r, D, r_max)


def test_wavefunction_overflowing_density_is_numerics_error():
    # N, (r/a)^(2 alpha - 1/2) and the Gaussian combine in one exponent, so
    # m = 250 out to 20 oscillator lengths is finite and right
    _check_printed_densities(["--m", "250", "--D", "10", "--r-max", "20"], 250, 0, 10.0, 20.0)
    # the degree-60 polynomial itself still overflows far out
    code, out, err = _run(["wavefunction", "--nr", "60", "--r-max", "1e6"])
    assert code == 2
    assert "numerics error" in err
    assert "inf" not in out and "nan" not in out and "Traceback" not in err


def test_closed_pipe_exits_quietly():
    # more than a pipe buffer of output; the reader takes one line and leaves
    proc = _cli_process(["-m", "qring.cli", "corrections", "--m", "0,1",
                         "--D-range", "0:50:0.01"],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"material,")
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 0
    assert err == b""


def test_cli_import_skips_scipy_integrate():
    probe = "import sys, qring.cli; print('scipy.integrate' in sys.modules)"
    proc = _cli_process(["-c", probe], stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out.decode().strip() == "False"


def test_byte_identical_reruns():
    argv = ["corrections", "--material", "GaAs,CdSe", "--m", "0,1,2",
            "--parity", "ce,se", "--D-range", "0:10:2.5"]
    _, first, _ = _run(argv)
    _, second, _ = _run(argv)
    assert first == second
    assert len(first.splitlines()) == 1 + 2 * 5 * 5  # hdr + mats x states x D


def test_pretty_table():
    code, out, _ = _run(["materials", "--pretty"])
    assert code == 0
    assert "," not in out.splitlines()[0]
    assert out.splitlines()[0].split() == ["name", "m_star", "eps_r", "lambda",
                                           "hbar_omega0_eV"]


def test_usage_errors_exit_1():
    for argv in (["energies", "--m", "x"],
                 ["energies", "--parity", "left"],
                 ["corrections", "--D-range", "5:1:1"],
                 ["corrections", "--D-range", "1:2:3:4"],
                 ["ab-sweep", "--m", "0", "--parity", "se"],
                 ["corrections", "--D-range", "0:inf:1"],
                 ["wavefunction", "--points", "-1"],
                 ["nonsense"],
                 []):
        code, _, err = _run(argv)
        assert code == 1, argv
        assert err


def test_domain_errors_exit_3():
    code, _, err = _run(["energies", "--material", "Unobtainium"])
    assert code == 3
    assert "unknown material" in err
    code, _, err = _run(["energies", "--material", "GaAs", "--m", "0",
                         "--parity", "se"])
    assert code == 1  # no valid states is a usage problem
    code, _, err = _run(["energies", "--material", "GaAs", "--D", "-3"])
    assert code == 3
    code, out, err = _run(["wavefunction", "--r-max", "nan"])
    assert code == 3 and out == ""
    code, out, err = _run(["energies", "--hbar-omega0", "-1"])
    assert code == 3 and out == ""
    code, out, err = _run(["ab-sweep", "--delta-range", "1e6", "--D", "1"])
    assert code == 3 and out == ""
    assert "largest solvable order 2047" in err


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("material=GaAs\nD=5.0\ndelta=0.25\nnr=0\nm=1\nparity=ce\n")
    code, out, _ = _run(["energies", "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "5"
    # explicit flag beats the file
    code, out, _ = _run(["energies", "--config", str(cfg), "--D", "0"])
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "0"


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("florb=1\n")
    code, _, err = _run(["energies", "--config", str(cfg)])
    assert code == 1
    assert "florb" in err


def test_config_missing_file():
    code, _, err = _run(["energies", "--config", "/no/such/file.cfg"])
    assert code == 1


def test_float_range_parsing():
    assert _floats_from_range("5") == [5.0]
    got = _floats_from_range("0:1:0.25")
    assert got == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    # inclusive endpoint despite binary-float step accumulation
    assert _floats_from_range("0:10:0.1")[-1] == pytest.approx(10.0)
    assert len(_floats_from_range("0:10:0.1")) == 101


def test_verify_subcommand_csv():
    code, out, _ = _run(["verify", "--suite", "series"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,cases,worst,tol,status"
    fields = lines[1].split(",")
    assert fields[0] == "series" and fields[-1] == "ok"


def test_help_exits_zero():
    code, out, err = _run(["--help"])
    assert code == 0
