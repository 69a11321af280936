import csv
import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qring import (Branch, QuantumState, SweepConfig, ab_correction, char_value_series,
                   from_material, get_material, make_wave, series_p8_estimate, spectrum, sweep,
                   transition)
from qring import cli
from qring.cli import _floats_from_range, run

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
        assert ab == "%.12g" % ab_correction(state, gaas, float(delta), D=float(d))


def test_transitions_columns_are_transition():
    code, out, _ = _run(["transitions", "--material", "GaAs,CdSe", "--m-hi", "2", "--m-lo", "1",
                         "--nr", "1", "--parity", "ce,se", "--D-range", "0:10:2.5"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 * 2 * 5  # materials x parities x D
    for name, d, nr, m_hi, m_lo, parity, de_w, de_n, shift in rows:
        hi, lo = (QuantumState(int(nr), int(m), Branch(parity)) for m in (m_hi, m_lo))
        want = transition(hi, lo, get_material(name), float(d))
        assert [de_w, de_n, shift] == ["%.12g" % v for v in (want[0], want[1], 100.0 * want[2])]


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


def test_energies_past_order_2047_match_the_series():
    # the window does not grow with the order; the small-p series never calls the solver
    code, out, err = _run(["energies", "--m", "2048,5000", "--parity", "ce,se", "--D", "10"])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    for row in rows:
        m, p, c = int(row[4]), float(row[6]), float(row[7])
        assert abs(c - char_value_series(m, p)) <= series_p8_estimate(m, p) + 0.5e-11 * c


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


def test_wavefunction_node_count_is_exact_at_every_n_r():
    # the node count is a Sturm count on the 1F1 recurrence's ratios, which
    # stay finite where the recurrence itself overflows (from n_r near 400)
    def cli(nr):
        proc = _cli_process(["-m", "qring.cli", "wavefunction", "--nr", nr, "--D", "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate()
        return proc.returncode, out, err

    for nr in ("350", "400", "1000"):
        code, out, err = cli(nr)
        assert code == 0 and err == ""
        assert {line.split(",")[2] for line in out.splitlines()[1:]} == {nr}


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
    # no scipy module at all: only verify and the oracles import it, when called
    probe = "import sys, qring.cli; print(any(m.startswith('scipy') for m in sys.modules))"
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
                 ["corrections", "--D-range", "0:1e300:1e-300"],  # the count overflows
                 ["corrections", "--D-range", "0:1e-300:1e-310"],  # 1e10 points
                 ["wavefunction", "--points", "-1"],
                 ["wavefunction", "--points", "1000000000000"],
                 ["wavefunction", "--nr", "1000001"],  # one recurrence step per degree
                 ["wavefunction", "--nr", str(10**30)],
                 ["wavefunction", "--m", "0,1"],  # one state only
                 ["nonsense"],
                 []):
        start = time.perf_counter()
        code, _, err = _run(argv)
        # a grid above the limit is refused before any of it is built
        assert code == 1 and time.perf_counter() - start < 1.0, argv
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
    assert "largest solvable order 65536" in err
    # at D = 0 every order solves exactly, unless its value overflows a double
    code, out, err = _run(["energies", "--m", "70000", "--D", "0"])
    assert code == 0 and out.splitlines()[1].split(",")[7] == "19600000000"
    # but a wavefunction's vector would hold m + 1 coefficients, so its cap holds at D = 0
    for m in ("70000", "10000000"):
        code, out, err = _run(["wavefunction", "--m", m, "--D", "0"])
        assert code == 3 and out == "" and "largest solvable order 65536" in err
    code, out, err = _run(["ab-sweep", "--delta-range", "1e308", "--D", "0"])
    assert code == 3 and out == "" and "overflows a double" in err
    code, out, err = _run(["energies", "--delta=-1e308"])
    assert code == 0 and out.splitlines()[1].endswith(",,,,,,") and "out of range" in err
    # past 2**53 both orders round to one float, and so do their energies
    code, out, err = _run(["transitions", "--m-hi", "9007199254740993",
                           "--m-lo", "9007199254740992", "--D-range", "0:0:1"])
    assert code == 3 and out == "" and "degenerate reference transition" in err


@pytest.mark.parametrize("argv", [
    ["energies", "--delta=6e153", "--D", "0"],  # beta overflows; alpha used to print inf
    ["energies", "--delta=-1e308"],
    ["energies", "--m", "0,1", "--D", "1e6"],
    ["corrections", "--m", "0,2", "--D-range", "0:1000:100", "--delta", "0.25"],
])
def test_failed_rows_print_no_non_finite_cell(argv):
    code, out, err = _run(argv)
    assert code == 0 and "warning:" in err
    cells = {cell.lower() for row in csv.reader(io.StringIO(out)) for cell in row}
    assert not cells & {"nan", "inf", "-inf"}


def test_table_commands_build_no_spectrum_rows(monkeypatch):
    made = []
    row_type = spectrum.SpectrumRow
    monkeypatch.setattr(spectrum, "SpectrumRow", lambda **kw: made.append(1) or row_type(**kw))
    for argv in (["corrections", "--material", "GaAs,CdSe", "--m", "0,1", "--parity", "ce,se",
                  "--D-range", "0:1000:10"],
                 ["energies", "--m", "0,1,2", "--nr", "0,1", "--D", "900"]):
        code, out, err = _run(argv)
        assert code == 0 and "warning:" in err and len(out.splitlines()) > 1
    assert made == []
    sweep(SweepConfig((get_material("GaAs"),), (QuantumState(0, 1, Branch.CE),), (0.0, 1.0)))
    assert len(made) == 2  # the counter sees the rows sweep() builds


def _reference_table(command, names, states, d_values, pretty):
    """stdout and stderr of a table command, from sweep() rows formatted cell by cell."""
    rows = sorted(sweep(SweepConfig(tuple(map(get_material, names)), tuple(states),
                                    tuple(d_values))),
                  key=lambda r: (r.material, r.state.parity.value, r.state.m, r.state.n_r,
                                 r.state.delta, r.D))
    err, table = [], []
    for r in rows:
        s = r.state
        if command == "energies":
            labels = [r.material, r.D, s.delta, s.n_r, s.m, s.parity.value]
            computed = [r.q_mathieu, r.char_value, r.alpha, r.lambda_eff, r.e_hw0, r.e_ev]
        else:
            labels = [r.material, r.D, None, s.m, s.parity.value, s.delta]
            computed = [r.char_value, r.lambda_eff, r.correction]
        if r.error:
            err.append(f"warning: {r.material} {s}: {r.error}\n")
            computed = [None] * len(computed)
        elif command == "corrections":
            labels[2] = r.q_mathieu
        table.append(["" if v is None else "%.12g" % v if isinstance(v, float) else str(v)
                      for v in labels + computed])
    header = (["material", "D", "delta", "nr", "m", "parity", "p", "char_value", "alpha",
               "lambda_eff", "E_hw0", "E_eV"] if command == "energies" else
              ["material", "D", "p", "m", "parity", "delta", "char_value", "lambda_eff",
               "correction"])
    out = io.StringIO()
    if pretty:
        widths = [max(len(c) for c in col) for col in zip(header, *table)]
        for row in [header, ["-" * w for w in widths], *table]:
            out.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    else:
        csv.writer(out, lineterminator="\n").writerows([header, *table])
    return out.getvalue(), "".join(err)


_NAMES = ["GaAs", "GaAlAs_x0.3", "CdSe"]
_D = st.sampled_from([0.0, 0.5, 3.0, 10.0, 900.0, 5e5])  # 900: m = 0 supercritical; 5e5: |q| too large


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(command=st.sampled_from(["energies", "corrections"]),
       names=st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3),
       ms=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       parities=st.lists(st.sampled_from(["ce", "se"]), min_size=1, max_size=2),
       nrs=st.lists(st.integers(0, 1), min_size=1, max_size=2),
       d_values=st.lists(_D, min_size=1, max_size=3, unique=True),
       delta=st.sampled_from([0.0, 0.25]),
       pretty=st.booleans())
def test_table_commands_match_the_row_reference(command, names, ms, parities, nrs, d_values,
                                               delta, pretty):
    # repeated materials and states must interleave their rows by D, as a stable sort does
    argv = [command, "--material", ",".join(names), "--m", ",".join(map(str, ms)),
            "--parity", ",".join(parities), "--delta", repr(delta)]
    if command == "energies":
        d_values = d_values[:1]
        argv += ["--nr", ",".join(map(str, nrs)), "--D", repr(d_values[0])]
    else:
        nrs = [0]
        lo, hi = min(d_values), max(d_values)
        d_range = repr(lo) if lo == hi else f"{lo!r}:{hi!r}:{hi - lo!r}"
        argv += ["--D-range", d_range]
        d_values = _floats_from_range(d_range)
    argv += ["--pretty"] if pretty else []
    states = [QuantumState(nr, m, Branch(p), delta) for p in parities for m in ms for nr in nrs
              if not (p == "se" and m == 0)]
    code, out, err = _run(argv)
    if not states:
        assert code == 1
        return
    assert code == 0
    assert (out, err) == _reference_table(command, names, states, d_values, pretty)


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
    assert "florb" in err and str(cfg) in err


def test_config_missing_file():
    for argv in (["energies", "--config", "/no/such/file.cfg"],
                 ["energies", "--config=/no/such/file.cfg"]):
        code, out, err = _run(argv)
        assert code == 1 and out == "" and "/no/such/file.cfg" in err, argv


def test_flags_and_config_keys_are_never_abbreviated(tmp_path):
    # a prefix used to stand for the one flag it began: --d set delta, not D
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 2\n")
    abbreviated = tmp_path / "abbreviated.cfg"
    abbreviated.write_text("d = 5\n")
    for argv in (["energies", "--conf", str(cfg)],
                 ["energies", "--d", "5"],
                 ["corrections", "--del", "0.25"],
                 ["energies", "--mat", "CdSe"],
                 ["energies", "--config", str(abbreviated)]):
        code, out, err = _run(argv)
        assert code == 1 and out == "", argv
    assert "--d=5" in err and str(abbreviated) in err


def test_config_values_may_start_with_a_dash(tmp_path):
    cfg = tmp_path / "flux.cfg"
    cfg.write_text("delta_range = -0.5:0.5:0.25\nm = 1\n")
    code, out, err = _run(["ab-sweep", "--config", str(cfg)])
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["delta"] for row in rows] == ["-0.5", "-0.25", "0", "0.25", "0.5"]
    assert {row["D"] for row in rows} == {"0"} and {row["m"] for row in rows} == {"1"}
    assert _run(["ab-sweep", "--delta-range=-0.5:0.5:0.25", "--m", "1"]) == (code, out, err)


def test_material_failure_is_a_warning_on_every_row():
    # hbar_omega0 = 1e300 overflows A, so the material fails before any solve
    code, out, err = _run(["energies", "--hbar-omega0", "1e300", "--m", "0,1"])
    assert code == 0 and err.count("warning:") == 2
    assert err.count("SystemParams fields must be finite") == 2
    assert [row[6:] for row in csv.reader(io.StringIO(out))][1:] == [[""] * 6] * 2
    code, out, err = _run(["corrections", "--hbar-omega0", "1e300", "--D-range", "0:1:0.5"])
    assert code == 0 and err.count("SystemParams fields must be finite") == 3
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[1] for row in rows] == ["0", "0.5", "1"]
    assert all(row[2] == "" and row[6:] == [""] * 3 for row in rows)
    # transitions and ab-sweep raise a row's error
    for command in ("transitions", "ab-sweep"):
        code, out, err = _run([command, "--hbar-omega0", "1e300"])
        assert code == 3 and out == "" and "SystemParams fields must be finite" in err


def test_repeated_materials_and_states_are_solved_once(energies_calls):
    code, out, err = _run(["corrections", "--material", "GaAs,GaAs", "--m", "1,1",
                           "--D-range", "0:1:0.25"])
    assert code == 0 and err == "" and len(energies_calls) == 1
    _, single, _ = _run(["corrections", "--m", "1", "--D-range", "0:1:0.25"])
    header, *rows = single.splitlines()
    assert out.splitlines() == [header, *(row for row in rows for _ in range(4))]
    assert len(out.splitlines()) == 21


_D_AXIS = ["--D-range", "0:1:0.5"]


@pytest.mark.parametrize("command, repeated, single, by_row", [
    # single: the argv of each state's own run in output order, and its count
    ("energies", ["--m", "1,2,1", "--D", "3"],
     [(["--m", "1", "--D", "3"], 2), (["--m", "2", "--D", "3"], 1)], True),
    ("corrections", ["--m", "2,1,2", "--parity", "ce,se", *_D_AXIS],
     [(["--m", m, "--parity", p, *_D_AXIS], 1 + (m == "2")) for p in ("ce", "se")
      for m in "12"], True),
    ("transitions", ["--parity", "ce,se,ce", "--m-lo", "1", "--m-hi", "2", *_D_AXIS],
     [(["--parity", p, "--m-lo", "1", "--m-hi", "2", *_D_AXIS], 1) for p in ("ce", "se", "ce")],
     False),
    ("ab-sweep", ["--m", "1,0,1", "--D", "2", "--delta-range", "0:1:0.5"],
     [(["--m", m, "--D", "2", "--delta-range", "0:1:0.5"], 1) for m in "101"], False),
])
def test_table_commands_solve_each_distinct_material_once(energies_calls, command, repeated,
                                                          single, by_row):
    # each material is one chain call; energies and corrections repeat a
    # repeated state or material row by row, transitions and ab-sweep block by block
    code, out, err = _run([command, "--material", "GaAs,CdSe,GaAs", *repeated])
    assert code == 0 and err == ""
    assert [mat.name for _, mat in energies_calls] == ["CdSe", "GaAs"]
    want = []
    for name, k in (("CdSe", 1), ("GaAs", 2)):
        blocks = [(_run([command, "--material", name, *argv])[1].splitlines()[1:], count)
                  for argv, count in single]
        if by_row:
            want += [row for block, count in blocks for row in block for _ in range(count * k)]
        else:
            want += [row for block, _ in blocks for row in block] * k
    assert out.splitlines()[1:] == want


def test_transitions_with_no_valid_parity_is_a_usage_error():
    energies = _run(["energies", "--parity", "se", "--m", "0"])
    assert energies[0] == 1 and "no valid (m, parity) combinations requested" in energies[2]
    assert _run(["transitions", "--parity", "se", "--m-lo", "0", "--m-hi", "1"]) == energies
    code, out, _ = _run(["transitions", "--parity", "se,ce", "--m-lo", "0", "--m-hi", "1",
                         "--D-range", "0:1:1"])
    assert code == 0 and [row.split(",")[5] for row in out.splitlines()[1:]] == ["ce"] * 2


@pytest.mark.parametrize("states", [["--m-lo", "-1"], ["--parity", "se", "--m-lo", "0"]])
def test_transitions_checks_the_material_before_the_states(states):
    # like energies and corrections: a bad --hbar-omega0 is reported first
    code, out, err = _run(["transitions", "--hbar-omega0", "-1", *states])
    assert code == _run(["energies", "--hbar-omega0", "-1"])[0] != 1
    assert out == "" and "hbar_omega0" in err


@pytest.mark.parametrize("r_max", ["1e308", "-1e308"])
def test_wavefunction_overflowing_grid_end_is_a_domain_error(r_max):
    # r_max is finite but r_max * a is not; no RuntimeWarning may escape
    code, out, err = _run(["wavefunction", f"--r-max={r_max}"])
    assert code == 3 and out == "" and "--r-max" in err


def test_float_range_parsing():
    assert _floats_from_range("5") == [5.0]
    got = _floats_from_range("0:1:0.25")
    assert got == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    # inclusive endpoint despite binary-float step accumulation
    assert _floats_from_range("0:10:0.1")[-1] == pytest.approx(10.0)
    assert len(_floats_from_range("0:10:0.1")) == 101


_VERIFY_CASES = {"angular": 63, "radial": 45, "series": 9, "normalization": 12}


@pytest.mark.parametrize("suite", ["angular", "radial", "series", "normalization", "all"])
def test_verify_subcommand_csv(suite):
    # one row per suite, the four of all in table order
    code, out, err = _run(["verify", "--suite", suite])
    names = list(_VERIFY_CASES) if suite == "all" else [suite]
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "cases", "worst", "tol", "status"]
    assert [(r[0], int(r[1]), r[4]) for r in rows[1:]] == [(n, _VERIFY_CASES[n], "ok")
                                                           for n in names]
    assert all(0.0 <= float(r[2]) <= float(r[3]) for r in rows[1:])


def test_verify_failure_exits_2(monkeypatch):
    # one case above the tolerance fails the suite; worst is the largest error
    monkeypatch.setitem(cli._SUITES, "series", (lambda: iter([0.5, 20.0, 3.0]), 10.0))
    code, out, err = _run(["verify", "--suite", "series"])
    assert code == 2 and err == ""
    assert out.splitlines()[1] == "series,3,20,10,FAIL"
    monkeypatch.setitem(cli._SUITES, "series", (lambda: iter([]), 10.0))
    assert _run(["verify", "--suite", "series"]) == (0, "check,cases,worst,tol,status\n"
                                                        "series,0,0,10,ok\n", "")


def test_help_exits_zero():
    code, out, err = _run(["--help"])
    assert code == 0
