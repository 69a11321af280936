"""CLI contract under arbitrary flag combinations.

Every argv built from the subcommands' own flags and a fixed list of
awkward values must end in exit code 0, 1, 2 or 3 without raising, and a
successful run must print no non-finite number. A config file that holds
the same flags as keys must give the same exit code and stdout. Ranges in
the value list have at most 10 points and --m / --nr stay at 0 or 1, so no
case runs long. ab-sweep, which solves all states of a material in one
chain call, must also print what one call per state prints.
"""
import csv
import io
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qring import cli
from qring.cli import run
from qring.mathieu import _raise_first
from qring.spectrum import qr_energies

_STATE = ["--material", "--m", "--parity", "--hbar-omega0", "--pretty"]
_FLAGS = {
    "energies": _STATE + ["--nr", "--D", "--delta"],
    "corrections": _STATE + ["--D-range", "--delta"],
    "transitions": _STATE + ["--nr", "--m-hi", "--m-lo", "--D-range", "--delta"],
    "ab-sweep": _STATE + ["--delta-range", "--D"],
    "wavefunction": _STATE + ["--nr", "--D", "--delta", "--r-max", "--points"],
    "materials": ["--pretty"],
}
_VALUES = ["0", "1", "-1", "2.5", "1e6", "1e308", "nan", "inf", "x", "ce", "se", "GaAs",
           "0,1", "0:1:0.5", "0:inf:1", "1:0:1"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    flags = st.lists(st.sampled_from(_FLAGS[command]), min_size=1, max_size=4, unique=True)
    for flag in draw(flags):
        argv.append(flag)
        if flag != "--pretty":
            argv.append(draw(st.sampled_from(_VALUES)))
    return argv


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_argvs())
def test_any_argv_keeps_the_exit_contract(argv):
    code, text, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        rows = ([line.split() for line in text.splitlines()] if "--pretty" in argv
                else csv.reader(io.StringIO(text)))
        cells = {cell.lower() for row in rows for cell in row}
        assert not cells & {"nan", "inf", "-inf"}, argv


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_argvs(), st.booleans())
def test_a_config_file_acts_as_its_flags(tmp_path_factory, argv, joined):
    # each drawn flag as one key = value line, in the drawn order
    command, flags = argv[0], argv[1:]
    lines, i = [], 0
    while i < len(flags):
        if flags[i] == "--pretty":
            lines.append("pretty = true")
            i += 1
        else:
            lines.append(f"{flags[i][2:]} = {flags[i + 1]}")
            i += 2
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    config = [f"--config={path}"] if joined else ["--config", str(path)]
    assert _run([command, *config])[:2] == _run(argv)[:2], lines


def _ab_sweep_per_state(args):
    """ab-sweep with one qr_energies call per state, each raising its first error."""
    mats = cli._materials_of(args)
    deltas = (args.delta_range if args.delta_range is not None
              else cli._floats_from_range("0:1:0.02"))
    states = cli._states(args.parity, args.m, [0], 0.0)
    groups = []
    for mat in sorted(mats, key=lambda m: m.name):
        for base in states:
            cols, errors = qr_energies(base, mat, args.D, [0.0, *deltas])
            _raise_first(errors)
            lam = cols["lambda_eff"]
            groups.append([mat.name, args.D, base.m, base.parity.value, np.array(deltas),
                           lam[1:], lam[1:] - lam[0]])
    cli._emit(args, ["material", "D", "m", "parity", "delta",
                     "lambda_eff", "ab_correction"], groups)
    return 0


@st.composite
def _ab_sweep_argvs(draw):
    names = draw(st.lists(st.sampled_from(["GaAs", "GaAlAs_x0.3", "CdSe"]),
                          min_size=1, max_size=3))
    ms = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    parity = draw(st.sampled_from(["ce", "se", "ce,se", "se,ce"]))
    # ranges that hold 0 and integer fluxes, where the ce and se labels split
    start = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0]))
    step = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0]))
    stop = start + step * draw(st.integers(0, 8))
    # D = 0, ordinary dipoles, supercritical ones (for some states or all),
    # a q past the truncation bound, and an invalid D
    D = draw(st.sampled_from(["0", "2.5", "10", "450", "600", "1000", "1e6", "-1"]))
    return ["ab-sweep", "--material", ",".join(names), "--m", ",".join(map(str, ms)),
            "--parity", parity, "--D", D, f"--delta-range={start}:{stop}:{step}"]


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(_ab_sweep_argvs())
def test_ab_sweep_matches_one_chain_call_per_state(argv):
    # the command solves every state of a material in one chain call; its
    # stdout, stderr and exit code must be those of one call per state
    with mock.patch.dict(cli._COMMANDS, {"ab-sweep": _ab_sweep_per_state}):
        reference = _run(argv)
    assert _run(argv) == reference
