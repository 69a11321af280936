"""CLI contract under arbitrary flag combinations.

Every argv built from the subcommands' own flags and a fixed list of
awkward values must end in exit code 0, 1, 2 or 3 without raising, and a
successful run must print no non-finite number. Ranges in the value list
have at most 10 points and --m / --nr stay at 0 or 1, so no case runs long.
"""
import csv
import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from qring.cli import run

_STATE = ["--material", "--m", "--parity", "--hbar-omega0", "--pretty"]
_FLAGS = {
    "energies": _STATE + ["--nr", "--D", "--delta"],
    "corrections": _STATE + ["--D-range", "--delta"],
    "transitions": _STATE + ["--nr", "--m-hi", "--m-lo", "--D-range", "--delta"],
    "ab-sweep": _STATE + ["--delta-range", "--D"],
    "wavefunction": _STATE + ["--nr", "--D", "--delta", "--r-max", "--points"],
    "materials": ["--pretty"],
}
_VALUES = ["0", "1", "-1", "2.5", "1e6", "nan", "inf", "x", "ce", "se", "GaAs",
           "0,1", "0:1:0.5", "0:inf:1", "1:0:1"]


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
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        text = out.getvalue()
        rows = ([line.split() for line in text.splitlines()] if "--pretty" in argv
                else csv.reader(io.StringIO(text)))
        cells = {cell.lower() for row in rows for cell in row}
        assert not cells & {"nan", "inf", "-inf"}, argv
