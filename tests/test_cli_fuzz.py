"""CLI contract under arbitrary flag combinations.

Every argv built from the subcommands' own flags and a fixed list of
awkward values must end in exit code 0, 1, 2 or 3 without raising, and a
successful run must print no non-finite number. A config file that holds
the same flags as keys must give the same exit code and stdout. Ranges in
the value list have at most 10 points and --m / --nr stay at 0 or 1, so no
case runs long.
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
