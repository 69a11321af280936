"""The four qring workloads: their inputs from a seed, and their output checks.

Every workload is a closed loop with one client: the next process or call
starts only after the previous one returned.

* sweep          one cold ``qring corrections`` process over a 21,021-row D grid
* flux           one cold ``qring ab-sweep`` process over a 3,507-row flux grid
* cold_cli       the eight figure recipes as ``figures/Makefile`` runs them,
                 then ``qring verify --suite all``; one cold process each
* wavefunctions  210 in-process states: make_wave, radial_profile, normalize_numeric

The seed shifts the D grid (sweep, wavefunctions) or the flux grid (flux) by
less than one step and picks the rows that are checked. cold_cli is fixed
because its stdout is the committed golden figure data.
"""
from __future__ import annotations

import csv
import io
import os
import random
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIGURES = os.path.join(ROOT, "figures")

SWEEP_MATERIALS = "GaAs,GaAlAs_x0.3,CdSe"
# (m, parity) pairs a --m 0,1,2,3 --parity ce,se request expands to: se has no m = 0
STATE_COUNT = 7
SAMPLED_SWEEP_ROWS = 64
SAMPLED_FLUX_ROWS = 16
CHAR_VALUE_TOL = 1e-7  # as tests/test_mathieu.py against scipy.special
ANGULAR_TOL = 1e-8  # as qring verify --suite angular
NORM_TOL = 1e-9  # as qring verify --suite normalization


@dataclass(frozen=True)
class Command:
    """One cold CLI process, and the same call made in-process for tracing."""

    argv: tuple  # arguments after ``python -m qring.cli``
    cwd: str  # working directory of the process
    inproc_argv: tuple  # arguments for qring.cli.run() from any directory
    golden: str = ""  # committed stdout this process must reproduce


def _grid_arg(start, span, step):
    return f"{start:.4f}:{start + span:.4f}:{step}"


def _grid_len(span, step):
    return int(round(span / step)) + 1


# -- sweep -------------------------------------------------------------------

def sweep_commands(seed, smoke=False):
    span = 0.1 if smoke else 10.0
    start = random.Random(seed).uniform(0.0005, 0.0095)
    argv = ("corrections", "--material", SWEEP_MATERIALS, "--m", "0,1,2,3",
            "--parity", "ce,se", "--D-range", _grid_arg(start, span, 0.01))
    return [Command(argv, ROOT, argv)], 3 * STATE_COUNT * _grid_len(span, 0.01)


def check_sweep(seed, expected_rows, outcome):
    """Failed rows: empty fields, stderr warnings, or a sampled char_value off scipy."""
    from scipy import special

    code, out, err = outcome
    if code != 0:
        return expected_rows
    header, rows = _parse_csv(out)
    bad = {i for i, row in enumerate(rows) if len(row) != len(header) or "" in row}
    bad |= set(range(len(rows), expected_rows))
    warnings = err.decode("utf-8", "replace").count("warning:")
    col = {name: i for i, name in enumerate(header)}
    count = min(SAMPLED_SWEEP_ROWS, expected_rows)
    for i in random.Random(seed).sample(range(expected_rows), count):
        if i in bad:
            continue
        row = rows[i]
        m, q = int(row[col["m"]]), float(row[col["p"]])
        ref = (special.mathieu_a if row[col["parity"]] == "ce" else special.mathieu_b)(2 * m, q)
        if not abs(float(row[col["char_value"]]) - float(ref)) <= CHAR_VALUE_TOL:
            bad.add(i)
    return min(expected_rows, max(len(bad), warnings))


# -- flux --------------------------------------------------------------------

FLUX_D = 10.0


def flux_commands(seed, smoke=False):
    span = 0.02 if smoke else 1.0
    start = random.Random(seed).uniform(0.0001, 0.0019)
    argv = ("ab-sweep", "--material", "GaAs", "--m", "0,1,2,3", "--parity", "ce,se",
            "--D", str(FLUX_D), "--delta-range", _grid_arg(start, span, 0.002))
    return [Command(argv, ROOT, argv)], STATE_COUNT * _grid_len(span, 0.002)


def check_flux(seed, expected_rows, outcome):
    """Failed rows: empty fields, or a sampled E_theta that misses the angular oracle.

    E_theta = delta^2 - lambda_eff^2 + 2 mu B is recovered from the printed
    lambda_eff = sqrt(c/4 + 2 mu B) and compared, as ``verify --suite angular``
    does, with the Richardson-extrapolated Fourier-collocation eigenvalue.
    """
    from qring import get_material
    from qring.oracle import angular_fd_eigs, convergence_report
    from qring.params import from_material

    code, out, _ = outcome
    if code != 0:
        return expected_rows
    header, rows = _parse_csv(out)
    bad = {i for i, row in enumerate(rows) if len(row) != len(header) or "" in row}
    bad |= set(range(len(rows), expected_rows))
    col = {name: i for i, name in enumerate(header)}
    mat = get_material("GaAs")
    count = min(SAMPLED_FLUX_ROWS, expected_rows)
    for i in random.Random(seed).sample(range(expected_rows), count):
        if i in bad:
            continue
        row = rows[i]
        delta, lam = float(row[col["delta"]]), float(row[col["lambda_eff"]])
        params = from_material(mat, float(row[col["D"]]), delta)
        q = 4.0 * params.mu * params.D_theta
        e_theta = delta * delta - lam * lam + 2.0 * params.mu * params.B
        ests = []
        for n in (64, 128, 256):
            w = angular_fd_eigs(delta, q, n).eigenvalues
            ests.append(w[int(abs(w - e_theta).argmin())])
        if not abs(convergence_report(ests).extrapolated - e_theta) <= ANGULAR_TOL:
            bad.add(i)
    return len(bad)


# -- cold_cli ----------------------------------------------------------------

_RECIPE = re.compile(r"^(\S+\.csv): (\S+\.cfg)\n\tqring (\S+) --config \$< > \$@$", re.M)


def cold_cli_commands():
    """The Makefile's figure recipes, then verify; fixed, so there is no seed."""
    with open(os.path.join(FIGURES, "Makefile"), encoding="utf-8") as fh:
        recipes = _RECIPE.findall(fh.read())
    if not recipes:
        raise FileNotFoundError("no figure recipes found in figures/Makefile")
    cmds = [Command((sub, "--config", cfg), FIGURES,
                    (sub, "--config", os.path.join(FIGURES, cfg)),
                    os.path.join(FIGURES, csv_name))
            for csv_name, cfg, sub in recipes]
    cmds.append(Command(("verify", "--suite", "all"), ROOT, ("verify", "--suite", "all")))
    return cmds


def check_cold_cli(command, outcome):
    """1 if the process failed: non-zero exit, stdout off the golden file, or a failed suite."""
    code, out, _ = outcome
    if code != 0:
        return 1
    if command.golden:
        with open(command.golden, "rb") as fh:
            return int(out != fh.read())
    _, rows = _parse_csv(out)
    return int(not rows or any(row[-1] != "ok" for row in rows))


# -- wavefunctions -------------------------------------------------------------

WAVE_MATERIALS = ("GaAs", "CdSe")
WAVE_STATES = ((0, "ce"), (1, "ce"), (1, "se"), (2, "ce"), (2, "se"), (3, "ce"), (3, "se"))
PROFILE_POINTS = 200
R_MAX = 8.0  # profile grid end in oscillator lengths, as the wavefunction subcommand


def wave_inputs(seed, smoke=False):
    """(material, D, n_r, m, parity) for every state, in evaluation order."""
    offset = random.Random(seed).uniform(0.01, 0.99)
    if smoke:
        return [("GaAs", offset, nr, m, p) for nr in (0, 1) for m, p in ((0, "ce"), (1, "se"))]
    return [(mat, d + offset, nr, m, p)
            for mat in WAVE_MATERIALS for d in (0.0, 5.0, 10.0)
            for nr in range(5) for m, p in WAVE_STATES]


def make_wave_op(qring):
    """The per-state library calls; looks functions up at call time so tracing sees them."""
    import numpy as np

    def op(inp):
        mat, d, nr, m, parity = inp
        state = qring.QuantumState(nr, m, qring.Branch(parity))
        params = qring.from_material(qring.get_material(mat), d, 0.0)
        spec = qring.make_wave(state, params)
        table = qring.radial_profile(spec, np.linspace(0.0, R_MAX * spec.a, PROFILE_POINTS))
        n_quad = qring.normalize_numeric(spec)
        return table.nodes, spec.N, n_quad, len(table.rows)

    return op


def check_wave(inp, result):
    """1 if the state failed: an exception, nodes != n_r, or |N^2/N_quad^2 - 1| > 1e-9."""
    if isinstance(result, BaseException):
        return 1
    nodes, n_closed, n_quad, _ = result
    return int(nodes != inp[2] or not abs((n_closed / n_quad) ** 2 - 1.0) <= NORM_TOL)


def _parse_csv(data):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8", "replace"))))
    return (rows[0], rows[1:]) if rows else ([], [])


def count_rows(data):
    """CSV data rows in one process's stdout."""
    return max(data.count(b"\n") - 1, 0)
