"""Command-line interface.

Deterministic CSV to stdout (or a fixed-width table with --pretty),
diagnostics to stderr. Exit codes: 0 success, 1 usage, 2 numerics,
3 domain. --config FILE (or --config=FILE) reads flat key=value lines,
merged under explicit flags; keys are flag names (D_range or D-range). No
flag is abbreviated, in a file or in argv. In argv, a value that starts with
'-' but is not a plain number needs the --flag=value form:
--delta-range=-0.5:0.5:0.25.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import oracle, spectrum, wavefun
from .errors import _MAX_POINTS, DomainError, NumericsError, QringError, UsageError
from .mathieu import Branch, _raise_first, char_value, char_value_series, series_p8_estimate
from .params import builtin_materials, from_material, get_material, parse_config
from .spectrum import QuantumState, SweepConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; contract says 1
        raise UsageError(message)


def _floats_from_range(text: str):
    """'start:stop:step' inclusive, or a single float."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    steps = (stop - start) / step if step > 0 else math.nan  # inf when the count overflows
    if not all(map(math.isfinite, (start, stop, step, steps))) or stop < start:
        raise UsageError(f"bad range {text!r}")
    count = int(math.floor(steps + 1e-9)) + 1
    if count > _MAX_POINTS:
        raise UsageError(f"range {text!r} has {count} points, more than {_MAX_POINTS}")
    return [start + k * step for k in range(count)]


def _int_list(text: str):
    return [int(p) for p in text.split(",") if p != ""]


def _parity_list(text: str):
    out = []
    for p in text.split(","):
        p = p.strip().lower()
        try:
            out.append(Branch(p))
        except ValueError:
            raise UsageError(f"parity must be ce or se, got {p!r}") from None
    return out


def _material_list(text: str):
    return [get_material(name.strip()) for name in text.split(",")]


def _cells(column, n):
    """The n cells of one table column as strings.

    A column is a float array over the rows, or one scalar repeated. Floats
    print to 12 significant digits; nan, the computed value of a row that
    failed, prints empty.
    """
    if not isinstance(column, np.ndarray):
        return ["%.12g" % column if isinstance(column, float) else str(column)] * n
    return ["%.12g" % v if v == v else "" for v in column.tolist()]


def _emit(args, header, groups):
    """Write a table to stdout from groups of columns, formatting one group at a time.

    A group of scalars is one row. CSV has RFC-4180 quoting and LF endings;
    --pretty right-aligns each column to its widest cell instead.
    """
    def rows_of(columns):
        n = max((len(c) for c in columns if isinstance(c, np.ndarray)), default=1)
        return zip(*(_cells(c, n) for c in columns))
    rows = (row for columns in groups for row in rows_of(columns))
    if not args.pretty:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    rows = [header, *rows]
    widths = [max(map(len, col)) for col in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    for row in rows:
        print("  ".join(v.rjust(w) for v, w in zip(row, widths)))


def _build_parser():
    # allow_abbrev=False: --d must not stand for --delta, in argv or in a config file
    top = _Parser(prog="qring", description=__doc__, allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file, merged under flags")
        p.add_argument("--pretty", action="store_true", help="fixed-width table output")
        return p

    def add_state_args(p, with_nr=True):
        p.add_argument("--material", type=_material_list, default=None,
                       help="built-in material name(s), comma separated")
        if with_nr:
            p.add_argument("--nr", type=_int_list, default=[0])
        p.add_argument("--m", type=_int_list, default=[0])
        p.add_argument("--parity", type=_parity_list, default=[Branch.CE])
        p.add_argument("--hbar-omega0", type=float, default=None,
                       help="override the material confinement quantum, eV")

    p = add("energies", "energy spectrum rows at one dipole strength")
    add_state_args(p)
    p.add_argument("--D", type=float, default=0.0, help="dipole moment, a.u.")
    p.add_argument("--delta", type=float, default=0.0, help="AB flux ratio")

    p = add("corrections", "dipole corrections lambda_eff - lambda_0 over D")
    add_state_args(p, with_nr=False)
    p.add_argument("--D-range", type=_floats_from_range, default="0:10:0.1",
                   dest="d_range", help="start:stop:step or single value (a.u.)")
    p.add_argument("--delta", type=float, default=0.0)

    p = add("transitions", "m -> m' transition energies over D")
    add_state_args(p, with_nr=False)
    p.add_argument("--nr", type=int, default=0)
    p.add_argument("--m-hi", type=int, required=False, default=1, dest="m_hi")
    p.add_argument("--m-lo", type=int, required=False, default=0, dest="m_lo")
    p.add_argument("--D-range", type=_floats_from_range, default="0:10:0.1", dest="d_range")
    p.add_argument("--delta", type=float, default=0.0)

    p = add("ab-sweep", "Aharonov-Bohm correction vs flux ratio")
    add_state_args(p, with_nr=False)
    p.add_argument("--delta-range", type=_floats_from_range, default="0:1:0.02",
                   dest="delta_range", help="start:stop:step, default 0:1:0.02")
    p.add_argument("--D", type=float, default=0.0,
                   help="dipole held fixed during the sweep (default 0)")

    p = add("wavefunction", "radial probability density profile")
    add_state_args(p)
    p.add_argument("--D", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=8.0, dest="r_max",
                   help="grid end in units of the oscillator length a")
    p.add_argument("--points", type=int, default=200)

    add("materials", "list built-in material parameter sets")

    p = add("verify", "run oracle cross-checks")
    p.add_argument("--suite", default="all", choices=[*_SUITES, "all"])
    return top


def _materials_of(args):
    mats = args.material if args.material else [get_material("GaAs")]
    if getattr(args, "hbar_omega0", None) is not None:
        mats = [replace(m, hbar_omega0=args.hbar_omega0) for m in mats]
    return mats


def _states(parities, ms, nrs, delta):
    """The states over parity, then m, then n_r; se has no m = 0."""
    out = [QuantumState(nr, m, parity, delta) for parity in parities for m in ms
           if not (parity is Branch.SE and m == 0) for nr in nrs]
    if not out:
        raise UsageError("no valid (m, parity) combinations requested")
    return out


def _sweep_table(args, mats, states, d_values, header):
    """Print a warning on stderr for each failed row, in row order, then the table.

    Each header entry names a qr_energies column, p, E_hw0, E_eV or a row label.
    """
    groups = list(spectrum._groups(SweepConfig(tuple(mats), tuple(states), tuple(d_values))))
    for mat, state, _, _, errors in groups:
        for err in errors[np.not_equal(errors, None)]:
            print(f"warning: {mat.name} {state}: {err}", file=sys.stderr)
    _emit(args, header, ([dict(c, material=mat.name, D=D, delta=s.delta, nr=s.n_r, m=s.m,
                               parity=s.parity.value, p=c["q_mathieu"], E_hw0=c["e_hw0"],
                               E_eV=c["e_ev"])[name] for name in header]
                         for mat, s, D, c, _ in groups))
    return 0


def _cmd_energies(args):
    return _sweep_table(args, _materials_of(args),
                        _states(args.parity, args.m, args.nr, args.delta), [args.D],
                        ["material", "D", "delta", "nr", "m", "parity", "p", "char_value",
                         "alpha", "lambda_eff", "E_hw0", "E_eV"])


def _cmd_corrections(args):
    return _sweep_table(args, _materials_of(args), _states(args.parity, args.m, [0], args.delta),
                        args.d_range, ["material", "D", "p", "m", "parity", "delta", "char_value",
                                       "lambda_eff", "correction"])


def _cmd_transitions(args):
    mats = _materials_of(args)
    lows = _states(args.parity, [args.m_lo], [args.nr], args.delta)
    d_values = np.array(args.d_range)
    groups = []
    for mat, lo, de_w, de_n, shift in spectrum._transitions(mats, lows, args.m_hi, d_values):
        groups.append([mat.name, d_values, args.nr, args.m_hi, args.m_lo, lo.parity.value,
                       de_w, de_n, 100.0 * shift])
    _emit(args, ["material", "D", "nr", "m_hi", "m_lo", "parity",
                 "dE_withD", "dE_noD", "rel_shift_pct"], groups)
    return 0


def _cmd_ab_sweep(args):
    mats = _materials_of(args)
    states = _states(args.parity, args.m, [0], 0.0)
    groups = []
    # ab_correction(base, mat, d, D) over the flux axis, all states at once; row 0 is delta = 0
    for mat, rows in spectrum._solve(mats, states, args.D, [0.0, *args.delta_range]):
        for base in states:
            cols, errors = rows[base]
            _raise_first(errors)
            lam = cols["lambda_eff"]
            groups.append([mat.name, args.D, base.m, base.parity.value,
                           np.array(args.delta_range), lam[1:], lam[1:] - lam[0]])
    _emit(args, ["material", "D", "m", "parity", "delta",
                 "lambda_eff", "ab_correction"], groups)
    return 0


def _cmd_wavefunction(args):
    mats = _materials_of(args)
    if len(mats) != 1 or len(args.m) != 1 or len(args.parity) != 1 or len(args.nr) != 1:
        raise UsageError("wavefunction takes exactly one material and one state")
    if args.points < 0:
        raise UsageError(f"--points must be >= 0, got {args.points}")
    for flag, value in (("--points", args.points), ("--nr", args.nr[0])):
        if value > _MAX_POINTS:  # the grid, or one recurrence step per degree
            raise UsageError(f"{flag} must be at most {_MAX_POINTS}, got {value}")
    state = QuantumState(args.nr[0], args.m[0], args.parity[0], args.delta)
    params = from_material(mats[0], args.D, args.delta)
    if not math.isfinite(args.r_max * params.a_length):  # the grid end, in bohr
        raise DomainError(f"--r-max must be finite in units of a = {params.a_length} bohr, "
                          f"got {args.r_max}")
    spec = wavefun.make_wave(state, params)
    grid = np.linspace(0.0, args.r_max * spec.a, args.points)
    table = wavefun.radial_profile(spec, grid)
    r, dens = np.array(table.rows, dtype=float).reshape(-1, 2).T
    _emit(args, ["r", "R2", "nodes"], [[r, dens, table.nodes]])
    return 0


def _cmd_materials(args):
    _emit(args, ["name", "m_star", "eps_r", "lambda", "hbar_omega0_eV"],
          [[m.name, m.m_star, m.eps_r, m.lam, m.hbar_omega0] for m in builtin_materials()])
    return 0


# --- verify suites: each yields one error per case, in case order -------------

def _verify_angular():
    gaas = get_material("GaAs")
    for delta in (0.0, 0.25, 0.5):
        for p in (0.0, 0.1, 0.21):
            fds = [oracle.angular_fd_eigs(delta, p, N) for N in (64, 128, 256)]
            # params with the exact q = 4 mu D_theta requested
            params = replace(from_material(gaas, 0.0, delta), D_theta=p / (4.0 * gaas.m_star))
            for state in _states((Branch.CE, Branch.SE), range(4), [0], delta):
                e_theta = spectrum.angular_eigenvalue(state, params)[0]
                ests = [fd.eigenvalues[np.argmin(np.abs(fd.eigenvalues - e_theta))] for fd in fds]
                yield abs(oracle.convergence_report(ests).extrapolated - e_theta)


def _verify_radial():
    gaas = get_material("GaAs")
    for d in (0.0, 5.0, 10.0):
        params = from_material(gaas, d, 0.0)
        a2 = params.a_length ** 2
        for state in _states((Branch.CE, Branch.SE), range(3), [0], 0.0):
            e_theta = spectrum.angular_eigenvalue(state, params)[0]
            fd = oracle.radial_fd_eigs(e_theta, params, 3)
            _, alpha = spectrum.radial_exponent(e_theta, params)
            for nr in range(3):
                eps = (4 * nr + 4 * alpha + 1) / a2
                yield abs(fd.eigenvalues[nr] - eps) / eps


def _verify_series():
    for m in (4, 5, 6):
        for p in (0.1, 0.5, 1.0):
            diff = abs(char_value_series(m, p) - char_value(m, Branch.CE, p).value)
            yield diff / series_p8_estimate(m, p)


def _verify_normalization():
    gaas = get_material("GaAs")
    for d in (0.0, 10.0):
        for state in _states((Branch.CE, Branch.SE), (0, 1), (0, 2), 0.0):
            spec = wavefun.make_wave(state, from_material(gaas, d, 0.0))
            yield abs((spec.N / wavefun.normalize_numeric(spec)) ** 2 - 1.0)


# each suite with the tolerance on its worst error
_SUITES = {
    "angular": (_verify_angular, 1e-8),
    "radial": (_verify_radial, 1e-6),
    "series": (_verify_series, 10.0),
    "normalization": (_verify_normalization, 1e-9),
}


def _cmd_verify(args):
    rows = []
    for name in _SUITES if args.suite == "all" else [args.suite]:
        suite, tol = _SUITES[name]
        errors = list(suite())
        worst = max([0.0, *errors])
        rows.append([name, len(errors), worst, tol, "ok" if worst <= tol else "FAIL"])
    _emit(args, ["check", "cases", "worst", "tol", "status"], rows)
    return 0 if all(row[-1] == "ok" for row in rows) else 2


_COMMANDS = {
    "energies": _cmd_energies,
    "corrections": _cmd_corrections,
    "transitions": _cmd_transitions,
    "ab-sweep": _cmd_ab_sweep,
    "wavefunction": _cmd_wavefunction,
    "materials": _cmd_materials,
    "verify": _cmd_verify,
}


def _parse(parser, argv):
    """Parse argv, then again with each --config key as a --key=value token before it."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            pairs = parse_config(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc}") from None
    tokens = []
    for key, value in pairs.items():
        flag = "--" + key.replace("_", "-")
        if flag != "--pretty":
            tokens.append(f"{flag}={value}")  # one token: the value may start with '-'
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
    try:
        return parser.parse_args([args.command, *tokens, *argv[1:]])
    except UsageError as exc:
        raise UsageError(f"config {args.config!r}: {exc}") from None


def run(argv) -> int:
    try:
        args = _parse(_build_parser(), list(argv))
        return _COMMANDS[args.command](args)
    except QringError as exc:
        kind = ("domain error: " if isinstance(exc, DomainError) else
                "numerics error: " if isinstance(exc, NumericsError) else "")
        print(f"qring: {kind}{exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, as `| head` does: not an error;
        # point stdout at devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
