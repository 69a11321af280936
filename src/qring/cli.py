"""Command-line interface.

Deterministic CSV to stdout (or a fixed-width table with --pretty),
diagnostics to stderr. Exit codes: 0 success, 1 usage, 2 numerics,
3 domain. Config files are flat key=value, merged under explicit flags.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import oracle, spectrum, wavefun
from .errors import DomainError, NumericsError, QringError, UsageError
from .mathieu import Branch, char_value, char_value_series, series_p8_estimate
from .params import builtin_materials, get_material, parse_config
from .spectrum import QuantumState, SweepConfig, qr_energy, sweep, transition


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
    if step <= 0 or stop < start:
        raise UsageError(f"bad range {text!r}")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(n)]


def _int_list(text: str):
    return [int(p) for p in text.split(",") if p != ""]


def _parity_list(text: str):
    out = []
    for p in text.split(","):
        p = p.strip().lower()
        if p == "ce":
            out.append(Branch.CE)
        elif p == "se":
            out.append(Branch.SE)
        else:
            raise UsageError(f"parity must be ce or se, got {p!r}")
    return out


def _material_list(text: str):
    return [get_material(name.strip()) for name in text.split(",")]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def emit_csv(rows, header, stream=None):
    """Header + rows, 12 significant digits, RFC-4180 quoting, LF endings."""
    stream = stream if stream is not None else sys.stdout
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _emit_pretty(rows, header, stream=None):
    stream = stream if stream is not None else sys.stdout
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    def line(vals):
        return "  ".join(v.rjust(w) for v, w in zip(vals, widths))
    print(line(header), file=stream)
    print(line(["-" * w for w in widths]), file=stream)
    for row in cells:
        print(line(row), file=stream)


def _emit(args, rows, header):
    if args.pretty:
        _emit_pretty(rows, header)
    else:
        emit_csv(rows, header)


def _build_parser():
    top = _Parser(prog="qring", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
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
    p.add_argument("--D-range", type=_floats_from_range, default=None,
                   dest="d_range", help="start:stop:step or single value (a.u.)")
    p.add_argument("--delta", type=float, default=0.0)

    p = add("transitions", "m -> m' transition energies over D")
    add_state_args(p, with_nr=False)
    p.add_argument("--nr", type=int, default=0)
    p.add_argument("--m-hi", type=int, required=False, default=1, dest="m_hi")
    p.add_argument("--m-lo", type=int, required=False, default=0, dest="m_lo")
    p.add_argument("--D-range", type=_floats_from_range, default=None, dest="d_range")
    p.add_argument("--delta", type=float, default=0.0)

    p = add("ab-sweep", "Aharonov-Bohm correction vs flux ratio")
    add_state_args(p, with_nr=False)
    p.add_argument("--delta-range", type=_floats_from_range, default=None,
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
    p.add_argument("--suite", default="all",
                   choices=["angular", "radial", "series", "normalization", "all"])
    return top


def _apply_config(parser, argv):
    """Merge config-file keys as synthesized flags before the user's flags."""
    if not argv or argv[0].startswith("-"):
        return argv
    try:
        cfg_idx = argv.index("--config")
        path = argv[cfg_idx + 1]
    except ValueError:
        return argv
    except IndexError:
        raise UsageError("--config needs a path") from None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = parse_config(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None

    # which flags does this subcommand accept?
    sub_actions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    subparser = sub_actions.choices.get(argv[0])
    if subparser is None:
        return argv
    known = {s for action in subparser._actions for s in action.option_strings}
    tokens = []
    for key, value in pairs.items():
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise UsageError(f"config {path!r}: unknown key {key!r}")
        if flag == "--pretty":
            if value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
            continue
        tokens.extend([flag, value])
    return [argv[0]] + tokens + argv[1:]


def _materials_of(args):
    mats = args.material if args.material else [get_material("GaAs")]
    if getattr(args, "hbar_omega0", None) is not None:
        mats = [replace(m, hbar_omega0=args.hbar_omega0) for m in mats]
    return mats


def _states_of(args, delta, nr_list=None):
    out = []
    for parity in args.parity:
        for m in args.m:
            if parity is Branch.SE and m == 0:
                continue  # only ce supports m = 0
            for nr in (nr_list if nr_list is not None else [0]):
                out.append(QuantumState(n_r=nr, m=m, parity=parity, delta=delta))
    if not out:
        raise UsageError("no valid (m, parity) combinations requested")
    return out


def _cmd_energies(args):
    mats = _materials_of(args)
    states = _states_of(args, args.delta, nr_list=args.nr)
    rows = sweep(SweepConfig(tuple(mats), tuple(states), (args.D,)))
    out = []
    for r in rows:
        if r.error:
            print(f"warning: {r.material} {r.state}: {r.error}", file=sys.stderr)
            out.append([r.material, r.D, r.state.delta, r.state.n_r, r.state.m,
                        r.state.parity.value, None, None, None, None, None, None])
            continue
        out.append([r.material, r.D, r.state.delta, r.state.n_r, r.state.m,
                    r.state.parity.value, r.q_mathieu, r.char_value, r.alpha,
                    r.lambda_eff, r.e_hw0, r.e_ev])
    _emit(args, out, ["material", "D", "delta", "nr", "m", "parity", "p",
                      "char_value", "alpha", "lambda_eff", "E_hw0", "E_eV"])
    return 0


def _cmd_corrections(args):
    mats = _materials_of(args)
    states = _states_of(args, args.delta)
    d_values = args.d_range if args.d_range is not None else _floats_from_range("0:10:0.1")
    rows = sweep(SweepConfig(tuple(mats), tuple(states), tuple(d_values)))
    out = []
    for r in rows:
        if r.error:
            print(f"warning: {r.material} {r.state}: {r.error}", file=sys.stderr)
            out.append([r.material, r.D, None, r.state.m, r.state.parity.value,
                        r.state.delta, None, None, None])
            continue
        out.append([r.material, r.D, r.q_mathieu, r.state.m, r.state.parity.value,
                    r.state.delta, r.char_value, r.lambda_eff, r.correction])
    _emit(args, out, ["material", "D", "p", "m", "parity", "delta",
                      "char_value", "lambda_eff", "correction"])
    return 0


def _cmd_transitions(args):
    mats = _materials_of(args)
    d_values = args.d_range if args.d_range is not None else _floats_from_range("0:10:0.1")
    out = []
    for mat in sorted(mats, key=lambda m: m.name):
        for parity in args.parity:
            if parity is Branch.SE and args.m_lo == 0:
                continue
            hi = QuantumState(args.nr, args.m_hi, parity, args.delta)
            lo = QuantumState(args.nr, args.m_lo, parity, args.delta)
            for d in d_values:
                de_w, de_n, shift = transition(hi, lo, mat, d)
                out.append([mat.name, d, args.nr, args.m_hi, args.m_lo,
                            parity.value, de_w, de_n, 100.0 * shift])
    _emit(args, out, ["material", "D", "nr", "m_hi", "m_lo", "parity",
                      "dE_withD", "dE_noD", "rel_shift_pct"])
    return 0


def _cmd_ab_sweep(args):
    mats = _materials_of(args)
    deltas = args.delta_range if args.delta_range is not None else _floats_from_range("0:1:0.02")
    states = _states_of(args, 0.0)
    out = []
    for mat in sorted(mats, key=lambda m: m.name):
        for base in states:
            # ab_correction(base, mat, d, D) without re-solving the delta = 0 state
            off = qr_energy(base, mat, args.D).lambda_eff
            for d in deltas:
                on = qr_energy(replace(base, delta=d), mat, args.D).lambda_eff
                out.append([mat.name, args.D, base.m, base.parity.value, d, on, on - off])
    _emit(args, out, ["material", "D", "m", "parity", "delta",
                      "lambda_eff", "ab_correction"])
    return 0


def _cmd_wavefunction(args):
    mats = _materials_of(args)
    if len(mats) != 1 or len(args.m) != 1 or len(args.parity) != 1 or len(args.nr) != 1:
        raise UsageError("wavefunction takes exactly one material and one state")
    from .params import from_material

    state = QuantumState(args.nr[0], args.m[0], args.parity[0], args.delta)
    params = from_material(mats[0], args.D, args.delta)
    spec = wavefun.make_wave(state, params)
    grid = np.linspace(0.0, args.r_max * spec.a, args.points)
    table = wavefun.radial_profile(spec, grid)
    out = [[r, dens, table.nodes] for r, dens in table.rows]
    _emit(args, out, ["r", "R2", "nodes"])
    return 0


def _cmd_materials(args):
    rows = [[m.name, m.m_star, m.eps_r, m.lam, m.hbar_omega0]
            for m in builtin_materials()]
    _emit(args, rows, ["name", "m_star", "eps_r", "lambda", "hbar_omega0_eV"])
    return 0


# --- verify suites -----------------------------------------------------------

def _verify_angular():
    worst = 0.0
    cases = 0
    gaas = get_material("GaAs")
    for delta in (0.0, 0.25, 0.5):
        for p in (0.0, 0.1, 0.21):
            fds = [oracle.angular_fd_eigs(delta, p, N) for N in (64, 128, 256)]
            for parity in (Branch.CE, Branch.SE):
                for m in range(4):
                    if parity is Branch.SE and m == 0:
                        continue
                    state = QuantumState(0, m, parity, delta)
                    params = replace(spectrum.from_material(gaas, 0.0, delta),
                                     D_theta=0.0)
                    # build params with the exact q requested
                    params = replace(params, D_theta=p / (4.0 * params.mu))
                    e_theta, _, _, _ = spectrum.angular_eigenvalue(state, params)
                    ests = []
                    for fd in fds:
                        i = int(np.argmin(np.abs(fd.eigenvalues - e_theta)))
                        ests.append(fd.eigenvalues[i])
                    rep = oracle.convergence_report(ests)
                    worst = max(worst, abs(rep.extrapolated - e_theta))
                    cases += 1
    return cases, worst, 1e-8


def _verify_radial():
    worst = 0.0
    cases = 0
    gaas = get_material("GaAs")
    for d in (0.0, 5.0, 10.0):
        for parity in (Branch.CE, Branch.SE):
            for m in range(3):
                if parity is Branch.SE and m == 0:
                    continue
                params = spectrum.from_material(gaas, d, 0.0)
                state = QuantumState(0, m, parity, 0.0)
                e_theta, _, _, _ = spectrum.angular_eigenvalue(state, params)
                fd = oracle.radial_fd_eigs(e_theta, params, 3)
                a2 = params.a_length ** 2
                for nr in range(3):
                    _, alpha = spectrum.radial_exponent(e_theta, params)
                    eps = (4 * nr + 4 * alpha + 1) / a2
                    worst = max(worst, abs(fd.eigenvalues[nr] - eps) / eps)
                    cases += 1
    return cases, worst, 1e-6


def _verify_series():
    worst = 0.0
    cases = 0
    for m in (4, 5, 6):
        for p in (0.1, 0.5, 1.0):
            diff = abs(char_value_series(m, p) - char_value(m, Branch.CE, p).value)
            worst = max(worst, diff / series_p8_estimate(m, p))
            cases += 1
    return cases, worst, 10.0


def _verify_normalization():
    from .params import from_material

    gaas = get_material("GaAs")
    worst = 0.0
    cases = 0
    for d in (0.0, 10.0):
        for parity in (Branch.CE, Branch.SE):
            for m in (0, 1):
                if parity is Branch.SE and m == 0:
                    continue
                for nr in (0, 2):
                    state = QuantumState(nr, m, parity, 0.0)
                    spec = wavefun.make_wave(state, from_material(gaas, d, 0.0))
                    n_quad = wavefun.normalize_numeric(spec)
                    worst = max(worst, abs((spec.N / n_quad) ** 2 - 1.0))
                    cases += 1
    return cases, worst, 1e-9


def _cmd_verify(args):
    suites = {
        "angular": _verify_angular,
        "radial": _verify_radial,
        "series": _verify_series,
        "normalization": _verify_normalization,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    rows = []
    failed = False
    for name in names:
        cases, worst, tol = suites[name]()
        ok = worst <= tol
        failed |= not ok
        rows.append([name, cases, worst, tol, "ok" if ok else "FAIL"])
    _emit(args, rows, ["check", "cases", "worst", "tol", "status"])
    return 2 if failed else 0


_COMMANDS = {
    "energies": _cmd_energies,
    "corrections": _cmd_corrections,
    "transitions": _cmd_transitions,
    "ab-sweep": _cmd_ab_sweep,
    "wavefunction": _cmd_wavefunction,
    "materials": _cmd_materials,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        argv = _apply_config(parser, list(argv))
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"qring: {exc}", file=sys.stderr)
        return exc.exit_code
    except DomainError as exc:
        print(f"qring: domain error: {exc}", file=sys.stderr)
        return exc.exit_code
    except NumericsError as exc:
        print(f"qring: numerics error: {exc}", file=sys.stderr)
        return exc.exit_code
    except QringError as exc:
        print(f"qring: {exc}", file=sys.stderr)
        return 2
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
