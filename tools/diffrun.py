#!/usr/bin/env python3
"""Differential runner: the same qring argvs and kernel calls on two revisions.

    python3 tools/diffrun.py REV_A REV_B

Builds a ``git archive`` copy of each revision in a temporary directory and
runs, on each, every argv below as a cold ``python -m qring.cli`` process:

* the figure recipes of ``figures/Makefile`` and ``verify --suite`` with each
  value;
* the sweep and flux workload argvs of ``perfbench/workloads.py`` for seeds
  1-10;
* wavefunctions and mixed-order tables that reach both stacks of the
  Mathieu kernel (windows at the bottom of the cosine and sine lattices, and
  windows cut off it);
* wavefunctions past the input bounds: an --nr above the 10**6 recurrence
  steps, and an --m above the order cap at --D 0, where the angular vector
  would hold m + 1 coefficients. These are CLI argvs only.

It then runs this script with ``--library`` against each copy. That prints
one line per row of ``mathieu.char_values``: the value and error text and,
after a tab, the window (first site and a hash of the unit vector's bits).
The rows are the distinct Floquet rows (nu, q) of the flux argvs, a seeded
draw of rows at the bottom and cut off it on all three lattices, with |q| up
to 1e4, three rows out of the domain, and six orders off their lattice (ce
-1 and 2.5, se 0, at q = 0 and 0.2). After them come the wavefunction rows:
for each state of the wavefunctions workload (seeds 1-3) and of the
wavefunction argvs below, the closed-form N, ``normalize_numeric`` and the
radial node count, or the error text.

Every difference in exit code, stdout or stderr is reported per argv, and
every kernel row whose value or error text differs is printed; rows that
differ only in their window's bits are counted. Every wavefunction row that
moved is printed with the distance of each number in units in the last place.
Exits 0 when nothing differs, 1 otherwise. The argvs and the wavefunction
states come from this checkout's ``perfbench/workloads.py``, which is only
read.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads as wl  # noqa: E402

SEEDS = range(1, 11)
WAVE_SEEDS = range(1, 4)
TIMEOUT_S = 600.0
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SUITES = ("angular", "radial", "series", "normalization", "all")
EXTRA = [
    ("wavefunction", "--nr", "0"),
    ("wavefunction", "--nr", "4"),
    ("wavefunction", "--nr", "350"),
    ("wavefunction", "--m", "8", "--parity", "se", "--nr", "1", "--D", "5000"),
    ("energies", "--m", "0,4,5,6,7,8,12,40", "--parity", "ce,se", "--nr", "0,1", "--D", "10"),
    ("energies", "--m", "0,4,5,6,7,8,12,40", "--parity", "ce,se", "--nr", "0,1", "--D", "900"),
    ("corrections", "--m", "0,3,6,9", "--parity", "ce,se", "--D-range", "0:300:7.5"),
    ("energies", "--m", "3,9", "--parity", "ce,se", "--delta", "0.3", "--D", "50"),
    ("transitions", "--m-hi", "7", "--m-lo", "6", "--parity", "ce,se", "--D-range", "0:100:5"),
]
# argvs past the input bounds; a revision without the bounds runs them for seconds
BOUNDS = [
    ("wavefunction", "--nr", "1000001", "--points", "2"),
    ("wavefunction", "--m", "70000", "--D", "0"),
]


def argvs():
    """(cwd relative to the checkout, argv) of every CLI process, in run order."""
    out = [(os.path.relpath(c.cwd, wl.ROOT), c.argv) for c in wl.cold_cli_commands()
           if c.golden]
    out += [(".", ("verify", "--suite", suite)) for suite in SUITES]
    for seed in SEEDS:
        for commands, _ in (wl.sweep_commands(seed), wl.flux_commands(seed)):
            out += [(".", c.argv) for c in commands]
    return out + [(".", argv) for argv in EXTRA + BOUNDS]


def checkout(rev, dest):
    """Extract a git archive of rev into dest."""
    data = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def run(tree, cwd, args):
    """(exit code, stdout, stderr) of python args with tree's src on the path.

    The tree's path is replaced by <tree> in the output, so that two copies
    compare equal where only their location differs.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **ENV)
    try:
        done = subprocess.run([sys.executable, *args], cwd=os.path.join(tree, cwd), env=env,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", b"", b""
    return (done.returncode, *(s.replace(tree.encode(), b"<tree>")
                               for s in (done.stdout, done.stderr)))


def library():
    """Print the kernel lines described in the module docstring (run against one copy)."""
    import inspect

    import numpy as np
    from qring import QuantumState, from_material, get_material, mathieu, wavefun
    from qring.cli import _build_parser, _materials_of
    from qring.errors import QringError
    from qring.mathieu import Branch

    # revisions before the windows became optional always return them
    params = inspect.signature(mathieu.char_values).parameters
    kw = {"_windows": True} if "_windows" in params else {}

    def show(label, branch, order, q):
        values, errors, windows = mathieu.char_values(branch, order, q, **kw)
        for o, x, v, e, w in zip(order.tolist(), q.tolist(), values.tolist(), errors, windows):
            err = None if e is None else f"{type(e).__name__}: {e}"
            win = None if w is None else (w[0], hashlib.sha1(w[1].tobytes()).hexdigest()[:16])
            print(f"{label} {o!r} {x!r}\t{v!r} {err}\t{win}")

    for seed in SEEDS:  # as ab-sweep builds them: nu = 2 (m + delta), delta = 0 first
        args = _build_parser().parse_args(list(wl.flux_commands(seed)[0][0].argv))
        mat = args.material[0]
        q = 4.0 * mat.m_star * (args.D / mat.eps_r)
        nus = {2.0 * (float(m) + d) for m in args.m for d in [0.0, *args.delta_range]}
        order = np.array(sorted(nu for nu in nus if nu != 2.0 * round(nu / 2.0)))
        show(f"flux{seed}", None, order, np.full(order.size, q))
    rng = np.random.default_rng(25)
    n = 400
    q = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 4.0, n)
    low = rng.integers(0, 6, n) >= 3  # half the rows at the first window's bottom
    m = np.where(low, rng.integers(0, 6, n), rng.integers(6, 300, n))
    show("ce", Branch.CE, m, q)
    show("se", Branch.SE, np.maximum(m, 1), q)
    nu = np.where(low, rng.uniform(0.0, 12.0, n), 2.0 * m + 1.0 + rng.uniform(-0.05, 0.05, n))
    show("floquet", None, nu[nu % 2.0 != 0.0], q[nu % 2.0 != 0.0])
    show("refused", Branch.CE, np.array([3, 70000, 4]), np.array([2e4, 0.1, np.nan]))
    for branch, order in ((Branch.CE, -1.0), (Branch.CE, 2.5), (Branch.SE, 0.0)):
        show(f"off-lattice {branch.value}", branch, np.full(2, order), np.array([0.0, 0.2]))

    def wave(label, state, params):
        try:
            spec = wavefun.make_wave(state, params)
            nodes = wavefun.count_radial_nodes(spec)
            out = f"{spec.N!r} {wavefun.normalize_numeric(spec)!r} {nodes}"
        except QringError as e:
            out = f"{type(e).__name__}: {e}"
        print(f"wave {label}\t{out}")

    for seed in WAVE_SEEDS:  # as the workload builds them
        for mat, d, nr, m, parity in wl.wave_inputs(seed):
            wave(f"{mat} {d!r} {nr} {m} {parity}", QuantumState(nr, m, Branch(parity)),
                 from_material(get_material(mat), d, 0.0))
    for argv in EXTRA:  # as the wavefunction subcommand builds them
        if argv[0] == "wavefunction":
            args = _build_parser().parse_args(list(argv))
            wave(" ".join(argv), QuantumState(args.nr[0], args.m[0], args.parity[0], args.delta),
                 from_material(_materials_of(args)[0], args.D, args.delta))


def ulps(x, y):
    """Doubles from x to y, both finite and of one sign, as repr text."""
    i, j = (struct.unpack("<q", struct.pack("<d", float(v)))[0] for v in (x, y))
    return abs(i - j)


def wave_report(rows_a, rows_b):
    """Print each wavefunction row that moved; return the number that did."""
    moved = 0
    for x, y in zip(rows_a, rows_b):
        if x == y:
            continue
        moved += 1
        label, a = x[len("wave "):].split("\t")
        b = y.split("\t")[1]
        fields = [(name, u, v) for name, u, v in zip(("N", "N_quad", "nodes"), a.split(), b.split())
                  if u != v]
        if len(a.split()) == len(b.split()) == 3 and all(n != "nodes" for n, _, _ in fields):
            detail = ", ".join(f"{n} {u} -> {v} ({ulps(u, v)} ulp)" for n, u, v in fields)
        else:  # an error text or a node count
            detail = f"{a} -> {b}"
        print(f"WAVE {label}: {detail}")
    return moved


def first_difference(a, b):
    """The first line at which a and b differ, from each, as text."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x.decode(errors='replace')!r} / {y.decode(errors='replace')!r}"
    return f"{len(la)} / {len(lb)} lines"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", nargs="?")
    parser.add_argument("rev_b", nargs="?")
    parser.add_argument("--library", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.library:
        return library()
    if not (args.rev_a and args.rev_b):
        parser.error("REV_A and REV_B are required")
    work = tempfile.mkdtemp(prefix="qring-diffrun-")
    try:
        trees = [os.path.join(work, name) for name in ("a", "b")]
        for rev, tree in zip((args.rev_a, args.rev_b), trees):
            checkout(rev, tree)
        differ = 0
        corpus = argvs()
        for cwd, argv in corpus:
            a, b = (run(tree, cwd, ["-m", "qring.cli", *argv]) for tree in trees)
            if a != b:
                differ += 1
                print("DIFF", " ".join(argv))
                for stream, x, y in zip(("exit", "stdout", "stderr"), a, b):
                    if x != y:
                        detail = f"{x} / {y}" if stream == "exit" else first_difference(x, y)
                        print(f"  {stream}: {detail}")
        print(f"{len(corpus) - differ} of {len(corpus)} argvs identical")
        a, b = (run(tree, ".", [os.path.abspath(__file__), "--library"]) for tree in trees)
        if a[0] != 0 or b[0] != 0:
            print(f"library script failed: exit {a[0]} / {b[0]}")
            print(a[2].decode(errors="replace"), b[2].decode(errors="replace"))
            return 1
        lines, waves = ([], []), ([], [])
        for out, kernel, wave in zip((a[1], b[1]), lines, waves):
            for line in out.decode().splitlines():
                (wave if line.startswith("wave ") else kernel).append(line)
        pairs = [(x, y) for x, y in zip(*lines) if x != y]
        moved = [(x, y) for x, y in pairs if x.rpartition("\t")[0] != y.rpartition("\t")[0]]
        for x, y in moved:  # a value or an error text
            print("KERNEL", x.replace("\t", " "), "\n    ->", y.replace("\t", " "))
        print(f"{len(lines[0]) - len(pairs)} of {len(lines[0])} kernel rows identical; "
              f"{len(moved)} differ in value or error, {len(pairs) - len(moved)} only in "
              f"their window's bits" + ("" if len(lines[0]) == len(lines[1])
                                        else f"; {len(lines[1])} rows in B"))
        wave_moved = wave_report(*waves)
        print(f"{len(waves[0]) - wave_moved} of {len(waves[0])} wavefunction rows identical"
              + ("" if len(waves[0]) == len(waves[1]) else f"; {len(waves[1])} rows in B"))
        return int(bool(differ or pairs or wave_moved or len(lines[0]) != len(lines[1])
                        or len(waves[0]) != len(waves[1])))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
