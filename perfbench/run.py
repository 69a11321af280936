#!/usr/bin/env python3
"""qring benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the code under ``src/``.
With ``--trace 0`` it times the workload for S seconds and reports the
end-to-end metrics; with ``--trace 1`` it runs the same inputs once in one
process, untraced and then traced, and reports the per-layer metrics. Every
output is checked. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Spans of a traced run are written
under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl
from workloads import ROOT, SRC

WORKLOADS = ("sweep", "flux", "cold_cli", "wavefunctions")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5  # cold imports per run; setup_s is their median
IMPORTTIME_REPS = 3
PROCESS_TIMEOUT_S = 150.0

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_linalg_s": "s",
    "import.scipy_integrate_s": "s",
    "import.qring_self_s": "s",
    "cli.run.self_s": "s",
    "cli.emit_csv.self_s": "s",
    "spectrum.sweep.self_s": "s",
    "spectrum.energy.self_s": "s",
    "spectrum.qr_energy.calls": "count",
    "spectrum.qr_energy.calls_per_row": "calls/row",
    "spectrum.ab_correction.calls": "count",
    "spectrum.transition.calls": "count",
    "mathieu.char_value.calls": "count",
    "mathieu.char_value.self_s": "s",
    "mathieu.char_value_fractional.calls": "count",
    "mathieu.char_value_fractional.self_s": "s",
    "mathieu.fourier_coeffs.calls": "count",
    "mathieu.fourier_coeffs.self_s": "s",
    "mathieu.eval_angular.self_s": "s",
    "mathieu.eig.calls_per_value": "calls/value",
    "mathieu.eig.s": "s",
    "mathieu.unique_solve_ratio": "ratio",
    "hyper.hyp1f1_poly.calls": "count",
    "hyper.hyp1f1_poly.self_s": "s",
    "hyper.gamma.calls": "count",
    "wavefun.make_wave.self_s": "s",
    "wavefun.radial_profile.self_s": "s",
    "wavefun.count_radial_nodes.self_s": "s",
    "wavefun.normalize_numeric.self_s": "s",
    "oracle.angular_fd_eigs.calls": "count",
    "oracle.angular_fd_eigs.self_s": "s",
    "oracle.radial_fd_eigs.calls": "count",
    "oracle.radial_fd_eigs.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, wrong qring imported)."""


# -- processes ---------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "QRING_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def spawn(args, cwd):
    """Run one process to completion: (wall s, exit code, stdout, stderr, peak RSS MB)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path, err_path = os.path.join(OUT_DIR, "stdout"), os.path.join(OUT_DIR, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        stdout, stderr = out.read(), err.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


def qring_cli(argv):
    return (sys.executable, "-m", "qring.cli") + tuple(argv)


def check_checkout():
    """Fail unless the checkout's own qring is what a child process imports."""
    if not os.path.isfile(os.path.join(SRC, "qring", "__init__.py")):
        raise SetupError(f"no qring package under {SRC}")
    _, code, out, err, _ = spawn(
        (sys.executable, "-c", "import qring, sys; sys.stdout.write(qring.__file__)"), ROOT)
    path = out.decode("utf-8", "replace")
    if code != 0 or not os.path.abspath(path).startswith(os.path.join(SRC, "qring") + os.sep):
        raise SetupError(f"cannot import the checkout's qring: {path or err.decode()[-400:]}")


def measure_setup():
    """setup_s: median wall time of a fresh ``python -c 'import qring.cli'``."""
    times = []
    for _ in range(SETUP_REPS):
        wall, code, _, err, _ = spawn((sys.executable, "-c", "import qring.cli"), ROOT)
        if code != 0:
            raise SetupError(f"import qring.cli failed: {err.decode()[-400:]}")
        times.append(wall)
    return statistics.median(times)


def import_qring():
    import qring
    import qring.cli

    if not os.path.abspath(qring.__file__).startswith(os.path.join(SRC, "qring") + os.sep):
        raise SetupError(f"imported qring from {qring.__file__}, not {SRC}")
    return qring


# -- workload plumbing ---------------------------------------------------------

def within(start, seconds, pass_walls):
    """Start another pass only if a typical one still ends inside the run (at least one)."""
    if not pass_walls:
        return True
    return time.perf_counter() - start + statistics.median(pass_walls) <= seconds


def cli_plan(name, seed, smoke):
    """(commands, operations per process, failure counter of one process's outcome).

    An operation is a CSV row on sweep and flux, and a whole process on cold_cli.
    """
    if name == "sweep":
        cmds, rows = wl.sweep_commands(seed, smoke)
        return cmds, rows, lambda cmd, oc: wl.check_sweep(seed, rows, oc)
    if name == "flux":
        cmds, rows = wl.flux_commands(seed, smoke)
        return cmds, rows, lambda cmd, oc: wl.check_flux(seed, rows, oc)
    return wl.cold_cli_commands(), 1, wl.check_cold_cli


def cli_tally(cmds, ops, check, outcomes):
    """(attempted, failed) over passes of ``cmds``.

    Passes share their inputs, so an outcome seen before is not checked again.
    """
    failed = 0
    seen = {}
    for i, outcome in enumerate(outcomes):
        key = (i % len(cmds),) + tuple(outcome)
        if key not in seen:
            seen[key] = check(cmds[i % len(cmds)], outcome)
        failed += seen[key]
    return ops * len(outcomes), failed


def run_cli_timed(name, seed, seconds, smoke):
    cmds, ops, check = cli_plan(name, seed, smoke)
    pass_walls, proc_walls, pass_rss, rows, outcomes = [], [], [], 0, []
    start = time.perf_counter()
    while within(start, seconds, pass_walls):
        wall_sum, rss = 0.0, 0.0
        for cmd in cmds:
            wall, code, out, err, peak = spawn(qring_cli(cmd.argv), cmd.cwd)
            wall_sum += wall
            rss = max(rss, peak)
            proc_walls.append(wall)
            rows += wl.count_rows(out) if code == 0 else 0
            outcomes.append((code, out, err))
        pass_walls.append(wall_sum)
        pass_rss.append(rss)
    attempted, failed = cli_tally(cmds, ops, check, outcomes)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "rows_per_s": rows / sum(pass_walls),
        "op_p50_ms": 1e3 * statistics.median(proc_walls),
        "peak_rss_mb": statistics.median(pass_rss),
    }
    return attempted, failed, metrics


def wave_pass(op, inputs):
    """One pass over the states: per-state wall times and results (or exceptions)."""
    times, results = [], []
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            res = op(inp)
        except Exception as exc:  # a failed state is counted, not fatal
            res = exc
        times.append(time.perf_counter() - t0)
        results.append(res)
    return times, results


def warm_up_wave(op, inputs):
    """First calls of every (m, parity): lazy imports and first-call costs stay untimed."""
    wave_pass(op, inputs[:len(wl.WAVE_STATES)])


def wave_tally(inputs, results):
    return len(results), sum(wl.check_wave(inp, res) for inp, res in zip(inputs, results))


def wave_rows(results):
    return sum(r[3] for r in results if not isinstance(r, BaseException))


def run_wave_timed(seed, seconds, smoke):
    qring = import_qring()
    op = wl.make_wave_op(qring)
    inputs = wl.wave_inputs(seed, smoke)
    warm_up_wave(op, inputs)
    pass_walls, state_times, results = [], [], []
    start = time.perf_counter()
    while within(start, seconds, pass_walls):
        times, res = wave_pass(op, inputs)
        pass_walls.append(sum(times))
        state_times += times
        results += res
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = wave_tally(inputs * len(pass_walls), results)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "rows_per_s": wave_rows(results) / sum(pass_walls),
        "op_p50_ms": 1e3 * statistics.median(state_times),
        "peak_rss_mb": peak,
    }
    return attempted, failed, metrics


# -- traced run ----------------------------------------------------------------

def import_breakdown():
    """import.* metrics: per-metric median over fresh ``-X importtime`` processes."""
    import spans

    runs = []
    for _ in range(IMPORTTIME_REPS):
        _, code, _, err, _ = spawn(
            (sys.executable, "-X", "importtime", "-c", "import qring.cli"), ROOT)
        if code != 0:
            raise SetupError(f"import qring.cli failed: {err.decode()[-400:]}")
        runs.append(spans.import_metrics(spans.parse_importtime(err.decode())))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def inproc_cli(qring, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qring.cli.run(list(argv))
        except Exception as exc:  # a raw exception is a failed process
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_traced(name, seed, smoke):
    import spans

    layers = import_breakdown()
    qring = import_qring()
    if name == "wavefunctions":
        inputs = wl.wave_inputs(seed, smoke)
        op = wl.make_wave_op(qring)
        warm_up_wave(op, inputs)

        def one_pass(tracer=None):
            results = []
            for i, inp in enumerate(inputs):
                if tracer is not None:
                    tracer.run = i
                results += wave_pass(op, [inp])[1]
            return results

        def tally(results):
            return wave_tally(inputs, results)

        rows_of = wave_rows
    else:
        cmds, ops, check = cli_plan(name, seed, smoke)
        warm = cli_plan(name, seed, True)[0] if name in ("sweep", "flux") else cmds
        for cmd in warm:
            inproc_cli(qring, cmd.inproc_argv)

        def one_pass(tracer=None):
            results = []
            for i, cmd in enumerate(cmds):
                if tracer is not None:
                    tracer.run = i
                results.append(inproc_cli(qring, cmd.inproc_argv))
            return results

        def tally(results):
            return cli_tally(cmds, ops, check, results)

        def rows_of(results):
            return sum(wl.count_rows(out) for code, out, _ in results if code == 0)

    t0 = time.perf_counter()
    plain = one_pass()
    untraced_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = one_pass(tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    attempted, failed = 0, 0
    for results in (plain, traced):
        a, f = tally(results)
        attempted, failed = attempted + a, failed + f
    # tracing must not change a single output byte
    failed += sum(repr(p) != repr(t) for p, t in zip(plain, traced))

    span_list = tracer.spans
    stats = spans.self_times(span_list, tracer.leaves)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    spans.write_spans(stem + "-spans.csv", span_list, tracer.leaves)
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump({k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                   for k, v in sorted(stats.items())}, fh, indent=1)

    def calls(n):
        return stats.get(n, (0, 0.0, 0.0))[0]

    value_calls = calls("mathieu.char_value") + calls("mathieu.char_value_fractional")
    eig_per_value, eig_s = spans.eig_counts(span_list)
    keys = tracer.solve_keys
    rows = rows_of(traced)
    for n in PER_LAYER:
        base, _, kind = n.rpartition(".")
        if kind == "self_s":
            layers[n] = stats.get(base, (0, 0.0, 0.0))[1]
        elif kind == "calls":
            layers[n] = calls(base)
    layers.update({
        "spectrum.qr_energy.calls_per_row": calls("spectrum.qr_energy") / rows if rows else 0.0,
        "mathieu.eig.calls_per_value": eig_per_value / value_calls if value_calls else 0.0,
        "mathieu.eig.s": eig_s,
        "mathieu.unique_solve_ratio": len(set(keys)) / len(keys) if keys else 0.0,
        "trace.wall_s": traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_frac": 1.0 - sum(v[1] for v in stats.values()) / traced_s,
    })
    return attempted, failed, layers


# -- entry point -----------------------------------------------------------------

def environment(seed):
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout's own .git, read directly; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run(name, seed, seconds, trace, smoke=False):
    """(attempted, failed, metrics) for one run of one workload."""
    for k, v in PINNED_ENV.items():
        os.environ[k] = v  # before this process first imports numpy
    os.environ.pop("QRING_THREADS", None)
    check_checkout()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)  # output checks and in-process runs use the checkout's qring
    if trace:
        attempted, failed, values = run_traced(name, seed, smoke)
        units = PER_LAYER
    else:
        setup = measure_setup()
        if name == "wavefunctions":
            attempted, failed, values = run_wave_timed(seed, seconds, smoke)
        else:
            attempted, failed, values = run_cli_timed(name, seed, seconds, smoke)
        values["setup_s"] = setup
        units = END_TO_END
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in units.items()}
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for testing the benchmark itself")
    args = ap.parse_args(argv)
    try:
        attempted, failed, metrics = run(args.workload, args.seed, args.seconds,
                                         args.trace, args.smoke)
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for n, m in metrics.items():
        print(f"{args.workload:14s} {n:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "trace": args.trace}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
