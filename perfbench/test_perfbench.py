"""Tests of the benchmark itself.

    python -m pytest perfbench -q

The smoke tests run every workload on tiny grids (cold_cli stays full size:
its outputs are the golden figure files), so they take about a minute.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run as bench
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- span arithmetic -----------------------------------------------------------

def test_self_times_on_synthetic_tree():
    R = spans.ROOT
    tree = [
        ("root", R, 0.0, 10.0, 0),
        ("a", 0, 1.0, 4.0, 0),
        ("b", 1, 2.0, 3.0, 0),
        ("c", 0, 5.0, 9.0, 0),
        ("a", R, 20.0, 22.0, 1),
    ]
    leaves = {("h", 3): [3, 1.5], ("h", R): [1, 0.25]}
    st = spans.self_times(tree, leaves)
    assert st["root"] == (1, 3.0, 10.0)  # 10 - a(3) - c(4)
    assert st["a"] == (2, 4.0, 5.0)  # (3 - b(1)) + 2
    assert st["b"] == (1, 1.0, 1.0)
    assert st["c"] == (1, 2.5, 4.0)  # 4 - leaves h(1.5)
    assert st["h"] == (4, 1.75, 1.75)
    # self times partition the time covered by top-level spans and leaves
    assert sum(v[1] for v in st.values()) == pytest.approx(10.0 + 2.0 + 0.25)


def test_tracer_records_nesting_and_aggregates_leaves():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap_leaf("hyper.leaf", lambda x: x + 1)
    inner = tracer.wrap("mathieu.char_value", lambda m, q: leaf(m) + leaf(q))
    outer = tracer.wrap("spectrum.energy", lambda: inner(1, 0.5))
    tracer.run = 7
    assert outer() == 3.5
    got = tracer.spans
    assert [(n, p, r) for n, p, _, _, r in got] == [
        ("spectrum.energy", spans.ROOT, 7), ("mathieu.char_value", 0, 7)]
    assert tracer.leaves[("hyper.leaf", 1)][0] == 2
    assert tracer.solve_keys == [("mathieu.char_value", (1, 0.5), ())]
    st = spans.self_times(got, tracer.leaves)
    assert sum(v[1] for v in st.values()) == pytest.approx(got[0][3] - got[0][2])


def test_eig_counts_attribute_solver_calls_to_mathieu_only():
    R = spans.ROOT
    tree = [
        ("mathieu.char_value", R, 0.0, 4.0, 0),
        ("eig", 0, 1.0, 2.0, 0),
        ("eig", 0, 2.0, 3.5, 0),
        ("mathieu.fourier_coeffs", R, 5.0, 6.0, 0),
        ("eig", 3, 5.0, 5.5, 0),
        ("oracle.angular_fd_eigs", R, 7.0, 9.0, 0),
        ("eig", 5, 7.0, 8.0, 0),
    ]
    per_value, seconds = spans.eig_counts(tree)
    assert per_value == 2
    assert seconds == pytest.approx(3.0)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | _io",
        "import time:      2000 |      50000 |   numpy",
        "import time:      1000 |     160000 |   scipy.linalg",
        "import time:       500 |        700 |     qring.mathieu",
        "import time:       300 |     211000 | qring",
        "import time:        50 |         50 |   qring.cli",
    ])
    m = spans.import_metrics(spans.parse_importtime(text))
    assert m["import.numpy_s"] == pytest.approx(0.05)
    assert m["import.scipy_linalg_s"] == pytest.approx(0.16)
    assert m["import.scipy_integrate_s"] == 0.0
    assert m["import.qring_self_s"] == pytest.approx(850e-6)
    assert m["import.total_s"] == pytest.approx(3950e-6)


# -- BENCHMARK.json --------------------------------------------------------------

def test_metric_names_are_valid_and_declared():
    decl = load_benchmark()
    for kind, produced in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in decl[kind]}
        assert declared == produced
        for name, unit in produced.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name) and NAME.match(name)
            assert UNIT.match(unit)


def test_benchmark_json_meets_its_schema():
    decl = load_benchmark()
    assert set(decl) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in decl["workloads"]] == list(bench.WORKLOADS)
    for w in decl["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in decl["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
    for m in decl["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert isinstance(decl["run_seconds"], int) and 1 <= decl["run_seconds"] <= 60


# -- end to end ----------------------------------------------------------------

def run_bench(cwd, *args):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_no_failure(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert abs(values["trace.unattributed_frac"]) < 0.05
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
