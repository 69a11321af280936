"""In-memory span tracer that instruments qring from the outside.

The tracer replaces every binding of qring's public functions (and of the
numpy/scipy eigensolver entry points) with a wrapper that records a span:
name, parent span, start, end and run id. Hot leaves, called hundreds of
thousands of times per run, are aggregated per (name, parent span) instead
of kept one record per call. Nothing in qring itself changes.
"""
from __future__ import annotations

import importlib
import re
import sys
import time
from array import array

LAYERS = ("cli", "spectrum", "mathieu", "hyper", "wavefun", "oracle")

# Aggregated rather than recorded per call: ~8e5 calls per wavefunction pass.
HOT_LEAVES = frozenset({"hyper.hyp1f1_poly"})

# Calls whose arguments identify the matrix solved; unique_solve_ratio counts
# distinct (function, order, branch, q) among them.
SOLVE_FUNCTIONS = frozenset(
    {"mathieu.char_value", "mathieu.char_value_fractional", "mathieu.fourier_coeffs"}
)

# Span name for every eigensolver call, whichever module binds the solver; the
# list covers the numpy/scipy solvers so that qring switching solver stays visible.
EIG = "eig"
EIG_ENTRY_POINTS = {
    "numpy.linalg": ("eig", "eigh", "eigvals", "eigvalsh"),
    "scipy.linalg": (
        "eig", "eigh", "eigvals", "eigvalsh", "eig_banded", "eigvals_banded",
        "eigh_tridiagonal", "eigvalsh_tridiagonal",
    ),
}

ROOT = -1  # parent index of a span with no traced caller


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores.

    Spans live in flat arrays, not one Python object each, so that a traced
    run does not hand the garbage collector 10^5 extra objects to scan.
    Single-threaded: the parent of a span is the innermost open span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name of each name code
        self._codes = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._run = array("q")
        self.leaves = {}  # (name, parent index) -> [calls, seconds]
        self.solve_keys = []  # hashable argument keys of SOLVE_FUNCTIONS calls
        self.run = 0
        self._stack = []
        self._patches = []

    @property
    def spans(self):
        """[(name, parent index, start, end, run id)], in call order."""
        names = self.names
        return [(names[c], p, s, e, r) for c, p, s, e, r in
                zip(self._name, self._parent, self._start, self._end, self._run)]

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name, fn):
        code = self._code(name)
        clock, stack = self.clock, self._stack
        names, parents, starts, ends, runs = (
            self._name, self._parent, self._start, self._end, self._run)
        solve_keys = self.solve_keys if name in SOLVE_FUNCTIONS else None
        tracer = self

        def traced(*args, **kwargs):
            if solve_keys is not None:
                solve_keys.append(_solve_key(name, args, kwargs))
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else ROOT)
            runs.append(tracer.run)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name, fn):
        clock, stack, leaves = self.clock, self._stack, self.leaves

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (name, stack[-1] if stack else ROOT)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the public functions of each layer in every namespace binding them."""
        targets = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"qring.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = (self.wrap_leaf if name in HOT_LEAVES else self.wrap)(name, obj)
                targets[id(obj)] = (obj, wrapper)
        eig_modules = [importlib.import_module(m) for m in EIG_ENTRY_POINTS]
        for mod, attrs in zip(eig_modules, EIG_ENTRY_POINTS.values()):
            for attr in attrs:
                obj = getattr(mod, attr, None)
                if obj is not None and id(obj) not in targets:
                    targets[id(obj)] = (obj, self.wrap(EIG, obj))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "qring" or n.startswith("qring.")] + eig_modules
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)


def _solve_key(name, args, kwargs):
    key = (name, args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return (name, repr(args), repr(sorted(kwargs.items())))
    return key


# -- analysis ----------------------------------------------------------------

def self_times(spans, leaves):
    """Per-name (calls, self seconds, total seconds).

    A span's self time is its duration minus the time its child spans and
    the hot leaves aggregated under it cover. Children of one span never
    overlap (one thread), so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent != ROOT:
            covered[parent] += end - start
    for (_, parent), (_, seconds) in leaves.items():
        if parent != ROOT:
            covered[parent] += seconds
    out = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - covered[i]
        acc[2] += end - start
    for (name, _), (calls, seconds) in leaves.items():
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += seconds
        acc[2] += seconds
    return {k: tuple(v) for k, v in out.items()}


def layer_of_ancestor(spans, index):
    """Name of the nearest ancestor span that belongs to one of the LAYERS."""
    parent = spans[index][1]
    while parent != ROOT:
        name = spans[parent][0]
        if name.split(".", 1)[0] in LAYERS:
            return name
        parent = spans[parent][1]
    return None


def eig_counts(spans):
    """(eigensolver calls under a characteristic-value call, seconds in all mathieu eig calls)."""
    per_value = 0
    seconds = 0.0
    for i, (name, _, start, end, _) in enumerate(spans):
        if name != EIG:
            continue
        owner = layer_of_ancestor(spans, i)
        if owner is None or not owner.startswith("mathieu."):
            continue
        seconds += end - start
        if owner in ("mathieu.char_value", "mathieu.char_value_fractional"):
            per_value += 1
    return per_value, seconds


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| *(\S+)\s*$")


def parse_importtime(text):
    """Parse ``python -X importtime`` stderr into {module: (self_s, cumulative_s)}.

    A module appears once, at the place it was first imported, so its
    cumulative time is its marginal cost given what was loaded before it.
    """
    out = {}
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            self_us, cum_us, name = m.groups()
            out[name] = (int(self_us) * 1e-6, int(cum_us) * 1e-6)
    return out


def import_metrics(table):
    """The import.* per-layer metrics from one parsed importtime table."""

    def cumulative(name):
        return table[name][1] if name in table else 0.0

    return {
        "import.total_s": sum(v[0] for v in table.values()),
        "import.numpy_s": cumulative("numpy"),
        "import.scipy_linalg_s": cumulative("scipy.linalg"),
        "import.scipy_integrate_s": cumulative("scipy.integrate"),
        "import.qring_self_s": sum(v[0] for k, v in table.items()
                                   if k == "qring" or k.startswith("qring.")),
    }


def write_spans(path, spans, leaves):
    """Write spans, then aggregated leaves, as CSV (index,name,parent,start,end,run|calls)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,index,name,parent,start,end,run_or_calls\n")
        for i, (name, parent, start, end, run) in enumerate(spans):
            fh.write(f"span,{i},{name},{parent},{start!r},{end!r},{run}\n")
        for (name, parent), (calls, seconds) in leaves.items():
            fh.write(f"leaf,,{name},{parent},0.0,{seconds!r},{calls}\n")
