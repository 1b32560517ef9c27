"""Timing hooks installed from outside the program.

qcqpen.sequential calls the lifting and solver functions through its own
module namespace, so replacing those names there intercepts every call the
sequential layer makes, without touching the program.

RoundClock is on in every run: it stamps the start of each penalized build
and the end of each extraction, which bound a sequential round, and keeps
the extracted points for the checks. That is two clock reads per round.

Tracer is on only in the traced run. It records one span (name, start, end,
parent, info) per call into each layer, and per call of the benchmark's own
generators (bench.*), and derives the per-layer metrics.
"""

import statistics
import time
from functools import wraps

import qcqpen.instances
import qcqpen.sequential as sequential

import inputs

OK_STATUSES = ("optimal", "near_optimal")

# (layer.function, module whose attribute is replaced, attribute)
TRACED = [
    ("sequential.run", sequential, "run"),
    ("sequential.resolve_initial_point", sequential, "resolve_initial_point"),
    ("sequential.tune_eta", sequential, "tune_eta"),
    ("lifting.build_relaxation", sequential, "build_relaxation"),
    ("lifting.build_penalized", sequential, "build_penalized"),
    ("lifting.extract", sequential, "extract"),
    ("solver.solve_conic", sequential, "solve_conic"),
    ("instances.gen_sysid", qcqpen.instances, "gen_sysid"),
    ("bench.feasible_qcqp", inputs, "feasible_qcqp"),
    ("bench.dense_box_qcqp", inputs, "dense_box_qcqp"),
]


def _replace(module, attr, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    return module, attr, original


class RoundClock:
    """Round boundaries and extracted points, in call order."""

    def __init__(self):
        self.rounds = []     # (start, end, x) per completed round
        self._start = None
        self._saved = []

    def install(self):
        def build(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                self._start = time.perf_counter()
                return fn(*args, **kwargs)
            return wrapper

        def extract(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                pt = fn(*args, **kwargs)
                if self._start is not None:
                    self.rounds.append((self._start, time.perf_counter(),
                                        pt.x))
                    self._start = None
                return pt
            return wrapper

        self._saved = [_replace(sequential, "build_penalized", build),
                       _replace(sequential, "extract", extract)]

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


class Tracer:
    """Spans of calls into the program's layers, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, info]
        self._stack = []
        self._saved = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self):
        for name, module, attr in TRACED:
            self._saved.append(_replace(module, attr,
                                        lambda fn, name=name: self._wrap(
                                            name, fn)))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            info = self.spans[index][4]
            if name == "solver.solve_conic":
                info["status"] = out.status
                info["iterations"] = out.iterations
            elif name == "lifting.build_penalized":
                info["eta"] = float(args[3] if len(args) > 3
                                    else kwargs["eta"])
            return out
        return wrapper

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, **info}
                for n, s, e, p, info in self.spans]


def _descendants(spans, root):
    """Indices of the spans under root (spans are in call order)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            out.append(i)
        elif spans[i][1] > spans[root][2]:
            break
    return out


def layer_metrics(spans, root):
    """Per-layer totals over the spans under root (one workload pass)."""
    under = _descendants(spans, root)
    dur = {i: spans[i][2] - spans[i][1] for i in under}
    child_time = {}
    for i in under:
        parent = spans[i][3]
        child_time[parent] = child_time.get(parent, 0.0) + dur[i]

    def named(prefix):
        return [i for i in under if spans[i][0].startswith(prefix)]

    def total(prefix):
        return sum(dur[i] for i in named(prefix))

    def under_tuning(i):
        while i is not None:
            if spans[i][0] == "sequential.tune_eta":
                return True
            i = spans[i][3]
        return False

    solves = named("solver.solve_conic")
    iterations = sum(spans[i][4]["iterations"] for i in solves)
    solve_s = total("solver.solve_conic")
    tune_spans = named("sequential.tune_eta")
    candidates = 0
    for t in tune_spans:
        candidates += len({spans[i][4]["eta"]
                           for i in _descendants(spans, t)
                           if spans[i][0] == "lifting.build_penalized"})
    return {
        "lifting.build_s": total("lifting.build_"),
        "lifting.builds": len(named("lifting.build_")),
        "lifting.extract_s": total("lifting.extract"),
        "solver.solve_s": solve_s,
        "solver.solves": len(solves),
        "solver.iterations": iterations,
        "solver.iteration_ms": 1e3 * solve_s / max(iterations, 1),
        "solver.non_ok_solves": sum(
            1 for i in solves if spans[i][4]["status"] not in OK_STATUSES),
        "sequential.tune_s": total("sequential.tune_eta"),
        "sequential.tune_solves": sum(1 for i in solves if under_tuning(i)),
        "sequential.tune_candidates": candidates,
        "sequential.init_s": total("sequential.resolve_initial_point"),
        "sequential.self_s": sum(dur[i] - child_time.get(i, 0.0)
                                 for i in named("sequential.")),
    }


def median_of(dicts):
    """Key-wise median of metric dicts with the same keys."""
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
