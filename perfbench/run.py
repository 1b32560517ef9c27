"""Benchmark of qcqpen: time to a feasible point, round cost and memory.

    python3 perfbench/run.py --workload sysid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source tree; the program is imported from ./src.
A run sets up its workload (import plus instance generation, repeated
SETUP_REPEATS times), then repeats whole passes over the workload's
operations until the next pass would end after --seconds (at least one).
Every operation's output is checked. After each operation it times a fixed
probe for a tenth of the operation's time, and all times are scaled to a
reference host speed (see speed.py). It prints one line per metric, then as
its last line a JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones, taken
from spans around the calls into each layer, with --trace 1. It exits 1
when a check fails and 2 when the program's sources are missing. Results
and spans are written to perfbench/results/. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy loads: runs on a shared machine stay
# steady, and the figures do not depend on the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("sysid", "small", "dense_full")
SETUP_REPEATS = 3
PROBE_SHARE = 0.1

UNITS = {
    "setup_s": "s", "wall_s": "s", "time_to_feasible_s": "s",
    "round_s": "s", "rounds_to_feasible": "rounds", "peak_rss_mb": "MB",
    "instances.generate_s": "s", "quadratics.matrix_mb": "MB",
    "lifting.build_s": "s", "lifting.builds": "count",
    "lifting.extract_s": "s", "solver.solve_s": "s", "solver.solves": "count",
    "solver.iterations": "count", "solver.iteration_ms": "ms",
    "solver.non_ok_solves": "count", "sequential.tune_s": "s",
    "sequential.tune_solves": "count", "sequential.tune_candidates": "count",
    "sequential.init_s": "s", "sequential.rounds": "count",
    "sequential.self_s": "s", "trace.wall_s": "s",
}


class PassResult:
    def __init__(self):
        self.op_times = []       # time of each operation's run call
        self.feasible_times = []  # to the first tight round, per operation
        self.round_times = []
        self.i_feas = 0
        self.rounds = 0
        self.failed = []
        self.errors = []
        self.layers = None
        self.probes = []


def run_pass(ops, clock, tracer):
    import qcqpen.sequential as sequential
    import speed
    from spans import layer_metrics

    res = PassResult()
    root = tracer.open("pass") if tracer else None
    for op in ops:
        first = len(clock.rounds)
        t0 = time.perf_counter()
        try:
            trace = sequential.run(op.problem, op.config, label=op.label)
        except (sequential.SolveError, sequential.EtaTuningError) as exc:
            res.op_times.append(time.perf_counter() - t0)
            res.failed.append(f"{op.label}: {exc}")
            continue
        res.op_times.append(time.perf_counter() - t0)
        res.probes += speed.sample(PROBE_SHARE * res.op_times[-1])
        mine = clock.rounds[first:]
        res.round_times += [end - start for start, end, _ in mine]
        if trace.status.startswith("solver_failure"):
            res.failed.append(f"{op.label}: {trace.status}")
            continue
        final = mine[len(mine) - len(trace.rounds):]
        if trace.i_feas is not None:
            res.feasible_times.append(final[trace.i_feas - 1][1] - t0)
            res.i_feas += trace.i_feas
        res.rounds += len(trace.rounds)
        msgs = [f"{op.label}: {m}"
                for m in op.check(trace, [x for _, _, x in final])]
        if op.miss_is_failure:
            res.failed += msgs[:1]
        else:
            res.errors += msgs
    if tracer:
        tracer.close(root)
        res.layers = layer_metrics(tracer.spans, root)
    del clock.rounds[:]
    return res


def run_workload(name, seed, seconds, traced):
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import qcqpen
    if not os.path.abspath(qcqpen.__file__).startswith(SRC + os.sep):
        sys.exit(f"qcqpen imported from {qcqpen.__file__}, not {SRC}")
    import spans
    import speed
    import workloads
    import_s = time.perf_counter() - T_START

    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    clock = spans.RoundClock()
    clock.install()

    gen_times, gen_layer, ops = [], [], None
    for _ in range(SETUP_REPEATS):
        ops = None      # free the previous copy before building the next
        root = tracer.open("setup") if tracer else None
        t0 = time.perf_counter()
        ops = workloads.make(name, seed)
        gen_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(root)
            gen_layer.append(sum(s[2] - s[1] for s in tracer.spans[root + 1:]
                                 if s[0].startswith("instances.")))

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, clock, tracer))
        took = time.perf_counter() - t0
        if time.perf_counter() + took > deadline:
            break
    clock.uninstall()
    if tracer:
        tracer.uninstall()

    med = statistics.median
    if traced:
        metrics = spans.median_of([p.layers for p in passes])
        metrics["instances.generate_s"] = med(gen_layer)
        matrix_bytes = {id(op.problem): op.matrix_bytes for op in ops}
        metrics["quadratics.matrix_mb"] = sum(matrix_bytes.values()) / 2 ** 20
        metrics["sequential.rounds"] = med(p.rounds for p in passes)
        metrics["trace.wall_s"] = med(sum(p.op_times) for p in passes)
    else:
        metrics = {
            "setup_s": import_s + med(gen_times),
            "wall_s": med(sum(p.op_times) for p in passes),
            "time_to_feasible_s": med(
                med(p.feasible_times) if p.feasible_times else float("nan")
                for p in passes),
            "round_s": med(t for p in passes for t in p.round_times),
            "rounds_to_feasible": med(p.i_feas for p in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    probe = med(x for p in passes for x in p.probes)
    raw = dict(metrics)
    for k in metrics:
        if UNITS[k] in ("s", "ms"):
            metrics[k] *= speed.PROBE_REF_S / probe
    failed = [m for p in passes for m in p.failed]
    errors = [m for p in passes for m in p.errors]
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(passes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in sorted(metrics.items())},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "passes": len(passes), "operations": [op.label for op in ops],
        "failed": failed, "errors": errors, "probe_s": probe, "raw": raw,
        "operation_times": [p.op_times for p in passes],
        "machine": {
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS,
        },
        "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(traced)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        with open(os.path.join(RESULTS, f"spans-{name}-seed{seed}.json"),
                  "w") as fh:
            json.dump(tracer.to_json(), fh)

    for msg in failed:
        print(f"failed: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{name} {k} {m['value']:.6g} {m['unit']}")
    print(f"{name} operations attempted {result['attempted']} failed "
          f"{result['failed']} in {len(passes)} passes, "
          f"BLAS threads {BLAS_THREADS}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds, traced):
    """Each workload in a fresh process, so memory and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcqpen", "__init__.py")):
        print(f"qcqpen sources not found under {SRC}; run from the root of "
              "a source tree", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
