"""Command line interface.

Subcommands: solve, relax, sequential, tune-eta, check, poly2qcqp,
sysid-gen, bench. Every command is a thin adapter over the library so
results are identical to in-process calls.

Exit codes: 0 success; 1 input or model errors (bad flags, unreadable or
malformed files); 2 solver failure; 3 penalty-tuning failure.

Option precedence is flags > --config JSON file > built-in defaults.
`main` resolves the options a command's subparser defines once, before the
command runs, and --dump-config prints them without running; poly2qcqp and
sysid-gen take neither, since they resolve no options. The QCQP_LOG
environment variable (debug | info | warning | error) controls stderr
verbosity; at debug the solver's per-iteration lines also go to stderr,
so stdout carries only the command's own output.

Every command that takes an instance reads it through
`instances.load_problem`, which sniffs native problem or sysid JSON, QPLIB
text, or a .poly polynomial problem (converted on the fly the same way
poly2qcqp does).
"""

import argparse
import concurrent.futures
import glob
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import instances as iio
from .lifting import RelaxationConfig
from .polyopt import parse_poly, reformulate, aux_count_bound
from .regularity import check_regularity
from .sequential import (EtaTuningError, SequentialConfig, SolveError, run,
                         solve_relaxation, trace_csv, trace_json, tune_eta)
from .solver import SolverSettings

log = logging.getLogger("qcqpen")

EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_TUNING = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# option resolution: flags > config file > defaults

# every resolved option, in --dump-config order. Defaults the library
# declares are read from it; init starts at zero here (the library's is
# the relaxation), and None leaves a solver setting at SolverSettings'.
_DEFAULTS = {
    "r": "n", "rlt": "none",
    "bound_cuts": RelaxationConfig.bound_cuts,
    "sparsity": RelaxationConfig.sparsity,
    "feasibility_tol": None, "gap_tol": None, "max_iterations": None,
    "eta": SequentialConfig.eta, "max_rounds": SequentialConfig.max_rounds,
    "tight_tol": SequentialConfig.tight_tol,
    "stop_rel": SequentialConfig.stop_rel, "init": "zero",
}


def _load_config(path):
    if not path:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _resolve(args):
    """Merge parsed flags (None = unset) with config values and defaults,
    over the options the command's subparser defines."""
    keys = [k for k in _DEFAULTS if k in vars(args)]
    config = _load_config(args.config)
    unknown = set(config) - set(keys)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {k: config.get(k, _DEFAULTS[k]) if getattr(args, k) is None
            else getattr(args, k) for k in keys}


def _parse_r(v):
    if v is None or v == "n":
        return None
    r = int(v)
    if r < 2:
        raise ValueError("--r must be 2 or larger (or 'n')")
    return r


def _parse_eta(v):
    if v == "auto":
        return "auto"
    eta = float(v)
    if eta <= 0:
        raise ValueError("--eta must be positive (or 'auto')")
    return eta


def _parse_stop_rel(v):
    if v is None or v == "none":
        return None
    return float(v)


def _relaxation_config(opts) -> RelaxationConfig:
    rlt = opts["rlt"]
    if rlt not in ("all", "none"):
        raise ValueError("--rlt must be 'all' or 'none'")
    return RelaxationConfig(
        r=_parse_r(opts["r"]),
        rlt_pairs="all" if rlt == "all" else None,
        bound_cuts=bool(opts["bound_cuts"]),
        sparsity=bool(opts["sparsity"]),
    )


def _solver_settings(opts) -> SolverSettings:
    # a config file may give "1e-9" or 50.0: cast to the default's type
    return SolverSettings(**{f.name: type(f.default)(opts[f.name])
                             for f in fields(SolverSettings)
                             if opts.get(f.name) is not None})


def _sequential_config(opts) -> SequentialConfig:
    init = opts["init"]
    if isinstance(init, str) and init not in ("zero", "relaxation"):
        init = _load_point(init)
    return SequentialConfig(
        relaxation=_relaxation_config(opts),
        eta=_parse_eta(opts["eta"]),
        max_rounds=int(opts["max_rounds"]),
        tight_tol=float(opts["tight_tol"]),
        stop_rel=_parse_stop_rel(opts["stop_rel"]),
        init=init,
        solver=_solver_settings(opts),
    )


# ---------------------------------------------------------------------------
# point files


def _load_point(path: str) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "x" in doc:
        doc = doc["x"]
    x = np.asarray(doc, dtype=float).ravel()
    if x.size == 0:
        raise ValueError(f"point file {path} holds no coordinates")
    return x


# ---------------------------------------------------------------------------
# subcommands


def _cmd_relax(args) -> int:
    p = iio.load_problem(args.instance)
    sol, _ = solve_relaxation(p, _relaxation_config(args.opts),
                              _solver_settings(args.opts))
    print("bound: %.6f" % sol.pcost)
    print("status: %s" % sol.status)
    return 0


def _run_sequential(args):
    p = iio.load_problem(args.instance)
    trace = run(p, _sequential_config(args.opts),
                label=os.path.splitext(os.path.basename(args.instance))[0])
    for r in trace.rounds:
        log.info("round %d: q0 %.6f residual %.3e (%s)",
                 r.i, r.q0, r.residual, r.solver_status)
    return p, trace


def _cmd_solve(args) -> int:
    p, trace = _run_sequential(args)
    if trace.i_feas is None:
        print(f"no tight round within {len(trace.rounds)} rounds "
              f"(status {trace.status})", file=sys.stderr)
        return EXIT_SOLVER
    # the reported point, which restoration may have moved off the round's
    x = trace.x_final
    objective, violation = p.objective.value(x), p.violation(x)
    print("status: %s" % trace.status)
    print("eta: %.12g" % trace.eta)
    print("i_feas: %d" % trace.i_feas)
    print("i_stop: %s" % ("" if trace.i_stop is None else trace.i_stop))
    print("objective: %.12g" % objective)
    print("violation: %.3e" % violation)
    if args.out:
        doc = {"x": x.tolist(), "objective": objective,
               "violation": violation, "eta": trace.eta,
               "i_feas": trace.i_feas, "i_stop": trace.i_stop,
               "status": trace.status}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        log.info("wrote %s", args.out)
    return 0


def _cmd_sequential(args) -> int:
    _, trace = _run_sequential(args)
    csv = trace_csv(trace)
    sys.stdout.write(csv)
    if args.trace_csv:
        with open(args.trace_csv, "w") as fh:
            fh.write(csv)
    if args.trace_json:
        with open(args.trace_json, "w") as fh:
            fh.write(trace_json(trace))
    return 0


def _cmd_tune_eta(args) -> int:
    p = iio.load_problem(args.instance)
    eta = tune_eta(p, _sequential_config(args.opts))
    print("%.12g" % eta)
    return 0


def _cmd_check(args) -> int:
    p = iio.load_problem(args.instance)
    x = (np.zeros(p.n) if args.point == "zero" else _load_point(args.point))
    if x.shape != (p.n,):
        raise ValueError(f"point has {x.size} coordinates, problem has {p.n}")
    rep = check_regularity(p, x, r=_parse_r(args.opts["r"]))
    print("n: %d" % rep.n)
    print("r: %d" % rep.r)
    print("distance_ub: %.6g" % rep.distance_ub)
    print("quasi_binding: %s" % rep.quasi_binding)
    print("sigma_min: %.6g" % rep.sigma_min)
    print("sensitivity: %.6g" % rep.sensitivity)
    print("pencil_norm_ub: %.6g" % rep.pencil_norm_ub)
    print("combinatorial_factor: %.6g" % rep.combinatorial_factor)
    print("threshold: %.6g" % rep.threshold)
    print("tightness_condition: %s"
          % ("satisfied" if rep.satisfied else "not satisfied"))
    return 0


def _cmd_poly2qcqp(args) -> int:
    with open(args.input) as fh:
        pp = parse_poly(fh.read())
    prob, mm = reformulate(pp)
    with open(args.output, "w") as fh:
        fh.write(iio.problem_to_json(prob, indent=2))
    print("variables: %d -> %d (%d auxiliary, bound %d)"
          % (pp.n, prob.n, prob.n - pp.n, aux_count_bound(pp)))
    print("wrote %s" % args.output)
    return 0


def _cmd_sysid_gen(args) -> int:
    params = iio.SysIdParams(n=args.n, m=args.m, T=args.T, o=args.o,
                             sigma=args.sigma, alpha=args.alpha,
                             seed=args.seed)
    inst = iio.gen_sysid(params)
    out = args.out or (params.label() + ".json")
    with open(out, "w") as fh:
        fh.write(iio.sysid_to_json(inst))
    print("wrote %s (n_vars=%d, inequalities=%d, equalities=%d)"
          % (out, inst.problem.n, inst.problem.n_ineq, inst.problem.n_eq))
    if args.problem_out:
        with open(args.problem_out, "w") as fh:
            fh.write(iio.problem_to_json(inst.problem))
        print("wrote %s" % args.problem_out)
    return 0


def _bench_one(path, opts):
    """Worker for bench: returns (label, trace or None, error message)."""
    label = os.path.splitext(os.path.basename(path))[0]
    try:
        p = iio.load_problem(path)
        trace = run(p, _sequential_config(opts), label=label)
        return label, trace, ""
    except (SolveError, EtaTuningError, ValueError, OSError) as exc:
        return label, None, str(exc)


def _cmd_bench(args) -> int:
    paths = sorted(
        pth for pat in ("*.json", "*.qplib", "*.poly")
        for pth in glob.glob(os.path.join(args.dir, pat)))
    if not paths:
        raise ValueError(f"no instances (*.json, *.qplib, *.poly) in {args.dir}")
    refs = None
    if args.refs:
        with open(args.refs) as fh:
            refs = iio.read_refs_csv(fh.read())

    jobs = max(1, args.jobs or 1)
    results = []
    if jobs == 1:
        for path in paths:
            results.append(_bench_one(path, args.opts))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_bench_one, path, args.opts)
                    for path in paths]
            results = [f.result() for f in futs]

    failures = 0
    traces = []
    for label, trace, err in results:
        if trace is None:
            failures += 1
            log.error("%s failed: %s", label, err)
            print(f"{label}: {err}", file=sys.stderr)
        else:
            traces.append(trace)
    csv = iio.write_results(traces, refs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(csv)
    return EXIT_SOLVER if failures else 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sp):
    sp.add_argument("--config", metavar="FILE",
                    help="JSON file supplying option defaults")
    sp.add_argument("--dump-config", action="store_true",
                    help="print resolved options and exit")


def _add_relax_opts(sp):
    sp.add_argument("--r", metavar="R",
                    help="submatrix order: an integer or 'n' (default n)")
    sp.add_argument("--rlt", choices=("all", "none"),
                    help="affine-pair product cuts (default none)")
    sp.add_argument("--bound-cuts", action="store_const", const=True,
                    dest="bound_cuts", help="add box diagonal cuts")
    sp.add_argument("--no-sparsity", action="store_const", const=False,
                    dest="sparsity", help="store every lifted entry")


def _add_solver_opts(sp):
    sp.add_argument("--feasibility-tol", type=float, dest="feasibility_tol")
    sp.add_argument("--gap-tol", type=float, dest="gap_tol")
    sp.add_argument("--max-iterations", type=int, dest="max_iterations")


def _add_seq_opts(sp):
    _add_relax_opts(sp)
    _add_solver_opts(sp)
    sp.add_argument("--eta", help="penalty weight, a number or 'auto'")
    sp.add_argument("--init",
                    help="zero | relaxation | point file (default zero)")
    sp.add_argument("--max-rounds", type=int, dest="max_rounds")
    sp.add_argument("--tight-tol", type=float, dest="tight_tol")
    sp.add_argument("--stop-rel", dest="stop_rel",
                    help="relative-improvement stop, a number or 'none'")


def _build_parser() -> _Parser:
    ap = _Parser(prog="qcqpen",
                 description="Feasible points for nonconvex QCQPs via "
                             "penalized semidefinite relaxations.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[], help="run the sequential "
                        "scheme and report the feasible point found")
    sp.add_argument("instance")
    sp.add_argument("--out", metavar="FILE", help="write solution JSON")
    _add_seq_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("relax", help="solve one convex relaxation and "
                        "print the bound")
    sp.add_argument("instance")
    _add_relax_opts(sp)
    _add_solver_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_relax)

    sp = sub.add_parser("sequential", help="run the sequential scheme and "
                        "emit the round-by-round trace")
    sp.add_argument("instance")
    sp.add_argument("--trace-csv", metavar="FILE")
    sp.add_argument("--trace-json", metavar="FILE")
    _add_seq_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sequential)

    sp = sub.add_parser("tune-eta", help="search for the smallest tight "
                        "penalty weight and print it")
    sp.add_argument("instance")
    _add_seq_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_tune_eta)

    sp = sub.add_parser("check", help="evaluate the regularity report "
                        "at a point")
    sp.add_argument("instance")
    sp.add_argument("--point", default="zero",
                    help="'zero' or a JSON point file")
    sp.add_argument("--r", metavar="R", help="block order (default n)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("poly2qcqp", help="rewrite a polynomial problem "
                        "as a QCQP JSON file")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.set_defaults(func=_cmd_poly2qcqp)

    sp = sub.add_parser("sysid-gen", help="generate a system "
                        "identification instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--o", type=int, required=True)
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=1e-3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", metavar="FILE")
    sp.add_argument("--problem-out", metavar="FILE", dest="problem_out")
    sp.set_defaults(func=_cmd_sysid_gen)

    sp = sub.add_parser("bench", help="run a directory of instances and "
                        "write a summary CSV")
    sp.add_argument("--dir", required=True)
    sp.add_argument("--refs", metavar="CSV",
                    help="reference objectives for the gap column")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", metavar="FILE")
    _add_seq_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_bench)

    return ap


def _configure_logging():
    level = os.environ.get("QCQP_LOG", "warning").strip().lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "warn": logging.WARNING,
              "error": logging.ERROR, "quiet": logging.CRITICAL}
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s",
                        level=levels.get(level, logging.WARNING))


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        if "config" in vars(args):
            args.opts = _resolve(args)
            if args.dump_config:
                print(json.dumps(args.opts, indent=2, default=str))
                return 0
        return args.func(args)
    except EtaTuningError as exc:
        print(f"tuning failure: {exc}", file=sys.stderr)
        return EXIT_TUNING
    except SolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
