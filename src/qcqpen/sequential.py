"""Sequential penalized relaxations: solve, re-center, repeat.

The penalized relaxation depends only on the problem and cfg.relaxation,
so it is lifted once per run, first: the initial relaxation when the
penalty adds no block, the eta search's candidates and the final run of
rounds all share its cone. Round i writes its objective at the current
anchor xhat, solves it, extracts x(i), and re-anchors. Two round indices:

    i_feas: first round whose lifting is tight, residual < tight_tol
            (then x(i) is feasible for the QCQP up to solver tolerance);
    i_stop: first round i >= 2 with rounds i-1 and i both tight and relative
            objective improvement (q0(x(i-1)) - q0(x(i))) / |q0(x(i))|
            at most stop_rel.

With a sufficiently large penalty eta every round is tight and the
objective sequence is nonincreasing, so the loop is a descent method over
feasible points. The penalty is either given or auto-tuned: the tuner
bisects a log-spaced grid for the smallest eta whose first six rounds are
all tight, assuming tightness is monotone in eta. A candidate's rounds stop
at its first loose round, which already decides it. The largest candidate
is evaluated only when the bisection ends on it, and tuning fails when it
is loose there.

The rounds of the final run differ only in the anchor term of their
objective, so with a given eta only round 1 starts cold: every later
round starts from round 1's restart (`ConicSolution.restart`), an
interior, well-centered iterate of its solve. A warm solve that does not
end optimal is solved again cold, and that solve is the round's. With a
tuned eta every solve starts cold, the eta search's and the final run's:
the tuned eta is the smallest candidate whose rounds are tight, so their
verdicts sit at float64's accuracy edge, where a warm start moves them.
The final run's first tune_rounds rounds are those that judged the eta
tight: they reuse the tuner's solutions and solve nothing.

The reported point x_final is the last round's point. Tightness tests the
trace residual alone, so an inaccurate solve can leave that point slightly
infeasible; when its violation exceeds tight_tol, regularity's minimum-norm
linearization steps (`estimate_distance`) move it onto the feasible set.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .lifting import (RelaxationConfig, build_penalized, build_relaxation,
                      extract, lift)
from .quadratics import QcqpProblem
from .regularity import estimate_distance
from .solver import SolverSettings, solve_conic

_OK_STATUSES = ("optimal", "near_optimal")

_log = logging.getLogger("qcqpen.sequential")


class SolveError(RuntimeError):
    """A conic solve needed by the pipeline did not reach (near-)optimality."""

    def __init__(self, message: str, status: str = ""):
        super().__init__(message)
        self.status = status


class EtaTuningError(RuntimeError):
    """No grid candidate produced six consecutive tight rounds."""

    def __init__(self, message: str, tried: list):
        super().__init__(message)
        self.tried = tried


@dataclass
class SequentialConfig:
    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    eta: object = "auto"              # positive float or "auto"
    max_rounds: int = 100
    tight_tol: float = 1e-7
    stop_rel: float | None = 5e-4     # None disables early stopping
    init: object = "relaxation"       # "relaxation" | "zero" | vector
    solver: SolverSettings = field(default_factory=SolverSettings)
    tune_rounds: int = 6


@dataclass
class RoundRecord:
    i: int
    q0: float
    lifted_obj: float
    residual: float
    time_s: float
    solver_status: str
    # how the round's solve ended (`ConicSolution`)
    iterations: int = 0
    stop_reason: str = ""
    fallback: bool = False
    # "cold", "warm" (from round 1's restart), "retried" (warm, then
    # solved again cold: the fields above are the cold solve's, but time_s
    # covers both solves, and discarded_iterations counts the warm one's)
    # or "tuned" (the tuner's solve of the round, reused: time_s has none)
    start: str = "cold"
    discarded_iterations: int = 0


@dataclass
class SequentialTrace:
    rounds: list
    eta: float
    i_feas: int | None
    i_stop: int | None
    x_final: np.ndarray
    x_init: np.ndarray
    status: str                      # converged | max_rounds | solver_failure:*
    label: str = ""
    init_s: float = 0.0              # resolve_initial_point, not the lift
    tune_s: float = 0.0              # tune_eta, 0 with a fixed eta
    # feasibility restoration of x_final: the step's length (0 when x_final
    # was within tight_tol, inf when the step failed and x_final was kept)
    # and the violation of the last round's point and of x_final
    restore_distance: float = 0.0
    violation_before: float = 0.0
    violation_after: float = 0.0

    @property
    def objective(self) -> float:
        """q0 at the last computed round."""
        return self.rounds[-1].q0 if self.rounds else float("nan")

    def total_time(self) -> float:
        """Initial point, eta tuning and the final run's rounds."""
        return self.init_s + self.tune_s + sum(r.time_s for r in self.rounds)


def gap_percent(ub: float, ref: float) -> float:
    """100 (ub - ref) / |ref|; infinite when the reference is zero."""
    if ref == 0.0:
        return float("inf") if ub != 0.0 else 0.0
    return 100.0 * (ub - ref) / abs(ref)


def eta_grid() -> list:
    """Sorted candidates {a * 10^e : a in {1, 2, 5}, e in -3..4}."""
    vals = [a * 10.0 ** e for e in range(-3, 5) for a in (1.0, 2.0, 5.0)]
    return sorted(vals)


def solve_relaxation(p, relaxation, settings, lifted=None):
    """(sol, emap) of p's relaxation, `lifted` (p's penalized lift) when the
    penalty adds no block to it; SolveError unless (near-)optimal."""
    share = lifted is not None and lifted[1].penalty_blocks == 0
    prog, emap = lifted if share else build_relaxation(p, relaxation)
    sol = solve_conic(prog, settings)
    if sol.status not in _OK_STATUSES:
        raise SolveError(f"relaxation solve ended with status {sol.status} "
                         f"({sol.stop_reason})", sol.status)
    return sol, emap


def resolve_initial_point(p: QcqpProblem, cfg: SequentialConfig,
                          relaxation=None) -> np.ndarray:
    init = cfg.init
    if isinstance(init, str):
        if init == "zero":
            return np.zeros(p.n)
        if init == "relaxation":
            return extract(*solve_relaxation(p, cfg.relaxation, cfg.solver,
                                             relaxation)).x
        raise ValueError(f"unknown initial point spec {init!r}")
    x0 = np.asarray(init, dtype=float).ravel()
    if x0.shape != (p.n,):
        raise ValueError("initial point has wrong dimension")
    return x0


def _round_solver_settings(cfg, eta):
    """Solver tolerances tight enough to certify residual < tight_tol.

    At a tight solution the trace residual is on the order of gap / eta, so
    the duality gap target is tied to the tightness tolerance.
    """
    s = cfg.solver
    gap_needed = max(1e-13, 0.05 * eta * cfg.tight_tol)
    if gap_needed >= s.gap_tol:
        return s
    return replace(s, gap_tol=gap_needed)


def _run_rounds(p, cfg, xhat, eta, relaxation, max_rounds, stop_rel,
                stop_loose=False, warm=False, solved=None):
    """Core loop; returns (rounds, i_feas, i_stop, x, status).

    relaxation, from `lift(p, cfg.relaxation, penalized=True)`, serves every
    round. With stop_loose (eta tuning) the loop ends after its first loose
    round, with status "loose". With warm (the final run at a given eta)
    every round after the first starts from round 1's restart
    (`_solve_round`). A round listed in `solved` (the same cold rounds,
    solved before) reuses that solution; each round solved is appended.
    """
    rounds = []
    i_feas = None
    i_stop = None
    prev_q0 = None
    prev_tight = False
    status = "max_rounds"
    x = xhat
    solver_settings = _round_solver_settings(cfg, eta)
    restart = None
    for i in range(1, max_rounds + 1):
        t0 = time.perf_counter()
        prog, emap = build_penalized(relaxation, x, eta=eta)
        if solved is not None and i <= len(solved):
            sol, start, discarded = solved[i - 1], "tuned", 0
        else:
            sol, start, discarded = _solve_round(prog, solver_settings,
                                                 restart, i)
            if solved is not None:
                solved.append(sol)
        if warm and i == 1:
            restart = sol.restart
        dt = time.perf_counter() - t0
        how = (sol.status, sol.iterations, sol.stop_reason, sol.fallback,
               start, discarded)
        if sol.status not in _OK_STATUSES:
            rounds.append(RoundRecord(i, float("nan"), float("nan"),
                                      float("nan"), dt, *how))
            status = f"solver_failure:{sol.status}"
            break
        pt = extract(sol, emap)
        q0 = p.objective.value(pt.x)
        rounds.append(RoundRecord(i, q0, pt.objective, pt.residual, dt,
                                  *how))
        tight = pt.residual < cfg.tight_tol
        if i_feas is None and tight:
            i_feas = i
        if (stop_rel is not None and tight and prev_tight
                and prev_q0 is not None):
            rel = (prev_q0 - q0) / max(abs(q0), 1e-12)
            if rel <= stop_rel:
                i_stop = i
                status = "converged"
                x = pt.x
                break
        prev_q0, prev_tight = q0, tight
        x = pt.x
        if stop_loose and not tight:
            status = "loose"
            break
    return rounds, i_feas, i_stop, x, status


def _solve_round(prog, settings, restart, i):
    """(sol, start, discarded iterations) of round i's solve: cold without
    a restart, otherwise warm from it, and cold again when the warm solve
    does not end optimal."""
    if restart is None:
        return solve_conic(prog, settings), "cold", 0
    sol = solve_conic(prog, settings, start=restart)
    if sol.status == "optimal":
        return sol, "warm", 0
    _log.debug("round %d: warm solve ended %s (%s), solved again cold", i,
               sol.status, sol.stop_reason)
    return solve_conic(prog, settings), "retried", sol.iterations


def tune_eta(p: QcqpProblem, cfg: SequentialConfig, x0=None,
             relaxation=None, _solved=None) -> float:
    """Smallest grid eta whose first `tune_rounds` rounds are all tight.

    Bisects the sorted grid, assuming tightness is monotone in eta. Every
    loose candidate it evaluates lies below every tight one, so its
    evaluations never contradict that assumption. When tightness is not
    monotone, the result is a tight candidate whose lower neighbour on the
    grid is loose. A candidate's rounds stop at its first loose round: the
    rounds after it cannot make the candidate tight; all share one lift
    (`relaxation` when given). The largest candidate is evaluated only when
    the bisection ends on it; raises EtaTuningError when it is loose there.
    `_solved`, a list, receives the returned candidate's solutions.
    """
    grid = eta_grid()
    if relaxation is None:
        relaxation = lift(p, cfg.relaxation, penalized=True)
    if x0 is None:
        x0 = resolve_initial_point(p, cfg, relaxation)
    memo: dict = {}

    def tight_at(idx: int) -> bool:
        if idx not in memo:
            solved = []
            rounds = _run_rounds(p, cfg, x0, grid[idx], relaxation,
                                 cfg.tune_rounds, stop_rel=None,
                                 stop_loose=True, solved=solved)[0]
            memo[idx] = (len(rounds) == cfg.tune_rounds
                         and all(r.residual < cfg.tight_tol for r in rounds))
            if memo[idx] and _solved is not None:
                _solved[:] = solved
        return memo[idx]

    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if tight_at(mid):
            hi = mid
        else:
            lo = mid + 1
    # hi was evaluated tight unless it is the largest candidate
    if not tight_at(hi):
        raise EtaTuningError(
            "no tight penalty found: largest grid value "
            f"{grid[hi]:g} left some of the first {cfg.tune_rounds} rounds "
            "loose", tried=[(grid[i], memo[i]) for i in sorted(memo)])
    return grid[hi]


def run(p: QcqpProblem, cfg: SequentialConfig | None = None,
        label: str = "") -> SequentialTrace:
    """Run the sequential penalized scheme; see module docstring."""
    cfg = cfg or SequentialConfig()
    relaxation = lift(p, cfg.relaxation, penalized=True)
    t0 = time.perf_counter()
    x0 = resolve_initial_point(p, cfg, relaxation)
    init_s = time.perf_counter() - t0
    tune_s = 0.0
    tuned = [] if cfg.eta == "auto" else None   # the tuned rounds' solves
    if cfg.eta == "auto":
        t0 = time.perf_counter()
        eta = tune_eta(p, cfg, x0=x0, relaxation=relaxation, _solved=tuned)
        tune_s = time.perf_counter() - t0
    else:
        eta = float(cfg.eta)
        if eta <= 0:
            raise ValueError("eta must be positive")
    rounds, i_feas, i_stop, x, status = _run_rounds(
        p, cfg, x0, eta, relaxation, cfg.max_rounds, cfg.stop_rel,
        warm=cfg.eta != "auto", solved=tuned)
    violation_before = violation_after = p.violation(x)
    restore_distance = 0.0
    if violation_before > cfg.tight_tol:
        restore_distance, witness = estimate_distance(p, x)
        if witness is not None:
            x = witness
            violation_after = p.violation(x)
    return SequentialTrace(rounds=rounds, eta=eta, i_feas=i_feas,
                           i_stop=i_stop, x_final=x, x_init=x0,
                           status=status, label=label, init_s=init_s,
                           tune_s=tune_s, restore_distance=restore_distance,
                           violation_before=violation_before,
                           violation_after=violation_after)


def trace_csv(trace: SequentialTrace) -> str:
    lines = ["i,q0,lifted_obj,residual,time_s"]
    for r in trace.rounds:
        lines.append("%d,%.12e,%.12e,%.6e,%.4f"
                     % (r.i, r.q0, r.lifted_obj, r.residual, r.time_s))
    return "\n".join(lines) + "\n"


def trace_json(trace: SequentialTrace) -> str:
    """Every field of the trace and of its rounds, in declaration order."""
    return json.dumps(asdict(trace), indent=2, default=np.ndarray.tolist)
