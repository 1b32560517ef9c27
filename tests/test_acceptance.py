"""Acceptance gate.

Each test covers one release criterion and records a single
"ACCEPTANCE <id> <name>: PASS|FAIL" line before asserting; conftest
echoes the collected lines in the terminal summary.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest

from qcqpen import (EtaTuningError, QcqpProblem, QuadraticFunction,
                    RelaxationConfig, SequentialConfig, SolverSettings,
                    aux_count_bound, build_penalized, build_relaxation,
                    extract, gap_percent, gen_sysid, lift, lift_point,
                    parse_poly, parse_qplib, reformulate, rlt_cuts, run,
                    solve_conic, SysIdParams)
from qcqpen.polyopt import poly_value
from qcqpen.sequential import _round_solver_settings

from _support import (POLY_EXAMPLE, POLY_EXTRA, grid_minimum_2d, quad_values,
                      random_2var_qcqp, random_box_qcqp, random_feasible_qcqp,
                      sample_feasible, solve_logged)

OK = ("optimal", "near_optimal")


def _report(tag, name, ok, detail=""):
    line = "ACCEPTANCE %s %s: %s" % (tag, name, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    conftest.acceptance_lines.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def poly_problem():
    pp = parse_poly(POLY_EXAMPLE)
    prob, mm = reformulate(pp)
    return pp, prob, mm


# ---------------------------------------------------------------------------
# 1. unpenalized relaxation bound on the degree-5 example


# The unpenalized full relaxation of the example has no finite value: the
# objective a is unbounded below on it. Every recession direction of
# [[1, x'], [x, X]] >= 0 has dx = 0, so there is no improving ray and no
# certificate of unboundedness either (weak unboundedness). With the one
# extra row a >= -L the bound is exactly -L, for any L.
BOUND_LEVELS = (100.0, 1000.0)


def _objective_at_least(prob, level):
    """prob plus the row objective >= level (the objective is affine here)."""
    obj = prob.objective
    row = QuadraticFunction.affine(-obj.b, level - obj.c)
    return QcqpProblem(n=prob.n, objective=obj,
                       inequalities=list(prob.inequalities) + [row],
                       equalities=list(prob.equalities),
                       lb=prob.lb, ub=prob.ub, name=prob.name + "_bounded")


def test_criterion_1_poly_relaxation_bound(poly_problem):
    _, prob, _ = poly_problem
    t0 = time.monotonic()
    prog, _ = build_relaxation(prob, RelaxationConfig())
    sol = solve_conic(prog)
    ok = sol.status not in OK
    parts = ["unbounded: %s" % sol.status]
    for level in BOUND_LEVELS:
        prog, _ = build_relaxation(_objective_at_least(prob, -level),
                                   RelaxationConfig())
        sol = solve_conic(prog)
        ok = (ok and sol.status == "optimal"
              and abs(sol.pcost + level) <= 1e-6 * level)
        parts.append("a >= -%g: %s, bound %.6f" % (level, sol.status,
                                                    sol.pcost))
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    _report("1", "unpenalized relaxation bound", ok,
            "%s, %.2fs" % ("; ".join(parts), dt))


# ---------------------------------------------------------------------------
# 2. round-by-round tracking on the degree-5 example, three starts

ROUND_TABLE = {
    "x1": {1: (-1.2739, 0.6601, -0.4697), 2: (-1.5173, 1.1445, -1.0128),
           3: (-1.6882, 1.3773, -1.2015), 4: (-1.8021, 1.5739, -1.3561),
           5: (-1.8824, 1.7447, -1.4873), 6: (-1.9386, 1.8930, -1.5992),
           7: (-1.9760, 2.0180, -1.6923), 8: (-1.9985, 2.1175, -1.7656),
           9: (-2.0104, 2.1907, -1.8193), 10: (-2.0160, 2.2408, -1.8559)},
    "x2": {1: (-2.5377, 1.2831, -0.7380), 2: (-2.4389, 2.0715, -1.3946),
           3: (-2.2889, 2.2685, -1.7098), 4: (-2.1878, 2.3416, -1.8442),
           5: (-2.1194, 2.3621, -1.9007), 6: (-2.0733, 2.3611, -1.9250),
           7: (-2.0423, 2.3526, -1.9352), 8: (-2.0214, 2.3426, -1.9393),
           9: (-2.0197, 2.3352, -1.9302), 10: (-2.0198, 2.3304, -1.9240)},
    "x3": {1: (-1.5721, 2.6848, -0.9492), 2: (-1.5749, 2.7588, -1.3854),
           3: (-1.6678, 2.6583, -1.5228), 4: (-1.8322, 2.6083, -1.5587),
           5: (-1.9460, 2.5261, -1.6624), 6: (-2.0002, 2.4391, -1.7847),
           7: (-2.0156, 2.3824, -1.8598), 8: (-2.0189, 2.3532, -1.8938),
           9: (-2.0196, 2.3387, -1.9079), 10: (-2.0197, 2.3313, -1.9135)},
}

REF_OBJECTIVE = -2.0198


def _starting_points(mm):
    return {
        "x1": np.zeros(8),
        "x2": lift_point(mm, np.array([-3.0, 0.0, 2.0])),
        "x3": np.array([0.0, 4.0, 0.0, 0.0, 16.0, 0.0, 0.0, 0.0]),
    }


@pytest.fixture(scope="module")
def tracked_runs(poly_problem):
    _, prob, mm = poly_problem
    cfg = SequentialConfig(eta=0.025, max_rounds=10, stop_rel=None,
                           tight_tol=1e-7)
    settings = _round_solver_settings(cfg, 0.025)
    out = {}
    for name, x0 in _starting_points(mm).items():
        t0 = time.monotonic()
        xhat = np.array(x0, dtype=float)
        xs, res = [], []
        rel = lift(prob, cfg.relaxation, penalized=True)
        for _ in range(10):
            prog, emap = build_penalized(rel, xhat, 0.025)
            sol = solve_conic(prog, settings)
            assert sol.status in OK
            pt = extract(sol, emap)
            xs.append(pt.x.copy())
            res.append(pt.residual)
            xhat = pt.x
        trace = run(prob, replace(cfg, init=np.array(x0, dtype=float)))
        out[name] = {"xs": xs, "res": res, "trace": trace,
                     "time": time.monotonic() - t0}
    return out


# A table point counts as feasible when the original equality constraint is
# within TABLE_FEAS_TOL of zero there. Rounding the table to four decimals
# moves that value by at most 2.6e-3 (the gradient is about (50.8, -0.79,
# 0.76) near the limit), while x2's round-8 point still gives -0.0987.
TABLE_FEAS_TOL = 1e-2


def _table_first_tight_round(pp, name):
    (g, _), = pp.constraints
    return next((i for i, pt in sorted(ROUND_TABLE[name].items())
                 if abs(poly_value(g, np.array(pt))) <= TABLE_FEAS_TOL), None)


def test_criterion_2a_tight_within_8_rounds(poly_problem, tracked_runs):
    pp = poly_problem[0]
    parts, ok = [], True
    for name in ("x1", "x2", "x3"):
        data = tracked_runs[name]
        i_feas = data["trace"].i_feas
        chain_feas = next((i + 1 for i, r in enumerate(data["res"])
                           if r < 1e-7), None)
        assert i_feas == chain_feas
        expected = _table_first_tight_round(pp, name)
        ok = ok and expected is not None and i_feas == expected
        parts.append("%s i_feas=%s (table %s)" % (name, i_feas, expected))
    _report("2a", "first tight round matches the reference table", ok,
            ", ".join(parts))


def test_criterion_2b_tracks_reference_iterates(tracked_runs):
    ok, worst = True, 0.0
    for name in ("x1", "x2", "x3"):
        xs = tracked_runs[name]["xs"]
        for i, ref in ROUND_TABLE[name].items():
            dev = max(abs(xs[i - 1][k] - ref[k]) for k in range(3))
            worst = max(worst, dev)
            ok = ok and dev <= (1e-2 if i == 10 else 5e-2)
        obj10 = xs[9][0]
        ok = ok and abs(obj10 - REF_OBJECTIVE) <= 0.002 * abs(REF_OBJECTIVE)
    total = sum(d["time"] for d in tracked_runs.values())
    ok = ok and total < 60.0
    _report("2b", "iterates track the reference table", ok,
            "max coordinate deviation %.3g, %.1fs" % (worst, total))


# ---------------------------------------------------------------------------
# 3. one penalized round from a feasible start on random instances


def test_criterion_3_single_round_from_feasible_point():
    t0 = time.monotonic()
    hits, misses = 0, []
    for seed in range(50):
        p, xstar = random_feasible_qcqp(seed)
        cfg = SequentialConfig(eta="auto", max_rounds=1, stop_rel=None,
                               init=xstar,
                               solver=SolverSettings(max_iterations=80))
        try:
            tr = run(p, cfg)
        except EtaTuningError:
            misses.append("%d:tune" % seed)
            continue
        if tr.status.startswith("solver_failure"):
            misses.append("%d:%s" % (seed, tr.status))
            continue
        viol = p.violation(tr.x_final)
        incr = p.objective.value(tr.x_final) - p.objective.value(xstar)
        if viol <= 1e-6 and incr <= 1e-6:
            hits += 1
        else:
            misses.append("%d:viol=%.1e,incr=%.1e" % (seed, viol, incr))
    dt = time.monotonic() - t0
    ok = hits >= 48 and dt < 120.0
    _report("3", "auto-eta round keeps feasibility and objective", ok,
            "%d/50 in %.1fs%s" % (hits, dt,
                                  "; " + " ".join(misses) if misses else ""))


# ---------------------------------------------------------------------------
# 4. two-variable instances against a brute-force grid


def test_criterion_4_grid_reference_on_2var_instances():
    t0 = time.monotonic()
    hits, misses = 0, []
    for seed in range(20):
        p = random_2var_qcqp(seed)
        try:
            tr = run(p, SequentialConfig(max_rounds=30))
        except EtaTuningError:
            misses.append("%d:tune" % seed)
            continue
        gbest, _ = grid_minimum_2d(p)
        qseq = p.objective.value(tr.x_final)
        feas = tr.i_feas is not None and p.violation(tr.x_final) <= 1e-6
        rel = abs(qseq - gbest) / max(abs(gbest), 1e-9)
        if feas and rel <= 0.01:
            hits += 1
        else:
            misses.append("%d:rel=%.3g" % (seed, rel))
    dt = time.monotonic() - t0
    ok = hits >= 16 and dt < 120.0
    _report("4", "within 1% of grid minimum on 2-var instances", ok,
            "%d/20 in %.1fs%s" % (hits, dt,
                                  "; " + " ".join(misses) if misses else ""))


# ---------------------------------------------------------------------------
# 5. relaxation ordering across block and cut choices


def _with_box(prob, half):
    """Clamp every variable to [-half, half], also as explicit rows."""
    n = prob.n
    rows = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 0.5
        rows.append(QuadraticFunction(np.zeros((n, n)), e, -half))
        rows.append(QuadraticFunction(np.zeros((n, n)), -e, -half))
    return QcqpProblem(n=n, objective=prob.objective,
                       inequalities=list(prob.inequalities) + rows,
                       equalities=list(prob.equalities),
                       lb=np.full(n, -half), ub=np.full(n, half),
                       name=prob.name + "_boxed")


def test_criterion_5_relaxation_ordering(poly_problem):
    _, prob, _ = poly_problem
    problems = [_with_box(prob, 30.0)]
    problems += [random_box_qcqp(seed)[0] for seed in range(10)]
    configs = {
        "A": RelaxationConfig(r=2, bound_cuts=True),
        "B": RelaxationConfig(r=2, bound_cuts=True, rlt_pairs="all"),
        "C": RelaxationConfig(bound_cuts=True),
        "D": RelaxationConfig(bound_cuts=True, rlt_pairs="all"),
    }
    ok, worst = True, 0.0
    for p in problems:
        vals = {}
        for key, cfg in configs.items():
            prog, _ = build_relaxation(p, cfg)
            sol = solve_conic(prog)
            ok = ok and sol.status in OK
            vals[key] = sol.pcost
        for lo, hi in (("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")):
            slack = vals[lo] - vals[hi]
            worst = max(worst, slack)
            ok = ok and slack <= 1e-6
    _report("5", "bounds ordered by relaxation strength", ok,
            "max violation of ordering %.3g" % worst)


# ---------------------------------------------------------------------------
# 6. polynomial reformulation is exact on the lifted manifold


def _constraint_pairs(pp, prob):
    ii = ei = 0
    for poly, sense in pp.constraints:
        if sense == "<=":
            yield poly, prob.inequalities[ii]
            ii += 1
        else:
            yield poly, prob.equalities[ei]
            ei += 1


def test_criterion_6_reformulation_identities():
    ok, worst = True, 0.0
    for k, text in enumerate([POLY_EXAMPLE] + POLY_EXTRA):
        pp = parse_poly(text)
        prob, mm = reformulate(pp)
        ok = ok and (prob.n - pp.n) <= aux_count_bound(pp)
        rng = np.random.default_rng(60 + k)
        for x in rng.uniform(-1.5, 1.5, size=(100, pp.n)):
            xl = lift_point(mm, x)
            pairs = [(pp.objective, prob.objective)]
            pairs += list(_constraint_pairs(pp, prob))
            for poly, quad in pairs:
                a = poly_value(poly, x)
                b = quad.value(xl)
                err = abs(a - b) / max(1.0, abs(a))
                worst = max(worst, err)
                ok = ok and err <= 1e-9
    pp = parse_poly(POLY_EXAMPLE)
    _, mm = reformulate(pp)
    lifted = lift_point(mm, np.array([-3.0, 0.0, 2.0]))
    expect = np.array([-3.0, 0.0, 2.0, 9.0, 0.0, 4.0, 0.0, -27.0])
    ok = ok and np.array_equal(lifted, expect)
    _report("6", "lifted constraints agree with the polynomials", ok,
            "max relative error %.2e" % worst)


# ---------------------------------------------------------------------------
# 7. product cuts are valid on the feasible set


def test_criterion_7_product_cut_validity():
    ok, worst, n_pts = True, 0.0, 0
    for seed in range(10):
        p, z = random_box_qcqp(seed)
        cuts = rlt_cuts(p, "all")
        ok = ok and len(cuts) > 0
        rng = np.random.default_rng(1000 + seed)
        pts = sample_feasible(p, z, rng, 100, spread=0.25)
        ok = ok and len(pts) == 100
        n_pts += len(pts)
        P = np.array(pts)
        for _, q in cuts:
            low = float(quad_values(q, P).min())
            worst = min(worst, low)
            ok = ok and low >= -1e-9
    gi = QuadraticFunction(np.zeros((2, 2)), [1.0, 0.0], -1.0)
    tiny = QcqpProblem(n=2, objective=QuadraticFunction(np.eye(2),
                                                        np.zeros(2)),
                       inequalities=[gi])
    (pair, q), = rlt_cuts(tiny, "all")
    ok = ok and pair == (0, 0)
    ok = ok and np.array_equal(q.A, [[4.0, 0.0], [0.0, 0.0]])
    ok = ok and np.array_equal(q.b, [-2.0, 0.0]) and q.c == 1.0
    _report("7", "product cuts nonnegative on feasible points", ok,
            "%d points, smallest cut value %.2e" % (n_pts, worst))


# ---------------------------------------------------------------------------
# 8. system identification recovery


def test_criterion_8_sysid_recovery():
    t0 = time.monotonic()
    cfg = SequentialConfig(relaxation=RelaxationConfig(r=2), eta=40.0,
                           max_rounds=10, stop_rel=None, init="zero")
    avgs = {}
    for sigma in (0.01, 0.05):
        errs = []
        for seed in range(5):
            inst = gen_sysid(SysIdParams(n=4, m=3, T=40, o=32,
                                         sigma=sigma, seed=seed))
            tr = run(inst.problem, cfg)
            a_err, _ = inst.recovery_errors(tr.x_final)
            errs.append(a_err)
        avgs[sigma] = float(np.mean(errs))
    dt = time.monotonic() - t0
    ok = avgs[0.01] < 0.02 and avgs[0.05] < 0.06 and dt < 600.0
    _report("8", "dynamics recovered from noisy trajectories", ok,
            "avg A-error %.4f @ 0.01, %.4f @ 0.05, %.0fs"
            % (avgs[0.01], avgs[0.05], dt))


# ---------------------------------------------------------------------------
# 9. external benchmark instances (skipped when the files are absent)


def test_criterion_9_qplib_instances():
    d = os.environ.get("QPLIB_DIR",
                       os.path.join(os.path.dirname(__file__), "data",
                                    "qplib"))
    refs = {"QPLIB_1157": -10.948, "QPLIB_1507": -8.301}
    paths = {name: os.path.join(d, name + ".qplib") for name in refs}
    missing = [n for n, pth in paths.items() if not os.path.exists(pth)]
    if missing:
        pytest.skip("benchmark files not present: %s" % ", ".join(missing))
    parts, ok = [], True
    for name, ref in refs.items():
        with open(paths[name]) as fh:
            p = parse_qplib(fh.read())
        tr = run(p, SequentialConfig())
        ub = p.objective.value(tr.x_final)
        gap = gap_percent(ub, ref)
        good = (tr.i_feas is not None
                and p.violation(tr.x_final) <= 1e-6 and gap <= 1.0)
        ok = ok and good
        parts.append("%s ub=%.3f gap=%.2f%%" % (name, ub, gap))
    _report("9", "benchmark gaps within 1%", ok, ", ".join(parts))


# ---------------------------------------------------------------------------
# 10. conic solver sanity on reference programs


def test_criterion_10_solver_reference_programs():
    from test_solver import _diag_sdp_fixture, _lambda_min_fixture, \
        _lp_fixture
    checks = []
    prog = _lp_fixture()
    sol, rows = solve_logged(prog)
    checks.append(abs(sol.pcost - 1.0) <= 1e-6)

    prog, _, _ = _diag_sdp_fixture()
    sol2, rows2 = solve_logged(prog)
    checks.append(abs(sol2.pcost - 3.5) <= 1e-6)

    prog, C = _lambda_min_fixture()
    sol3, rows3 = solve_logged(prog)
    lam = float(np.linalg.eigvalsh(C)[0])
    checks.append(abs(-sol3.pcost - lam) <= 1e-6)

    for s, log in ((sol, rows), (sol2, rows2), (sol3, rows3)):
        checks.append(s.status in OK)
        for row in log:
            checks.append(row["gap"] >= -1e-12)
            checks.append(row["pcost"] >= row["dcost"] - 1e-6)

    again = solve_conic(_lp_fixture())
    checks.append(again.status == sol.status)
    checks.append(again.iterations == sol.iterations)
    checks.append(again.pcost == sol.pcost)
    checks.append(np.array_equal(again.u, sol.u))

    ok = all(checks)
    _report("10", "solver reference programs and duality", ok,
            "%d checks" % len(checks))
