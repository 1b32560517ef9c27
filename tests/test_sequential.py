import logging
import math
import types
from dataclasses import fields, replace

import numpy as np
import pytest

from qcqpen import (EtaTuningError, QcqpProblem, QuadraticFunction,
                    RelaxationConfig, SequentialConfig, SolveError,
                    SolverSettings, SysIdParams, build_relaxation, eta_grid,
                    extract, gap_percent, gen_sysid, jacobian,
                    lift, resolve_initial_point, run, solve_conic,
                    trace_csv, trace_json, tune_eta)
import qcqpen.sequential as sequential
from qcqpen.sequential import (RoundRecord, SequentialTrace,
                               _round_solver_settings, _run_rounds)
from _support import perfbench_module, random_feasible_qcqp

import json


def _shifted_ball_problem(g=(2.0, 0.0)):
    # min |x - g|^2 s.t. |x|^2 <= 1; optimum at g / |g|
    g = np.asarray(g, dtype=float)
    obj = QuadraticFunction(np.eye(2), -g, float(g @ g))
    ball = QuadraticFunction(np.eye(2), np.zeros(2), -1.0)
    return QcqpProblem(n=2, objective=obj, inequalities=[ball])


def test_gap_percent():
    assert gap_percent(-5.882, -6.386) == pytest.approx(7.89, abs=0.01)
    assert gap_percent(-105.570, -107.581) == pytest.approx(1.87, abs=0.005)
    assert gap_percent(1.0, 0.0) == math.inf
    assert gap_percent(0.0, 0.0) == 0.0
    assert gap_percent(2.0, 2.0) == 0.0


def test_eta_grid():
    grid = eta_grid()
    assert grid == sorted(grid)
    assert len(grid) == 24
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(5e4)
    assert 0.025 not in grid and 0.02 in grid


def test_resolve_initial_point():
    p = _shifted_ball_problem()
    cfg = SequentialConfig(init="zero")
    assert np.array_equal(resolve_initial_point(p, cfg), np.zeros(2))
    v = np.array([0.3, -0.4])
    assert np.array_equal(
        resolve_initial_point(p, SequentialConfig(init=v)), v)
    with pytest.raises(ValueError):
        resolve_initial_point(p, SequentialConfig(init=[1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        resolve_initial_point(p, SequentialConfig(init="center"))
    # "relaxation" returns the x part of the plain relaxation solution
    cfgr = SequentialConfig(init="relaxation")
    x0 = resolve_initial_point(p, cfgr)
    prog, emap = build_relaxation(p, cfgr.relaxation)
    sol = solve_conic(prog, cfgr.solver)
    assert x0 == pytest.approx(extract(sol, emap).x)


def test_resolve_initial_point_unbounded_relaxation():
    p = QcqpProblem(n=2, objective=QuadraticFunction.affine([0.5, 0.0]))
    with pytest.raises(SolveError) as err:
        resolve_initial_point(p, SequentialConfig(init="relaxation"))
    assert err.value.status in ("unbounded", "iteration_limit")


def test_round_solver_settings_derivation():
    cfg = SequentialConfig(eta=0.025)
    s = _round_solver_settings(cfg, 0.025)
    assert s.gap_tol == pytest.approx(0.05 * 0.025 * cfg.tight_tol)
    assert s.gap_tol == pytest.approx(1.25e-10)
    # other settings carried over unchanged
    assert s.max_iterations == cfg.solver.max_iterations
    # a large penalty needs no tightening; the object passes through
    assert _round_solver_settings(cfg, 1e7) is cfg.solver
    # never below the floor
    tiny = SequentialConfig(tight_tol=1e-13)
    assert _round_solver_settings(tiny, 1e-3).gap_tol == pytest.approx(1e-13)


def test_run_shifted_ball():
    p = _shifted_ball_problem()
    cfg = SequentialConfig(eta=5.0, init="zero", max_rounds=30)
    tr = run(p, cfg, label="ball")
    assert tr.status == "converged"
    assert tr.label == "ball"
    assert tr.eta == 5.0
    assert tr.i_feas == 1
    assert tr.i_stop is not None
    assert p.violation(tr.x_final) <= 1e-6
    assert tr.x_final == pytest.approx([1.0, 0.0], abs=1e-4)
    assert tr.objective == pytest.approx(1.0, abs=1e-3)
    # i_stop semantics: last two rounds tight, relative progress small
    last = tr.rounds[-1]
    prev = tr.rounds[-2]
    assert last.i == tr.i_stop
    assert last.residual < cfg.tight_tol and prev.residual < cfg.tight_tol
    rel = (prev.q0 - last.q0) / max(abs(last.q0), 1e-12)
    assert rel <= cfg.stop_rel


def test_objective_monotone_once_tight():
    for seed in (1, 3, 5):
        p, xstar = random_feasible_qcqp(seed)
        cfg = SequentialConfig(eta=50.0, init=xstar, max_rounds=8,
                               stop_rel=None)
        tr = run(p, cfg)
        tight = [r for r in tr.rounds if r.residual < cfg.tight_tol]
        for a, b in zip(tight, tight[1:]):
            assert b.q0 <= a.q0 + 1e-6


def test_run_deterministic():
    p = _shifted_ball_problem((1.0, 1.5))
    cfg = SequentialConfig(eta=5.0, init="zero", max_rounds=10)
    t1 = run(p, cfg)
    t2 = run(p, cfg)
    assert t1.status == t2.status
    assert t1.eta == t2.eta
    assert len(t1.rounds) == len(t2.rounds)
    for a, b in zip(t1.rounds, t2.rounds):
        assert a.q0 == b.q0
        assert a.residual == b.residual
        assert a.solver_status == b.solver_status


def test_run_rejects_bad_eta():
    p = _shifted_ball_problem()
    with pytest.raises(ValueError):
        run(p, SequentialConfig(eta=-1.0))


def test_tune_eta_matches_linear_scan():
    p = _shifted_ball_problem((0.5, -1.2))
    cfg = SequentialConfig(init="zero", tune_rounds=3,
                           solver=SolverSettings(max_iterations=80))
    x0 = np.zeros(2)
    eta = tune_eta(p, cfg, x0=x0)
    relaxation = lift(p, cfg.relaxation, penalized=True)
    for cand in eta_grid():
        rounds, _, _, _, _ = _run_rounds(p, cfg, x0, cand, relaxation, 3,
                                         stop_rel=None)
        ok = (len(rounds) == 3
              and all(r.residual < cfg.tight_tol for r in rounds))
        if ok:
            assert eta == cand
            break
    else:
        pytest.fail("linear scan found no tight penalty")


@pytest.mark.parametrize("pattern", [
    "monotone", "hole_above", "tight_below", "alternating"])
def test_tune_eta_bisection_contract(pattern, monkeypatch):
    # tightness per grid index, served by a stand-in for the round loop
    grid = eta_grid()
    last = len(grid) - 1
    tight = {
        "monotone": lambda i: i >= 9,
        "hole_above": lambda i: i >= 4 and i != 13,
        "tight_below": lambda i: i in (2, 3) or i >= 17,
        "alternating": lambda i: i % 2 == 1 or i == last,
    }[pattern]
    calls = []

    def fake_rounds(p, cfg, xhat, eta, relaxation, max_rounds, stop_rel,
                    stop_loose):
        idx = grid.index(eta)
        calls.append(idx)
        rounds = [types.SimpleNamespace(residual=0.0 if tight(idx) else 1.0)
                  for _ in range(max_rounds)]
        return rounds, None, None, xhat, "optimal"

    monkeypatch.setattr(sequential, "_run_rounds", fake_rounds)
    cfg = SequentialConfig(init="zero", tune_rounds=2)
    eta = tune_eta(_shifted_ball_problem(), cfg, x0=np.zeros(2))
    k = grid.index(eta)
    # no candidate is solved twice, and bisection's evaluations are always
    # consistent with monotone tightness: loose ones below tight ones
    assert len(calls) == len(set(calls)) <= math.ceil(math.log2(len(grid))) + 1
    loose = [i for i in calls if not tight(i)]
    assert max(loose, default=-1) < min(i for i in calls if tight(i))
    # the result is tight and its lower neighbour, evaluated, is loose
    assert tight(k)
    assert k == 0 or (k - 1 in calls and not tight(k - 1))
    if pattern == "monotone":
        assert k == 9


def test_tune_eta_sound_on_nonconvex():
    p, xstar = random_feasible_qcqp(7)
    cfg = SequentialConfig(init=xstar, tune_rounds=4,
                           solver=SolverSettings(max_iterations=80))
    eta = tune_eta(p, cfg, x0=xstar)
    assert eta in eta_grid()
    rounds, _, _, _, _ = _run_rounds(
        p, cfg, xstar, eta, lift(p, cfg.relaxation, penalized=True), 4,
        stop_rel=None)
    assert len(rounds) == 4
    assert all(r.residual < cfg.tight_tol for r in rounds)


def test_tune_eta_failure():
    # infeasible lifted equality: tr X = -1 can never hold, every solve fails
    bad = QuadraticFunction(np.eye(2), np.zeros(2), 1.0)
    p = QcqpProblem(n=2, objective=QuadraticFunction.affine([0.5, 0.0]),
                    equalities=[bad])
    cfg = SequentialConfig(init="zero", tune_rounds=2,
                           solver=SolverSettings(max_iterations=60))
    with pytest.raises(EtaTuningError) as err:
        tune_eta(p, cfg, x0=np.zeros(2))
    assert "no tight penalty" in str(err.value)
    assert err.value.tried


def _tuning_runs(monkeypatch, p, cfg, x0, stop):
    """tune_eta's eta, or its EtaTuningError.tried, and per candidate the
    count of its solve_conic calls and its rounds' residuals. With
    stop=False every candidate runs all its tune_rounds."""
    rounds_of, solve = sequential._run_rounds, sequential.solve_conic
    solves, runs = [], {}

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counted_rounds(*args, stop_loose, **kwargs):
        first = len(solves)
        out = rounds_of(*args, stop_loose=stop_loose and stop, **kwargs)
        runs[args[3]] = (len(solves) - first, [r.residual for r in out[0]])
        return out

    with monkeypatch.context() as m:
        m.setattr(sequential, "solve_conic", counted_solve)
        m.setattr(sequential, "_run_rounds", counted_rounds)
        try:
            result = tune_eta(p, cfg, x0=x0)
        except EtaTuningError as err:
            result = err.tried
    return result, runs


@pytest.mark.parametrize("grid", [None, [0.5, 1.0, 2.0]])
def test_tuning_candidate_stops_at_first_loose_round(grid, monkeypatch):
    # at eta = 2 rounds 1 and 2 are tight and round 3 is loose: tuning
    # solves that candidate through round 3 only, and every candidate
    # through its first loose round; tune_eta still decides as when every
    # candidate ran all tune_rounds, with the same eta or, on a grid whose
    # largest value is 2, the same EtaTuningError.tried: bisection finds
    # eta = 1 loose, and the largest candidate, checked last, loose too
    p, xstar = random_feasible_qcqp(7)
    cfg = SequentialConfig(init=xstar, tune_rounds=4,
                           solver=SolverSettings(max_iterations=80))
    if grid is not None:
        monkeypatch.setattr(sequential, "eta_grid", lambda: grid)
    result, runs = _tuning_runs(monkeypatch, p, cfg, xstar, stop=True)
    full_result, full_runs = _tuning_runs(monkeypatch, p, cfg, xstar,
                                          stop=False)
    assert result == full_result
    assert (result == 5.0) if grid is None else (
        result == [(1.0, False), (2.0, False)])
    assert runs.keys() == full_runs.keys()
    for eta, (solves, residuals) in runs.items():
        full_solves, full_residuals = full_runs[eta]
        loose = [i for i, r in enumerate(full_residuals, 1)
                 if not r < cfg.tight_tol]
        assert solves == len(residuals) == (loose[0] if loose
                                            else full_solves)
        assert np.array_equal(residuals, full_residuals[:solves],
                              equal_nan=True)
    assert runs[2.0][0] == 3 and full_runs[2.0][0] == 4


@pytest.mark.parametrize("pattern", ["monotone", "all_loose",
                                     "largest_loose"])
def test_tune_eta_checks_largest_candidate_last(pattern, monkeypatch):
    # the bisection runs first; the largest candidate is evaluated only
    # when the bisection ends on it, and tuning fails only if it is loose
    grid = eta_grid()
    last = len(grid) - 1
    tight = {
        "monotone": lambda i: i >= 9,
        "all_loose": lambda i: False,
        "largest_loose": lambda i: 9 <= i < last,
    }[pattern]
    calls = []

    def fake_rounds(p, cfg, xhat, eta, relaxation, max_rounds, stop_rel,
                    stop_loose):
        idx = grid.index(eta)
        calls.append(idx)
        rounds = [types.SimpleNamespace(residual=0.0 if tight(idx) else 1.0)
                  for _ in range(max_rounds)]
        return rounds, None, None, xhat, "optimal"

    monkeypatch.setattr(sequential, "_run_rounds", fake_rounds)
    cfg = SequentialConfig(init="zero", tune_rounds=2)
    if pattern == "all_loose":
        with pytest.raises(EtaTuningError) as err:
            tune_eta(_shifted_ball_problem(), cfg, x0=np.zeros(2))
        assert calls[-1] == last and last not in calls[:-1]
        assert err.value.tried[-1] == (grid[last], False)
        assert [eta for eta, _ in err.value.tried] == sorted(
            grid[i] for i in calls)
        return
    k = grid.index(tune_eta(_shifted_ball_problem(), cfg, x0=np.zeros(2)))
    assert last not in calls
    assert k == 9 and tight(k) and k - 1 in calls and not tight(k - 1)


def test_tune_eta_solve_budget(monkeypatch):
    # tuning solves on a small nonconvex instance: the bisection's
    # candidates alone, each through its first loose round, and never the
    # largest grid value
    p, xstar = random_feasible_qcqp(7)
    cfg = SequentialConfig(init=xstar, tune_rounds=4,
                           solver=SolverSettings(max_iterations=80))
    result, runs = _tuning_runs(monkeypatch, p, cfg, xstar, stop=True)
    assert result == 5.0
    assert max(eta_grid()) not in runs
    assert {eta: solves for eta, (solves, _) in runs.items()} == {
        0.05: 1, 0.5: 1, 2.0: 3, 5.0: 4}
    assert sum(solves for solves, _ in runs.values()) == 9


def test_auto_eta_through_run():
    p = _shifted_ball_problem()
    cfg = SequentialConfig(eta="auto", init="zero", max_rounds=12,
                           tune_rounds=3)
    tr = run(p, cfg)
    assert tr.eta in eta_grid()
    assert tr.i_feas is not None
    assert p.violation(tr.x_final) <= 1e-6


def test_trace_csv_format():
    p = _shifted_ball_problem()
    tr = run(p, SequentialConfig(eta=5.0, init="zero", max_rounds=5))
    text = trace_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "i,q0,lifted_obj,residual,time_s"
    assert len(lines) == len(tr.rounds) + 1
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) == pytest.approx(tr.rounds[0].q0, rel=1e-10)


def test_rounds_record_how_their_solve_ended(monkeypatch):
    # every round carries its solve's iterations, stop reason and fallback,
    # and trace_json writes them
    from qcqpen import parse_qplib
    from _support import BOX_QP
    solutions = []

    def recorded(prog, settings=None, start=None):
        solutions.append(solve_conic(prog, settings, start=start))
        return solutions[-1]
    monkeypatch.setattr(sequential, "solve_conic", recorded)
    tr = run(parse_qplib(BOX_QP), SequentialConfig(eta=1.0, init="zero",
                                                   max_rounds=3,
                                                   stop_rel=None))
    assert len(tr.rounds) == len(solutions) == 3
    for r, sol in zip(tr.rounds, solutions):
        assert (r.solver_status, r.iterations, r.stop_reason, r.fallback) == (
            sol.status, sol.iterations, sol.stop_reason, sol.fallback)
        assert r.iterations > 0 and r.stop_reason == "converged"
    doc = json.loads(trace_json(tr))
    assert [(r["iterations"], r["stop_reason"], r["fallback"])
            for r in doc["rounds"]] == [(r.iterations, r.stop_reason,
                                         r.fallback) for r in tr.rounds]


def test_trace_json_fields():
    p = _shifted_ball_problem()
    tr = run(p, SequentialConfig(eta=5.0, init="zero", max_rounds=5),
             label="demo")
    doc = json.loads(trace_json(tr))
    assert doc["label"] == "demo"
    assert doc["eta"] == 5.0
    assert doc["i_feas"] == tr.i_feas
    assert doc["status"] == tr.status
    assert len(doc["rounds"]) == len(tr.rounds)
    assert doc["rounds"][0]["solver_status"] in ("optimal", "near_optimal")
    assert doc["x_final"] == list(tr.x_final)


def test_trace_json_writes_every_field():
    # one iteration leaves the round's solve short of optimal: its record
    # holds NaN values
    failed = run(_shifted_ball_problem(),
                 SequentialConfig(eta=5.0, init="zero", max_rounds=3,
                                  solver=SolverSettings(max_iterations=1)))
    assert failed.status.startswith("solver_failure:")
    # |x|^2 + 1 <= 0 has no feasible point, so restoration fails: inf
    infeasible = QcqpProblem(
        n=2, objective=QuadraticFunction(np.eye(2), np.zeros(2)),
        inequalities=[QuadraticFunction(np.eye(2), np.zeros(2), 1.0)])
    unrestored = run(infeasible, SequentialConfig(
        eta=1.0, init=np.array([0.5, 0.0]), max_rounds=1))
    assert unrestored.restore_distance == float("inf")
    trace_keys = [f.name for f in fields(SequentialTrace)]
    round_keys = [f.name for f in fields(RoundRecord)]
    for tr in (failed, unrestored):
        text = trace_json(tr)
        doc = json.loads(text)
        assert list(doc) == trace_keys
        assert doc["rounds"] and all(list(r) == round_keys
                                     for r in doc["rounds"])
        assert doc["x_init"] == tr.x_init.tolist()
    assert '"q0": NaN' in trace_json(failed)
    assert '"restore_distance": Infinity' in trace_json(unrestored)


def test_reported_point_restored_onto_ball():
    # zero rounds report the anchor itself: a point just outside |x| <= 1
    # is moved onto the ball by a minimum-norm linearization step
    p = _shifted_ball_problem()
    x0 = np.array([1.0 + 1e-4, 0.0])
    tr = run(p, SequentialConfig(eta=1.0, init=x0, max_rounds=0))
    assert tr.violation_before == pytest.approx(p.violation(x0), rel=1e-12)
    assert tr.violation_before > 2e-4
    assert tr.violation_after == p.violation(tr.x_final) < 1e-8
    assert tr.restore_distance == pytest.approx(1e-4, rel=1e-3)
    assert tr.restore_distance == np.linalg.norm(tr.x_final - x0)
    doc = json.loads(trace_json(tr))
    assert doc["restore_distance"] == tr.restore_distance
    assert doc["violation_before"] == tr.violation_before
    assert doc["violation_after"] == tr.violation_after
    # within tight_tol the point is left alone
    inside = np.array([1.0 + 1e-8, 0.0])
    tr = run(p, SequentialConfig(eta=1.0, init=inside, max_rounds=0))
    assert tr.restore_distance == 0.0
    assert np.array_equal(tr.x_final, inside)
    assert tr.violation_before == tr.violation_after > 0.0


def test_failed_restoration_keeps_the_point():
    # |x|^2 + 1 <= 0 has no feasible point, so the step fails
    p = QcqpProblem(n=2, objective=QuadraticFunction(np.eye(2), np.zeros(2)),
                    inequalities=[QuadraticFunction(np.eye(2), np.zeros(2),
                                                    1.0)])
    x0 = np.array([0.5, 0.0])
    tr = run(p, SequentialConfig(eta=1.0, init=x0, max_rounds=0))
    assert tr.restore_distance == float("inf")
    assert np.array_equal(tr.x_final, x0)
    assert tr.violation_before == tr.violation_after == p.violation(x0)
    assert json.loads(trace_json(tr))["restore_distance"] == float("inf")


def test_tuned_round_point_restored_feasible(monkeypatch):
    # the benchmark's feas_n2: the tuned round ends within tight_tol, so
    # restoration leaves its point alone
    inst = perfbench_module("inputs").feasible_qcqp(1, 2, 2)
    p = inst.problem
    cfg = SequentialConfig(eta="auto", max_rounds=1, stop_rel=None,
                           init=inst.xstar,
                           solver=SolverSettings(max_iterations=80))
    tr = run(p, cfg)
    assert tr.i_feas == 1
    assert tr.violation_before == tr.violation_after <= cfg.tight_tol
    assert tr.restore_distance == 0.0
    assert p.objective.value(tr.x_final) <= p.objective.value(inst.xstar)
    # the same round made to end 2e-6 outside its first constraint, more
    # than the 1e-6 that criterion 3 allows, with the other constraint held
    # to first order: run restores the point to where the round ended
    x = tr.x_final
    target = np.zeros(len(p.constraints))
    target[0] = 2e-6 - p.constraints[0].value(x)
    shift = np.linalg.lstsq(jacobian(p, x), target, rcond=None)[0]

    def outside(*args, _rounds=sequential._run_rounds, **kwargs):
        rounds, i_feas, i_stop, x, status = _rounds(*args, **kwargs)
        return rounds, i_feas, i_stop, x + shift, status
    monkeypatch.setattr(sequential, "_run_rounds", outside)
    tr = run(p, replace(cfg, eta=tr.eta))
    assert tr.i_feas == 1
    assert tr.violation_before > 1e-6
    assert tr.violation_after == p.violation(tr.x_final) < 1e-9
    assert tr.restore_distance == pytest.approx(np.linalg.norm(shift),
                                                rel=1e-2)
    assert p.objective.value(tr.x_final) <= p.objective.value(inst.xstar)


def test_round_residuals_keep_scalar_arithmetic(monkeypatch):
    # from the degree-5 example's start x1, numpy's array square of x and
    # its scalar power differ in the last bit on one of the first five
    # rounds, which moves that round's residual; extract keeps the scalar
    # form, X_ii - x_i ** 2 per stored diagonal summed left to right
    from qcqpen import parse_poly, reformulate
    inputs = perfbench_module("inputs")
    prob, _ = reformulate(parse_poly(inputs.POLY_EXAMPLE))
    residuals = []

    def checked(sol, emap, _extract=sequential.extract):
        pt = _extract(sol, emap)
        x = sol.u[:emap.n]
        ref = float(sum(sol.u[emap.X_index[(i, i)]] - x[i] ** 2
                        for i in emap.diag_stored))
        residuals.append((pt.residual.hex(), ref.hex()))
        return pt
    monkeypatch.setattr(sequential, "extract", checked)
    run(prob, SequentialConfig(eta=inputs.POLY_ETA, max_rounds=5,
                               stop_rel=None,
                               init=np.array(inputs.POLY_STARTS["x1"])))
    assert len(residuals) == 5
    assert [got for got, _ in residuals] == [ref for _, ref in residuals]


def test_sysid_rounds_stay_tight():
    # the r=2 system-identification programs solve optimal with trace
    # residuals between about -2e-6 and -1e-7, within the solver's float64
    # accuracy on them; the one-sided test keeps those rounds tight, where
    # comparing |residual| with tight_tol leaves this run no tight round
    inst = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01, seed=0))
    cfg = SequentialConfig(relaxation=RelaxationConfig(r=2), eta=40.0,
                           init="zero", max_rounds=2, stop_rel=None)
    tr = run(inst.problem, cfg)
    assert [r.solver_status for r in tr.rounds] == ["optimal", "optimal"]
    assert tr.i_feas == 1


def test_total_time_counts_initial_point_and_tuning():
    import time
    p = _shifted_ball_problem()
    cfg = SequentialConfig(eta="auto", init="relaxation", max_rounds=3,
                           tune_rounds=3)
    t0 = time.perf_counter()
    tr = run(p, cfg)
    wall = time.perf_counter() - t0
    assert tr.init_s > 0.0 and tr.tune_s > 0.0
    rounds_s = sum(r.time_s for r in tr.rounds)
    assert tr.total_time() == pytest.approx(tr.init_s + tr.tune_s + rounds_s)
    assert tr.tune_s > rounds_s
    assert tr.total_time() <= wall
    doc = json.loads(trace_json(tr))
    assert doc["init_s"] == tr.init_s and doc["tune_s"] == tr.tune_s
    fixed = run(p, SequentialConfig(eta=5.0, init="zero", max_rounds=2))
    assert fixed.tune_s == 0.0


# the names perfbench/spans.py replaces in qcqpen.sequential to time each
# layer; a refactor that stops calling one of them through the module
# namespace would silently drop that layer from the benchmark
_SPAN_NAMES = ("run", "resolve_initial_point", "tune_eta", "build_relaxation",
               "build_penalized", "extract", "solve_conic")


def test_layer_calls_go_through_sequential_namespace(monkeypatch):
    import qcqpen.sequential as sequential
    calls = dict.fromkeys(_SPAN_NAMES, 0)
    for name in _SPAN_NAMES:
        def counted(*args, _fn=getattr(sequential, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sequential, name, counted)
    p = _shifted_ball_problem()
    cfg = SequentialConfig(eta=0.5, max_rounds=3, stop_rel=None,
                           init="relaxation")
    trace = sequential.run(p, cfg)
    assert len(trace.rounds) == 3
    # the initial relaxation takes one solve and one extract over the run's
    # penalized cone, which on a full moment lifting needs no block for the
    # penalty, then each round one build_penalized, one solve_conic and one
    # extract
    assert calls == {"run": 1, "resolve_initial_point": 1, "tune_eta": 0,
                     "build_relaxation": 0, "build_penalized": 3,
                     "extract": 4, "solve_conic": 4}
    calls.update(dict.fromkeys(_SPAN_NAMES, 0))
    sequential.run(p, SequentialConfig(max_rounds=1, stop_rel=None,
                                       init="zero", tune_rounds=2))
    assert calls["run"] == calls["resolve_initial_point"] == 1
    assert calls["tune_eta"] == 1
    assert calls["build_penalized"] == calls["solve_conic"] >= 2


def test_initial_relaxation_keeps_its_lift_when_penalty_adds_blocks(
        monkeypatch):
    # x2 appears in no term, so an r = 2 sparse lifting stores no X_22 and
    # the penalized lift gives it a 2x2 block of its own, whose X_22 the
    # relaxation's objective leaves free: the initial point comes from the
    # relaxation's own lift, bit for bit as solve_relaxation gives it
    ball = QuadraticFunction(np.diag([1.0, 1.0, 0.0]), np.zeros(3), -1.0)
    A0 = np.zeros((3, 3))
    A0[0, 1] = A0[1, 0] = 0.5
    p = QcqpProblem(n=3, objective=QuadraticFunction(
        A0, np.array([-0.5, 0.25, 0.5])), inequalities=[ball],
        lb=-np.ones(3), ub=np.ones(3))
    cfg = SequentialConfig(relaxation=RelaxationConfig(r=2), eta=1.0,
                           max_rounds=2, stop_rel=None)
    assert lift(p, cfg.relaxation, penalized=True)[1].penalty_blocks == 1
    calls = []
    build = sequential.build_relaxation

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(sequential, "build_relaxation", counted)
    trace = run(p, cfg)
    assert len(calls) == 1
    want = extract(*sequential.solve_relaxation(p, cfg.relaxation,
                                                cfg.solver)).x
    assert trace.x_init.tobytes() == want.tobytes()


def test_tune_eta_alone_shares_one_lift(monkeypatch):
    # tune_eta(p, cfg) with init="relaxation" on a full moment lifting lifts
    # once and solves the initial relaxation over that cone too
    counts = {"lift": 0, "build_relaxation": 0}
    for name in counts:
        def counted(*args, _fn=getattr(sequential, name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sequential, name, counted)
    cones = set()
    solve = sequential.solve_conic

    def recorded(prog, *args, **kwargs):
        cones.add(id(prog.cone))
        return solve(prog, *args, **kwargs)
    monkeypatch.setattr(sequential, "solve_conic", recorded)
    tune_eta(_shifted_ball_problem(), SequentialConfig(tune_rounds=2))
    assert counts == {"lift": 1, "build_relaxation": 0}
    assert len(cones) == 1


# per KKT path, the maps that one cone builds for it
_KKT_MAPS = {"full": {"_FullKkt": 1},
             "sparse": {"_NormalMap": 1, "_SparseKkt": 1},
             "dual": {"_DualKkt": 1}}
_KKT_CLASSES = ("_NormalMap", "_SparseKkt", "_FullKkt", "_DualKkt")


@pytest.mark.parametrize("path", list(_KKT_MAPS))
def test_one_structure_per_run_of_rounds(monkeypatch, path):
    # a run of rounds lifts nothing: it takes a relaxation lifted once,
    # whose cone builds its KKT maps once, and a round's program is only an
    # objective over that cone: the objective's lifted row plus the penalty.
    # tune_eta lifts once for all its candidates; run(eta="auto") lifts once
    # and hands that relaxation to tune_eta and to its final rounds
    import qcqpen.solver as solver
    if path != "full":
        monkeypatch.setattr(solver, "_FULL_KKT_ORDER", 0)
        monkeypatch.setattr(solver, "_SPARSE_SHARE",
                            np.inf if path == "sparse" else 0.0)
    counts = dict.fromkeys(["lift", "_run_rounds", *_KKT_CLASSES], 0)

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in ("lift", "_run_rounds"):
        monkeypatch.setattr(sequential, name,
                            counted(getattr(sequential, name), name))
    for name in _KKT_CLASSES:
        cls = getattr(solver, name)
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__, name))
    built = []
    build = sequential.build_penalized

    def recorded(rel, xhat, eta):
        prog, emap = build(rel, xhat, eta=eta)
        built.append((prog, emap, np.array(xhat), eta))
        return prog, emap
    monkeypatch.setattr(sequential, "build_penalized", recorded)

    def expected(lifts, runs):
        return {"lift": lifts, "_run_rounds": runs,
                **{name: lifts * _KKT_MAPS[path].get(name, 0)
                   for name in _KKT_CLASSES}}

    p = _shifted_ball_problem()
    cfg = SequentialConfig(init="zero", tune_rounds=2)
    relaxation = sequential.lift(p, cfg.relaxation, penalized=True)
    rounds = sequential._run_rounds(p, cfg, np.zeros(2), 0.5, relaxation, 3,
                                    None)[0]
    assert len(rounds) == len(built) == 3
    assert counts == expected(1, 1)
    progs = [prog for prog, *_ in built]
    assert progs[0].cone is progs[1].cone is progs[2].cone
    assert solver._kkt_path(progs[0].cone) == path
    assert all(set(vars(prog)) == {"cone", "c", "c0"} for prog in progs)
    assert not np.array_equal(progs[0].c, progs[1].c)
    obj = p.objective
    for prog, emap, xhat, eta in built:
        c = np.zeros(prog.cone.n_vars)
        c[:2] = 2.0 * obj.b - 2.0 * eta * xhat
        for (i, j), k in emap.X_index.items():
            c[k] = obj.A[i, j] if i == j else 2.0 * obj.A[i, j]
            c[k] += eta if i == j else 0.0
        assert np.array_equal(prog.c, c)
        assert prog.c0 == obj.c + eta * float(xhat @ xhat)

    counts.update(dict.fromkeys(counts, 0))
    tune_eta(p, cfg, x0=np.zeros(2))
    assert counts["_run_rounds"] >= 2
    assert counts == expected(1, counts["_run_rounds"])

    counts.update(dict.fromkeys(counts, 0))
    sequential.run(p, replace(cfg, eta="auto", max_rounds=2))
    assert counts["_run_rounds"] >= 3
    assert counts == expected(1, counts["_run_rounds"])


@pytest.mark.parametrize("seed", [0, 1])
def test_later_rounds_start_warm_from_round_one(seed):
    # run's rounds after the first start from round 1's restart; against
    # the same rounds all solved cold, every round is optimal, the same
    # rounds are tight and q0 agrees round by round (at most 5.9e-7
    # relative measured on these seeds)
    inst = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01,
                                 seed=seed))
    p = inst.problem
    cfg = SequentialConfig(relaxation=RelaxationConfig(r=2), eta=40.0,
                           init="zero", max_rounds=5, stop_rel=None)
    tr = run(p, cfg)
    cold, i_feas, _, _, _ = _run_rounds(
        p, cfg, np.zeros(p.n), 40.0, lift(p, cfg.relaxation, penalized=True),
        5, stop_rel=None)
    assert [r.start for r in tr.rounds] == ["cold"] + ["warm"] * 4
    assert {r.start for r in cold} == {"cold"}
    assert all(r.solver_status == "optimal" for r in tr.rounds + cold)
    assert tr.i_feas == i_feas
    assert [r.residual < cfg.tight_tol for r in tr.rounds] == \
        [r.residual < cfg.tight_tol for r in cold]
    assert [r.q0 for r in tr.rounds] == pytest.approx([r.q0 for r in cold],
                                                      rel=2e-6)
    assert sum(r.iterations for r in tr.rounds) < \
        sum(r.iterations for r in cold)


def _round_fields(r):
    """A round's record but for its clock and how its solve started."""
    return [getattr(r, f.name) for f in fields(r)
            if f.name not in ("time_s", "start", "discarded_iterations")]


def test_warm_solve_not_optimal_is_solved_again_cold(monkeypatch, caplog,
                                                     capsys):
    # a warm solve that ends below optimal is discarded: the round is the
    # cold solve's, bit for bit, marked "retried"; the warm solve's status
    # and stop reason go to the qcqpen.sequential logger at DEBUG
    from qcqpen import parse_qplib
    from _support import BOX_QP
    p = parse_qplib(BOX_QP)
    cfg = SequentialConfig(eta=1.0, init="zero", max_rounds=3,
                           stop_rel=None)
    solve, warm, warm_sols = sequential.solve_conic, [], []

    def degraded(prog, settings=None, start=None):
        sol = solve(prog, settings, start=start)
        warm.append(start is not None)
        if not warm[-1]:
            return sol
        warm_sols.append(sol)
        return replace(sol, status="near_optimal")
    monkeypatch.setattr(sequential, "solve_conic", degraded)
    with caplog.at_level(logging.DEBUG, logger="qcqpen.sequential"):
        tr = run(p, cfg)
    assert [r.start for r in tr.rounds] == ["cold", "retried", "retried"]
    assert warm == [False, True, False, True, False]
    # each retried round counts its discarded warm solve's iterations
    assert [r.discarded_iterations for r in tr.rounds] == \
        [0] + [sol.iterations for sol in warm_sols]
    # the run equals the same rounds all solved cold, bit for bit
    monkeypatch.setattr(sequential, "solve_conic", solve)
    cold, *_, x, _ = _run_rounds(p, cfg, np.zeros(p.n), 1.0,
                                 lift(p, cfg.relaxation, penalized=True), 3,
                                 stop_rel=None)
    assert [_round_fields(r) for r in tr.rounds] == \
        [_round_fields(r) for r in cold]
    assert tr.x_final.tobytes() == x.tobytes()
    messages = [rec.getMessage() for rec in caplog.records
                if rec.name == "qcqpen.sequential"]
    assert len(messages) == 2
    assert all("near_optimal (converged)" in m for m in messages)
    assert capsys.readouterr() == ("", "")


def test_tuning_solves_start_cold(monkeypatch):
    # tune_eta never passes a start, and neither does the final run at a
    # tuned eta; at a given eta the rounds after the first start warm
    solve, starts = sequential.solve_conic, []

    def spy(prog, settings=None, start=None):
        starts.append(start is not None)
        return solve(prog, settings, start=start)
    monkeypatch.setattr(sequential, "solve_conic", spy)
    p = _shifted_ball_problem()
    cfg = SequentialConfig(init="zero", max_rounds=3, stop_rel=None,
                           tune_rounds=2)
    tune_eta(p, cfg, x0=np.zeros(2))
    assert starts and not any(starts)
    starts.clear()
    tr = run(p, cfg)
    assert len(tr.rounds) == 3
    assert starts and not any(starts)
    assert {r["start"] for r in json.loads(trace_json(tr))["rounds"]} == \
        {"cold"}
    starts.clear()
    tr = run(p, replace(cfg, eta=tr.eta))
    assert starts == [False, True, True]
    assert [r["start"] for r in json.loads(trace_json(tr))["rounds"]] == \
        ["cold", "warm", "warm"]


@pytest.mark.parametrize("n", [3, 5])
def test_tuned_run_repeats_its_cold_rounds(n):
    # the benchmark's feas_n3 and feas_n5 at ten rounds: a tuned eta is the
    # smallest whose rounds are tight, where a warm start moves the verdict
    # (started from round 1's restart, feas_n5's round 5 went loose, and
    # feas_n3's run ended at round 5 on a solve stopped at the iteration
    # limit); the final run is the same rounds all solved cold, bit for
    # bit, the tuner's first six among them
    inst = perfbench_module("inputs").feasible_qcqp(1, 2, n)
    p = inst.problem
    cfg = SequentialConfig(eta="auto", max_rounds=10, stop_rel=None,
                           init=inst.xstar,
                           solver=SolverSettings(max_iterations=80))
    tr = run(p, cfg)
    cold, i_feas, _, x, _ = _run_rounds(
        p, cfg, inst.xstar, tr.eta, lift(p, cfg.relaxation, penalized=True),
        10, stop_rel=None)
    assert len(tr.rounds) == 10
    assert {r.start for r in tr.rounds} == {"cold"}
    assert [_round_fields(r) for r in tr.rounds] == \
        [_round_fields(r) for r in cold]
    assert tr.i_feas == i_feas == 1
    assert all(r.residual < cfg.tight_tol for r in tr.rounds[:6])
    assert tr.x_final.tobytes() == x.tobytes()
