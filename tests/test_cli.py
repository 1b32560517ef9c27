"""End to end tests for the command line entry point."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qcqpen import (QcqpProblem, QuadraticFunction, RelaxationConfig,
                    SequentialConfig, build_relaxation, check_regularity,
                    gen_sysid, load_problem, parse_poly, problem_from_json,
                    problem_to_json, reformulate, run, solve_conic,
                    sysid_from_json, sysid_to_json, SysIdParams, trace_csv,
                    tune_eta)
from qcqpen import cli
from qcqpen.cli import main

from _support import (MALFORMED_V2, POLY_EXAMPLE, nan_direction_from,
                      perfbench_module)

BALL_POLY = "min x^2 + y^2 - 2*x st x^2 + y^2 - 1 <= 0\n"

QPLIB_TEXT = """\
! tiny box QP
tiny1
QBC
minimize
2
3
1 1 2.0
2 2 4.0
2 1 1.0
0.0
1
1 -1.0
0.5
1.0e30
-1.0
0
1.0
0
"""


def _ball_problem():
    """min |x|^2 - 2 x1  s.t.  |x|^2 <= 1, minimizer (1, 0)."""
    I = np.eye(2)
    obj = QuadraticFunction(I, np.array([-1.0, 0.0]), 0.0)
    con = QuadraticFunction(I, np.zeros(2), -1.0)
    return QcqpProblem(2, obj, [con], [])


def _infeasible_problem():
    """|x|^2 + 1 = 0 has no solution and no tight relaxation."""
    I = np.eye(2)
    obj = QuadraticFunction(I, np.zeros(2), 0.0)
    eq = QuadraticFunction(I, np.zeros(2), 1.0)
    return QcqpProblem(2, obj, [], [eq])


@pytest.fixture
def ball_json(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(problem_to_json(_ball_problem()))
    return str(path)


@pytest.fixture
def infeasible_json(tmp_path):
    path = tmp_path / "nofeas.json"
    path.write_text(problem_to_json(_infeasible_problem()))
    return str(path)


# ---------------------------------------------------------------------------
# relax


def test_relax_matches_library(ball_json, capsys):
    rc = main(["relax", ball_json])
    out = capsys.readouterr().out
    prog, _ = build_relaxation(_ball_problem(), RelaxationConfig())
    sol = solve_conic(prog)
    assert rc == 0
    assert out == "bound: %.6f\nstatus: %s\n" % (sol.pcost, sol.status)
    assert sol.status in ("optimal", "near_optimal")


def test_relax_reads_qplib_and_poly(tmp_path, capsys):
    qp = tmp_path / "tiny.qplib"
    qp.write_text(QPLIB_TEXT)
    assert main(["relax", str(qp)]) == 0
    assert capsys.readouterr().out.startswith("bound: ")

    poly = tmp_path / "ball.poly"
    poly.write_text(BALL_POLY)
    assert main(["relax", str(poly)]) == 0
    out = capsys.readouterr().out
    # degree-2 input lifts with no auxiliaries, so the bound is the same
    prog, _ = build_relaxation(_ball_problem(), RelaxationConfig())
    sol = solve_conic(prog)
    assert out.splitlines()[0] == "bound: %.6f" % sol.pcost


def test_relax_unbounded_exits_2(tmp_path, capsys):
    p = QcqpProblem(2, QuadraticFunction(np.zeros((2, 2)),
                                         np.array([0.5, 0.0]), 0.0), [], [])
    path = tmp_path / "unb.json"
    path.write_text(problem_to_json(p))
    rc = main(["relax", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "solver failure:" in err


def test_relax_solver_breakdown_exits_2(tmp_path, capsys, monkeypatch):
    # this relaxation's solve stops "solve_failed" at a non-finite
    # direction, its KKT solves turned NaN from the 20th on
    path = tmp_path / "sysid.json"
    path.write_text(sysid_to_json(gen_sysid(
        SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01, seed=0))))
    nan_direction_from(monkeypatch, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["relax", str(path), "--r", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("solver failure:")


@pytest.mark.parametrize("command", [["relax"],
                                     ["solve", "--init", "relaxation"]])
def test_relaxation_failure_names_stop_reason(command, tmp_path, capsys,
                                             monkeypatch):
    # both commands solve this relaxation, which stops "solve_failed" at a
    # non-finite direction, its KKT solves turned NaN from the 20th on,
    # with status iteration_limit
    path = tmp_path / "sysid.json"
    path.write_text(sysid_to_json(gen_sysid(
        SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01, seed=0))))
    nan_direction_from(monkeypatch, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main([command[0], str(path), "--r", "2", *command[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert "solve_failed" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_output_and_json(ball_json, tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    rc = main(["solve", ball_json, "--eta", "0.5", "--max-rounds", "8",
               "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0

    p = _ball_problem()
    trace = run(p, SequentialConfig(eta=0.5, max_rounds=8, init="zero"))
    lines = out.splitlines()
    assert lines[0] == "status: %s" % trace.status
    assert lines[1] == "eta: 0.5"
    assert lines[2] == "i_feas: %d" % trace.i_feas
    assert lines[3] == "i_stop: %s" % ("" if trace.i_stop is None
                                       else trace.i_stop)
    assert lines[4] == "objective: %.12g" % trace.objective
    assert lines[5].startswith("violation: ")

    doc = json.loads(out_path.read_text())
    assert doc["x"] == trace.x_final.tolist()
    assert doc["eta"] == 0.5
    assert doc["i_feas"] == trace.i_feas
    assert doc["status"] == trace.status
    assert abs(doc["objective"] - trace.objective) < 1e-12
    assert doc["violation"] <= 1e-6
    assert abs(doc["x"][0] - 1.0) < 1e-2 and abs(doc["x"][1]) < 1e-2


def test_solve_reports_the_restored_point(tmp_path, capsys, monkeypatch):
    # feas_n2's tuned round moved 2e-6 outside its first constraint, as in
    # test_tuned_round_point_restored_feasible: run restores x_final, and
    # the objective printed and written is q0 at that point, not the round's
    import qcqpen.sequential as sequential
    from qcqpen import SolverSettings, jacobian

    inst = perfbench_module("inputs").feasible_qcqp(1, 2, 2)
    p = inst.problem
    cfg = SequentialConfig(eta="auto", max_rounds=1, stop_rel=None,
                           init=inst.xstar,
                           solver=SolverSettings(max_iterations=80))
    x = run(p, cfg).x_final
    target = np.zeros(len(p.constraints))
    target[0] = 2e-6 - p.constraints[0].value(x)
    shift = np.linalg.lstsq(jacobian(p, x), target, rcond=None)[0]

    def outside(*args, _rounds=sequential._run_rounds, **kwargs):
        rounds, i_feas, i_stop, x, status = _rounds(*args, **kwargs)
        return rounds, i_feas, i_stop, x + shift, status
    monkeypatch.setattr(sequential, "_run_rounds", outside)
    prob_path, init_path = tmp_path / "feas_n2.json", tmp_path / "x0.json"
    out_path = tmp_path / "sol.json"
    prob_path.write_text(problem_to_json(p))
    init_path.write_text(json.dumps(inst.xstar.tolist()))
    rc = main(["solve", str(prob_path), "--eta", "auto", "--max-rounds", "1",
               "--stop-rel", "none", "--init", str(init_path),
               "--max-iterations", "80", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0

    doc = json.loads(out_path.read_text())
    objective = p.objective.value(np.array(doc["x"]))
    assert doc["objective"] == objective
    assert out.splitlines()[4] == "objective: %.12g" % objective
    assert doc["violation"] == p.violation(np.array(doc["x"])) < 1e-9


def test_solve_no_tight_round_exits_2(infeasible_json, capsys):
    rc = main(["solve", infeasible_json, "--eta", "1.0",
               "--max-rounds", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no tight round" in err


# ---------------------------------------------------------------------------
# sequential


def test_sequential_trace_outputs(ball_json, tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    rc = main(["sequential", ball_json, "--eta", "0.5", "--max-rounds", "6",
               "--trace-csv", str(csv_path),
               "--trace-json", str(json_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == csv_path.read_text()

    ref = trace_csv(run(_ball_problem(),
                        SequentialConfig(eta=0.5, max_rounds=6, init="zero")))
    got_lines, ref_lines = out.splitlines(), ref.splitlines()
    assert got_lines[0] == "i,q0,lifted_obj,residual,time_s"
    assert len(got_lines) == len(ref_lines)
    for g, r in zip(got_lines[1:], ref_lines[1:]):
        # everything but the wall-time column is deterministic
        assert g.split(",")[:4] == r.split(",")[:4]

    doc = json.loads(json_path.read_text())
    assert doc["label"] == "ball"
    assert doc["eta"] == 0.5
    assert len(doc["rounds"]) == len(got_lines) - 1


# ---------------------------------------------------------------------------
# tune-eta


def test_tune_eta_prints_library_value(ball_json, capsys):
    rc = main(["tune-eta", ball_json])
    out = capsys.readouterr().out
    eta = tune_eta(_ball_problem(), SequentialConfig(init="zero"))
    assert rc == 0
    assert out == "%.12g\n" % eta


def test_tune_eta_failure_exits_3(infeasible_json, capsys):
    rc = main(["tune-eta", infeasible_json])
    err = capsys.readouterr().err
    assert rc == 3
    assert "tuning failure:" in err
    assert "no tight penalty" in err


# ---------------------------------------------------------------------------
# check


def test_check_report_lines(ball_json, capsys):
    rc = main(["check", ball_json])
    out = capsys.readouterr().out
    rep = check_regularity(_ball_problem(), np.zeros(2))
    expect = [
        "n: %d" % rep.n,
        "r: %d" % rep.r,
        "distance_ub: %.6g" % rep.distance_ub,
        "quasi_binding: %s" % rep.quasi_binding,
        "sigma_min: %.6g" % rep.sigma_min,
        "sensitivity: %.6g" % rep.sensitivity,
        "pencil_norm_ub: %.6g" % rep.pencil_norm_ub,
        "combinatorial_factor: %.6g" % rep.combinatorial_factor,
        "threshold: %.6g" % rep.threshold,
        "tightness_condition: %s" % ("satisfied" if rep.satisfied
                                     else "not satisfied"),
    ]
    assert rc == 0
    assert out.splitlines() == expect


def test_check_point_file_and_r(ball_json, tmp_path, capsys):
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({"x": [1.0, 0.0]}))
    rc = main(["check", ball_json, "--point", str(pt), "--r", "2"])
    out = capsys.readouterr().out
    rep = check_regularity(_ball_problem(), np.array([1.0, 0.0]), r=2)
    assert rc == 0
    assert ("tightness_condition: %s"
            % ("satisfied" if rep.satisfied else "not satisfied")
            in out.splitlines())

    bad = tmp_path / "bad.json"
    bad.write_text("[1.0, 2.0, 3.0]")
    rc = main(["check", ball_json, "--point", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "coordinates" in err


# ---------------------------------------------------------------------------
# poly2qcqp


def test_poly2qcqp_writes_problem(tmp_path, capsys):
    src = tmp_path / "deg5.poly"
    src.write_text(POLY_EXAMPLE + "\n")
    dst = tmp_path / "deg5.json"
    rc = main(["poly2qcqp", str(src), str(dst)])
    out = capsys.readouterr().out
    assert rc == 0

    pp = parse_poly(POLY_EXAMPLE)
    prob, _ = reformulate(pp)
    from qcqpen import aux_count_bound
    assert out.splitlines() == [
        "variables: %d -> %d (%d auxiliary, bound %d)"
        % (pp.n, prob.n, prob.n - pp.n, aux_count_bound(pp)),
        "wrote %s" % dst,
    ]
    loaded = problem_from_json(dst.read_text())
    assert loaded.n == prob.n
    assert loaded.n_eq == prob.n_eq


def test_poly_parse_error_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.poly"
    src.write_text("min x^ st x = 0\n")
    rc = main(["poly2qcqp", str(src), str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "line" in err


# ---------------------------------------------------------------------------
# sysid-gen


def test_sysid_gen_writes_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["sysid-gen", "--n", "2", "--m", "1", "--T", "4", "--o", "3",
               "--sigma", "0.01", "--seed", "3",
               "--out", "inst.json", "--problem-out", "prob.json"])
    out = capsys.readouterr().out
    assert rc == 0

    inst = gen_sysid(SysIdParams(n=2, m=1, T=4, o=3, sigma=0.01, seed=3))
    assert out.splitlines() == [
        "wrote inst.json (n_vars=%d, inequalities=%d, equalities=%d)"
        % (inst.problem.n, inst.problem.n_ineq, inst.problem.n_eq),
        "wrote prob.json",
    ]
    reread = sysid_from_json((tmp_path / "inst.json").read_text())
    assert np.allclose(reread.A_true, inst.A_true)
    assert problem_from_json((tmp_path / "prob.json").read_text()).n \
        == inst.problem.n


def test_sysid_gen_problem_out_at_t200_is_sparse(tmp_path, capsys,
                                                monkeypatch):
    # the problem file lists each quadratic's nonzeros: under 1 MB at
    # T = 200, and it reads back as the instance file's problem, bit for bit
    monkeypatch.chdir(tmp_path)
    rc = main(["sysid-gen", "--n", "4", "--m", "3", "--T", "200", "--o",
               "160", "--sigma", "0.01", "--seed", "0",
               "--out", "inst.json", "--problem-out", "prob.json"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "prob.json").stat().st_size < 1_000_000
    got = load_problem("prob.json")
    want = load_problem("inst.json")
    assert got.n == want.n == 1624
    pairs = list(zip([got.objective] + got.constraints,
                     [want.objective] + want.constraints))
    assert len(pairs) == 1 + len(want.constraints)
    for g, w in pairs:
        for a, b in zip(g.terms + g.linear, w.terms + w.linear):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert g.c.hex() == w.c.hex()


def test_sysid_gen_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    params = SysIdParams(n=2, m=1, T=3, o=2, sigma=0.0, seed=1)
    rc = main(["sysid-gen", "--n", "2", "--m", "1", "--T", "3", "--o", "2",
               "--sigma", "0.0", "--seed", "1"])
    assert rc == 0
    assert (tmp_path / (params.label() + ".json")).exists()


# ---------------------------------------------------------------------------
# bench


def _write_bench_dir(tmp_path):
    d = tmp_path / "suite"
    d.mkdir()
    (d / "ball.json").write_text(problem_to_json(_ball_problem()))
    shifted = QcqpProblem(
        2, QuadraticFunction(np.eye(2), np.array([0.0, -2.0]), 4.0),
        [QuadraticFunction(np.eye(2), np.zeros(2), -1.0)], [])
    (d / "shift.json").write_text(problem_to_json(shifted))
    return d


def test_bench_stdout_and_refs(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    refs = tmp_path / "refs.csv"
    refs.write_text("instance,ref\nball,-1.0\nshift,1.0\n")
    rc = main(["bench", "--dir", str(d), "--refs", str(refs),
               "--eta", "0.5", "--max-rounds", "5"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "instance,eta,i_feas,i_stop,time_s,ub,gap_pct"
    assert len(lines) == 3
    assert lines[1].startswith("ball,0.5,")
    assert lines[2].startswith("shift,0.5,")
    # gap column filled for both rows
    for ln in lines[1:]:
        assert ln.split(",")[6] != ""


def test_bench_out_file_and_jobs(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    out_csv = tmp_path / "res.csv"
    rc = main(["bench", "--dir", str(d), "--jobs", "2",
               "--eta", "0.5", "--max-rounds", "5",
               "--out", str(out_csv)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3

    rc = main(["bench", "--dir", str(d), "--eta", "0.5",
               "--max-rounds", "5"])
    serial = capsys.readouterr().out.splitlines()
    for a, b in zip(lines[1:], serial[1:]):
        fa, fb = a.split(","), b.split(",")
        # identical apart from wall time
        assert fa[:4] == fb[:4] and fa[5:] == fb[5:]


def test_bench_failure_exits_2(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    (d / "broken.json").write_text('{"format": "nope"}')
    rc = main(["bench", "--dir", str(d), "--eta", "0.5",
               "--max-rounds", "5"])
    cap = capsys.readouterr()
    assert rc == 2
    assert "broken:" in cap.err
    assert len(cap.out.splitlines()) == 3  # header + the two good rows


def test_bench_empty_dir_exits_1(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    rc = main(["bench", "--dir", str(d)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no instances" in err


# ---------------------------------------------------------------------------
# config resolution and error paths


def test_dump_config_precedence(ball_json, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_rounds": 7, "eta": 2}))
    rc = main(["solve", ball_json, "--config", str(cfg), "--eta", "5",
               "--dump-config"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 0
    assert doc["eta"] == "5"          # flag beats config
    assert doc["max_rounds"] == 7     # config beats default
    assert doc["init"] == "zero"      # default survives
    assert doc["tight_tol"] == 1e-7
    assert doc["r"] == "n"


_RELAX_OPTS = ["r", "rlt", "bound_cuts", "sparsity"]
_SOLVER_OPTS = ["feasibility_tol", "gap_tol", "max_iterations"]
_SEQ_OPTS = _RELAX_OPTS + _SOLVER_OPTS + ["eta", "max_rounds", "tight_tol",
                                          "stop_rel", "init"]


@pytest.mark.parametrize("command, keys", [
    ("relax", _RELAX_OPTS + _SOLVER_OPTS),
    ("solve", _SEQ_OPTS),
    ("sequential", _SEQ_OPTS),
    ("tune-eta", _SEQ_OPTS),
    ("check", ["r"]),
    ("bench", _SEQ_OPTS),
])
def test_dump_config_option_sets(command, keys, ball_json, tmp_path, capsys):
    head = ([command, "--dir", str(tmp_path)] if command == "bench"
            else [command, ball_json])
    assert main(head + ["--dump-config"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys

    # a key of another command's option set is not this command's option
    other = "eta" if command in ("relax", "check") else "bogus"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": "n", other: 1}))
    assert main(head + ["--config", str(cfg), "--dump-config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config keys:") and other in err


def test_every_default_is_an_option_dest():
    # a default left behind when its flag goes would resolve silently
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for sp in sub.choices.values() for a in sp._actions}
    assert set(cli._DEFAULTS) <= dests


def test_unknown_config_key_exits_1(ball_json, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["solve", ball_json, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bogus" in err


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["relax", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


def test_malformed_instance_exits_1(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "mystery", "version": 1}')
    rc = main(["relax", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(MALFORMED_V2))
def test_malformed_v2_problem_exits_1(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_V2[name])
    rc = main(["relax", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name, field", [
    ("c_null", "'c'"), ("linear_number", "'linear'"),
    ("terms_null", "'terms'")])
def test_wrong_json_type_names_field(tmp_path, capsys, name, field):
    # a null or a number where a list or a number belongs is a reported
    # error naming the field, not a traceback
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_V2[name])
    rc = main(["relax", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and field in err


def test_unknown_flag_raises_systemexit_1(ball_json, tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    (work / "t.poly").write_text(POLY_EXAMPLE + "\n")
    monkeypatch.chdir(work)
    for argv in (
            ["solve", ball_json, "--bogus"],
            # commands that resolve no options take neither --config nor
            # --dump-config
            ["poly2qcqp", "t.poly", "out.json", "--dump-config"],
            ["sysid-gen", "--n", "2", "--m", "1", "--T", "4", "--o", "2",
             "--sigma", "0.1", "--config", "nonexistent.json"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1, argv
    assert os.listdir(work) == ["t.poly"]


def test_no_command_raises_systemexit_1():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1


# ---------------------------------------------------------------------------
# logging hook


@pytest.mark.parametrize("command", [
    ["relax"],
    ["sequential", "--eta", "0.5", "--max-rounds", "3"],
], ids=["relax", "sequential"])
def test_qcqp_log_debug_emits_solver_lines(ball_json, command):
    # fresh process: basicConfig only honours the first configuration
    code = ("import sys; from qcqpen.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, QCQP_LOG="debug")
    res = subprocess.run([sys.executable, "-c", code, command[0], ball_json]
                         + command[1:], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0
    # the iteration trace goes to stderr, through the solver's logger
    assert any(ln.startswith("DEBUG it ") for ln in res.stderr.splitlines())
    # stdout holds the command's own output and nothing else
    lines = res.stdout.splitlines()
    if command[0] == "relax":
        assert [ln.split(":")[0] for ln in lines] == ["bound", "status"]
    else:
        assert lines[0] == "i,q0,lifted_obj,residual,time_s"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert all(len(r) == 5 for r in rows)
