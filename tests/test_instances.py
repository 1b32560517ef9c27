import json
import os

import numpy as np
import pytest

from qcqpen import (QcqpProblem, QplibParseError, QuadraticFunction,
                    RelaxationConfig, SequentialConfig, SysIdParams,
                    UnsupportedProblemError, gen_sysid, load_problem,
                    parse_poly, parse_qplib, problem_from_json,
                    problem_to_json, read_refs_csv, reformulate, run,
                    sysid_from_json, sysid_to_json, write_results)
from _support import (BOX_QP, MALFORMED_V2, POLY_EXAMPLE, TWO_SIDED,
                      random_box_qcqp)


def test_parse_qplib_box_objective():
    p = parse_qplib(BOX_QP)
    assert p.name == "tiny1"
    assert p.n == 2
    assert p.n_ineq == 0 and p.n_eq == 0
    assert np.array_equal(p.objective.A, [[1.0, 0.5], [0.5, 2.0]])
    assert np.array_equal(p.objective.b, [-0.5, 0.0])
    assert p.objective.c == 0.5
    assert np.array_equal(p.lb, [-1.0, -1.0])
    assert np.array_equal(p.ub, [1.0, 1.0])
    # value check against the native convention: 0.5 x'Qx + g'x + c
    x = np.array([0.3, -0.7])
    Q = np.array([[2.0, 1.0], [1.0, 4.0]])
    want = 0.5 * x @ Q @ x - x[0] + 0.5
    assert p.objective.value(x) == pytest.approx(want, abs=1e-14)


def test_parse_qplib_two_sided_and_equality():
    p = parse_qplib(TWO_SIDED)
    # maximize flips the objective sign
    assert np.array_equal(p.objective.A, [[-1.0, 0.0], [0.0, 0.0]])
    # constraint 1 in [-1, 1] becomes two rows, upper first
    assert p.n_ineq == 2
    hi, lo = p.inequalities
    x = np.array([1.3, -0.4])
    assert hi.value(x) == pytest.approx(x[0] ** 2 - 1.0)
    assert lo.value(x) == pytest.approx(-x[0] ** 2 - 1.0)
    # constraint 2 with equal limits becomes one equality
    assert p.n_eq == 1
    eq = p.equalities[0]
    assert eq.value(x) == pytest.approx(x[1] ** 2 + x[0] + x[1] - 2.0)
    # bound defaults at the infinity threshold turn into no box
    assert p.lb is None and p.ub is None


def test_parse_qplib_trailing_blocks_tolerated():
    text = TWO_SIDED + "0.0\n1\n1 0.5\n0.0\n0\n0.0\n0\n2\n1 x\n2 y\n"
    p = parse_qplib(text)
    assert p.n == 2


def test_parse_qplib_errors():
    with pytest.raises(QplibParseError):
        parse_qplib("only_name\n")
    with pytest.raises(QplibParseError) as err:
        parse_qplib("name\nXXX\nminimize\n1\n")
    assert "problem type" in str(err.value)
    with pytest.raises(UnsupportedProblemError):
        parse_qplib("name\nQCI\nminimize\n1\n0\n0\n")
    bad_index = BOX_QP.replace("2 1 1.0", "3 1 1.0")
    with pytest.raises(QplibParseError) as err:
        parse_qplib(bad_index)
    assert "line 9" in str(err.value)
    assert err.value.line == 9
    with pytest.raises(QplibParseError) as err:
        parse_qplib("name\nQBC\nminimize\nzero\n")
    assert "expected integer" in str(err.value)
    truncated = "\n".join(BOX_QP.splitlines()[:8])
    with pytest.raises(QplibParseError) as err:
        parse_qplib(truncated)
    assert "end of file" in str(err.value)


def test_parse_qplib_bad_sense():
    with pytest.raises(QplibParseError):
        parse_qplib("name\nQBC\nmangle\n1\n0\n0.0\n0\n0.0\n1e30\n0\n0\n1\n0\n")


@pytest.mark.parametrize("seed", [0, 1])
def test_qplib_lifting_consistency(seed):
    # x'Ax + 2b'x + c must equal the parsed value convention on samples
    p = parse_qplib(TWO_SIDED if seed else BOX_QP)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = rng.normal(size=p.n)
        for q in [p.objective] + p.constraints:
            direct = x @ q.A @ x + 2.0 * q.b @ x + q.c
            assert q.value(x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_json_round_trip_bitwise():
    p, _ = random_box_qcqp(3)
    text = problem_to_json(p, indent=2)
    q = problem_from_json(text)
    assert q.n == p.n
    assert np.array_equal(q.objective.A, p.objective.A)
    assert np.array_equal(q.objective.b, p.objective.b)
    assert q.objective.c == p.objective.c
    assert len(q.inequalities) == len(p.inequalities)
    for qa, pa in zip(q.inequalities, p.inequalities):
        assert np.array_equal(qa.A, pa.A)
        assert np.array_equal(qa.b, pa.b)
        assert qa.c == pa.c
    assert np.array_equal(q.lb, p.lb) and np.array_equal(q.ub, p.ub)
    assert problem_to_json(q, indent=2) == text


def test_json_infinite_bounds_as_null():
    obj = QuadraticFunction(np.eye(2), np.zeros(2))
    p = QcqpProblem(n=2, objective=obj, lb=[0.0, -np.inf], ub=None)
    doc = json.loads(problem_to_json(p))
    assert doc["lb"] == [0.0, None]
    assert doc["ub"] is None
    q = problem_from_json(problem_to_json(p))
    assert q.lb[1] == -np.inf
    assert q.ub is None


def test_json_format_guards():
    p, _ = random_box_qcqp(4)
    doc = json.loads(problem_to_json(p))
    bad = dict(doc, format="something-else")
    with pytest.raises(ValueError):
        problem_from_json(json.dumps(bad))
    bad = dict(doc, version=99)
    with pytest.raises(ValueError):
        problem_from_json(json.dumps(bad))
    wrong_dim = dict(doc, n=doc["n"] + 1)
    with pytest.raises(ValueError):
        problem_from_json(json.dumps(wrong_dim))


def _assert_same_quadratics(got, want):
    assert got.n == want.n and got.name == want.name
    pairs = list(zip([got.objective] + got.constraints,
                     [want.objective] + want.constraints))
    assert (got.n_ineq, got.n_eq) == (want.n_ineq, want.n_eq)
    for g, w in pairs:
        for a, b in zip(g.terms + g.linear, w.terms + w.linear):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert g.c.hex() == w.c.hex()
    for a, b in ((got.lb, want.lb), (got.ub, want.ub)):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()


def _edge_problem():
    # n = 1, signed zeros, subnormals, and quadratics with no terms
    tiny = 5e-324
    obj = QuadraticFunction.from_sparse(1, [0], [0], [tiny], ([0], [-tiny]),
                                        -0.0)
    return QcqpProblem(
        n=1, objective=obj,
        inequalities=[QuadraticFunction.affine([-2.5], -0.0),
                      QuadraticFunction.from_sparse(1, [], [], [], ([], []))],
        lb=[-0.0], ub=[np.inf], name="edge")


def _rlt_problem():
    from qcqpen import rlt_cuts
    p, _ = random_box_qcqp(8, n=6, affine_rows=3)
    cuts = [q for _, q in rlt_cuts(p, "all")]
    return QcqpProblem(n=p.n, objective=p.objective,
                       inequalities=p.inequalities + cuts,
                       equalities=p.equalities, lb=p.lb, ub=p.ub)


@pytest.mark.parametrize("build", [
    lambda: parse_qplib(BOX_QP),
    lambda: parse_qplib(TWO_SIDED),
    lambda: gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01)).problem,
    lambda: reformulate(parse_poly(POLY_EXAMPLE))[0],
    _rlt_problem,
    _edge_problem,
    lambda: QcqpProblem(n=2, objective=QuadraticFunction.from_sparse(
        2, [0], [1], [5e-324], ([1], [1e-310]), 1e-320)),
], ids=["qplib_box", "qplib_two_sided", "sysid", "reformulate", "rlt_cuts",
        "edge", "offdiagonal_subnormal"])
def test_json_v2_round_trip_bitwise_on_every_builder(build):
    # version 2 stores terms, linear and c as the quadratic holds them, and
    # reads them back bit for bit
    p = build()
    text = problem_to_json(p)
    doc = json.loads(text)
    assert doc["version"] == 2
    assert set(doc["objective"]) == {"terms", "linear", "c"}
    q = problem_from_json(text)
    _assert_same_quadratics(q, p)
    assert problem_to_json(q) == text


def test_json_v1_literal_reads_bit_for_bit():
    # a version-1 document as written before version 2: dense A and b, A
    # not symmetric, -0.0 and a subnormal among the values
    text = """{"format": "qcqpen-problem", "version": 1, "name": "old",
      "n": 2,
      "objective": {"A": [[1.0, 0.75], [0.25, -2.0]], "b": [0.1, -0.0],
                    "c": -0.0},
      "inequalities": [{"A": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, 5e-324],
                        "c": 1.5}],
      "equalities": [{"A": [[0.0, -0.0], [3.0, 0.0]], "b": [0.0, 0.0],
                      "c": -1.0}],
      "lb": [-1.0, null], "ub": null}"""
    p = problem_from_json(text)
    want = QcqpProblem(
        n=2, objective=QuadraticFunction.from_sparse(
            2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 0.75, 0.25, -2.0],
            ([0], [0.1]), -0.0),
        inequalities=[QuadraticFunction.from_sparse(
            2, [], [], [], ([0, 1], [1.0, 5e-324]), 1.5)],
        equalities=[QuadraticFunction.from_sparse(
            2, [1], [0], [3.0], ([], []), -1.0)],
        lb=[-1.0, -np.inf], name="old")
    _assert_same_quadratics(p, want)
    assert p.objective.terms[2].tolist() == [1.0, 0.5, -2.0]
    assert p.equalities[0].terms[2].tolist() == [1.5]
    # written back as version 2, with the same quadratics
    assert json.loads(problem_to_json(p))["version"] == 2
    _assert_same_quadratics(problem_from_json(problem_to_json(p)), p)


@pytest.mark.parametrize("name", sorted(MALFORMED_V2))
def test_json_v2_rejects_malformed_entries(name):
    with pytest.raises(ValueError):
        problem_from_json(MALFORMED_V2[name])


def test_from_sparse_linear_contract():
    # linear, as terms: indices checked, repeats summed in listing order,
    # zero sums dropped, sorted and read-only
    q = QuadraticFunction.from_sparse(4, [], [], [],
                                      ([3, 1, 3, 0, 2], [1e16, 2.0, 1.0,
                                                         0.0, -0.0]))
    idx, vals = q.linear
    assert idx.tolist() == [1, 3]
    assert vals.tolist() == [2.0, 1e16 + 1.0]
    assert idx.dtype == np.intp and vals.dtype == np.float64
    assert not idx.flags.writeable and not vals.flags.writeable
    cancel = QuadraticFunction.from_sparse(2, [], [], [],
                                           ([1, 1], [2.0, -2.0]))
    assert cancel.linear[0].size == 0
    for bad in (([4], [1.0]), ([-1], [1.0]), ([0, 1], [1.0]), ([1.5], [1.0]),
                ([[0]], [[1.0]]), (["0"], [1.0])):
        with pytest.raises(ValueError):
            QuadraticFunction.from_sparse(4, [], [], [], bad)


def test_load_problem_sniffs_format(tmp_path, monkeypatch):
    # each JSON document is parsed once
    loads = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *a, **k: loads.append(1) or real_loads(*a, **k))
    p, _ = random_box_qcqp(5)
    jpath = tmp_path / "inst.json"
    jpath.write_text(problem_to_json(p, indent=2))
    qpath = tmp_path / "inst.qplib"
    qpath.write_text(BOX_QP)
    assert load_problem(str(jpath)).n == p.n
    assert len(loads) == 1
    assert load_problem(str(qpath)).name == "tiny1"
    # the degree-5 example, reformulated as reformulate() does
    ppath = tmp_path / "example.poly"
    ppath.write_text(POLY_EXAMPLE + "\n")
    want, _ = reformulate(parse_poly(POLY_EXAMPLE))
    got = load_problem(str(ppath))
    assert got.n == want.n
    assert problem_to_json(got) == problem_to_json(want)
    # a sysid document loads as the instance's problem
    inst = gen_sysid(SysIdParams(n=2, m=1, T=4, o=2, sigma=0.1, seed=3))
    spath = tmp_path / "sysid.json"
    spath.write_text(sysid_to_json(inst))
    loads.clear()
    assert problem_to_json(load_problem(str(spath))) == \
        problem_to_json(inst.problem)
    assert len(loads) == 1


def test_qplib_reference_header():
    path = os.environ.get("QPLIB_DIR", os.path.join(
        os.path.dirname(__file__), "data", "qplib"))
    f = os.path.join(path, "QPLIB_1143.qplib")
    if not os.path.exists(f):
        pytest.skip("QPLIB_1143 not available")
    with open(f) as fh:
        p = parse_qplib(fh.read())
    assert p.n == 40
    assert len(p.constraints) == 24
    assert sum(1 for q in p.constraints if not q.is_affine()) == 20


# ---------------------------------------------------------------------------
# system identification


def test_sysid_params_validation():
    with pytest.raises(ValueError):
        SysIdParams(n=0, m=1, T=5, o=2, sigma=0.1)
    with pytest.raises(ValueError):
        SysIdParams(n=2, m=1, T=5, o=6, sigma=0.1)
    with pytest.raises(ValueError):
        SysIdParams(n=2, m=1, T=5, o=2, sigma=-1.0)
    with pytest.raises(ValueError):
        SysIdParams(n=2, m=1, T=5, o=2, sigma=0.1, alpha=0.0)
    params = SysIdParams(n=2, m=1, T=5, o=2, sigma=0.1)
    assert params.n_vars == 5 * 2 + 4 + 4 * 2 + 2
    assert params.label() == "sysid_n2_m1_T5_o2_sig0.1_seed0"


def test_sysid_deterministic():
    params = SysIdParams(n=3, m=2, T=8, o=5, sigma=0.05, seed=11)
    a = gen_sysid(params)
    b = gen_sysid(params)
    assert np.array_equal(a.A_true, b.A_true)
    assert np.array_equal(a.z_traj, b.z_traj)
    assert np.array_equal(a.observed, b.observed)
    assert sysid_to_json(a) == sysid_to_json(b)
    c = gen_sysid(SysIdParams(n=3, m=2, T=8, o=5, sigma=0.05, seed=12))
    assert not np.array_equal(a.A_true, c.A_true)


def test_sysid_structure():
    params = SysIdParams(n=2, m=1, T=6, o=3, sigma=0.02, seed=1)
    inst = gen_sysid(params)
    assert np.linalg.svd(inst.A_true, compute_uv=False)[0] == pytest.approx(0.5)
    assert inst.observed[0] == 1
    assert len(inst.observed) == 3
    assert np.all(np.diff(inst.observed) > 0)
    p = inst.problem
    assert p.n == params.n_vars
    assert p.n_ineq == 2 * (params.T - 1) * params.n
    assert p.n_eq == params.o * params.n
    assert p.objective.is_affine()


def test_sysid_ground_truth_feasible_and_objective():
    params = SysIdParams(n=3, m=2, T=10, o=6, sigma=0.05, seed=3)
    inst = gen_sysid(params)
    x = inst.ground_truth_x()
    assert inst.problem.violation(x) <= 1e-10
    assert inst.problem.objective.value(x) == pytest.approx(
        np.abs(inst.w_traj).sum(), rel=1e-9)
    a_err, b_err = inst.recovery_errors(x)
    assert a_err == 0.0 and b_err == 0.0


def test_sysid_pack_unpack_round_trip():
    params = SysIdParams(n=2, m=2, T=5, o=2, sigma=0.1, seed=5)
    inst = gen_sysid(params)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(5, 2))
    A = rng.normal(size=(2, 2))
    y = rng.normal(size=(4, 2))
    B = rng.normal(size=(2, 2))
    x = inst.pack(z, A, y, B)
    z2, A2, y2, B2 = inst.unpack(x)
    assert np.allclose(z2, z) and np.allclose(A2, A)
    assert np.allclose(y2, y) and np.allclose(B2, B)
    # column-major layout of A in the decision vector
    assert x[inst.a_off] == A[0, 0]
    assert x[inst.a_off + 1] == A[1, 0]


def test_sysid_json_round_trip():
    params = SysIdParams(n=2, m=1, T=6, o=4, sigma=0.01, seed=9)
    inst = gen_sysid(params)
    text = sysid_to_json(inst, indent=2)
    back = sysid_from_json(text)
    assert back.params == inst.params
    assert np.array_equal(back.A_true, inst.A_true)
    assert np.array_equal(back.u_traj, inst.u_traj)
    assert sysid_to_json(back, indent=2) == text
    with pytest.raises(ValueError):
        sysid_from_json("{}")


def test_sysid_noiseless_recovery():
    # with sigma = 0 the estimator can reach objective 0 = exact recovery
    params = SysIdParams(n=2, m=1, T=8, o=6, sigma=0.0, seed=2)
    inst = gen_sysid(params)
    cfg = SequentialConfig(relaxation=RelaxationConfig(r=2, sparsity=True),
                           eta=1.0, init="zero", max_rounds=12, stop_rel=None)
    tr = run(inst.problem, cfg)
    assert tr.i_feas is not None
    a_err, _ = inst.recovery_errors(tr.x_final)
    assert a_err < 1e-3


# ---------------------------------------------------------------------------
# results CSV


def test_write_results_header_only():
    assert write_results([]) == "instance,eta,i_feas,i_stop,time_s,ub,gap_pct\n"


def _fake_trace(label, q0, i_feas=1, i_stop=2):
    from qcqpen.sequential import RoundRecord, SequentialTrace
    rounds = [RoundRecord(1, q0 + 1.0, q0 + 1.0, 0.0, 0.25, "optimal"),
              RoundRecord(2, q0, q0, 0.0, 0.25, "optimal")]
    return SequentialTrace(rounds=rounds, eta=0.5, i_feas=i_feas,
                           i_stop=i_stop, x_final=np.zeros(2),
                           x_init=np.zeros(2), status="converged", label=label)


def test_write_results_rows_and_gap():
    tr = _fake_trace("q0343", -5.882)
    out = write_results([tr], refs={"q0343": -6.386})
    lines = out.strip().split("\n")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "q0343"
    assert cells[1] == "0.5"
    assert cells[2] == "1" and cells[3] == "2"
    assert cells[4] == "0.50"
    assert cells[5] == "-5.882000"
    assert cells[6] == "7.89"


def test_write_results_without_stop_uses_last_round():
    tr = _fake_trace("x", -1.0, i_feas=2, i_stop=None)
    out = write_results([tr], refs=[None])
    cells = out.strip().split("\n")[1].split(",")
    assert cells[3] == ""
    assert cells[5] == "-1.000000"
    assert cells[6] == ""
    never = _fake_trace("y", -1.0, i_feas=None, i_stop=None)
    out2 = write_results([never])
    assert out2.strip().split("\n")[1].split(",")[5] == ""


def test_read_refs_csv():
    text = "instance,value\nq1,-1.5\n# comment\nq2, 2.0\n"
    refs = read_refs_csv(text)
    assert refs == {"q1": -1.5, "q2": 2.0}
    assert read_refs_csv("# refs\ninstance,value\na,1.5\n") == {"a": 1.5}
    with pytest.raises(ValueError):
        read_refs_csv("lonely-token\n")
