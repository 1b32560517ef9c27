import numpy as np
import pytest

from qcqpen import (QcqpProblem, QuadraticFunction, RelaxationConfig,
                    build_penalized, build_relaxation, extract, rlt_cuts,
                    rlt_pair_list, rlt_system, solve_conic)
from _support import lifted_vector, random_box_qcqp, sample_feasible

OK = ("optimal", "near_optimal")

FULL = RelaxationConfig(bound_cuts=True, rlt_pairs="all")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lifted_rows_match_quadratics_at_rank_one(seed):
    # at (x, xx') every lifted row reproduces the original quadratic,
    # feasible or not
    p, _ = random_box_qcqp(seed)
    prog, emap = build_relaxation(p, FULL)
    rng = np.random.default_rng(seed + 100)
    Gn = prog.nn_matrix()
    hn = np.asarray(prog.nn_rhs)
    for _ in range(20):
        x = rng.normal(size=p.n)
        u = lifted_vector(emap, x)
        vals = Gn @ u - hn
        for k, q in enumerate(p.inequalities):
            assert vals[k] == pytest.approx(q.value(x), rel=1e-10, abs=1e-10)


def test_lifted_equality_rows_match():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    eq = QuadraticFunction(0.5 * (A + A.T), rng.normal(size=3), -1.0)
    p = QcqpProblem(n=3, objective=QuadraticFunction(np.eye(3), np.zeros(3)),
                    equalities=[eq])
    prog, emap = build_relaxation(p)
    Aeq = prog.eq_matrix()
    beq = np.asarray(prog.eq_rhs)
    for _ in range(10):
        x = rng.normal(size=3)
        u = lifted_vector(emap, x)
        assert (Aeq @ u - beq)[0] == pytest.approx(eq.value(x), abs=1e-10)


@pytest.mark.parametrize("cfg", [
    RelaxationConfig(r=2, bound_cuts=True),
    RelaxationConfig(r=2, bound_cuts=True, rlt_pairs="all"),
    RelaxationConfig(bound_cuts=True),
    RelaxationConfig(bound_cuts=True, rlt_pairs="all"),
])
def test_relaxation_lower_bounds_feasible_points(cfg):
    p, z = random_box_qcqp(11)
    prog, _ = build_relaxation(p, cfg)
    sol = solve_conic(prog)
    assert sol.status in OK
    rng = np.random.default_rng(12)
    pts = sample_feasible(p, z, rng, 100, spread=0.4)
    assert len(pts) == 100
    sampled = min(p.objective.value(x) for x in pts)
    assert sampled >= sol.pcost - 1e-7


@pytest.mark.parametrize("seed", [4, 5])
def test_penalized_objective_identity(seed):
    p, _ = random_box_qcqp(seed)
    rng = np.random.default_rng(seed)
    xhat = rng.normal(size=p.n)
    eta = 0.7
    prog, emap = build_penalized(p, RelaxationConfig(), xhat, eta)
    for _ in range(10):
        x = rng.normal(size=p.n)
        u = lifted_vector(emap, x)
        want = p.objective.value(x) + eta * float((x - xhat) @ (x - xhat))
        assert prog.c @ u + prog.c0 == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_extract_fields_consistent():
    p, _ = random_box_qcqp(6)
    xhat = np.zeros(p.n)
    prog, emap = build_penalized(p, RelaxationConfig(bound_cuts=True), xhat, 5.0)
    sol = solve_conic(prog)
    assert sol.status in OK
    pt = extract(sol, emap)
    assert pt.x == pytest.approx(sol.u[:p.n])
    assert np.array_equal(pt.X, pt.X.T)
    res = sum(pt.X[i, i] - pt.x[i] ** 2 for i in emap.diag_stored)
    assert pt.residual == pytest.approx(res, abs=1e-12)
    assert pt.residual >= -1e-9
    obj = p.objective
    lifted = float(np.tensordot(obj.A, pt.X)) + 2.0 * obj.b @ pt.x + obj.c
    assert pt.objective == pytest.approx(lifted, abs=1e-10)


def test_rlt_system_stacks_affine_rows():
    # one affine inequality and one affine equality
    gi = QuadraticFunction(np.zeros((2, 2)), [1.0, 0.0], -1.0)
    ge = QuadraticFunction(np.zeros((2, 2)), [0.0, 0.5], 2.0)
    quad = QuadraticFunction(np.eye(2), np.zeros(2), -1.0)
    p = QcqpProblem(n=2, objective=quad, inequalities=[gi, quad],
                    equalities=[ge])
    H, h = rlt_system(p)
    assert H.shape == (3, 2)
    assert np.array_equal(H, [[2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert h == pytest.approx([-1.0, 2.0, -2.0])


def test_rlt_hand_expanded_row():
    # (2 x1 - 1)^2 >= 0 lifts to 4 X11 - 4 x1 + 1 >= 0
    gi = QuadraticFunction(np.zeros((2, 2)), [1.0, 0.0], -1.0)
    p = QcqpProblem(n=2, objective=QuadraticFunction(np.eye(2), np.zeros(2)),
                    inequalities=[gi])
    cuts = rlt_cuts(p, "all")
    assert len(cuts) == 1
    (i, j), q = cuts[0]
    assert (i, j) == (0, 0)
    assert np.array_equal(q.A, [[4.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(q.b, [-2.0, 0.0])
    assert q.c == 1.0


@pytest.mark.parametrize("seed", [7, 8])
def test_rlt_cuts_nonnegative_on_feasible_set(seed):
    p, z = random_box_qcqp(seed)
    cuts = rlt_cuts(p, "all")
    assert cuts
    rng = np.random.default_rng(seed)
    for x in sample_feasible(p, z, rng, 50, spread=0.3):
        for _, q in cuts:
            assert q.value(x) >= -1e-9


def test_rlt_pair_helpers():
    assert rlt_pair_list(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    p, _ = random_box_qcqp(9)
    with pytest.raises(ValueError):
        rlt_cuts(p, [(0, 99)])


def test_box_and_bound_cut_rows_hold_in_box():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(3, 3))
    p = QcqpProblem(n=3, objective=QuadraticFunction(0.5 * (A + A.T),
                                                     rng.normal(size=3)),
                    lb=[-1.0, -2.0, 0.0], ub=[1.0, 0.5, 3.0])
    prog, emap = build_relaxation(p, RelaxationConfig(bound_cuts=True))
    Gn = prog.nn_matrix()
    hn = np.asarray(prog.nn_rhs)
    for _ in range(50):
        x = rng.uniform(p.lb, p.ub)
        u = lifted_vector(emap, x)
        assert np.all(Gn @ u <= hn + 1e-12)


def test_bound_cuts_skip_infinite_bounds():
    p = QcqpProblem(n=2, objective=QuadraticFunction(np.eye(2), np.zeros(2)),
                    lb=[0.0, -np.inf], ub=[np.inf, 1.0])
    prog, _ = build_relaxation(p, RelaxationConfig(bound_cuts=True))
    # one box row and one single-sided cut per variable
    assert prog.n_nonneg == 4


def test_sparsity_pattern_r2():
    A0 = np.zeros((3, 3))
    A0[0, 1] = A0[1, 0] = 1.0
    con = QuadraticFunction(np.diag([0.0, 0.0, 1.0]), np.zeros(3), -1.0)
    p = QcqpProblem(n=3, objective=QuadraticFunction(A0, np.zeros(3)),
                    inequalities=[con])
    prog, emap = build_relaxation(p, RelaxationConfig(r=2))
    assert set(emap.X_index) == {(0, 0), (1, 1), (2, 2), (0, 1)}
    assert prog.n_vars == 7
    # one 3x3 block for the stored pair, then a 2x2 for isolated x2
    assert [b.size for b in prog.blocks] == [3, 2]
    dense, emap2 = build_relaxation(p, RelaxationConfig(r=2, sparsity=False))
    assert len(emap2.X_index) == 6
    assert dense.n_vars == 9
    assert [b.size for b in dense.blocks] == [3, 3, 3]
    full, emap3 = build_relaxation(p, RelaxationConfig())
    assert len(emap3.X_index) == 6
    assert [b.size for b in full.blocks] == [4]


def test_block_order_validation():
    p, _ = random_box_qcqp(10, n=4)
    with pytest.raises(ValueError):
        build_relaxation(p, RelaxationConfig(r=1))
    with pytest.raises(ValueError):
        build_relaxation(p, RelaxationConfig(r=5))
    with pytest.raises(ValueError):
        build_relaxation(p, RelaxationConfig(r=3))


def test_subset_blocks():
    A0 = np.zeros((3, 3))
    A0[0, 2] = A0[2, 0] = 1.0
    p = QcqpProblem(n=3, objective=QuadraticFunction(A0, np.zeros(3)))
    cfg = RelaxationConfig(r=2, subsets=[[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        build_relaxation(p, cfg)  # X[0,2] needed but not stored
    ok = RelaxationConfig(r=2, subsets=[[0, 2], [1, 2]])
    prog, emap = build_relaxation(p, ok)
    assert (0, 2) in emap.X_index
    with pytest.raises(ValueError):
        build_relaxation(p, RelaxationConfig(r=2, subsets=[[0, 1, 2]]))


def test_subset_blocks_cover_penalized_diagonals():
    # the penalty's trace term reaches X_22, which no subset covers; without
    # a block of its own X_22 is unbounded below and so is the program
    ball = QuadraticFunction(np.eye(3), np.zeros(3), -1.0)
    p = QcqpProblem(n=3, objective=QuadraticFunction(
        np.zeros((3, 3)), np.array([-1.0, 0.5, 0.25])), inequalities=[ball])
    cfg = RelaxationConfig(r=2, subsets=[[0, 1]])
    prog, emap = build_penalized(p, cfg, np.zeros(3), 1.0)
    assert [b.size for b in prog.blocks] == [3, 2]
    assert emap.diag_stored == [0, 1, 2]
    sol = solve_conic(prog)
    assert sol.status == "optimal"
    assert extract(sol, emap).residual >= -1e-9


def test_penalized_validation():
    p, _ = random_box_qcqp(14)
    with pytest.raises(ValueError):
        build_penalized(p, None, np.zeros(p.n), 0.0)
    with pytest.raises(ValueError):
        build_penalized(p, None, np.zeros(p.n + 1), 1.0)
