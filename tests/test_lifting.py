import numpy as np
import pytest

import qcqpen.quadratics
from qcqpen import (QcqpProblem, QuadraticFunction, RelaxationConfig,
                    SysIdParams, build_penalized, build_relaxation, extract,
                    gen_sysid, lift, rlt_cuts, rlt_pair_list, solve_conic)
from qcqpen.solver import PsdBlock
from _support import (lifted_vector, random_box_qcqp, rlt_dense_rows,
                      sample_feasible)

OK = ("optimal", "near_optimal")

FULL = RelaxationConfig(bound_cuts=True, rlt_pairs="all")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lifted_rows_match_quadratics_at_rank_one(seed):
    # at (x, xx') every lifted row reproduces the original quadratic,
    # feasible or not
    p, _ = random_box_qcqp(seed)
    prog, emap = build_relaxation(p, FULL)
    rng = np.random.default_rng(seed + 100)
    Gn, hn = prog.cone.Gn, prog.cone.hn
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
    Aeq, beq = prog.cone.A, prog.cone.b
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
    prog, emap = build_penalized(lift(p, RelaxationConfig(), penalized=True),
                                 xhat, eta)
    for _ in range(10):
        x = rng.normal(size=p.n)
        u = lifted_vector(emap, x)
        want = p.objective.value(x) + eta * float((x - xhat) @ (x - xhat))
        assert prog.c @ u + prog.c0 == pytest.approx(want, rel=1e-10, abs=1e-10)


def _stored_X(sol, emap):
    """The stored entries of X, read off sol.u through X_index, in a dense
    symmetric matrix; entries not stored are 0."""
    X = np.zeros((emap.n, emap.n))
    for (i, j), k in emap.X_index.items():
        X[i, j] = X[j, i] = sol.u[k]
    return X


def test_extract_fields_consistent():
    p, _ = random_box_qcqp(6)
    xhat = np.zeros(p.n)
    prog, emap = build_penalized(
        lift(p, RelaxationConfig(bound_cuts=True), penalized=True), xhat, 5.0)
    sol = solve_conic(prog)
    assert sol.status in OK
    pt = extract(sol, emap)
    assert pt.x == pytest.approx(sol.u[:p.n])
    X = _stored_X(sol, emap)
    res = sum(X[i, i] - pt.x[i] ** 2 for i in emap.diag_stored)
    assert pt.residual == pytest.approx(res, abs=1e-12)
    assert pt.residual >= -1e-9
    obj = p.objective
    lifted = float(np.tensordot(obj.A, X)) + 2.0 * obj.b @ pt.x + obj.c
    assert pt.objective == pytest.approx(lifted, abs=1e-10)


@pytest.mark.parametrize("cfg, penalized", [
    (RelaxationConfig(bound_cuts=True), True),
    (RelaxationConfig(), False),
    (RelaxationConfig(r=2, bound_cuts=True), True),
    (RelaxationConfig(r=3, subsets=[[0, 1, 2], [0, 1, 3], [0, 2, 3],
                                    [1, 2, 3]]), True),
], ids=["full", "full-unpenalized", "r2", "subsets"])
def test_extract_matches_dense_reference(cfg, penalized):
    # extract reads the slots; the reference is its former dense arithmetic:
    # X from sol.u through X_index, <A0, X> + 2 b0'x + c0 and, per stored
    # diagonal, X_ii - x_i^2 summed left to right
    p, _ = random_box_qcqp(6, n=4)
    relaxation = lift(p, cfg, penalized=penalized)
    prog, emap = (build_penalized(relaxation, np.full(p.n, 0.1), 2.0)
                  if penalized else relaxation)
    sol = solve_conic(prog)
    assert sol.status in OK
    pt = extract(sol, emap)
    x = sol.u[:p.n]
    X = _stored_X(sol, emap)
    assert pt.x.tobytes() == x.tobytes()
    res = float(sum(X[i, i] - x[i] ** 2 for i in emap.diag_stored))
    assert pt.residual.hex() == res.hex()
    obj = p.objective
    lifted = float(np.tensordot(obj.A, X) + 2.0 * obj.b @ x + obj.c)
    assert pt.objective == pytest.approx(lifted, rel=1e-12)


def test_rlt_cuts_stack_affine_rows_in_order():
    # one affine inequality and one affine equality: the rows are the
    # inequality, the equality, then the negated equality, and the
    # nonaffine row is skipped. Each diagonal pair (i, i) is row i squared,
    # which fixes a row up to its sign; pairs (0, 1), (0, 2) fix the signs
    gi = QuadraticFunction(np.zeros((2, 2)), [1.0, 0.0], -1.0)
    ge = QuadraticFunction(np.zeros((2, 2)), [0.0, 0.5], 2.0)
    quad = QuadraticFunction(np.eye(2), np.zeros(2), -1.0)
    p = QcqpProblem(n=2, objective=quad, inequalities=[gi, quad],
                    equalities=[ge])
    H = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    h = np.array([-1.0, 2.0, -2.0])
    cuts = dict(rlt_cuts(p, "all"))
    assert len(cuts) == 6
    for i in range(3):
        q = cuts[i, i]
        assert np.array_equal(q.A, np.outer(H[i], H[i]))
        assert np.array_equal(q.b, h[i] * H[i]) and q.c == h[i] ** 2
    for j in (1, 2):
        assert cuts[0, j].c == h[0] * h[j]
        assert np.array_equal(cuts[0, j].b, 0.5 * (h[0] * H[j] + h[j] * H[0]))


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


def test_rlt_cuts_of_equality_rows_match_dense_products():
    # an affine equality gives the rows +q and -q, and a row with h = 0
    # leaves zeros in b_c on the other row's support: the cuts, built from
    # each row's nonzeros, equal the products of the dense reference rows
    gi = QuadraticFunction.affine([1.0, 0.0, -2.0], 0.0)
    ge = QuadraticFunction.affine([0.0, 0.5, 1.5], 2.0)
    quad = QuadraticFunction(np.eye(3), np.zeros(3), -1.0)
    p = QcqpProblem(n=3, objective=quad, inequalities=[gi, quad],
                    equalities=[ge])
    H, h = rlt_dense_rows(p)
    cuts = rlt_cuts(p, "all")
    assert len(cuts) == 6
    for (i, j), q in cuts:
        P = 0.5 * (np.outer(H[i], H[j]) + np.outer(H[j], H[i]))
        assert np.array_equal(q.A, 0.5 * (P + P.T))
        b = 0.5 * (h[i] * H[j] + h[j] * H[i])
        idx = np.flatnonzero(b)
        assert np.array_equal(q.linear[0], idx)
        assert q.linear[1].tobytes() == b[idx].tobytes()
        assert q.c == h[i] * h[j]


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
    Gn, hn = prog.cone.Gn, prog.cone.hn
    for _ in range(50):
        x = rng.uniform(p.lb, p.ub)
        u = lifted_vector(emap, x)
        assert np.all(Gn @ u <= hn + 1e-12)


def test_bound_cuts_skip_infinite_bounds():
    p = QcqpProblem(n=2, objective=QuadraticFunction(np.eye(2), np.zeros(2)),
                    lb=[0.0, -np.inf], ub=[np.inf, 1.0])
    prog, _ = build_relaxation(p, RelaxationConfig(bound_cuts=True))
    # one box row and one single-sided cut per variable
    assert prog.cone.n_nonneg == 4


def test_sparsity_pattern_r2():
    A0 = np.zeros((3, 3))
    A0[0, 1] = A0[1, 0] = 1.0
    con = QuadraticFunction(np.diag([0.0, 0.0, 1.0]), np.zeros(3), -1.0)
    p = QcqpProblem(n=3, objective=QuadraticFunction(A0, np.zeros(3)),
                    inequalities=[con])
    prog, emap = build_relaxation(p, RelaxationConfig(r=2))
    assert set(emap.X_index) == {(0, 0), (1, 1), (2, 2), (0, 1)}
    assert prog.cone.n_vars == 7
    # one 3x3 block for the stored pair, then a 2x2 for isolated x2
    assert [b.size for b in prog.cone.blocks] == [3, 2]
    dense, emap2 = build_relaxation(p, RelaxationConfig(r=2, sparsity=False))
    assert len(emap2.X_index) == 6
    assert dense.cone.n_vars == 9
    assert [b.size for b in dense.cone.blocks] == [3, 3, 3]
    full, emap3 = build_relaxation(p, RelaxationConfig())
    assert len(emap3.X_index) == 6
    assert [b.size for b in full.cone.blocks] == [4]


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
    # unpenalized, the objective alone stores no X_22
    unpenalized = lift(QcqpProblem(n=3, objective=p.objective), cfg)
    with pytest.raises(ValueError, match="penalized=True"):
        build_penalized(unpenalized, np.zeros(3), 1.0)
    prog, emap = build_penalized(lift(p, cfg, penalized=True), np.zeros(3),
                                 1.0)
    assert [b.size for b in prog.cone.blocks] == [3, 2]
    assert emap.diag_stored == [0, 1, 2]
    sol = solve_conic(prog)
    assert sol.status == "optimal"
    assert extract(sol, emap).residual >= -1e-9


def test_penalty_only_block_count():
    # the penalty adds no block to a full moment lifting or to a dense r = 2
    # one; on sysid at r = 2 it adds one for each variable whose X_ii no
    # term stores, and the unpenalized lift reports none
    p, _ = random_box_qcqp(3, n=4)
    for cfg in (RelaxationConfig(), RelaxationConfig(r=2, sparsity=False)):
        assert lift(p, cfg, penalized=True)[1].penalty_blocks == 0
    sysid = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01,
                                  seed=0)).problem
    cfg = RelaxationConfig(r=2)
    prog, emap = lift(sysid, cfg, penalized=True)
    assert emap.penalty_blocks == 92
    base, plain = lift(sysid, cfg)
    assert plain.penalty_blocks == 0
    assert len(prog.cone.blocks) - len(base.cone.blocks) == 92


def test_penalized_validation():
    p, _ = random_box_qcqp(14)
    rel = lift(p, None, penalized=True)
    with pytest.raises(ValueError):
        build_penalized(rel, np.zeros(p.n), 0.0)
    with pytest.raises(ValueError):
        build_penalized(rel, np.zeros(p.n + 1), 1.0)


# ---------------------------------------------------------------------------
# rows and blocks against the dense-scan formulas that the O(nnz) lifting
# replaced; both must give the same program bit for bit


def _dense_scan_row(q, X_index):
    cols, vals = [], []
    for i in range(q.n):
        if q.b[i] != 0.0:
            cols.append(i)
            vals.append(2.0 * q.b[i])
    for a, b in np.argwhere(np.triu(q.A) != 0.0):
        a, b = int(a), int(b)
        cols.append(X_index[(a, b)])
        vals.append(q.A[a, b] if a == b else 2.0 * q.A[a, b])
    return np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float), q.c


def _csr_row(M, k):
    """(cols, vals) of row k of the CSR matrix M."""
    lo, hi = M.indptr[k], M.indptr[k + 1]
    return M.indices[lo:hi], M.data[lo:hi]


def _assert_row(row, rhs, ref, ref_rhs):
    # CSR keeps each row's columns sorted; its index dtype is scipy's choice
    order = np.argsort(ref[0])
    assert np.array_equal(row[0], ref[0][order])
    assert np.issubdtype(row[0].dtype, np.integer)
    assert np.array_equal(row[1], ref[1][order])
    assert row[1].dtype == ref[1].dtype
    assert rhs == ref_rhs


def _sysid_small():
    return gen_sysid(SysIdParams(n=2, m=1, T=3, o=2, sigma=0.01,
                                 seed=0)).problem


def _stored_pair_subsets(p, rlt_pairs=None):
    _, emap = build_relaxation(p, RelaxationConfig(r=2, rlt_pairs=rlt_pairs))
    return [list(k) for k in emap.X_index if k[0] != k[1]]


_SYSID = _sysid_small()
_REFERENCE_CONFIGS = {
    "r2": RelaxationConfig(r=2),
    "r2_dense": RelaxationConfig(r=2, sparsity=False),
    "full": RelaxationConfig(),
    "subsets_rlt": RelaxationConfig(r=2, rlt_pairs="all",
                                    subsets=_stored_pair_subsets(_SYSID,
                                                                 "all")),
    "r2_rlt": RelaxationConfig(r=2, rlt_pairs="all"),
}


@pytest.mark.parametrize("name", list(_REFERENCE_CONFIGS))
def test_rows_match_dense_scan_reference(name):
    p, cfg = _SYSID, _REFERENCE_CONFIGS[name]
    xhat = np.random.default_rng(0).normal(size=p.n)
    prog, emap = build_penalized(lift(p, cfg, penalized=True), xhat, 0.7)
    cone = prog.cone
    X = emap.X_index
    cols, vals, c0 = _dense_scan_row(p.objective, X)
    c = np.zeros(cone.n_vars)
    c[cols] = vals
    c[:p.n] -= 2.0 * 0.7 * xhat
    for i in range(p.n):
        c[X[(i, i)]] += 0.7
    assert np.array_equal(prog.c, c)
    assert prog.c0 == c0 + 0.7 * float(xhat @ xhat)
    for k, q in enumerate(p.inequalities):
        ref = _dense_scan_row(q, X)
        _assert_row(_csr_row(cone.Gn, k), cone.hn[k], ref, -ref[2])
    for k, q in enumerate(p.equalities):
        ref = _dense_scan_row(q, X)
        _assert_row(_csr_row(cone.A, k), cone.b[k], ref, -ref[2])
    cuts = rlt_cuts(p, cfg.rlt_pairs) if cfg.rlt_pairs else []
    assert len(cuts) == (36 if cfg.rlt_pairs else 0)
    assert cone.n_nonneg == p.n_ineq + len(cuts)
    for k, (_, q) in enumerate(cuts):
        cols, vals, const = _dense_scan_row(q, X)
        row = _csr_row(cone.Gn, p.n_ineq + k)
        _assert_row(row, cone.hn[p.n_ineq + k], (cols, -vals), const)


def test_unstored_term_names_its_entry():
    p = _SYSID
    a, b = next((a, b) for q in p.constraints
                for a, b in zip(*q.terms[:2]) if a != b)
    with pytest.raises(ValueError, match=rf"term X\[{a},{b}\] is not stored"):
        build_relaxation(p, RelaxationConfig(
            r=2, subsets=[K for K in _stored_pair_subsets(p)
                          if K != [a, b]]))


def _block_subset(block):
    # x_{K[a-1]} sits at slot (a, 0), svec index a(a+1)/2
    return [int(block.var[a * (a + 1) // 2]) for a in range(1, block.size)]


@pytest.mark.parametrize("cfg, subsets", [
    (RelaxationConfig(r=2), [[0, 1], [1, 2], [3]]),
    (RelaxationConfig(r=2, sparsity=False),
     [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
    (RelaxationConfig(), [[0, 1, 2, 3]]),
    (RelaxationConfig(r=3, subsets=[[0, 1, 2], [1, 2, 3]]),
     [[0, 1, 2], [1, 2, 3]]),
], ids=["r2", "r2_dense", "full", "subsets"])
def test_block_arrays_match_from_entries(cfg, subsets):
    # X_01 and X_12 in the objective, a ball over x0..x2, and x3 reached
    # only by the penalty's trace term
    A0 = np.zeros((4, 4))
    A0[0, 1] = A0[1, 0] = A0[2, 1] = A0[1, 2] = 1.0
    ball = QuadraticFunction(np.diag([1.0, 1.0, 1.0, 0.0]), np.zeros(4), -1.0)
    p = QcqpProblem(n=4, objective=QuadraticFunction(A0, np.ones(4)),
                    inequalities=[ball])
    prog, emap = build_penalized(lift(p, cfg, penalized=True), np.zeros(p.n),
                                 1.0)
    assert [_block_subset(b) for b in prog.cone.blocks] == subsets
    for block, K in zip(prog.cone.blocks, subsets):
        entries = {(0, 0): (-1, 0.0, 1.0)}
        for ai, a in enumerate(K):
            entries[(ai + 1, 0)] = (a, 1.0, 0.0)
            for bi, b in enumerate(K[:ai + 1]):
                entries[(ai + 1, bi + 1)] = (emap.X_index[(b, a)], 1.0, 0.0)
        ref = PsdBlock.from_entries(len(K) + 1, entries)
        assert block.size == ref.size
        for got, want in ((block.var, ref.var), (block.coef, ref.coef),
                          (block.const, ref.const)):
            assert np.array_equal(got, want) and got.dtype == want.dtype


def test_each_matrix_is_scanned_once_across_builds(monkeypatch):
    # a quadratic reduces its matrix once, when it is built; lifts and
    # rounds read its terms and build no quadratic
    p, _ = random_box_qcqp(15, n=4)
    calls = []

    def counted(name):
        f = getattr(qcqpen.quadratics, name)
        return lambda *args: calls.append(name) or f(*args)

    for name in ("_nonzero_entries", "_symmetric"):
        monkeypatch.setattr(qcqpen.quadratics, name, counted(name))
    for eta in (0.5, 1.0, 2.0):
        rel = lift(p, RelaxationConfig(r=2, bound_cuts=True), penalized=True)
        build_penalized(rel, np.zeros(p.n), eta)
    assert calls == []
    QuadraticFunction(np.eye(2), np.zeros(2))      # the counters are live
    assert calls == ["_nonzero_entries", "_symmetric"]
