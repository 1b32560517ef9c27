import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcqpen import QcqpProblem, QuadraticFunction, jacobian


def test_symmetrized_on_construction():
    q = QuadraticFunction([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])
    assert np.array_equal(q.A, [[1.0, 1.0], [1.0, 1.0]])


def test_value_matches_expanded_form():
    q = QuadraticFunction([[1.0, 0.5], [0.5, 2.0]], [-0.5, 0.0], 0.5)
    x = np.array([1.0, -2.0])
    want = x @ q.A @ x + 2.0 * q.b @ x + q.c
    assert q.value(x) == pytest.approx(want, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_gradient_matches_finite_differences(seed, n):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    q = QuadraticFunction(M, rng.normal(size=n), rng.normal())
    x = rng.normal(size=n)
    g = q.gradient(x)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd = (q.value(x + e) - q.value(x - e)) / (2.0 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_hessian_and_affine():
    q = QuadraticFunction.affine([1.0, -2.0], 3.0)
    assert q.is_affine()
    assert q.value([2.0, 1.0]) == pytest.approx(2.0 * (2.0 - 2.0) + 3.0)
    q2 = QuadraticFunction(np.eye(2) * 1e-12, [0.0, 0.0])
    assert not q2.is_affine()
    assert q2.is_affine(tol=1e-10)


def test_matrix_shape_validated():
    with pytest.raises(ValueError):
        QuadraticFunction(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticFunction(np.zeros((3, 3)), np.zeros(2))


def _tiny_problem():
    obj = QuadraticFunction(np.eye(2), [0.0, 0.0], 0.0)
    ineq = QuadraticFunction(np.zeros((2, 2)), [0.5, 0.0], -1.0)   # x1 <= 1
    eq = QuadraticFunction(np.eye(2), [0.0, 0.0], -1.0)            # |x| = 1
    return QcqpProblem(n=2, objective=obj, inequalities=[ineq],
                       equalities=[eq], lb=[-2.0, -2.0], ub=[2.0, 2.0])


def test_constraint_ordering_and_counts():
    p = _tiny_problem()
    assert p.n_ineq == 1 and p.n_eq == 1
    assert p.constraints[0] is p.inequalities[0]
    assert p.constraints[1] is p.equalities[0]
    vals = p.eval_constraints([1.0, 0.0])
    assert vals == pytest.approx([0.0, 0.0])


def test_violation_semantics():
    p = _tiny_problem()
    assert p.violation([1.0, 0.0]) == 0.0
    # inequality excess counts positively, slack does not
    assert p.violation([2.0, 0.0]) == pytest.approx(3.0)   # eq |4-1| dominates
    assert p.violation([0.0, 1.0]) == 0.0
    # equality counted in absolute value
    assert p.violation([0.0, 0.0]) == pytest.approx(1.0)
    # box excess
    assert p.violation([0.0, 2.5]) == pytest.approx(max(0.5, abs(2.5 ** 2 - 1)))
    assert p.violation([-2.5, 0.0]) >= 0.5


def test_problem_validation():
    obj = QuadraticFunction(np.eye(2), [0.0, 0.0])
    with pytest.raises(ValueError):
        QcqpProblem(n=3, objective=obj)
    with pytest.raises(ValueError):
        QcqpProblem(n=2, objective=obj,
                    inequalities=[QuadraticFunction(np.eye(3), np.zeros(3))])
    with pytest.raises(ValueError):
        QcqpProblem(n=2, objective=obj, lb=[0.0, 0.0], ub=[-1.0, 1.0])
    with pytest.raises(ValueError):
        QcqpProblem(n=2, objective=obj, lb=[0.0])


def test_jacobian_rows_are_gradients():
    p = _tiny_problem()
    x = np.array([0.3, -0.7])
    J = jacobian(p, x)
    assert J.shape == (2, 2)
    for k, q in enumerate(p.constraints):
        assert J[k] == pytest.approx(q.gradient(x))
    empty = QcqpProblem(n=2, objective=p.objective)
    assert jacobian(empty, x).shape == (0, 2)


def _triu_scan(A):
    # the dense scan that terms replaces
    nz = np.argwhere(np.triu(A) != 0.0)
    return nz[:, 0], nz[:, 1], A[nz[:, 0], nz[:, 1]]


def _signed_zeros(n):
    A = np.zeros((n, n))
    A[0, 1] = A[1, 0] = -0.0
    A[2, 2] = -0.0
    A[1, 2] = 3.0
    A[0, 2] = -0.0
    A[2, 0] = 0.0
    return A


@pytest.mark.parametrize("A", [
    np.random.default_rng(0).normal(size=(6, 6)),
    np.where(np.random.default_rng(1).random((9, 9)) < 0.2,
             np.random.default_rng(2).normal(size=(9, 9)), 0.0),
    np.where(np.random.default_rng(3).random((40, 40)) < 0.02, 1.5, 0.0),
    _signed_zeros(4),
    np.zeros((5, 5)),
    np.array([[2.0]]),
    np.array([[0.0]]),
], ids=["dense", "sparse", "sparse40", "signed_zeros", "zero", "n1", "n1zero"])
def test_terms_match_triu_scan_in_order(A):
    q = QuadraticFunction(A, np.zeros(A.shape[0]))
    rows, cols, vals = q.terms
    want = _triu_scan(q.A)
    for got, ref in zip((rows, cols, vals), want):
        assert np.array_equal(got, ref)
        assert got.dtype == ref.dtype
    assert q.terms is q.terms                      # scanned once


def test_matrix_is_read_only():
    q = QuadraticFunction(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        q.A[0, 1] = 1.0
    with pytest.raises(ValueError):
        q.A += 1.0
    for arr in q.terms:
        with pytest.raises(ValueError):
            arr[0] = 0
    # the caller's array is copied, not frozen
    M = np.eye(2)
    QuadraticFunction(M, np.zeros(2))
    M[0, 1] = 1.0


def _dense_spectral_norm(A):
    return 0.0 if not A.any() else float(np.max(np.abs(np.linalg.eigvalsh(A))))


def test_spectral_norm_matches_dense_on_sysid():
    # every sysid constraint touches at most 8 of the 184 variables; the
    # submatrix gives the dense call's bits here, but it is a different
    # LAPACK call, so the bound is relative
    from qcqpen import SysIdParams, gen_sysid
    p = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01,
                              seed=0)).problem
    for q in [p.objective] + p.constraints:
        assert q.spectral_norm == pytest.approx(_dense_spectral_norm(q.A),
                                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_spectral_norm_matches_dense_on_random(seed):
    # dense: the submatrix is A itself, so the bits agree; sparse: A's
    # nonzeros on a random subset of the variables
    rng = np.random.default_rng(seed)
    n = 7
    dense = QuadraticFunction(rng.normal(size=(n, n)), np.zeros(n))
    assert dense.spectral_norm == _dense_spectral_norm(dense.A)
    keep = rng.random(n) < 0.5
    keep[rng.integers(n)] = True
    M = rng.normal(size=(n, n)) * np.outer(keep, keep)
    sparse = QuadraticFunction(M, rng.normal(size=n))
    assert sparse.spectral_norm == pytest.approx(
        _dense_spectral_norm(sparse.A), rel=1e-12, abs=0.0)
    assert "spectral_norm" in vars(sparse)


def test_spectral_norm_of_affine_and_zero():
    assert QuadraticFunction.affine([1.0, -2.0], 3.0).spectral_norm == 0.0
    assert QuadraticFunction(np.zeros((3, 3)), np.zeros(3)).spectral_norm \
        == 0.0
    # one diagonal entry: a 1x1 submatrix
    q = QuadraticFunction(np.diag([0.0, -2.5, 0.0]), np.zeros(3))
    assert q.spectral_norm == 2.5 == _dense_spectral_norm(q.A)


# ---------------------------------------------------------------------------
# entries in: from_entries, the builders, and the dense reference


def test_from_entries_sums_in_order_and_symmetrizes():
    q = QuadraticFunction.from_entries([0, 1, 0, 2], [1, 0, 1, 2],
                                       [1.0, 3.0, 1.0, -4.0], [1.0, 0.0, 0.0],
                                       2.0)
    assert np.array_equal(q.A, [[0.0, 2.5, 0.0], [2.5, 0.0, 0.0],
                                [0.0, 0.0, -4.0]])
    assert [t.tolist() for t in q.terms] == [[0, 2], [1, 2], [2.5, -4.0]]
    assert (q.n, q.c) == (3, 2.0)
    for arr in (q.A, *q.terms):
        assert not arr.flags.writeable
    empty = QuadraticFunction.from_entries([], [], [], np.zeros(2))
    assert not empty.A.any() and all(t.size == 0 for t in empty.terms)


def test_b_stored_by_its_nonzeros():
    # signed zeros are zeros: the dense view reads +0.0 wherever b is zero
    q = QuadraticFunction.affine(np.array([-0.0, 0.0, 3.0]))
    idx, vals = q.linear
    assert idx.tolist() == [2] and vals.tolist() == [3.0]
    assert q.b.tolist() == [0.0, 0.0, 3.0]
    assert not np.signbit(q.b).any()
    for arr in (q.b, *q.linear):
        assert not arr.flags.writeable
    zero = QuadraticFunction.affine(np.zeros(2)).b
    assert zero.dtype == np.float64 and zero.tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("rows, cols, vals", [
    ([0, -1], [0, 1], [1.0, 1.0]),
    ([0, 1], [0, 3], [1.0, 1.0]),
    ([3], [0], [1.0]),
    ([0, 1], [0], [1.0, 1.0]),
    ([0], [0, 1], [1.0, 1.0]),             # would broadcast
    ([0, 1], [0, 1], [1.0]),
], ids=["negative", "col_is_n", "row_is_n", "short_cols", "short_rows",
        "short_vals"])
def test_from_entries_rejects_bad_entries(rows, cols, vals):
    with pytest.raises(ValueError):
        QuadraticFunction.from_entries(rows, cols, vals, np.zeros(3))


def _nan_matrix():
    A = np.zeros((3, 3))
    A[1, 2] = np.nan
    return A


@pytest.mark.parametrize("A", [
    np.random.default_rng(7).normal(size=(4, 4)),
    np.zeros((4, 4)),
    _nan_matrix(),
    np.diag([0.0, 1e-9, 0.0]),
    _signed_zeros(3),
], ids=["random", "zero", "nan", "tiny", "signed_zeros"])
def test_is_affine_matches_dense_reading(A):
    q = QuadraticFunction(A, np.ones(A.shape[0]))
    assert q.is_affine() == (not q.A.any())
    for tol in (1e-12, 1e-9, 1.0, 10.0):
        assert q.is_affine(tol) == (float(np.abs(q.A).max(initial=0.0))
                                    <= tol)
    affine = QuadraticFunction.affine(np.ones(3), 1.0)
    assert affine.is_affine() and affine.is_affine(1e-12)


def test_builders_reduce_no_dense_matrix(monkeypatch):
    # only the dense constructor, here the v1 JSON reader, reduces a
    # caller's n x n matrix; every other builder, the v2 JSON reader
    # included, lists its entries
    from qcqpen import (SysIdParams, gen_sysid, parse_poly, parse_qplib,
                        problem_from_json, problem_to_json, reformulate)
    from qcqpen.lifting import rlt_cuts
    from _support import (BOX_QP, POLY_EXAMPLE, TWO_SIDED,
                          problem_to_v1_json, random_box_qcqp)
    import qcqpen.quadratics as quadratics
    box, _ = random_box_qcqp(4, n=4)
    text, v1_text = problem_to_json(box), problem_to_v1_json(box)
    calls = []
    reduce = quadratics._nonzero_entries
    monkeypatch.setattr(quadratics, "_nonzero_entries",
                        lambda A: calls.append(A.shape) or reduce(A))
    gen_sysid(SysIdParams(n=2, m=1, T=6, o=4, sigma=0.01))
    parse_qplib(BOX_QP)
    parse_qplib(TWO_SIDED)
    reformulate(parse_poly(POLY_EXAMPLE))
    assert len(rlt_cuts(box, "all")) == 3
    QuadraticFunction.affine(np.ones(3), 1.0)
    problem_from_json(text)
    assert calls == []
    problem_from_json(v1_text)
    assert calls == [(4, 4)] * (1 + len(box.constraints))


def _random_poly(rng, n, k):
    poly = {}
    for _ in range(k):
        e = tuple(int(v) for v in rng.integers(0, 3, size=n))
        poly[e] = poly.get(e, 0.0) + float(rng.normal()) * 10.0 ** float(
            rng.integers(-3, 4))
    return poly


@pytest.mark.parametrize("seed", range(4))
def test_symmetric_matches_dense_reference_on_random_entries(seed):
    # repeats in both orientations, with huge, tiny and signed-zero values:
    # each cell sums in listing order before the triangles are averaged
    from qcqpen.quadratics import _symmetric
    from _support import dense_symmetric, quadratic_of
    rng = np.random.default_rng(seed)
    pool = np.array([1e300, -1e300, 1e-300, -1e-300, -0.0, 0.0, 1.0 / 3.0])
    for _ in range(250):
        n, k = int(rng.integers(1, 5)), int(rng.integers(0, 16))
        rows, cols = rng.integers(0, n, size=(2, k))
        vals = np.where(rng.random(k) < 0.5, rng.choice(pool, size=k),
                        rng.normal(size=k))
        terms = _symmetric(n, rows, cols, vals)
        A_ref, terms_ref = dense_symmetric(n, rows, cols, vals)
        assert np.array_equal(quadratic_of(n, terms).A, A_ref)
        for got, want in zip(terms, terms_ref):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_builders_match_dense_reference(monkeypatch):
    # every builder's quadratics against the dense path they took before:
    # the sysid instance, reformulations, QPLIB, affine rows and both JSON
    # readers
    from qcqpen import (PolyProblem, SysIdParams, gen_sysid, parse_poly,
                        parse_qplib, problem_from_json, problem_to_json,
                        reformulate)
    from _support import (BOX_QP, POLY_EXAMPLE, TWO_SIDED,
                          assert_dense_identical, problem_to_v1_json,
                          random_box_qcqp, record_symmetric)
    box, _ = random_box_qcqp(6, n=5)
    calls = record_symmetric(monkeypatch)
    p = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01)).problem
    assert len(calls) == 1 + len(p.constraints) == 217
    reformulate(parse_poly(POLY_EXAMPLE))
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        reformulate(PolyProblem(
            n=n, objective=_random_poly(rng, n, 8),
            constraints=[(_random_poly(rng, n, 6), "<="),
                         (_random_poly(rng, n, 6), "=")]))
    parse_qplib(BOX_QP)
    parse_qplib(TWO_SIDED)
    # a cell listed again, and from the other triangle
    parse_qplib(BOX_QP.replace("3\n1 1 2.0\n2 2 4.0\n2 1 1.0\n",
                               "5\n1 1 2.0\n2 2 4.0\n2 1 1.0\n"
                               "1 2 0.1\n2 1 0.7\n"))
    QuadraticFunction.affine(np.arange(4.0), 2.0)
    problem_from_json(problem_to_json(box))
    problem_from_json(problem_to_v1_json(box))
    assert_dense_identical(calls)


def test_qplib_maximize_negates_entries():
    # a maximized objective lists its entries negated: the same terms and A
    # as the minimized one, negated (A's zeros may carry either sign)
    from qcqpen import parse_qplib
    from _support import BOX_QP
    lo = parse_qplib(BOX_QP).objective
    hi = parse_qplib(BOX_QP.replace("minimize", "maximize")).objective
    for got, want in zip(hi.terms, lo.terms[:2] + (-lo.terms[2],)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(hi.A, -lo.A)
    assert np.array_equal(hi.b, -lo.b) and hi.c == -lo.c


def test_rlt_cuts_match_dense_products():
    # the products of affine rows against the dense outer products the
    # cuts were built from before, symmetrized twice
    from qcqpen.lifting import rlt_cuts
    from _support import random_box_qcqp, rlt_dense_rows
    p, _ = random_box_qcqp(8, n=6, affine_rows=3)
    H, h = rlt_dense_rows(p)
    cuts = rlt_cuts(p, "all")
    assert len(cuts) == 6
    for (i, j), q in cuts:
        P = 0.5 * (np.outer(H[i], H[j]) + np.outer(H[j], H[i]))
        A = 0.5 * (P + P.T)
        assert np.array_equal(q.A, A)
        for got, want in zip(q.terms, _triu_scan(A)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        b = 0.5 * (h[i] * H[j] + h[j] * H[i])
        assert q.b.tobytes() == b.tobytes() and q.c == h[i] * h[j]


# ---------------------------------------------------------------------------
# storage: a quadratic keeps its nonzeros, and A is a dense view on read


def _assert_evaluates_as_dense(p, dense, x):
    # value, gradient and Jacobian rows against x'Ax + 2b'x + c and
    # 2(Ax + b) on each quadratic's dense reference A
    J = jacobian(p, x)
    assert J.shape == (len(p.constraints), p.n)
    for k, (q, A) in enumerate(zip([p.objective] + p.constraints, dense)):
        assert np.array_equal(q.A, A)
        with pytest.raises(ValueError):
            q.A[0, 0] = 1.0
        assert q.value(x) == pytest.approx(x @ A @ x + 2.0 * q.b @ x + q.c,
                                           rel=1e-12, abs=0.0)
        grad = 2.0 * (A @ x + q.b)
        assert q.gradient(x) == pytest.approx(grad, rel=1e-12, abs=0.0)
        if k:
            assert J[k - 1] == pytest.approx(grad, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_evaluation_matches_dense_reference_on_random_entries(seed):
    from _support import dense_symmetric
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    quads, dense = [], []
    for _ in range(5):
        k = int(rng.integers(0, 3 * n))
        rows, cols = rng.integers(0, n, size=(2, k))
        vals = rng.normal(size=k)
        quads.append(QuadraticFunction.from_entries(
            rows, cols, vals, rng.normal(size=n), float(rng.normal())))
        dense.append(dense_symmetric(n, rows, cols, vals)[0])
    p = QcqpProblem(n=n, objective=quads[0], inequalities=quads[1:3],
                    equalities=quads[3:])
    _assert_evaluates_as_dense(p, dense, rng.normal(size=n))


def test_evaluation_matches_dense_reference_on_sysid(monkeypatch):
    from qcqpen import SysIdParams, gen_sysid
    from _support import dense_symmetric, record_symmetric
    calls = record_symmetric(monkeypatch)
    p = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01,
                              seed=0)).problem
    dense = {id(terms): dense_symmetric(*entries)[0]
             for entries, terms in calls}
    x = np.random.default_rng(0).normal(size=p.n)
    _assert_evaluates_as_dense(
        p, [dense[id(q.terms)] for q in [p.objective] + p.constraints], x)


def test_sysid_stores_no_dense_matrix():
    # T=40: 441 quadratics over 344 variables, 398 MB as dense matrices
    import tracemalloc
    from qcqpen import SysIdParams, gen_sysid
    tracemalloc.start()
    try:
        p = gen_sysid(SysIdParams(n=4, m=3, T=40, o=32,
                                  sigma=0.01)).problem
        x = np.random.default_rng(0).normal(size=p.n)
        p.violation(x)
        jacobian(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    for q in [p.objective] + p.constraints:
        assert not any(isinstance(v, np.ndarray) and v.ndim == 2
                       for v in vars(q).values())
    # every array the quadratics store, nonzeros only: under 1 MB in all
    stored = [a for q in [p.objective] + p.constraints
              for v in vars(q).values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert all(a.size < p.n for a in stored)
    assert sum(a.nbytes for a in stored) < 10 ** 6
