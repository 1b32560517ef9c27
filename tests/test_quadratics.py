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
    assert np.array_equal(q.hessian(), np.zeros((2, 2)))
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
