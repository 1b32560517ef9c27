import math

import numpy as np
import pytest

from qcqpen import (QcqpProblem, QuadraticFunction, SysIdParams,
                    binding_sets, check_regularity, estimate_distance,
                    gen_sysid, jacobian, pencil_norm_bound, sensitivity)


def _ball(n, radius=1.0):
    return QuadraticFunction(np.eye(n), np.zeros(n), -radius ** 2)


def _halfspace(g, offset):
    g = np.asarray(g, dtype=float)
    return QuadraticFunction(np.zeros((g.size, g.size)), 0.5 * g, -offset)


def test_binding_sets_basic():
    # x1 <= 1 binding at (1, 0); ball strictly slack
    p = QcqpProblem(n=2, objective=_ball(2),
                    inequalities=[_halfspace([1.0, 0.0], 1.0), _ball(2, 2.0)],
                    equalities=[_halfspace([0.0, 1.0], 0.0)])
    b = binding_sets(p, [1.0, 0.0])
    assert b["licq_binding"] == [0, 2]
    # equality indices always included, offset past the inequalities
    assert 2 in b["quasi_binding"]
    # with a big ball radius d, the slack ball becomes quasi-binding
    bq = binding_sets(p, [1.0, 0.0], d=3.0)
    assert 1 in bq["quasi_binding"]
    # tol override widens the binding set
    bt = binding_sets(p, [0.9, 0.0], tol=0.2)
    assert 0 in bt["licq_binding"]


def test_binding_sets_infinite_distance():
    p = QcqpProblem(n=2, objective=_ball(2), inequalities=[_ball(2)])
    b = binding_sets(p, [0.1, 0.0], d=np.inf)
    assert b["quasi_binding"] == [0]


def test_sensitivity_values():
    # two orthogonal binding halfspaces: J rows (1,0),(0,1) scaled by 2b
    h1 = _halfspace([1.0, 0.0], 0.0)
    h2 = _halfspace([0.0, 2.0], 0.0)
    p = QcqpProblem(n=2, objective=_ball(2), inequalities=[h1, h2])
    x = np.zeros(2)
    J = np.array([h1.gradient(x), h2.gradient(x)])
    sv = np.linalg.svd(J, compute_uv=False)
    assert sensitivity(p, x) == pytest.approx(sv[-1])
    # duplicated constraint rows are dependent
    pdup = QcqpProblem(n=2, objective=_ball(2), inequalities=[h1, h1])
    assert sensitivity(pdup, x) == 0.0
    # strictly feasible, d = 0: nothing quasi-binding
    pfree = QcqpProblem(n=2, objective=_ball(2), inequalities=[_ball(2)])
    assert sensitivity(pfree, [0.1, 0.0]) == math.inf


def test_pencil_norm_bound():
    q1 = QuadraticFunction(np.diag([3.0, -1.0]), np.zeros(2))
    q2 = QuadraticFunction(np.eye(2) * 2.0, np.zeros(2), -1.0)
    p = QcqpProblem(n=2, objective=_ball(2), inequalities=[q1],
                    equalities=[q2])
    assert pencil_norm_bound(p) == pytest.approx(math.sqrt(9.0 + 4.0))
    paff = QcqpProblem(n=2, objective=_ball(2),
                       inequalities=[_halfspace([1.0, 0.0], 1.0)])
    assert pencil_norm_bound(paff) == 0.0


def test_estimate_distance_ball():
    p = QcqpProblem(n=2, objective=_ball(2), inequalities=[_ball(2)])
    d, w = estimate_distance(p, [2.0, 0.0])
    assert w is not None
    assert p.violation(w) < 1e-8
    assert d == pytest.approx(1.0, abs=1e-3)
    d0, w0 = estimate_distance(p, [0.3, 0.0])
    assert d0 == 0.0
    assert np.array_equal(w0, [0.3, 0.0])


def test_estimate_distance_infeasible_problem():
    impossible = QuadraticFunction(np.eye(2), np.zeros(2), 1.0)  # |x|^2 = -1
    p = QcqpProblem(n=2, objective=_ball(2), equalities=[impossible])
    d, w = estimate_distance(p, [0.0, 0.0])
    assert d == math.inf and w is None


def _estimate_distance_three_checks(p, x, max_iter=200, tol=1e-8):
    # estimate_distance as it was when each step checked the violation at
    # its start, at every trial and again at the accepted point
    x = np.asarray(x, dtype=float)
    z = x.copy()
    if p.violation(z) < tol:
        return 0.0, z.copy()
    eye = np.eye(p.n)
    n_i = p.n_ineq
    for _ in range(max_iter):
        vals = p.eval_constraints(z)
        hit = np.concatenate([vals[:n_i] > tol, np.abs(vals[n_i:]) > tol])
        rows, targets = [jacobian(p, z)[hit]], [-vals[hit]]
        if p.lb is not None:
            low = z < p.lb - tol
            rows.append(eye[low])
            targets.append(p.lb[low] - z[low])
        if p.ub is not None:
            high = z > p.ub + tol
            rows.append(0.0 - eye[high])
            targets.append(z[high] - p.ub[high])
        J = np.vstack(rows)
        if not J.shape[0]:
            break
        delta, *_ = np.linalg.lstsq(J, np.concatenate(targets), rcond=None)
        if not np.all(np.isfinite(delta)):
            return float("inf"), None
        base = p.violation(z)
        step = 1.0
        while step > 1e-6 and p.violation(z + step * delta) >= base:
            step *= 0.5
        if step <= 1e-6:
            return float("inf"), None
        z = z + step * delta
        if p.violation(z) < tol:
            break
    if p.violation(z) < tol:
        return float(np.linalg.norm(z - x)), z
    return float("inf"), None


def test_estimate_distance_checks_each_point_once(monkeypatch):
    # sysid T=20 from x = 0: 22 steps; each point's violation is computed
    # once, and the witness keeps its bytes
    p = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01,
                              seed=0)).problem
    calls = []
    violation = QcqpProblem.violation
    monkeypatch.setattr(QcqpProblem, "violation",
                        lambda self, x: calls.append(1) or violation(self, x))
    d_ref, w_ref = _estimate_distance_three_checks(p, np.zeros(p.n))
    old_calls = len(calls)
    del calls[:]
    d, w = estimate_distance(p, np.zeros(p.n))
    assert (old_calls, len(calls)) == (71, 26)
    assert d == d_ref and w.tobytes() == w_ref.tobytes()


def test_check_regularity_ball():
    p = QcqpProblem(n=2, objective=_halfspace([1.0, 0.0], 0.0),
                    inequalities=[_ball(2)])
    x = np.array([1.0, 0.0])
    rep = check_regularity(p, x)
    assert rep.n == 2 and rep.r == 2
    assert rep.distance_ub == 0.0
    assert rep.quasi_binding == [0]
    assert rep.sigma_min == pytest.approx(2.0)
    assert rep.pencil_norm_ub == pytest.approx(1.0)
    assert rep.combinatorial_factor == pytest.approx(0.5)
    assert rep.threshold == pytest.approx(0.5)
    assert rep.satisfied


def test_check_regularity_distance_override_and_r():
    p = QcqpProblem(n=2, objective=_halfspace([1.0, 0.0], 0.0),
                    inequalities=[_ball(2)])
    x = np.array([1.0, 0.0])
    rep = check_regularity(p, x, distance=10.0)
    assert not rep.satisfied
    rep1 = check_regularity(p, x, r=1)
    assert rep1.combinatorial_factor == pytest.approx(0.5)
    with pytest.raises(ValueError):
        check_regularity(p, x, r=0)
    with pytest.raises(ValueError):
        check_regularity(p, x, r=3)


def test_check_regularity_consistency():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(3, 3))
    p = QcqpProblem(n=3, objective=QuadraticFunction(0.5 * (A + A.T),
                                                     rng.normal(size=3)),
                    inequalities=[_ball(3, 1.5)],
                    equalities=[_halfspace([1.0, 1.0, 1.0], 1.0)])
    x = rng.normal(size=3)
    rep = check_regularity(p, x)
    assert rep.satisfied == (rep.distance_ub < rep.threshold)
    assert rep.sensitivity >= 0.0
