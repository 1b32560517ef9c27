"""Regularity diagnostics for QCQP anchor points.

The quality guarantee for a penalized relaxation anchored at xhat depends
on how far xhat is from the feasible set and how well-conditioned the
nearby constraints are. This module provides the pieces:

  * binding sets: exactly binding constraints at xhat, and the quasi-binding
    superset B(xhat, d) = E union {k in I : qk(xhat) + ||grad qk(xhat)|| d
    + ||A_k||_2 d^2 >= 0}, the constraints that could become binding within
    distance d;
  * sensitivity s(xhat, d): smallest singular value of the quasi-binding
    Jacobian, 0 when its rows are dependent (generalized LICQ fails), +inf
    when the set is empty;
  * an upper bound on the distance to feasibility, found by sequential
    minimum-norm linearization steps;
  * the spectral bound sqrt(sum_k ||A_k||_2^2) on the constraint pencil,
    each ||A_k||_2 the quadratic's cached `spectral_norm`;
  * check_regularity, combining them into the sufficient condition

        dist(xhat, F) < s(xhat, d) / (2 ||P|| (1 + C(n-1, r-1)))

    under which one penalized round at a suitable eta is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadratics import QcqpProblem, jacobian


def binding_sets(p: QcqpProblem, x, d: float = 0.0, tol: float | None = None) -> dict:
    """Binding and quasi-binding constraint indices at x.

    licq_binding: equalities plus inequalities with |qk(x)| <= tol_k where
    tol_k = tol if given, else 1e-6 * (1 + |c_k|). quasi_binding: equalities
    plus inequalities whose value could reach 0 within distance d (second
    order bound); at d = 0 and tol = 0 the two sets agree for feasible x.
    """
    x = np.asarray(x, dtype=float)
    n_i = p.n_ineq
    licq, quasi = [], []
    for k, q in enumerate(p.inequalities):
        val = q.value(x)
        tk = tol if tol is not None else 1e-6 * (1.0 + abs(q.c))
        if abs(val) <= tk:
            licq.append(k)
        gnorm = float(np.linalg.norm(q.gradient(x)))
        anorm = q.spectral_norm
        if np.isinf(d):
            member = gnorm > 0 or anorm > 0 or val >= 0
        else:
            member = val + gnorm * d + anorm * d * d >= 0
        if member:
            quasi.append(k)
    eq_idx = list(range(n_i, n_i + p.n_eq))
    return {"licq_binding": licq + eq_idx, "quasi_binding": quasi + eq_idx}


def row_rank_test(J: np.ndarray):
    """(sigma_min, dependent) for the rows of J.

    sigma_min is the smallest singular value: +inf for no rows, 0 for more
    rows than columns. The rows are dependent when there are more of them
    than columns or when sigma_min <= 1e-8 * sigma_max (a zero J included).
    """
    if J.shape[0] == 0:
        return float("inf"), False
    if J.shape[0] > J.shape[1]:
        return 0.0, True
    sv = np.linalg.svd(J, compute_uv=False)
    return float(sv[-1]), bool(sv[0] == 0.0 or sv[-1] <= 1e-8 * sv[0])


def sensitivity(p: QcqpProblem, x, d: float = 0.0) -> float:
    """sigma_min of the quasi-binding Jacobian at x.

    +inf when no constraint is quasi-binding; 0 when the rows are linearly
    dependent (see `row_rank_test`).
    """
    rows = binding_sets(p, x, d=d)["quasi_binding"]
    sigma_min, dependent = row_rank_test(jacobian(p, x)[rows])
    return 0.0 if dependent else sigma_min


def pencil_norm_bound(p: QcqpProblem) -> float:
    """sqrt(sum over I and E of ||A_k||_2^2), an upper bound on the spectral
    norm of any unit-combination of constraint Hessians."""
    return math.sqrt(sum(q.spectral_norm ** 2 for q in p.constraints))


def estimate_distance(p: QcqpProblem, x, max_iter: int = 200,
                      tol: float = 1e-8):
    """Upper bound on dist(x, F) via damped sequential linearization.

    Repeatedly takes the minimum-norm step that zeroes the linearized
    violated constraints (box bounds included), halving the step while it
    does not reduce the maximum violation. Returns (distance, witness);
    (inf, None) if no point with violation < tol is found within max_iter.
    """
    x = np.asarray(x, dtype=float)
    z = x.copy()
    if (viol := p.violation(z)) < tol:
        return 0.0, z.copy()
    eye = np.eye(p.n)
    n_i = p.n_ineq
    for _ in range(max_iter):
        # rows: violated inequalities, violated equalities, lower bounds,
        # upper bounds
        vals = p.eval_constraints(z)
        hit = np.concatenate([vals[:n_i] > tol, np.abs(vals[n_i:]) > tol])
        rows, targets = [jacobian(p, z)[hit]], [-vals[hit]]
        if p.lb is not None:
            low = z < p.lb - tol
            rows.append(eye[low])
            targets.append(p.lb[low] - z[low])
        if p.ub is not None:
            high = z > p.ub + tol
            # rows -e_i: 0.0 - eye keeps their zeros +0.0 (-eye gives -0.0)
            rows.append(0.0 - eye[high])
            targets.append(z[high] - p.ub[high])
        J = np.vstack(rows)
        if not J.shape[0]:
            break
        delta, *_ = np.linalg.lstsq(J, np.concatenate(targets), rcond=None)
        if not np.all(np.isfinite(delta)):
            return float("inf"), None
        step, trial = 1.0, z + delta
        while (trial_viol := p.violation(trial)) >= viol:
            step *= 0.5
            if step <= 1e-6:
                return float("inf"), None
            trial = z + step * delta
        z, viol = trial, trial_viol
        if viol < tol:
            break
    if viol < tol:
        return float(np.linalg.norm(z - x)), z
    return float("inf"), None


@dataclass
class RegularityReport:
    n: int
    r: int
    distance_ub: float
    witness: np.ndarray | None
    quasi_binding: list
    sigma_min: float
    sensitivity: float
    pencil_norm_ub: float
    combinatorial_factor: float
    threshold: float
    satisfied: bool


def check_regularity(p: QcqpProblem, x, r: int | None = None,
                     distance: float | None = None) -> RegularityReport:
    """Evaluate the single-round tightness condition at x for block order r.

    distance overrides the internal feasibility-distance estimate (useful
    when the true distance is known). The condition compares the distance
    upper bound against s(x, d) / (2 ||P|| (1 + C(n-1, r-1))); infinities
    follow the natural conventions (empty quasi-binding set gives s = +inf,
    a constraint-free pencil gives an infinite threshold).
    """
    x = np.asarray(x, dtype=float)
    n = p.n
    r = n if r is None else int(r)
    if not 1 <= r <= n:
        raise ValueError(f"r={r} outside [1, n={n}]")
    if distance is None:
        d_ub, witness = estimate_distance(p, x)
    else:
        d_ub, witness = float(distance), None
    quasi = binding_sets(p, x, d=d_ub)["quasi_binding"]
    sigma_min, dependent = row_rank_test(jacobian(p, x)[quasi])
    sens = 0.0 if dependent else sigma_min
    pnorm = pencil_norm_bound(p)
    factor = 1.0 / (1.0 + math.comb(n - 1, r - 1))
    if sens == 0.0:
        threshold = 0.0
    elif pnorm == 0.0 or np.isinf(sens):
        threshold = float("inf")
    else:
        threshold = factor * sens / (2.0 * pnorm)
    satisfied = bool(d_ub < threshold)
    return RegularityReport(
        n=n, r=r, distance_ub=d_ub, witness=witness, quasi_binding=quasi,
        sigma_min=sigma_min, sensitivity=sens, pencil_norm_ub=pnorm,
        combinatorial_factor=factor, threshold=threshold, satisfied=satisfied)
