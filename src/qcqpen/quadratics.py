"""Quadratic functions and QCQP problem containers.

A quadratic function is stored as q(x) = x'Ax + 2b'x + c with A symmetric,
so grad q = 2(Ax + b) and hess q = 2A. A QCQP is

    minimize    q0(x)
    subject to  qk(x) <= 0   for k in I
                qk(x)  = 0   for k in E
                lb <= x <= ub   (optional box)

Constraints are indexed 0..len(I)-1 for inequalities followed by
len(I)..len(I)+len(E)-1 for equalities everywhere in this package.

A is read-only after construction, so `QuadraticFunction.terms`, the
nonzeros of its upper triangle, is scanned once and cached, and so is
`spectral_norm`; lifting and regularity read A only through these two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _as_sym(A, n: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"quadratic matrix must be {n}x{n}, got {A.shape}")
    return 0.5 * (A + A.T)


def _upper_terms(A: np.ndarray):
    """(rows, cols, vals) of the nonzeros of A's upper triangle, diagonal
    included, in row-major order: one scan of A."""
    rows, cols = np.nonzero(A)
    keep = rows <= cols
    rows, cols = rows[keep], cols[keep]
    vals = A[rows, cols]
    for arr in (rows, cols, vals):
        arr.setflags(write=False)
    return rows, cols, vals


@dataclass
class QuadraticFunction:
    """q(x) = x'Ax + 2b'x + c, A symmetrized and made read-only on
    construction."""

    A: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float).ravel()
        n = self.b.shape[0]
        self.A = _as_sym(self.A, n)
        self.A.setflags(write=False)
        self.c = float(self.c)

    @cached_property
    def terms(self):
        """(rows, cols, vals): the nonzeros of A's upper triangle, diagonal
        included, row-major; the order of np.argwhere(np.triu(A) != 0)."""
        return _upper_terms(self.A)

    @cached_property
    def spectral_norm(self) -> float:
        """||A||_2, the largest |eigenvalue| of A; 0 when A is zero. Taken
        on the principal submatrix over the variables that `terms` touch,
        scattered from `terms`, so it costs the cube of their count."""
        rows, cols, vals = self.terms
        idx, pos = np.unique(np.concatenate([rows, cols]),
                             return_inverse=True)
        r, c = pos[:rows.size], pos[rows.size:]
        sub = np.zeros((idx.size, idx.size))
        sub[r, c] = sub[c, r] = vals
        return float(np.max(np.abs(np.linalg.eigvalsh(sub)), initial=0.0))

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.A @ x + 2.0 * self.b @ x + self.c)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * (self.A @ x + self.b)

    def hessian(self) -> np.ndarray:
        return 2.0 * self.A

    def is_affine(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self.A.any()
        return float(np.abs(self.A).max(initial=0.0)) <= tol

    @staticmethod
    def affine(b, c: float = 0.0) -> "QuadraticFunction":
        b = np.asarray(b, dtype=float).ravel()
        return QuadraticFunction(np.zeros((b.size, b.size)), b, c)


@dataclass
class QcqpProblem:
    n: int
    objective: QuadraticFunction
    inequalities: list = field(default_factory=list)
    equalities: list = field(default_factory=list)
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.objective.n != self.n:
            raise ValueError("objective dimension mismatch")
        for q in self.inequalities + self.equalities:
            if q.n != self.n:
                raise ValueError("constraint dimension mismatch")
        if self.lb is not None:
            self.lb = np.asarray(self.lb, dtype=float).ravel()
            if self.lb.shape != (self.n,):
                raise ValueError("lb shape mismatch")
        if self.ub is not None:
            self.ub = np.asarray(self.ub, dtype=float).ravel()
            if self.ub.shape != (self.n,):
                raise ValueError("ub shape mismatch")
        if self.lb is not None and self.ub is not None and np.any(self.lb > self.ub):
            raise ValueError("lb > ub")

    @property
    def constraints(self) -> list:
        """All constraints, inequalities first then equalities."""
        return self.inequalities + self.equalities

    @property
    def n_ineq(self) -> int:
        return len(self.inequalities)

    @property
    def n_eq(self) -> int:
        return len(self.equalities)

    def eval_constraints(self, x) -> np.ndarray:
        """Vector (qk(x)) over I then E."""
        return np.array([q.value(x) for q in self.constraints])

    def violation(self, x) -> float:
        """Max constraint violation: positive part for I, abs for E, box excess."""
        x = np.asarray(x, dtype=float)
        v = 0.0
        for q in self.inequalities:
            v = max(v, q.value(x))
        for q in self.equalities:
            v = max(v, abs(q.value(x)))
        if self.lb is not None:
            v = max(v, float(np.max(self.lb - x, initial=0.0)))
        if self.ub is not None:
            v = max(v, float(np.max(x - self.ub, initial=0.0)))
        return v


def jacobian(p: QcqpProblem, x) -> np.ndarray:
    """Constraint Jacobian J(x), one row per constraint (I then E).

    Row k is grad qk(x)' = 2(A_k x + b_k)'. Shape (m, n); empty (0, n)
    when the problem has no constraints.
    """
    x = np.asarray(x, dtype=float)
    return np.array([q.gradient(x) for q in p.constraints]).reshape(-1, p.n)
