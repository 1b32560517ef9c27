"""Quadratic functions and QCQP problem containers.

A quadratic function is stored as q(x) = x'Ax + 2b'x + c with A symmetric,
so grad q = 2(Ax + b) and hess q = 2A. A QCQP is

    minimize    q0(x)
    subject to  qk(x) <= 0   for k in I
                qk(x)  = 0   for k in E
                lb <= x <= ub   (optional box)

Constraints are indexed 0..len(I)-1 for inequalities followed by
len(I)..len(I)+len(E)-1 for equalities everywhere in this package.

Every constructor checks its entry lists in one place and sums them into
`terms`, the nonzeros of A's upper triangle, and `linear`, b's nonzeros. A
quadratic stores those and c; evaluation, lifting, regularity and the JSON
writer read them in O(nnz).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _nonzero_entries(A: np.ndarray):
    """(rows, cols, vals) of a dense matrix's nonzeros, row-major."""
    rows, cols = np.nonzero(A)
    return rows, cols, A[rows, cols]


def _entries(n: int, *arrays):
    """(*indices, vals) as intp arrays and floats; ValueError unless all are
    1-D and of one length and every index is an integer in 0..n-1."""
    index = [np.asarray(a) for a in arrays[:-1]]
    vals = np.asarray(arrays[-1], dtype=float)
    if vals.shape != (vals.size,) or any(
            a.shape != vals.shape or a.dtype.kind not in "iuf" for a in index):
        raise ValueError("entry arrays must be 1-D numbers of one length")
    with np.errstate(invalid="ignore"):
        out = [a.astype(np.intp) for a in index]
    if any(np.any((i != a) | (i < 0) | (i >= n)) for i, a in zip(out, index)):
        raise ValueError(f"entry index not an integer in 0..{n - 1}")
    return *out, vals


def _symmetric(n: int, rows, cols, vals):
    """terms = (rows, cols, vals), row-major, of the upper triangle's nonzeros
    of 0.5 (M + M'), where the n x n matrix M sums at each (i, j), in listing
    order, the vals listed there."""
    rows, cols, vals = _entries(n, rows, cols, vals)
    cells, at = np.unique(rows * n + cols, return_inverse=True)
    m = np.bincount(at, weights=vals)
    r, c = np.divmod(cells, n)
    # cells run row-major: upper (i, j) sums M[i, j] then M[j, i], or 2 M[i, i]
    cells, at = np.unique(np.minimum(r, c) * n + np.maximum(r, c),
                          return_inverse=True)
    s = 0.5 * np.bincount(at, weights=np.where(r == c, 2.0 * m, m))
    nonzero = s != 0.0
    return *np.divmod(cells[nonzero], n), s[nonzero]


def _linear(n: int, linear):
    """linear = (idx, vals), idx ascending, of the nonzeros of the n-vector
    that sums at each index, in listing order, the vals listed there."""
    idx, vals = _entries(n, *linear)
    cells, at = np.unique(idx, return_inverse=True)
    s = np.bincount(at, weights=vals).astype(float)  # int64 when empty
    nonzero = s != 0.0
    return cells[nonzero], s[nonzero]


class QuadraticFunction:
    """q(x) = x'Ax + 2b'x + c, A the symmetric part of the matrix or entries
    given. Stored: `terms` = (rows, cols, vals), A's upper-triangle nonzeros
    in np.argwhere(np.triu(A) != 0)'s order, and `linear` = b's (idx, vals).
    The dense views A and b are for tests and the benchmark."""

    def __init__(self, A, b, c: float = 0.0):
        b = np.asarray(b, dtype=float).ravel()
        n = b.shape[0]
        A = np.asarray(A, dtype=float)
        if A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got shape {A.shape}")
        self._store(n, *_nonzero_entries(A), (np.arange(n), b), c)

    @classmethod
    def from_entries(cls, rows, cols, vals, b, c: float = 0.0):
        """q with A the symmetric part of the sum of vals at (rows, cols)."""
        b = np.asarray(b, dtype=float).ravel()
        return cls.from_sparse(b.size, rows, cols, vals,
                               (np.arange(b.size), b), c)

    @classmethod
    def from_sparse(cls, n: int, rows, cols, vals, linear, c: float = 0.0):
        """As `from_entries`, with b listed as linear = (idx, vals): no
        length-n array is built. Both lists have one contract: 1-D arrays of
        one length and integer indices in 0..n-1, else ValueError; repeats
        summed in listing order; zero sums dropped."""
        q = cls.__new__(cls)
        q._store(n, rows, cols, vals, linear, c)
        return q

    def _store(self, n, rows, cols, vals, linear, c):
        self.n, self.c = n, float(c)
        self.terms = _symmetric(n, rows, cols, vals)
        self.linear = _linear(n, linear)
        for arr in self.terms + self.linear:
            arr.setflags(write=False)

    @property
    def A(self) -> np.ndarray:
        """Dense read-only A, built on each read in O(n^2)."""
        A = np.zeros((self.n, self.n))
        rows, cols, vals = self.terms
        A[rows, cols] = A[cols, rows] = vals
        A.setflags(write=False)
        return A

    @property
    def b(self) -> np.ndarray:
        """Dense read-only b, built on each read; its zeros are +0.0."""
        b = np.zeros(self.n)
        b[self.linear[0]] = self.linear[1]
        b.setflags(write=False)
        return b

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

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        rows, cols, vals = self.terms
        idx, lin = self.linear
        w = np.where(rows == cols, vals, 2.0 * vals)
        return float(w @ (x[rows] * x[cols]) + 2.0 * lin @ x[idx] + self.c)

    def gradient(self, x) -> np.ndarray:
        """2(Ax + b), Ax from the upper and the strictly lower terms."""
        x = np.asarray(x, dtype=float)
        rows, cols, vals = self.terms
        off = rows != cols
        Ax = (np.bincount(rows, vals * x[cols], minlength=self.n)
              + np.bincount(cols[off], vals[off] * x[rows[off]],
                            minlength=self.n))
        return 2.0 * (Ax + self.b)

    def is_affine(self, tol: float = 0.0) -> bool:
        """No term above tol in size; at tol = 0, no term at all."""
        return float(np.abs(self.terms[2]).max(initial=0.0)) <= tol

    @staticmethod
    def affine(b, c: float = 0.0) -> "QuadraticFunction":
        return QuadraticFunction.from_entries([], [], [], b, c)


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
        for name in ("lb", "ub"):
            if getattr(self, name) is not None:
                v = np.asarray(getattr(self, name), dtype=float).ravel()
                if v.shape != (self.n,):
                    raise ValueError(f"{name} shape mismatch")
                setattr(self, name, v)
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
