"""Semidefinite relaxations of QCQPs over partial matrix liftings.

Each quadratic q(x) = x'Ax + 2b'x + c becomes the affine functional
qbar(x, X) = <A, X> + 2b'x + c in the lifted variables (x, X), and the
nonconvex coupling X = xx' is relaxed to "every r x r principal submatrix
of X - xx' is PSD", imposed through Schur blocks

    [[1, x_K'], [x_K, X_KK]]  >=  0

for variable subsets K. One function picks the subsets, and both the
stored X entries and the blocks follow from that list. r = n gives the
full semidefinite relaxation (one block over all variables); r = 2 gives
one 3x3 block per stored off-diagonal pair; explicit subsets give one
block each. In every mode a stored diagonal entry outside every subset
gets a 2x2 block of its own. Entries of X that appear in no quadratic term
can be dropped entirely (sparsity, r = 2), which shrinks the cone without
changing the bound.

Rows and block subsets come from each quadratic's `terms`, the nonzeros of
its matrix's upper triangle, which the quadratic sets from its entries at
construction: a lifting costs O(nnz) per quadratic, not O(n^2).

Optional tightening rows: box-derived cuts on the diagonal

    X_ii - (lb+ub) x_i + lb*ub <= 0        (lb,ub)
    X_ii - 2 ub x_i + ub^2    >= 0         (ub,ub)
    X_ii - 2 lb x_i + lb^2    >= 0         (lb,lb)

and reformulation-linearization (RLT) products of affine constraint pairs.

The penalized variant adds eta * (tr X - 2 xhat'x + xhat'xhat) to the
objective, a proximal term that vanishes exactly on rank-one liftings at
x = xhat; minimizers with X = xx' are feasible for the original QCQP.

Only the objective depends on xhat and eta. So `lift` builds a relaxation
once; `build_penalized` writes each round's objective over its cone, the
unpenalized relaxation's too when `penalty_blocks` is 0. Both it and
`extract` read the map's slot arrays and lifted row, and never form X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .quadratics import QcqpProblem, QuadraticFunction
from .solver import Cone, ConicProgram, ConicSolution, PsdBlock


@dataclass
class RelaxationConfig:
    """r: submatrix order (None means n). bound_cuts: add box-diagonal cuts.
    rlt_pairs: None, "all", or explicit list of affine-row index pairs.
    sparsity: drop lifted entries appearing in no term (r = 2 only).
    subsets: explicit list of variable subsets for 2 < r < n."""

    r: int | None = None
    bound_cuts: bool = False
    rlt_pairs: object = None
    sparsity: bool = True
    subsets: list | None = None


@dataclass
class LiftedPoint:
    x: np.ndarray
    objective: float
    residual: float


@dataclass
class ExtractionMap:
    """Slots in u = (x, stored X entries): X_index[(i, j)], i <= j, and
    diag_slots, those of diag_stored. qbar0(x, X) = c @ u + c0."""

    n: int
    X_index: dict
    diag_stored: list
    diag_slots: np.ndarray
    c: np.ndarray
    c0: float
    penalty_blocks: int     # 2x2 blocks that only the penalty needs


def rlt_pair_list(m: int):
    """All unordered row pairs (i, j), i <= j: m(m+1)/2 of them."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def _rlt_rows(p: QcqpProblem):
    """Rows (support, values, h) of Hx + h <= 0, from each affine row's
    `linear`: the affine inequalities (2b_k, c_k), then the affine
    equalities, then those negated, so each row is +-q_k(x) <= 0."""
    ineq = [q for q in p.inequalities if q.is_affine()]
    eq = [q for q in p.equalities if q.is_affine()]
    rows = [(q.linear[0], 2.0 * q.linear[1], q.c) for q in ineq + eq]
    return rows + [(s, -v, -c) for s, v, c in rows[len(ineq):]]


def rlt_cuts(p: QcqpProblem, pairs="all"):
    """Lifted products of affine constraint rows.

    For rows i, j of Hx + h <= 0, in `_rlt_rows`' order, the product
    (H_i x + h_i)(H_j x + h_j) is nonnegative on the feasible set; its
    lifting is the functional qbar_c(x, X) >= 0 with

        A_c = sym(H_i H_j'),  b_c = (h_i H_j + h_j H_i)/2,  c_c = h_i h_j.

    Each cut lists its entries from the two rows' supports. Returns a list
    of ((i, j), QuadraticFunction) in the order of pairs ("all": every
    `rlt_pair_list` pair).
    """
    rows = _rlt_rows(p)
    m = len(rows)
    if pairs == "all":
        pairs = rlt_pair_list(m)
    out = []
    for (i, j) in pairs:
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"RLT pair {(i, j)} out of range for {m} rows")
        (si, vi, hi), (sj, vj, hj) = rows[i], rows[j]
        # b_c lists h_i H_j, then h_j H_i: repeats sum in that order
        lin = np.r_[sj, si], 0.5 * np.r_[hi * vj, hj * vi]
        out.append(((i, j), QuadraticFunction.from_sparse(
            p.n, np.repeat(si, sj.size), np.tile(sj, si.size),
            np.outer(vi, vj).ravel(), lin, hi * hj)))
    return out


def _block_subsets(p, cfg, cuts, penalized: bool):
    """(subsets, own): the variable subsets K of the Schur blocks, sorted.

    r = 2: the stored pairs, then each stored diagonal that lies outside
    every pair; r = n: one subset holding every variable; explicit subsets:
    as given. penalized adds a singleton for each diagonal still missing;
    own counts them. The stored X entries are exactly those blocks cover.
    """
    n = p.n
    r = cfg.r if cfg.r is not None else n
    diags = set()
    if cfg.subsets is not None:
        if not (2 <= r <= n):
            raise ValueError(f"subset order r={r} outside [2, {n}]")
        subsets = []
        for K in cfg.subsets:
            K = tuple(sorted(set(int(i) for i in K)))
            if len(K) != r:
                raise ValueError("every subset must have exactly r variables")
            if K[0] < 0 or K[-1] >= n:
                raise ValueError("subset variable out of range")
            subsets.append(K)
    elif r == n:
        return [tuple(range(n))], 0
    elif r == 2:
        if not cfg.sparsity:
            pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
            diags.update(range(n))  # n = 1 has no pair to cover X_00
        else:
            pairs = set()
            for q in [p.objective] + p.constraints + [q for _, q in cuts]:
                rows, cols, _ = q.terms
                on_diag = rows == cols
                diags.update(rows[on_diag].tolist())
                pairs.update(zip(rows[~on_diag].tolist(),
                                 cols[~on_diag].tolist()))
            if cfg.bound_cuts:
                lb, ub = _box(p)
                diags.update(np.flatnonzero(np.isfinite(lb)
                                            | np.isfinite(ub)).tolist())
        subsets = sorted(pairs)
    else:
        raise ValueError(
            f"r={r} requires an explicit subset list (only r=2 and r=n "
            "have automatic block patterns)")
    covered = {i for K in subsets for i in K}
    own = set(range(n)) - covered - diags if penalized else set()
    return subsets + [(i,) for i in sorted(own | diags - covered)], len(own)


def _box(p: QcqpProblem):
    """(lb, ub) of p, a missing bound infinite."""
    return (p.lb if p.lb is not None else np.full(p.n, -np.inf),
            p.ub if p.ub is not None else np.full(p.n, np.inf))


class _Lifter:
    """Maps quadratic functions to rows over u = (x, stored X entries)."""

    def __init__(self, p, subsets):
        self.diags = sorted({i for K in subsets for i in K})
        pairs = sorted({(a, b) for K in subsets
                        for ai, a in enumerate(K) for b in K[ai + 1:]})
        # the stored diagonals first: `lift` numbers their slots from n on
        keys = [(i, i) for i in self.diags] + pairs
        self.X_index = {key: p.n + k for k, key in enumerate(keys)}
        self.n_vars = p.n + len(keys)

    def row(self, q: QuadraticFunction):
        """(cols, vals, const) with qbar(x, X) = vals @ u[cols] + const:
        the nonzeros of b, then those of A's upper triangle (q.terms)."""
        lin, bvals = q.linear
        rows, cols, vals = q.terms
        try:
            xcols = [self.X_index[key]
                     for key in zip(rows.tolist(), cols.tolist())]
        except KeyError as exc:
            a, b = exc.args[0]
            raise ValueError(
                f"term X[{a},{b}] is not stored under this block pattern"
            ) from None
        return (np.concatenate([lin, np.asarray(xcols, dtype=np.int64)]),
                np.concatenate([2.0 * bvals,
                                np.where(rows == cols, vals, 2.0 * vals)]),
                q.c)


def _blocks(lifter, subsets):
    """One block [[1, x_K'], [x_K, X_KK]] >= 0 per subset K, its arrays
    written in svec's row-major lower-triangle order: the constant 1, then
    row a holds x_{K[a-1]} followed by X_{K[b-1], K[a-1]} for b = 1..a."""
    X_index = lifter.X_index
    out = []
    for K in subsets:
        var = [-1]
        for ai, a in enumerate(K):
            var.append(a)
            var.extend(X_index[(b, a)] for b in K[:ai + 1])
        var = np.asarray(var, dtype=np.int64)
        const = np.zeros(var.size)
        const[0] = 1.0
        out.append(PsdBlock(len(K) + 1, var, (var >= 0).astype(float), const))
    return out


def _csr(rows, n_vars):
    """(CSR matrix, rhs) of rows given as (cols, vals, rhs) triplets."""
    if not rows:
        return sp.csr_matrix((0, n_vars)), np.zeros(0)
    cols, vals, rhs = zip(*rows)
    ri = np.repeat(np.arange(len(rows)), [len(c) for c in cols])
    M = sp.csr_matrix((np.concatenate(vals), (ri, np.concatenate(cols))),
                      shape=(len(rows), n_vars))
    return M, np.asarray(rhs, dtype=float)


def lift(p: QcqpProblem, cfg: RelaxationConfig | None = None,
         penalized: bool = False):
    """Lifted relaxation of p under cfg; returns (ConicProgram,
    ExtractionMap), the program's objective being p's lifted objective.

    penalized stores every X_ii, so that the penalty's trace term is
    complete: a variable that no block covers gets a 2x2 block
    [[1, x_i], [x_i, X_ii]] >= 0 of its own.
    """
    cfg = cfg or RelaxationConfig()
    n = p.n
    r = cfg.r if cfg.r is not None else n
    if not (2 <= r <= n) and not (n == 1 and r in (1, 2, None)):
        raise ValueError(f"r={r} outside [2, n={n}]")
    cuts = rlt_cuts(p, cfg.rlt_pairs) if cfg.rlt_pairs is not None else []
    subsets, own = _block_subsets(p, cfg, cuts, penalized)
    lifter = _Lifter(p, subsets)

    # rows (cols, vals, rhs): nonnegative rows . u <= rhs, equalities = rhs
    nn = [(rc, rv, -c) for rc, rv, c in map(lifter.row, p.inequalities)]
    eq = [(rc, rv, -c) for rc, rv, c in map(lifter.row, p.equalities)]
    lb, ub = _box(p)
    nn += [([i], [-1.0], -lb[i]) for i in np.flatnonzero(np.isfinite(lb))]
    nn += [([i], [1.0], ub[i]) for i in np.flatnonzero(np.isfinite(ub))]
    if cfg.bound_cuts:
        for i in range(n):
            di = lifter.X_index.get((i, i))
            if di is None:
                continue
            if np.isfinite(lb[i]) and np.isfinite(ub[i]):
                nn.append(([di, i], [1.0, -(lb[i] + ub[i])], -lb[i] * ub[i]))
            if np.isfinite(ub[i]):
                nn.append(([di, i], [-1.0, 2.0 * ub[i]], ub[i] ** 2))
            if np.isfinite(lb[i]):
                nn.append(([di, i], [-1.0, 2.0 * lb[i]], lb[i] ** 2))

    nn += [(rc, -rv, c) for rc, rv, c in (lifter.row(q) for _, q in cuts)]

    A, b = _csr(eq, lifter.n_vars)
    Gn, hn = _csr(nn, lifter.n_vars)
    cone = Cone(lifter.n_vars, A, b, Gn, hn, _blocks(lifter, subsets))
    cols, vals, c0 = lifter.row(p.objective)
    c = np.zeros(lifter.n_vars)
    c[cols] = vals
    slots = n + np.arange(len(lifter.diags))
    emap = ExtractionMap(n, lifter.X_index, lifter.diags, slots, c, c0, own)
    return ConicProgram(cone, c, c0), emap


def build_relaxation(p: QcqpProblem, cfg: RelaxationConfig | None = None):
    """Lifted relaxation of p; returns (ConicProgram, ExtractionMap).

    The optimum of the program lower-bounds the QCQP optimum.
    """
    return lift(p, cfg)


def build_penalized(relaxation, xhat, eta: float):
    """The relaxation (ConicProgram, ExtractionMap) from `lift(p, cfg,
    penalized=True)` plus the proximal penalty
    eta*(tr X - 2 xhat'x + xhat'xhat), eta > 0, as a new objective over
    the same cone; returns (ConicProgram, ExtractionMap)."""
    prog, emap = relaxation
    n = emap.n
    if eta <= 0:
        raise ValueError("penalty parameter eta must be positive")
    if len(emap.diag_stored) != n:
        raise ValueError("the penalty needs every X_ii: lift the relaxation "
                         "with penalized=True")
    xhat = np.asarray(xhat, dtype=float).ravel()
    if xhat.shape != (n,):
        raise ValueError("xhat has wrong dimension")
    c = emap.c.copy()
    c[:n] -= 2.0 * eta * xhat
    c[emap.diag_slots] += eta
    return ConicProgram(prog.cone, c, emap.c0 + eta * float(xhat @ xhat)), emap


def extract(sol: ConicSolution, emap: ExtractionMap) -> LiftedPoint:
    """Read x off a solver solution and score the lifting (x, X).

    residual = sum over stored diagonals of X_ii - x_i^2 = tr(X - xx')
    restricted to stored entries; >= 0 up to solver tolerance, and 0 exactly
    when the lifting is rank-one on the stored pattern. objective is the
    unpenalized lifted objective qbar0(x, X) = c @ u + c0.
    """
    u = sol.u
    x = np.asarray(u[:emap.n], dtype=float).copy()
    lifted = float(emap.c @ u + emap.c0)
    # scalar by scalar, summed left to right: numpy's array square of x can
    # differ from its scalar power by an ulp, and tightness reads these bits
    residual = float(sum(u[k] - x[i] ** 2
                         for i, k in zip(emap.diag_stored, emap.diag_slots)))
    return LiftedPoint(x=x, objective=lifted, residual=residual)
