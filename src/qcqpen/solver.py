"""Primal-dual interior-point solver for linear cone programs.

Standard form:

    minimize    c'u + c0
    subject to  A u = b
                Gn u <= hn                      (componentwise)
                S_beta(u) >= 0 (PSD)            for each matrix block beta

where each slack matrix S_beta is affine in u with at most one variable per
entry: S[a, b] = const + coef * u[var]. Internally the PSD constraints are
handled in scaled vector (svec) coordinates so that all cones become one
product cone K: with s = (hn - Gn u, svec(S_1), svec(S_2), ...) the program
is  min c'u  s.t.  Au = b,  Gu + s = h,  s in K. As in CVXOPT's conelp,
one G and one h span the whole product cone. A program is an objective
over a `Cone`, which programs differing only in their objective share (as
in OSQP's setup-once, update-vectors interface). G, h and everything else
derived from the constraints is built once per cone, and every product
with G, G', A or A' goes through scipy's compressed-format matvec kernel,
bound once (`_matvec`) so that no product pays scipy's per-call dispatch.

The algorithm is a Nesterov-Todd scaled Mehrotra predictor-corrector method:
at each iterate the scaling W with W z-bar = W^{-T} s-bar = lambda is
computed per block, the Newton system
[[0, A', G'], [A, 0, 0], [G, 0, -W'W]] [du; dy; dz] = [bu; by; bz] is solved
in float64 on one of three paths, chosen once per cone by `_kkt_path`, and
steps are damped by a fraction of the distance to the cone boundary.

- full: programs whose KKT matrix has order n + m + dim K at most
  `_FULL_KKT_ORDER` factor it with one dense LU per iteration.
- sparse: dz is eliminated at every cone row but the kept ones, the
  nonnegative rows D with so many nonzeros that their pairs alone would
  fill a tenth of H (`_kept_rows`). The normal matrix
  H_S = G_S' (W_S'W_S)^{-1} G_S of the other rows S is listed term by term
  by `_NormalMap` (each pair of entries of an eliminated nonnegative row,
  then each pair of variable slots of a PSD block), summed into the
  quasidefinite augmented matrix
  [[H_S, A', G_D'], [A, -delta I, 0], [G_D, 0, -(W_D^2 + delta I)]] in CSC
  form and factored with one sparse LU (Vanderbei, "Symmetric
  quasi-definite matrices", 1995; as in ECOS). Its pattern is fixed per
  cone, so its fill-reducing order is computed once (`_ordering`) and the
  matrix is assembled already in that order; each iteration only refactors
  it numerically (Davis, "Direct Methods for Sparse Linear Systems", 2006;
  ECOS's symbolic analysis at setup). Keeping the dense rows
  un-eliminated is Vanderbei and Carpenter's augmented system (Math.
  Prog. 58, 1993) and Andersen's cure for dense columns (ACM TOMS 22,
  1996): a row with nk nonzeros costs nk entries, not nk^2. A fixed
  variable, the one column j of an equality row i that no other equality
  row holds (`_fixed_variables`), leaves the factored system: du_j is
  by_i / a, column j is an isolated unit pivot, and row i goes, so delta
  shifts only the equality rows that are left (the first step of
  Andersen and Andersen's presolve, Math. Prog. 71, 1995; each of sysid's
  observed states is one). A program takes this path when its eliminated
  rows scatter into fewer than a tenth of H's n^2 entries, and also when
  the dual path does not apply.
- dual: when every variable has a PSD slot and r = n_eq + l_nn + (PSD slots
  - n) is below n, as in every full moment lifting, du and the PSD part of
  dz are eliminated through the PSD slots instead (`_DualKkt`), and the SPD
  matrix M = C W'W C' + diag(0, wn^2, 0) of order r is Cholesky-factored:
  the Schur complement whose order is the number of constraints, not the
  number of lifted entries. As in Fujisawa, Kojima and Nakata (Math. Prog.
  79, 1997), only C's dense rows, those with more nonzeros than the largest
  block's order, pay a W'W congruence; M over the sparse rows is formed
  from the symmetric Kronecker entries of W'W at the same-block pairs of
  the slots they touch.

Every path refines its solves against the full system, the W'W dz term
included, as CVXOPT's conelp does (Vandenberghe, "The CVXOPT linear and
quadratic cone program solvers", 2010), as often as its factorization
needs (`passes`): once where it factored a positive definite matrix
unshifted, the sparse path's H alone or the dual path's M, since one step
of fixed-precision refinement already makes a backward-stable solve
componentwise stable (Skeel, Math. Comp. 35, 1980; Higham, "Accuracy and
Stability of Numerical Algorithms", ch. 12); twice where it factored the
full path's indefinite matrix, a quasidefinite one or a shifted one.

The cone operations (applying W and its inverse, Jordan products, step
lengths) work per group of equal-size blocks through flat slot maps built
once per cone: one `take` gathers the group's matrices out of an s-space
vector (or a stack of them), and one `take` of each triangle gathers svec
coordinates out of the matrices. The factors of each W mode are formed once
per iteration. A group of at least `_CLOSED_FORM_BLOCKS` blocks of order
m <= 3 (`_BlockGroup.closed`) takes closed forms unrolled over its blocks
for the smallest eigenvalues (step lengths, `_min_eig`) and for the NT
scaling's Cholesky factor and its inverse (`_cholesky`). They agree with
LAPACK to a few eps times the block's norm and fail where it fails. Every
mode of W is a congruence X mat(v) X', and all closed groups of a cone
apply it together through two sparse maps whose patterns are built once
per cone (`_ClosedMap`): v -> Y_b = X_b mat(v_b), then Y -> svec(sym(Y_b
X_b')), each one scipy CSR product over every closed block (or a stack of
vectors), with data gathered once per mode by one `take` of the factors.
They agree with the matrix products to a few eps times ||X||^2 ||v||.
Every other group takes LAPACK, with one eigvalsh per group for both scaled
directions of a step length and batched matrix products over its
(nb, m, m) stack for W; those groups keep smat's and svec's arithmetic, so
their iterates match theirs bit for bit, in fewer numpy calls, whose fixed
cost outweighs a small block's arithmetic: in-place work on what one
gather took, exact power-of-two scalings folded into the weights, and one
-1/emin per step length. eigh stays on LAPACK for every group.

A cold solve starts from the identity scaling. Its half that does not
depend on c, the factor there and the initial u and s, is built once per
cone (`Cone.start`); each solve adds only its y and z. A cold solve also
keeps its first iterate whose primal and dual residuals are both at most
`_RESTART_RESIDUAL` (`ConicSolution.restart`). A later solve over the same
cone may start there (`start`): that iterate is interior and well
centered, with mu still far above its final level, so a program whose c
differs a little reaches optimality from it without repeating the cold
start's opening iterations (Gondzio and Grothey, "Reoptimization with the
primal-dual interior point method", SIAM J. Optim. 13, 2003). A warm
solve keeps no restart.

Deterministic: no randomization anywhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

try:
    from scipy.sparse import _sparsetools
except ImportError:     # a private module: `_matvec` falls back to `@`
    _sparsetools = None

_log = logging.getLogger("qcqpen.solver")

# cached svec index data per matrix size: (rows, cols, weights)
_SVEC_CACHE: dict = {}


def svec_index(m: int):
    """Lower-triangle (row-major) svec indexing for symmetric m x m matrices.

    Returns (rows, cols, w) with w = sqrt(2) off the diagonal so that
    svec(A) . svec(B) = <A, B>_F.
    """
    hit = _SVEC_CACHE.get(m)
    if hit is None:
        rows, cols = np.tril_indices(m)
        w = np.where(rows == cols, 1.0, np.sqrt(2.0))
        hit = (rows, cols, w)
        _SVEC_CACHE[m] = hit
    return hit


def svec(M: np.ndarray) -> np.ndarray:
    rows, cols, w = svec_index(M.shape[-1])
    return M[..., rows, cols] * w


def smat(v: np.ndarray, m: int) -> np.ndarray:
    """Inverse of svec; supports batched input (..., ns)."""
    rows, cols, w = svec_index(m)
    out = np.zeros(v.shape[:-1] + (m, m), dtype=v.dtype)
    vals = v / w
    out[..., rows, cols] = vals
    out[..., cols, rows] = vals
    return out


@dataclass
class PsdBlock:
    """One slack matrix S(u) >= 0, entrywise S[a,b] = const + coef*u[var].

    Arrays are aligned with the svec slot order of `size` (lower triangle,
    row-major); var < 0 marks a constant entry.
    """

    size: int
    var: np.ndarray
    coef: np.ndarray
    const: np.ndarray

    @staticmethod
    def from_entries(size: int, entries: dict) -> "PsdBlock":
        """entries: (a, b) with a >= b -> (var, coef, const); missing = zero."""
        ns = size * (size + 1) // 2
        var = np.full(ns, -1, dtype=np.int64)
        coef = np.zeros(ns)
        const = np.zeros(ns)
        for (a, b), (v, cf, ct) in entries.items():
            a, b = max(a, b), min(a, b)
            t = a * (a + 1) // 2 + b      # svec_index's row-major order
            var[t] = v
            coef[t] = cf
            const[t] = ct
        return PsdBlock(size, var, coef, const)


class Cone:
    """The constraints A u = b, Gn u <= hn and the PSD blocks over n_vars
    variables; A and Gn are stored as CSR. The solver's data for them are
    built on first use and kept: `groups`, `G`, `h`, `products`,
    `factor_kkt`, `identity` and `start`."""

    def __init__(self, n_vars: int, A=None, b=(), Gn=None, hn=(), blocks=()):
        self.n_vars = n_vars
        self.A, self.b = _rows(A, b, n_vars)
        self.Gn, self.hn = _rows(Gn, hn, n_vars)
        self.n_eq, self.n_nonneg = self.b.size, self.hn.size
        self.blocks = list(blocks)
        if any(blk.size < 1 for blk in self.blocks):
            raise ValueError("empty PSD block")

    @cached_property
    def groups(self) -> "_Groups":
        """The blocks batched by size; their slots follow the nonnegative
        rows."""
        sizes: dict = {}
        off = self.n_nonneg
        for blk in self.blocks:
            sizes.setdefault(blk.size, []).append((blk, off))
            off += blk.size * (blk.size + 1) // 2
        return _Groups(_BlockGroup(m, *zip(*sizes[m])) for m in sorted(sizes))

    @cached_property
    def G(self) -> sp.csr_matrix:
        """s = h - G u over every cone slot, the nonnegative rows first and
        then each block's svec slots, as CSR."""
        Gn, groups = self.Gn.tocoo(), self.groups
        rows = np.concatenate([Gn.row] + [g.slot[g.mask] for g in groups])
        cols = np.concatenate([Gn.col] + [g.var[g.mask] for g in groups])
        vals = np.concatenate([Gn.data] + [g.gcoef[g.mask] for g in groups])
        dim = self.n_nonneg + sum(g.nb * g.ns for g in groups)
        return sp.csr_matrix((vals, (rows, cols)), shape=(dim, self.n_vars))

    @cached_property
    def h(self) -> np.ndarray:
        h = np.zeros(self.G.shape[0])
        h[:self.n_nonneg] = self.hn
        for g in self.groups:
            h[g.slot] = g.h
        return h

    @cached_property
    def products(self) -> tuple:
        """x -> G x, G' x, A x and A' x, each bound once (`_matvec`)."""
        return tuple(_matvec(M) for M in (self.G, self.G.T, self.A,
                                          self.A.T))

    @cached_property
    def factor_kkt(self):
        """factor(scaling) on this cone's KKT path (`_kkt_path`), built
        once; what it returns solves (bu, by, bz) -> (du, dy, dz), and its
        `passes` are the refinement passes each solve takes."""
        kkt = {"full": _FullKkt, "sparse": _SparseKkt,
               "dual": _DualKkt}[_kkt_path(self)]
        return kkt(self).factor

    @cached_property
    def identity(self) -> np.ndarray:
        e = np.zeros(self.h.size)
        e[:self.n_nonneg] = 1.0
        for g in self.groups:
            e[g.dslot] = 1.0
        return e

    @cached_property
    def start(self) -> tuple:
        """(kkt, u, s): the KKT factor at the identity scaling, the NT
        scaling at s = z = e, and the half of the initial point that does
        not depend on the objective, u and s. The arrays are read-only."""
        e = self.identity
        kkt = self.factor_kkt(_nt_scaling(self.groups, e, e, self.n_nonneg))
        u = kkt.solve(np.zeros(self.n_vars), self.b, self.h)[0]
        s = _shift_into_cone(self, self.h - self.products[0](u))
        u.flags.writeable = s.flags.writeable = False
        return kkt, u, s


def _rows(M, rhs, n_vars):
    """(CSR matrix, rhs) of one row family of a Cone, shapes checked."""
    M = sp.csr_matrix((0, n_vars) if M is None else M, dtype=float)
    rhs = np.asarray(rhs, dtype=float).ravel()
    if M.shape != (rhs.size, n_vars):
        raise ValueError("rows and right-hand sides do not match")
    return M, rhs


@dataclass
class ConicProgram:
    """min c'u + c0 over a Cone; see module docstring for the standard form."""

    cone: Cone
    c: np.ndarray
    c0: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        if self.c.shape != (self.cone.n_vars,):
            raise ValueError("objective vector has wrong length")


@dataclass
class SolverSettings:
    max_iterations: int = 200
    feasibility_tol: float = 1e-8
    gap_tol: float = 1e-8


@dataclass
class ConicSolution:
    status: str
    u: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray
    pcost: float
    dcost: float
    gap: float
    pres: float
    dres: float
    iterations: int
    # why the loop ended: converged, infeasible, unbounded,
    # iteration_limit, diverging, factorization_failed (the NT scaling or
    # the KKT factorization), solve_failed, step_too_small or stalled
    stop_reason: str
    # the best iterate seen was returned in place of the last one
    fallback: bool
    # (u, y, z, s): a cold solve's first iterate with pres and dres at most
    # _RESTART_RESIDUAL, a start for a later solve over the same cone;
    # None when no iterate got there, and for a warm solve
    restart: tuple | None = None


class _BlockGroup:
    """Blocks of one size, batched: index arrays shaped (nb, ns).

    Its slot maps, built once per cone, are flat: `mats` takes the blocks'
    matrices out of an s-space vector with one `take`, and `svec` and
    `sym_svec` take svec coordinates out of the matrices with one `take` of
    each triangle. They do smat's and svec's operations, and so give the
    same bits. A `closed` group's congruences skip them: the closed groups
    of a cone share one pair of sparse maps (`_ClosedMap`), whose patterns
    are built once per cone from each group's slots, `ka`, `kb` and `w`.
    """

    def __init__(self, size: int, blocks: list, offsets: list):
        self.m = size
        rows, cols, w = svec_index(size)
        self.ns = rows.shape[0]
        self.nb = len(blocks)
        self.var = np.stack([blk.var for blk in blocks])
        self.w = w
        # slack s_t = w_t*(const_t + coef_t*u[var]) and s = h - Gu, so the
        # G entry for a slot is -w*coef and h carries w*const
        self.gcoef = -np.stack([blk.coef for blk in blocks]) * w
        self.h = np.stack([blk.const for blk in blocks]) * w
        self.off = np.asarray(offsets, dtype=np.int64)
        self.slot = self.off[:, None] + np.arange(self.ns)[None, :]
        self.flat = self.slot.ravel()
        # svec slots of the diagonal entries, (nb, m)
        self.dslot = self.slot[:, rows == cols]
        self.mask = self.var >= 0
        # row and column of each svec slot
        self.ka = np.asarray(rows)
        self.kb = np.asarray(cols)
        # flat places of each slot's entries (a, b) and (b, a) in an m x m
        # matrix, and over the group's (nb, m, m) matrices; each slot's
        # weight, tiled
        low, up = self.ka * size + self.kb, self.kb * size + self.ka
        batch = np.arange(self.nb)[:, None]
        self.low = (batch * (size * size) + low).ravel()
        self.up = (batch * (size * size) + up).ravel()
        self.wflat = np.tile(w, self.nb)
        self.hw = 0.5 * self.wflat      # halving is exact
        self.shape = (self.nb, size, size)
        # flat places of each slot's row and column in the (nb, m) array of
        # the blocks' eigenvalues
        self.la = (batch * size + self.ka).ravel()
        self.lb = (batch * size + self.kb).ravel()
        # s-space slot of every matrix entry, both triangles, raveled over
        # the group's (nb, m, m) matrices, and each entry's weight
        t = np.empty(size * size, dtype=np.int64)
        t[low] = t[up] = np.arange(self.ns)
        self.full = self.slot[:, t].ravel()
        self.fw = np.tile(w[t], self.nb)
        # whether the group takes the closed-form kernels, decided once
        self.closed = size <= 3 and self.nb >= _CLOSED_FORM_BLOCKS
        # the slots coordinate by coordinate, (ns, nb) raveled, for `entries`
        self.tflat = self.slot.T.ravel()

    def entries(self, vec: np.ndarray) -> np.ndarray:
        """(ns, nb) the lower-triangle entries of the blocks' matrices of an
        s-space vector (dim,), as `mats` divides them, one svec coordinate
        to a row: the layout of the closed-form kernels; (ns, k, nb) for a
        stack (k, dim)."""
        E = vec.take(self.tflat, axis=-1).reshape(
            vec.shape[:-1] + (self.ns, self.nb))
        E /= self.w[:, None]
        return E.swapaxes(0, -2)

    def tril(self, vals: list) -> np.ndarray:
        """The (nb, m, m) lower-triangular matrices whose svec-ordered
        lower-triangle entries are the (nb,) arrays `vals`."""
        out = np.zeros(self.nb * self.m * self.m)
        out[self.low] = np.stack(vals, axis=-1).ravel()
        return out.reshape(self.nb, self.m, self.m)

    def mats(self, vec: np.ndarray) -> np.ndarray:
        """The (..., nb, m, m) matrices of s-space vectors (..., dim): smat
        of their slots. Divided by the weight, as smat does; a product with
        1/w differs."""
        return (vec.take(self.full, axis=-1) / self.fw).reshape(
            vec.shape[:-1] + self.shape)

    def svec(self, M: np.ndarray) -> np.ndarray:
        """(nb, ns) svec of each matrix of M, from its lower triangle."""
        return (M.take(self.low) * self.wflat).reshape(self.nb, self.ns)

    def sym_svec(self, M: np.ndarray) -> np.ndarray:
        """(..., nb, ns) svec(0.5 (M + M')) of each matrix of the
        (..., nb, m, m) stack M, without forming the symmetric matrix;
        0.5 w gives the bits of halving, then scaling by w."""
        lead = M.shape[:-3]
        M = M.reshape(lead + (-1,))
        v = M.take(self.low, axis=-1)
        v += M.take(self.up, axis=-1)
        v *= self.hw
        return v.reshape(lead + (self.nb, self.ns))


class _Groups(list):
    """A cone's `_BlockGroup`s, by size, with the congruence map of its
    closed groups (`closed_map`: None when none is closed), built on first
    use."""

    @cached_property
    def closed_map(self):
        closed = [j for j, g in enumerate(self) if g.closed]
        return _ClosedMap(self, closed) if closed else None


class _ClosedMap:
    """X mat(v) X' on every closed group of a cone at once, as two sparse
    maps with fixed patterns, built once per cone: (X M) X', associated as
    the LAPACK groups' L @ M @ R.

    Stage 1 maps the s-space slots lo:hi, the span of the closed groups'
    slots, to the products Y_b = X_b mat(v_b), raveled with the groups'
    (nb, m, m) factors: row (b, i, l) holds the m entries X_b[i, k] / w_kl
    at the slots (k, l) of block b, in increasing k. Stage 2 maps Y to the
    slots lo:hi: the row of block b's slot t = (a, c) holds svec(sym(Y_b
    X_b')) there, w_t/2 (Y_b[c, :] X_b[a, :]' + Y_b[a, :] X_b[c, :]') or,
    on the diagonal, Y_b[a, :] X_b[a, :]'; a slot of another group has an
    empty row. Every value is an entry of the factors, raveled and
    concatenated, at `take1` (`take2`) times `const1` (`const2`), so
    `data` builds a mode's two data arrays with one `take` each.
    """

    def __init__(self, groups: list, members: list):
        self.members = members        # the closed groups' places in groups
        closed = [groups[j] for j in members]
        self.lo = lo = min(int(g.off.min()) for g in closed)
        self.hi = max(int(g.off.max()) + g.ns for g in closed)
        stage1, stage2 = [], []
        base = 0        # a group's place in the raveled factors, and in Y
        for g in closed:
            m = g.m
            kl = np.empty((m, m), dtype=np.int64)     # svec slot of (k, l)
            kl[g.ka, g.kb] = kl[g.kb, g.ka] = np.arange(g.ns)
            b, i, l, k = np.indices((g.nb, m, m, m))
            blk = base + b * (m * m)
            stage1.append((blk + i * m + l, g.slot[b, kl[k, l]] - lo,
                           blk + i * m + k, 1.0 / g.w[kl[k, l]]))
            b, t, l = np.indices((g.nb, g.ns, m))
            a, c = g.ka[t], g.kb[t]
            row, blk, off = g.slot[b, t] - lo, base + b * (m * m), a != c
            half = np.where(off, 0.5, 1.0) * g.w[t]
            stage2.append((row, blk + c * m + l, blk + a * m + l, half))
            stage2.append((row[off], (blk + a * m + l)[off],
                           (blk + c * m + l)[off], half[off]))
            base += g.nb * m * m
        self.ny = base
        # stage 1's output for one vector, reused by every application (so
        # two threads may not apply one cone's map at once)
        self.y = np.empty(base)
        self.ptr1, self.idx1, self.take1, self.const1 = _csr_pattern(stage1,
                                                                     base)
        self.ptr2, self.idx2, self.take2, self.const2 = _csr_pattern(
            stage2, self.hi - lo)

    def data(self, factors: list) -> tuple:
        """The two maps' data arrays for the closed groups' factors X,
        (nb, m, m) each, in the order of `members`."""
        flat = np.concatenate([X.ravel() for X in factors])
        d1 = flat.take(self.take1)
        d1 *= self.const1
        d2 = flat.take(self.take2)
        d2 *= self.const2
        return d1, d2

    def apply(self, data: tuple, vec: np.ndarray, out: np.ndarray):
        """out[..., lo:hi] := the closed groups' svec(sym(X mat(v) X')) for
        an s-space vector v (dim,) or each row v of a stack (k, dim), zero
        at the other groups' slots. A vector's products go through `y`,
        allocated once, into out: fresh buffers on every call let the
        process's heap grow pass after pass."""
        lo, hi = self.lo, self.hi
        if vec.ndim == 1:
            x, y, z = vec[lo:hi], self.y, out[lo:hi]
        else:
            x = np.ascontiguousarray(vec[:, lo:hi].T)
            y = np.empty((self.ny, vec.shape[0]))
            z = np.empty((hi - lo, vec.shape[0]))
        _csr_product((self.ny, hi - lo), self.ptr1, self.idx1, data[0], x, y)
        _csr_product((hi - lo, self.ny), self.ptr2, self.idx2, data[1], y, z)
        if vec.ndim > 1:
            out[:, lo:hi] = z.T


def _csr_pattern(parts: list, n_rows: int) -> tuple:
    """(indptr, indices, take, const) of the CSR pattern with the entries
    (row, column, take, const) listed in `parts`, each row's entries in
    the order listed."""
    row, col, take, const = (np.concatenate([np.ravel(p[j]) for p in parts])
                             for j in range(4))
    order = np.argsort(row, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.intc)
    np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
    return (indptr, col[order].astype(np.intc), take[order].astype(np.intp),
            const[order])


def _csr_product(shape, indptr, indices, data, x, y):
    """y := M @ x for the CSR matrix M = (data, indices, indptr) of `shape`,
    for vectors x and y or C-ordered stacks of columns (n, k) and
    (rows, k): scipy's csr_matvec or csr_matvecs kernel, the one `@`
    reaches, so the bits are the same; M's `@` when that private kernel is
    missing."""
    if _sparsetools is None:
        y[...] = sp.csr_matrix((data, indices, indptr), shape=shape) @ x
        return
    y.fill(0.0)     # the kernels add to y
    if x.ndim == 1:
        _sparsetools.csr_matvec(*shape, indptr, indices, data, x, y)
    else:
        _sparsetools.csr_matvecs(*shape, x.shape[1], indptr, indices, data,
                                 x, y)


def _matvec(M):
    """x -> M @ x for a CSR or CSC matrix M, bound once.

    Calls scipy's own csr_matvec / csc_matvec kernel, the one `@` reaches
    after its per-call dispatch, with the same arguments, so the bits are
    the same; when that private kernel is missing, it is M's `@`.
    """
    kernel = getattr(_sparsetools, M.format + "_matvec", None)
    if kernel is None:
        return M.__matmul__
    rows, cols = M.shape
    indptr, indices, data, dtype = M.indptr, M.indices, M.data, M.dtype

    def matvec(x):
        y = np.zeros(rows, dtype)
        kernel(rows, cols, indptr, indices, data, x, y)
        return y
    return matvec


class _GroupScaling(dict):
    """One group's NT scaling: R, Rinv and lam, with the products
    Winv = (R R')^{-1} = Rinv' Rinv and WW = R R', and the step length's
    scale = lam^{-1/2}, formed on first read. The full KKT path never reads
    Winv."""

    def __missing__(self, key):
        if key == "Winv":
            value = self["Rinv"].swapaxes(-1, -2) @ self["Rinv"]
        elif key == "WW":
            value = self["R"] @ self["R"].swapaxes(-1, -2)
        elif key == "scale":
            value = 1.0 / np.sqrt(self["lam"])
        else:
            raise KeyError(key)
        self[key] = value
        return value


# per `_apply_w` mode: the power of wn on the nonnegative part, and each
# group's congruence factors (L, R) from its _GroupScaling
_MODES = {
    "w": (1, lambda gd: (gd["R"].swapaxes(-1, -2), gd["R"])),
    "wt": (1, lambda gd: (gd["R"], gd["R"].swapaxes(-1, -2))),
    "wit": (-1, lambda gd: (gd["Rinv"], gd["Rinv"].swapaxes(-1, -2))),
    "ww": (2, lambda gd: (gd["WW"], gd["WW"])),
    "winv2": (-2, lambda gd: (gd["Winv"], gd["Winv"])),
}


class _Scaling:
    """NT scaling state for one iteration."""

    def __init__(self, wn, lam_n, group_data, closed_map=None):
        self.wn = wn                  # nonneg scaling sqrt(s/z)
        self.lam_n = lam_n
        self.groups = group_data      # per group: a _GroupScaling
        self.closed_map = closed_map  # the cone's `_ClosedMap`, or None
        self._modes = {}

    def mode(self, name):
        """(nonnegative factor, congruence factors) of an `_apply_w` mode,
        built on its first use. The congruence factors are each group's
        (L, R) and the data of the closed map (`_ClosedMap.data`) for the
        closed groups' L, or None."""
        if name not in self._modes:
            power, factors = _MODES[name]
            pairs = [factors(gd) for gd in self.groups]
            cmap = self.closed_map
            data = None if cmap is None else cmap.data(
                [pairs[j][0] for j in cmap.members])
            self._modes[name] = (self.wn ** power, (pairs, data))
        return self._modes[name]


def _nt_scaling(groups, s, z, l_nn):
    """Compute the NT scaling at (s, z); requires strict interiority.

    eigh stays on LAPACK for every group: near convergence the eigenvalues
    of Ls' Z Ls cluster at mu, where closed-form 3 x 3 eigenvectors lose
    their accuracy."""
    sn, zn = s[:l_nn], z[:l_nn]
    wn = np.sqrt(sn / zn)
    lam_n = np.sqrt(sn * zn)
    gdata = []
    for g in groups:
        Ls, Linv = _cholesky(g, s)
        M = Ls.swapaxes(-1, -2) @ g.mats(z) @ Ls
        M = 0.5 * (M + M.swapaxes(-1, -2))
        d, Q = np.linalg.eigh(M)
        if not d.min() > 0:     # a NaN eigenvalue fails too
            raise np.linalg.LinAlgError("scaling eigenvalues not positive")
        R = Ls @ Q * (d[..., None, :] ** -0.25)
        Rinv = (d[..., :, None] ** 0.25) * Q.swapaxes(-1, -2) @ Linv
        gdata.append(_GroupScaling(R=R, Rinv=Rinv, lam=np.sqrt(d)))
    return _Scaling(wn, lam_n, gdata, groups.closed_map)


# groups of at least this many blocks of order m <= 3 take the closed-form
# kernels (`_cholesky`, `_min_eig`) and apply W through the cone's two
# sparse maps (`_ClosedMap`). Their numpy calls cost a fixed time per call,
# about 80 us for the 3 x 3 smallest eigenvalue, where LAPACK pays per
# matrix. One iteration's NT scaling and two step lengths of one group
# break even at about 25 blocks of order 2 and 55 of order 3, and take half
# of LAPACK's time at 304 (2 cores, numpy 2.4, one BLAS thread). At least
# 2, so that no single-block cone, as in every full moment lifting, changes
# its bits.
_CLOSED_FORM_BLOCKS = 64
# the smallest normal float64: a zero matrix's scale and a zero row's
# length stay nonzero
_TINY = np.finfo(float).tiny


def _cholesky(g: _BlockGroup, s: np.ndarray) -> tuple:
    """(L, L^{-1}) for the Cholesky factor L of each block's matrix of s,
    (nb, m, m) each. A `closed` group unrolls both over the blocks, one
    numpy call per entry; the others take LAPACK's cholesky and inv. Both
    raise LinAlgError when a block is not positive definite."""
    if not g.closed:
        L = np.linalg.cholesky(g.mats(s))
        return L, np.linalg.inv(L)
    E = g.entries(s)
    m = g.m
    L, X = {}, {}
    for j in range(m):
        piv = E[j * (j + 3) // 2]
        for k in range(j):
            piv = piv - L[j, k] * L[j, k]
        # as potrf: a pivot that is not positive (or NaN) fails
        if not np.all(piv > 0.0):
            raise np.linalg.LinAlgError("block not positive definite")
        L[j, j] = np.sqrt(piv)
        X[j, j] = 1.0 / L[j, j]
        for i in range(j + 1, m):
            v = E[i * (i + 1) // 2 + j]
            for k in range(j):
                v = v - L[i, k] * L[j, k]
            L[i, j] = v / L[j, j]
    for j in range(m):      # forward substitution, column by column
        for i in range(j + 1, m):
            v = L[i, j] * X[j, j]
            for k in range(j + 1, i):
                v = v + L[i, k] * X[k, j]
            X[i, j] = -v * X[i, i]
    keys = [(i, j) for i in range(m) for j in range(i + 1)]   # svec order
    return g.tril([L[k] for k in keys]), g.tril([X[k] for k in keys])


def _min_eig(g: _BlockGroup, vecs: np.ndarray, scale=None) -> np.ndarray:
    """Eigenvalues of each block's matrix of the s-space vectors vecs (k,
    dim), or of D mat D with D = diag(scale) for an (nb, m) scale: a
    `closed` group's (k, nb) smallest, from closed forms over the slots'
    lower triangles (LinAlgError on a non-finite entry), the others' (k,
    nb, m) from one LAPACK eigvalsh of the symmetrized matrices."""
    if not g.closed:
        T = g.mats(vecs)
        if scale is not None:
            T = T * scale[..., :, None] * scale[..., None, :]
            T = 0.5 * (T + T.swapaxes(-1, -2))
        return np.linalg.eigvalsh(T)
    E = g.entries(vecs)
    if scale is not None:
        E = E * (scale.T[g.ka] * scale.T[g.kb])[:, None]
    if not np.isfinite(E).all():
        raise np.linalg.LinAlgError("non-finite entry")
    if g.m == 1:
        return E[0]
    if g.m == 2:
        a, b, c = E
        return 0.5 * a + 0.5 * c - np.hypot(0.5 * a - 0.5 * c, b)
    return _min_eig3(E)


def _min_eig3(E: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of symmetric 3 x 3 matrices from their lower
    triangles E = (a00, a10, a11, a20, a21, a22), within a few eps of the
    largest |eigenvalue|.

    Smith's trigonometric formula (Comm. ACM 4, 1961) gives the eigenvalues
    q + 2p cos(phi + 2 pi k / 3) of A = q I + A'. Where r = cos(3 phi) > 0
    its smallest one can lose half the digits: near r = 1 the two smallest
    nearly coincide. There the largest, l1, is isolated and accurate, and
    the other two are deflated. B = A' - l1 I is negative semidefinite, so
    its row u with the most negative diagonal entry is at least
    |trace B| / 3 >= ||B|| / 3 long, and it lies in the span of their
    eigenvectors. X = A' + (l1 / 2) I maps u to length |l2 - l3| ||u|| / 2,
    since l2 + l3 = -l1."""
    big = np.abs(E).max(axis=0) + _TINY     # each matrix to max |entry| 1
    a, d, b, f, g, c = E / big
    q = (a + b + c) / 3.0
    a, b, c = a - q, b - q, c - q
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (d * d + f * f + g * g))
                / 6.0)
    det = a * (b * c - g * g) - d * (d * c - g * f) + f * (d * g - b * f)
    pc = 2.0 * p ** 3
    r = np.divide(det, pc, out=np.zeros_like(pc), where=pc > 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    top = 2.0 * p * np.cos(phi)
    a, b, c = a - top, b - top, c - top
    first = (a <= b) & (a <= c)
    second = b <= c
    u0 = np.where(first, a, np.where(second, d, f))
    u1 = np.where(first, d, np.where(second, b, g))
    u2 = np.where(first, f, np.where(second, g, c))
    h = 1.5 * top
    x = (a + h) * u0 + d * u1 + f * u2
    y = d * u0 + (b + h) * u1 + g * u2
    z = f * u0 + g * u1 + (c + h) * u2
    half = np.sqrt((x * x + y * y + z * z)
                   / (u0 * u0 + u1 * u1 + u2 * u2 + _TINY))
    low = np.where(r > 0.0, -0.5 * top - half,
                   2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0))
    return (q + low) * big


def _pair_index(g: _BlockGroup, blk, t1, t2):
    """(idx, kww) for the slot pairs (blk, t1, t2) of a group.

    Slot t holds entry (a_t, b_t). idx is (4, pairs) intp, the type `take`
    indexes with, so that no take converts it: the flat places of P[a1, a2],
    P[b1, b2], P[a1, b2] and P[b1, a2] in the group's (nb, m, m) W^{-1};
    kww is 0.5 w_t1 w_t2.
    """
    a, b, m = g.ka.astype(np.intp), g.kb.astype(np.intp), g.m
    base = blk.astype(np.intp) * (m * m)
    a1, b1 = base + a[t1] * m, base + b[t1] * m
    a2, b2 = a[t2], b[t2]
    idx = np.stack([a1 + a2, b1 + b2, a1 + b2, b1 + a2])
    return idx, 0.5 * (g.w[t1] * g.w[t2])


def _pair_entries(P, idx, kww):
    """Entries K[t1, t2] at the pairs of `_pair_index`, where K is the
    symmetric Kronecker product with K svec(M) = svec(P M P), for P = W^{-1}
    or P = R R': kww (P[a1, a2] P[b1, b2] + P[a1, b2] P[b1, a2]) (Todd, Toh
    and Tutuncu, SIAM J. Optim. 1998)."""
    P = P.reshape(-1)
    vals = P.take(idx[0])
    vals *= P.take(idx[1])
    cross = P.take(idx[2])
    cross *= P.take(idx[3])
    vals += cross
    vals *= kww
    return vals


def _congruence(groups, factors, vec, out):
    """out's PSD slots := svec(sym(L mat(v) R)) per group, with the factors
    of a `_Scaling.mode`, for an s-space vector v or each row v of a stack
    (k, dim); returns out. The closed groups go first, all through their
    two sparse maps (`_ClosedMap`), then each other group."""
    pairs, data = factors
    if data is not None:
        groups.closed_map.apply(data, vec, out)
    for g, (L, R) in zip(groups, pairs):
        if g.closed:
            continue
        v = g.sym_svec(L @ g.mats(vec) @ R)
        if out.ndim == 1:
            out[g.slot] = v     # one index array: numpy's fast path
        else:
            out[:, g.slot] = v
    return out


def _apply_w(scaling, groups, l_nn, vec, mode):
    """Apply W ('w'), W' ('wt'), W^{-T} ('wit'), W'W ('ww') or (W'W)^{-1}
    ('winv2') blockwise to an s-space vector.

    W diag: nonneg part multiplies by wn (W = W' there); PSD part maps
    z -> svec(R' mat(z) R) for 'w', s -> svec(R^{-1} mat(s) R^{-T}) for
    'wit', v -> svec(R mat(v) R') for 'wt', v -> svec(P mat(v) P) with
    P = R R' for 'ww' and P = W^{-1} for 'winv2'.
    """
    wn, factors = scaling.mode(mode)
    out = np.empty_like(vec)
    if l_nn:
        np.multiply(vec[:l_nn], wn, out=out[:l_nn])
    return _congruence(groups, factors, vec, out)


# orthants of at most this many rows take the step length's quotients in
# Python floats: for two directions 2.1 against 6.2 us at 4 rows and 4.1
# against 6.3 us at 24, where numpy's fixed cost per call dominates, but
# 21.5 against 8.0 us at 152 (timeit, 2-core Xeon, numpy 2.4)
_FEW_NONNEG = 32


def _max_cone_step(groups, scaling, l_nn, *scaled_dirs):
    """Largest alpha with lambda + alpha*dir in the cone for every dir (in
    scaled space). Each group's matrices of all the directions go through
    one `_min_eig`; one -1/emin of the smallest eigenvalue gives the
    smallest -1/emin, division being monotone. A direction whose minimum
    is NaN bounds nothing."""
    dirs = np.array(scaled_dirs)
    alpha = np.inf
    if l_nn > _FEW_NONNEG:
        d = dirs[:, :l_nn]
        ratio = np.divide(-scaling.lam_n, d, out=np.full(d.shape, np.inf),
                          where=d < 0)
        alpha = float(ratio.min())
    elif l_nn:      # the same quotients, in Python floats
        neg = (-scaling.lam_n).tolist()
        for row in dirs[:, :l_nn].tolist():
            for a, x in zip(neg, row):
                if x < 0.0 and a / x < alpha:
                    alpha = a / x
    emin = 0.0
    for g, gd in zip(groups, scaling.groups):
        eigs = _min_eig(g, dirs, gd["scale"])
        for e in eigs.reshape(len(dirs), -1).min(1).tolist():
            if e < emin:
                emin = e
    if emin < 0:
        alpha = min(alpha, -1.0 / emin)
    return alpha


def _jordan_solve(scaling, groups, l_nn, d):
    """Solve lambda o v = d in scaled space."""
    v = np.empty_like(d)
    if l_nn:
        np.divide(d[:l_nn], scaling.lam_n, out=v[:l_nn])
    for g, gd in zip(groups, scaling.groups):
        lam = gd["lam"]
        # svec(mat(d) / denom) on the lower triangle alone
        denom = lam.take(g.la)
        denom += lam.take(g.lb)
        denom *= 0.5
        v[g.flat] = d.take(g.flat) / g.wflat / denom * g.wflat
    return v


def _jordan_prod(groups, l_nn, a, b):
    """a o b in scaled space ((AB + BA)/2 on PSD blocks)."""
    out = np.empty_like(a)
    if l_nn:
        np.multiply(a[:l_nn], b[:l_nn], out=out[:l_nn])
    for g in groups:
        A = g.mats(a)
        B = g.mats(b)
        P = 0.5 * (A @ B + B @ A)
        out[g.slot] = g.svec(P)
    return out


def _lambda_vec(scaling, groups, l_nn, dim):
    lam = np.zeros(dim)
    lam[:l_nn] = scaling.lam_n
    for g, gd in zip(groups, scaling.groups):
        lam[g.dslot] = gd["lam"]
    return lam


# first diagonal shift of the factorization ladders, relative to the largest
# diagonal entry: about 45 machine epsilons
_REG_START = 1e-14


def _ladder(scale, reg):
    """The factorization ladder: (reg, eps) before each of up to six
    attempts, where reg is the shift added so far (starting at `reg`) and
    eps the next one, the first _REG_START * max(1, scale) and each later
    one 100 times the last."""
    eps = _REG_START * max(1.0, scale)
    for _ in range(6):
        yield reg, eps
        reg += eps
        eps *= 100.0


def _factor_regularized(M, what):
    """Cholesky factor of M from its lower triangle (LAPACK potrf, which
    leaves M as it is), shifting M's diagonal in place until it factors
    (`_ladder`); returns (factor, total shift) or raises LinAlgError(what)."""
    for reg, eps in _ladder(float(np.max(np.abs(np.diag(M)))), 0.0):
        c, info = sla.lapack.dpotrf(M, lower=1, clean=0)
        if info == 0:
            return c, reg
        # info > 0: the leading minor of order info is not positive definite
        M[np.diag_indices_from(M)] += eps
    raise np.linalg.LinAlgError(what)


def _cho_solve(c, b):
    """Solve with the Cholesky factor c of `_factor_regularized`: LAPACK
    potrs, the call sla.cho_solve makes."""
    return sla.lapack.dpotrs(c, b, lower=1)[0]


class _NormalMap:
    """H_S = G_S' (W_S'W_S)^{-1} G_S on its diagonal and lower triangle, as
    a list of terms with their places, built once per cone. The rows S are
    every PSD slot and the nonnegative rows `rows`, the ones not kept
    (`_kept_rows`). No term touches a column of `fixed`, the sparse path's
    fixed variables: their entries are left out of the rows and their
    slots out of the blocks' pairs.

    `place` and `terms` list every term with its flat place i * n + j,
    i >= j, in H, built on first use: first, row by row, each pair of
    entries of a nonnegative row k at columns i >= j, with the term
    G[k, i] (G[k, j] (1 / wn_k^2)); then, per PSD group, each pair of
    variable slots (blk, t1, t2), var(t1) >= var(t2), in that order, with
    the term K[t1, t2] gc[t1] gc[t2] (`_pair_entries`) at
    var(t1) * n + var(t2).
    """

    def __init__(self, G, groups, rows, fixed=()):
        n = self.n = G.shape[1]
        free = np.ones(n, dtype=bool)
        free[np.asarray(fixed, dtype=np.int64)] = False
        self.rows = rows
        Gn = G[rows]
        keep = free[Gn.indices]
        # each row's entries at free columns: its indptr counts them
        at = np.concatenate([[0], np.cumsum(keep)])[Gn.indptr]
        self.Gn = sp.csr_matrix((Gn.data[keep], Gn.indices[keep], at),
                                shape=Gn.shape)
        self.psd = []
        for g in groups:
            # a constant slot's var -1 reads free[-1]; g.mask drops it
            live = g.mask & free[g.var]
            both = live[:, :, None] & live[:, None, :]
            both &= g.var[:, :, None] >= g.var[:, None, :]
            blk, t1, t2 = np.nonzero(both)
            self.psd.append(_pair_index(g, blk, t1, t2)
                            + (g.gcoef[blk, t1], g.gcoef[blk, t2],
                               g.var[blk, t1] * n + g.var[blk, t2]))

    @cached_property
    def row_pairs(self) -> tuple:
        """(entry_row, reps, partner) of the rows' pair list: each entry's
        nonnegative row, the count of its pairs, and the entry each pair
        pairs it with. The r-th entry of a row pairs with the row's first
        r + 1 entries, whose columns are j <= i because CSR keeps each row
        sorted."""
        Gn = self.Gn
        nk = np.diff(Gn.indptr)
        entry_row = np.repeat(self.rows, nk)
        first = np.repeat(Gn.indptr[:-1], nk)
        reps = np.arange(Gn.nnz) - first + 1
        partner = np.arange(int(reps.sum()))
        partner -= np.repeat(np.cumsum(reps) - reps - first, reps)
        return entry_row, reps, partner

    @cached_property
    def place(self) -> np.ndarray:
        """The flat place in H of every term of `terms`."""
        _, reps, partner = self.row_pairs
        cols = self.Gn.indices.astype(np.int64)
        return np.concatenate([np.repeat(cols * self.n, reps)
                               + cols[partner]]
                              + [pg[-1] for pg in self.psd])

    def terms(self, scaling) -> np.ndarray:
        """Every term at `scaling`, in the order of `place`."""
        entry_row, reps, partner = self.row_pairs
        out = np.empty(self.place.size)
        lo = partner.size
        data = self.Gn.data
        scaled = data * (1.0 / scaling.wn ** 2)[entry_row]
        # partner is in range by construction: "clip" only skips the
        # buffered bounds check
        np.take(scaled, partner, out=out[:lo], mode="clip")
        out[:lo] *= np.repeat(data, reps)
        for (idx, kww, gc1, gc2, _), gd in zip(self.psd, scaling.groups):
            seg = out[lo:lo + kww.size]
            np.multiply(_pair_entries(gd["Winv"], idx, kww), gc1, out=seg)
            seg *= gc2
            lo += kww.size
        return out


# absolute static regularization of the second block on the sparse path;
# scaled by H's largest diagonal (1e8 and more near convergence) it left the
# first solves' residuals far above what refinement recovers
_SPARSE_DELTA = 1e-12
# the sparse path runs when the scatter count is below this share of n^2,
# and keeps the nonnegative rows whose own scatter is above it
_SPARSE_SHARE = 0.1
# programs whose full KKT matrix has at most this order factor it: full
# moment programs up to 299 variables, and smaller r = 2 liftings, whose LU
# costs the order cubed (order 1,662 at 275 variables: 15 to 25 times the
# sparse path)
_FULL_KKT_ORDER = 600


def _fixed_variables(A) -> tuple:
    """(rows, cols, vals) of the fixed variables of the equality rows A
    (CSR): each row i whose one entry a = vals is nonzero, at a column
    j = cols that no other row of A holds, fixes u_j = b_i / a."""
    nk = np.diff(A.indptr)
    held = np.bincount(A.indices, minlength=A.shape[1])
    rows = np.flatnonzero(nk == 1)
    cols, vals = A.indices[A.indptr[rows]], A.data[A.indptr[rows]]
    fixed = (held[cols] == 1) & (vals != 0.0)
    return rows[fixed], cols[fixed], vals[fixed]


def _splu(K, permc_spec):
    """SuperLU's LU of the quasidefinite K (CSC) with the column order
    `permc_spec`, applied to rows and columns alike, pivoting on the
    diagonal wherever it is nonzero. Supernodes are not relaxed and panels
    are one column wide (Relax=1, PanelSize=1): the sparse path's
    supernodes are tiny. With the same MMD order, the same fill and
    against SuperLU's defaults, the median LU of sysid's augmented matrix
    falls by 19-24 % at T=20 (order 672; 1,191 to 967 us), 14-17 % at
    T=100 (order 3,232) and 9-16 % at T=200 (order 6,432) over two runs of
    45 factorizations each (2-core Xeon, scipy 1.17)."""
    # imported here: SuperLU's module adds 2 MB of resident memory to every
    # process, also to those that never take the sparse path
    from scipy.sparse.linalg import splu
    return splu(K, permc_spec=permc_spec, diag_pivot_thresh=0.0, relax=1,
                panel_size=1, options={"SymmetricMode": True})


def _ordering(row, col, N) -> np.ndarray:
    """SuperLU's minimum degree order on the pattern of K + K' of the N x N
    pattern with entries at (row, col), in CSC order, diagonal included:
    the position perm[i] of row and column i. It depends on the pattern
    alone, so it is taken from the pattern with ones off the diagonal and N
    on it: strictly diagonally dominant, that matrix factors on its
    diagonal, whatever values the pattern holds later."""
    P = sp.csc_matrix((np.where(row == col, float(N), 1.0), row,
                       np.searchsorted(col, np.arange(N + 1))), shape=(N, N))
    return _splu(P, "MMD_AT_PLUS_A").perm_c.astype(np.int64)


def _kept_rows(cone: Cone) -> np.ndarray:
    """Mask of the nonnegative rows the sparse path keeps in its augmented
    system rather than eliminating them into H: those whose nk^2 pairs of
    entries alone exceed _SPARSE_SHARE * n^2."""
    nk = np.diff(cone.Gn.indptr).astype(np.int64)
    return nk * nk > _SPARSE_SHARE * cone.n_vars ** 2


def _kkt_path(cone: Cone) -> str:
    """'full' when n + m + the cone's dimension is at most _FULL_KKT_ORDER.
    Otherwise 'sparse' when the entries the eliminated cone rows scatter
    into H, nnz^2 per nonnegative row not kept (`_kept_rows`) plus
    (variables in block)^2 per PSD block, number fewer than
    _SPARSE_SHARE * n^2. Otherwise 'dual' when the order
    r = n_eq + l_nn + (PSD slots - n) of its system is below n and every
    variable has a PSD slot (`_DualKkt`), and 'sparse' for the rest. Every
    count is known before any KKT assembly."""
    n = cone.n_vars
    if n + cone.n_eq + cone.h.size <= _FULL_KKT_ORDER:
        return "full"
    nk = np.diff(cone.Gn.indptr).astype(np.int64)
    count = int(np.sum(nk[~_kept_rows(cone)] ** 2))
    count += sum(int(np.sum(np.count_nonzero(g.mask, axis=1) ** 2))
                 for g in cone.groups)
    if count < _SPARSE_SHARE * n * n:
        return "sparse"
    r = cone.n_eq + cone.h.size - n
    if r < n and np.all(_first_slots(cone)[0] >= 0):
        return "dual"
    return "sparse"


class _SparseKkt:
    """Sparse path: the augmented matrix
    [[H_S, A', G_D'], [A, -delta I, 0], [G_D, 0, -(W_D^2 + delta I)]] in
    CSC, where D are the cone's kept nonnegative rows (`_kept_rows`) and
    H_S is summed from a `_NormalMap` of every other cone row.

    The fixed variables (`_fixed_variables`: rows `frow`, columns `fcol`,
    entries `fval`) are condensed out: each fixed column is a unit pivot
    with no coupling, in H's n-space numbering, and A keeps only the rows
    `eq` that fix none. delta is 0 when no equality row is left.

    Built once per cone: the pattern's fill-reducing order (`_ordering`:
    row and column i sit at position perm[i], and order = perm's inverse),
    then each term's place in H's lower triangle mapped to its CSC entry
    in that order, and each place off the diagonal to the entry that
    mirrors it. So `factor` fills the data array with one bincount and
    one copy, subtracts wn^2 on the kept rows' diagonal (`diag`, the
    entry of each diagonal place in that order) and factors it with one
    sparse LU that orders nothing, and its solve takes the right-hand side
    at `order` and the solution at `perm`. The second block row
    B = [A_eq; G_D], without the fixed columns, is constant. G's fixed
    columns G_F are bound once (`fixed_products`).
    """

    def __init__(self, cone: Cone):
        kept = _kept_rows(cone)
        self.kept = np.flatnonzero(kept)
        self.frow, self.fcol, self.fval = _fixed_variables(cone.A)
        self.eq = np.setdiff1d(np.arange(cone.n_eq), self.frow)
        self.nmap = nmap = _NormalMap(cone.G, cone.groups,
                                      np.flatnonzero(~kept), self.fcol)
        self.groups, self.l_nn = cone.groups, cone.n_nonneg
        self.products = cone.products[:2]
        GF = cone.G[:, self.fcol]
        self.fixed_products = _matvec(GF), _matvec(GF.T)
        Bc = sp.vstack([cone.A[self.eq], cone.Gn[self.kept]]).tocoo()
        m, n = Bc.shape
        free = np.ones(n, dtype=bool)
        free[self.fcol] = False
        # no row of A left holds a fixed column; a kept row may
        at = free[Bc.col]
        Bc = sp.coo_matrix((Bc.data[at], (Bc.row[at], Bc.col[at])), Bc.shape)
        self.n = n
        self.dim = N = n + m
        self.delta = _SPARSE_DELTA if self.eq.size else 0.0
        lower, pair = np.unique(nmap.place, return_inverse=True)
        i, j = np.divmod(lower, n)
        off = i != j
        # constant entries: B, B', -delta I, a unit pivot at each fixed
        # column and explicit zeros on the rest of H's diagonal, so that
        # the factorization ladder can shift any of it
        diag = np.arange(N)
        rows = np.concatenate([i, j[off], diag, n + Bc.row, Bc.col])
        cols = np.concatenate([j, i[off], diag, Bc.col, n + Bc.row])
        const = np.concatenate([(~free).astype(float),
                                np.full(m, -self.delta), Bc.data, Bc.data])
        uniq, inv = np.unique(cols * N + rows, return_inverse=True)
        col, row = np.divmod(uniq, N)
        # every place, renumbered to the pattern's fill-reducing order
        self.perm = perm = _ordering(row, col, N)
        self.order = np.argsort(perm)
        uniq, renum = np.unique(perm[col] * N + perm[row],
                                return_inverse=True)
        inv = renum[inv]
        n_low, n_up = lower.size, int(np.count_nonzero(off))
        self.pair = inv[:n_low][pair]
        self.lower = inv[:n_low][off]
        self.upper = inv[n_low:n_low + n_up]
        self.base = np.bincount(inv[n_low + n_up:], weights=const,
                                minlength=uniq.size)
        col, row = np.divmod(uniq, N)
        self.indices = row.astype(np.intc)
        self.indptr = np.searchsorted(col, np.arange(N + 1)).astype(np.intc)
        self.diag = np.searchsorted(uniq, perm * (N + 1))

    def factor(self, scaling) -> "_Eliminated":
        """LU of the augmented matrix at `scaling`. If SuperLU finds it
        exactly singular, the shifts of `_ladder` are added to H and
        subtracted from the second block; raises LinAlgError when all
        fail."""
        # base is zero at H's places; adding it out of place keeps data
        # float where no term is left (bincount of none gives ints)
        data = np.bincount(self.pair, weights=self.nmap.terms(scaling),
                           minlength=self.base.size) + self.base
        data[self.upper] = data[self.lower]
        n, o = self.n, self.n + self.eq.size
        data[self.diag[o:]] -= scaling.wn[self.kept] ** 2
        for reg, eps in _ladder(float(np.max(data[self.diag[:n]])),
                                self.delta):
            K = sp.csc_matrix((data, self.indices, self.indptr),
                              shape=(self.dim, self.dim))
            try:
                lu = _splu(K, "NATURAL")
            except RuntimeError:
                data[self.diag[:n]] += eps
                data[self.diag[n:]] -= eps
            else:
                order, perm = self.order, self.perm
                # H alone, unshifted, is positive definite: no equality
                # row is left (delta is 0), no row is kept and no shift
                passes = 2 if reg or self.dim > n else 1
                return _Eliminated(
                    _LuKkt(lambda r: lu.solve(r[order])[perm], n, o, reg,
                           passes), self, scaling)
        raise np.linalg.LinAlgError("KKT system singular")


class _LuKkt:
    """One LU, sparse or dense, of the sparse path's augmented matrix or of
    the full KKT matrix, whose solution splits at n and o = n + m into du,
    dy (at the equality rows left, or at every one) and dz (at the kept
    rows, or at every cone slot). `lu_solve` takes and returns vectors in
    the system's own numbering: the sparse path's permutes them into and
    out of its factor's order. `passes` is the count of refinement passes
    each of its solves takes in `solve_conic`."""

    def __init__(self, lu_solve, n, o, reg_used, passes):
        self.lu_solve = lu_solve
        self.n, self.o = n, o
        self.reg_used, self.passes = reg_used, passes

    def solve(self, *rhs):
        """(du, dy, dz) for the right-hand side's blocks."""
        x = self.lu_solve(np.concatenate(rhs))
        return x[:self.n], x[self.n:self.o], x[self.o:]


class _FullKkt:
    """Full path: one dense LU of [[0, A', G'], [A, 0, 0], [G, 0, -W'W]].

    Built once per cone: the constant part K0, the places of the
    nonnegative diagonal, and every slot pair (blk, t1, t2) of each PSD
    block, constant slots included, with its `_pair_index`.
    """

    def __init__(self, cone: Cone):
        G, A, groups = cone.G, cone.A, cone.groups
        self.m, self.n = A.shape
        n, o = self.n, self.n + self.m
        N = o + G.shape[0]
        self.K0 = np.zeros((N, N))
        Ad, Gd = A.toarray(), G.toarray()
        self.K0[:n, n:o] = Ad.T
        self.K0[:n, o:] = Gd.T
        self.K0[n:o, :n] = Ad
        self.K0[o:, :n] = Gd
        self.nn_diag = (o + np.arange(cone.n_nonneg)) * (N + 1)
        self.psd = []
        for g in groups:
            blk, t1, t2 = np.indices((g.nb, g.ns, g.ns)).reshape(3, -1)
            place = (o + g.slot[blk, t1]) * N + o + g.slot[blk, t2]
            idx, kww = _pair_index(g, blk, t1, t2)
            self.psd.append((idx, -kww, place))     # -W'W: negation is exact

    def matrix(self, scaling) -> np.ndarray:
        """The full KKT matrix at `scaling`."""
        K = self.K0.copy()
        flat = K.reshape(-1)
        if self.nn_diag.size:
            flat[self.nn_diag] = -scaling.wn ** 2
        for (idx, nkww, place), gd in zip(self.psd, scaling.groups):
            flat[place] = _pair_entries(gd["WW"], idx, nkww)
        return K

    def factor(self, scaling) -> _LuKkt:
        """LU of the full KKT matrix at `scaling`. Only on an exactly zero
        pivot, the shifts of `_ladder` are added to the variable block and
        subtracted from the equality block; raises LinAlgError when all
        fail."""
        K = self.matrix(scaling)
        n, o = self.n, self.n + self.m
        for reg, eps in _ladder(float(abs(K.diagonal()).max()), 0.0):
            lu, piv, info = sla.lapack.dgetrf(K)
            if info == 0:     # info > 0: U[info - 1, info - 1] is zero
                # K is indefinite: two passes
                return _LuKkt(lambda r: sla.lapack.dgetrs(lu, piv, r)[0],
                              n, o, reg, 2)
            K[range(n), range(n)] += eps
            K[range(n, o), range(n, o)] -= eps
        raise np.linalg.LinAlgError("KKT system singular")


class _Eliminated:
    """The sparse path's solve of the full KKT system at one scaling. Each
    fixed variable's row gives du_F = by_F / a, which moves to the right
    side: bz' = bz - G_F du_F. dz is eliminated at every cone row but the
    kept rows D, so
    [[H_S, A', G_D'], [A, 0, 0], [G_D, 0, -W_D^2]] [du; dy; dz_D] =
    [bu + G'W^-2 bz' (bz'_D read as 0); by; bz'_D], over the other columns
    and rows, goes to the factored augmented system, and
    dz = W^-2 (G du - bz) at the other rows. Last, the fixed columns' rows
    of A'dy + G'dz = bu give dy_F = (bu_F - G_F'dz) / a."""

    def __init__(self, lu: _LuKkt, sparse: _SparseKkt, scaling):
        self.lu, self.sparse = lu, sparse
        self.reg_used, self.passes = lu.reg_used, lu.passes
        self.winv2 = lambda v: _apply_w(scaling, sparse.groups, sparse.l_nn,
                                        v, "winv2")

    def solve(self, bu, by, bz):
        p = self.sparse
        Gx, GTx = p.products
        GFx, GFTx = p.fixed_products
        kept, fcol = p.kept, p.fcol
        du_f = by[p.frow] / p.fval
        bz_f = bz - GFx(du_f)
        v = self.winv2(bz_f)
        v[kept] = 0.0
        du, dy_eq, dz_kept = self.lu.solve(bu + GTx(v), by[p.eq],
                                           bz_f[kept])
        du[fcol] = du_f
        dz = self.winv2(Gx(du) - bz)
        dz[kept] = dz_kept
        dy = np.empty(by.size)
        dy[p.eq] = dy_eq
        dy[p.frow] = (bu[fcol] - GFTx(dz)) / p.fval
        return du, dy, dz


def _first_slots(cone: Cone) -> tuple:
    """(slot, g) per variable: its first PSD slot with a nonzero G entry,
    and that entry; slot -1 and g 0 for a variable with no such slot."""
    P = cone.G[cone.n_nonneg:].tocsc()
    P.eliminate_zeros()
    P.sort_indices()
    slot, g = np.full(cone.n_vars, -1), np.zeros(cone.n_vars)
    has = np.diff(P.indptr) > 0
    first = P.indptr[:-1][has]
    slot[has] = cone.n_nonneg + P.indices[first]
    g[has] = P.data[first]
    return slot, g


class _DualKkt:
    """Dual path: du and the PSD part of dz are eliminated through the PSD
    slots, and one SPD matrix of order r = n_eq + l_nn + (PSD slots - n)
    is Cholesky-factored. Built once per cone.

    Variable i has one representative slot rho(i), its first PSD slot, with
    G coefficient g_i. F puts bu_i / g_i at slot rho(i), and F' reads slot
    rho(i) and divides by g_i. C (r x dim, CSR) has the rows A F', then
    Gn F', then one per other PSD slot o: -1 at o, plus g_o / g_rho(v) at
    rho(v) when o holds the variable v (none for a constant slot).

    The KKT rows at the representative slots give du = F'(bz + W'W dz).
    With lam = (dy, dz_n, dz at the other slots), dz_psd = F bu - C' lam
    solves A'dy + G'dz = bu, and the remaining rows (A du = by, the
    nonnegative rows and the other slots' rows) read
    C (bz + W'W dz) - diag(0, wn^2, 0) lam = (by, bz_n, 0). So
    M lam = C (bz + W'W F bu) - (by, bz_n, 0) with
    M = C W'W C' + diag(0, wn^2, 0).

    M is formed by rows of C, split once per cone by what they cost
    (Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997). A dense row, one
    with more nonzeros than the order m of the largest PSD block, pays
    one W'W congruence (about 4 m^3 flops) and one product with C, which
    give its column and row of M. Over the other rows, the sparse ones,
    M is C_S K C_S': C_S holds them on the slots T they touch, and K is
    W'W's symmetric Kronecker matrix on T, with the entries of the slot
    pairs of T in one block (`_pair_entries`, as `_FullKkt` writes them)
    and zero across blocks.
    """

    def __init__(self, cone: Cone):
        n, l_nn, dim = cone.n_vars, cone.n_nonneg, cone.h.size
        self.groups, self.l_nn, self.n_eq = cone.groups, l_nn, cone.n_eq
        self.rep, self.g = _first_slots(cone)
        Ft = sp.csr_matrix((1.0 / self.g, (np.arange(n), self.rep)),
                           shape=(n, dim))
        other = np.setdiff1d(np.arange(l_nn, dim), self.rep)
        Go = cone.G[other].tocoo()
        Co = sp.csr_matrix((
            np.concatenate([np.full(other.size, -1.0),
                            Go.data / self.g[Go.col]]),
            (np.concatenate([np.arange(other.size), Go.row]),
             np.concatenate([other, self.rep[Go.col]]))),
            shape=(other.size, dim))
        C = self.C = sp.vstack([cone.A @ Ft, cone.Gn @ Ft, Co], format="csr")
        self.Cx, self.CTx = _matvec(C), _matvec(C.T)
        self.nn = np.arange(self.n_eq, self.n_eq + l_nn)
        dense = np.diff(C.indptr) > max(g.m for g in self.groups)
        self.dense = np.flatnonzero(dense)
        self.Cd = C[self.dense].toarray()
        # C_S: the sparse rows on the slots T they touch, the dense rows
        # emptied, so that C_S K C_S' is M over the sparse rows and zero
        # elsewhere
        Cs = sp.diags((~dense).astype(float)) @ C
        Cs.eliminate_zeros()
        T = np.unique(Cs.indices)
        self.Cs = Cs[:, T]
        # per group: the pairs of T's slots in one block, with their
        # `_pair_index` and their flat place in K
        self.psd = []
        for g in self.groups:
            local = np.full(dim, -1)
            local[g.flat] = np.arange(g.flat.size)
            k = local[T]
            at = np.flatnonzero(k >= 0)
            blk, t = np.divmod(k[at], g.ns)
            p1, p2 = np.nonzero(blk[:, None] == blk[None, :])
            self.psd.append(_pair_index(g, blk[p1], t[p1], t[p2])
                            + (at[p1] * T.size + at[p2],))

    def matrix(self, scaling) -> np.ndarray:
        """M at `scaling`: K on the sparse rows' slot pairs, C_S K C_S',
        then the dense rows' columns C (W'W C_D') and their mirror."""
        K = np.zeros((self.Cs.shape[1],) * 2)
        for (idx, kww, place), gd in zip(self.psd, scaling.groups):
            K.flat[place] = _pair_entries(gd["WW"], idx, kww)
        Cs = self.Cs
        M = Cs @ (Cs @ K).T       # K is symmetric
        if self.dense.size:
            ww = _congruence(self.groups, scaling.mode("ww")[1], self.Cd,
                             np.zeros_like(self.Cd))
            cols = self.C @ ww.T
            M[:, self.dense] = cols
            M[self.dense, :] = cols.T
        M[self.nn, self.nn] += scaling.wn ** 2
        return M

    def factor(self, scaling) -> "_DualSolve":
        """Cholesky factor of M at `scaling` (`_factor_regularized`)."""
        cho, reg = _factor_regularized(self.matrix(scaling),
                                       "dual normal equations not "
                                       "positive definite")
        return _DualSolve(self, scaling, cho, reg)


class _DualSolve:
    """The dual path's solve of the full KKT system at one scaling: two
    W'W congruences, two products with C and one potrs of order r. One
    refinement pass when M factored unshifted, two after a shift."""

    def __init__(self, dual: _DualKkt, scaling, cho, reg_used):
        self.dual, self.cho, self.reg_used = dual, cho, reg_used
        self.passes = 2 if reg_used else 1
        self.ww = lambda v: _apply_w(scaling, dual.groups, dual.l_nn, v,
                                     "ww")

    def solve(self, bu, by, bz):
        d = self.dual
        n_eq, l_nn = d.n_eq, d.l_nn
        Fbu = np.zeros(bz.size)
        Fbu[d.rep] = bu / d.g
        rhs = d.Cx(bz + self.ww(Fbu))
        rhs[:n_eq] -= by
        rhs[n_eq:n_eq + l_nn] -= bz[:l_nn]
        lam = _cho_solve(self.cho, rhs)
        dz = Fbu - d.CTx(lam)
        dz[:l_nn] = lam[n_eq:n_eq + l_nn]
        du = (bz + self.ww(dz))[d.rep] / d.g
        return du, lam[:n_eq], dz


# fraction of the distance to the cone boundary that a step may take
_STEP_FRACTION = 0.99
# a cold solve's restart (`ConicSolution.restart`) is its first iterate
# with pres and dres both at most this. On a seed-1 sysid pass, at 0.05 or
# 0.1 one warm solve ends near_optimal and is solved again cold; 0.3 takes
# 107 iterations and 0.2 takes 102
_RESTART_RESIDUAL = 0.2


def solve_conic(prog: ConicProgram, settings: SolverSettings | None = None,
                start: tuple | None = None) -> ConicSolution:
    """Solve a ConicProgram with the built-in interior-point method, from
    the cold start or from `start`, an interior (u, y, z, s) over the same
    cone: the `restart` of an earlier cold solve."""
    settings = settings or SolverSettings()
    cone = prog.cone
    l_nn = cone.n_nonneg
    groups, h, b, c = cone.groups, cone.h, cone.b, prog.c
    sdim = h.size
    if sdim == 0:
        raise ValueError("program has no cone constraints")

    # cone order (for the barrier parameter)
    nu = l_nn + sum(g.nb * g.m for g in groups)
    e_vec = cone.identity
    Gx, GTx, Ax, ATx = cone.products
    factor_kkt = cone.factor_kkt

    if start is None:
        # initial point from the identity scaling: only y and z depend on c
        kkt, u, s = cone.start
        u, s = u.copy(), s.copy()     # no solution shares the cone's arrays
        nu_v, w_v, _ = kkt.solve(c, np.zeros_like(b), np.zeros(sdim))
        y = -w_v
        z = _shift_into_cone(cone, -Gx(nu_v))
    else:
        u, y, z, s = start

    norm_b = 1.0 + _norm(b)
    norm_h = 1.0 + _norm(h)
    norm_c = 1.0 + _norm(c)

    trace = _log.isEnabledFor(logging.DEBUG)
    ftol, gtol = settings.feasibility_tol, settings.gap_tol
    status = stop = "iteration_limit"
    it = 0
    step = 0.0
    stall = 0
    # (score, it, u, y, z, s, pcost, dcost, gap, pres, dres, relgap)
    best = restart = None

    for it in range(settings.max_iterations + 1):
        Au, Gu_s, ATy, GTz = Ax(u), Gx(u) + s, ATx(y), GTx(z)
        res_y = Au - b
        res_z = Gu_s - h
        res_x = c + ATy + GTz
        gap = float(s @ z)
        pcost = float(c @ u)
        # -(h @ z) has the bits of (-h) @ z: negation is exact
        hz, by = float(h @ z), float(b @ y)
        dcost = -hz - by
        pres = max(_norm(res_y) / norm_b, _norm(res_z) / norm_h)
        dres = _norm(res_x) / norm_c
        relgap = gap / max(1.0, abs(pcost))
        score = max(pres, dres, relgap)
        if trace:
            _log.debug("it %3d p % .6e d % .6e gap %.2e pres %.2e dres %.2e "
                       "step %.3f", it, pcost + prog.c0, dcost + prog.c0, gap,
                       pres, dres, step)
        # references, not copies: u, y, z and s are rebound below, never
        # written in place
        if best is None or score < best[0]:
            best = (score, it, u, y, z, s, pcost, dcost, gap, pres, dres,
                    relgap)
        if (start is None and restart is None and pres <= _RESTART_RESIDUAL
                and dres <= _RESTART_RESIDUAL):
            restart = (u, y, z, s)

        if pres <= ftol and dres <= ftol and relgap <= gtol:
            status, stop = "optimal", "converged"
            break

        # infeasibility certificates from the current iterate
        by_hz = hz + by
        if by_hz < -1e-10:
            cert = _norm(ATy + GTz) / (-by_hz)
            if cert * norm_h <= ftol * 10:
                status = stop = "infeasible"
                break
        if pcost < -1e-10:
            ray = max(_norm(Au), _norm(Gu_s))
            if ray / (-pcost) * norm_c <= ftol * 10:
                status = stop = "unbounded"
                break
        if it == settings.max_iterations:
            break
        if it > 5 and score > max(1e5 * best[0], 1e-2):
            stop = "diverging"  # the best iterate is returned below
            break

        # frees the last factor and scaling before the next are built
        kkt = scaling = None
        try:
            scaling = _nt_scaling(groups, s, z, l_nn)
            kkt = factor_kkt(scaling)
        except np.linalg.LinAlgError:
            stop = "factorization_failed"
            break

        lam = _lambda_vec(scaling, groups, l_nn, sdim)
        lam2 = lam * lam      # lambda o lambda: lambda is diagonal
        mu = gap / nu

        def kkt_step(rx, ry, rz_vec, dsc):
            """Return (du, dy, dz, ds) for the Newton system with rhs
            (-rx, -ry, -rz) and complementarity target dsc (scaled space).

            ds is recovered from the cone equation G du + ds = -rz rather
            than through W, which keeps the primal residual exact even when
            the scaling is ill-conditioned near convergence.
            """
            v = _jordan_solve(scaling, groups, l_nn, dsc)
            bz = -rz_vec - _apply_w(scaling, groups, l_nn, v, "wt")
            du, dy, dz = _refine(kkt, cone, scaling, -rx, -ry, bz)
            ds = -rz_vec - Gx(du)
            return du, dy, dz, ds

        def max_step(ds, dz):
            """(amax, rho, sig): the largest step to the cone boundary, and
            the scaled directions rho = W^{-T} ds and sig = W dz."""
            rho = _apply_w(scaling, groups, l_nn, ds, "wit")
            sig = _apply_w(scaling, groups, l_nn, dz, "w")
            amax = _max_cone_step(groups, scaling, l_nn, rho, sig)
            return amax, rho, sig

        # predictor, then the combined corrector step; a direction that
        # turns non-finite makes a solve or a step's eigvalsh raise
        try:
            du_a, dy_a, dz_a, ds_a = kkt_step(res_x, res_y, res_z, -lam2)
            amax, rho, sig = max_step(ds_a, dz_a)
            alpha_aff = min(1.0, amax)
            gap_aff = float((s + alpha_aff * ds_a) @ (z + alpha_aff * dz_a))
            sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3

            corr = _jordan_prod(groups, l_nn, rho, sig)
            ds_comb = -lam2 - corr + sigma * mu * e_vec
            scale_r = 1.0 - sigma
            du, dy, dz, ds = kkt_step(scale_r * res_x, scale_r * res_y,
                                      scale_r * res_z, ds_comb)
            step = min(1.0, _STEP_FRACTION * max_step(ds, dz)[0])
        except np.linalg.LinAlgError:
            stop = "solve_failed"
            break
        if step <= 1e-10:
            stop = "step_too_small"
            break
        stall = stall + 1 if step < 1e-5 else 0
        if stall >= 3:
            stop = "stalled"
            break
        u = u + step * du
        y = y + step * dy
        z = z + step * dz
        s = s + step * ds

    fallback = False
    if status == "iteration_limit" and best is not None:
        # fall back to the best iterate seen
        _, best_it, u, y, z, s, pcost, dcost, gap, pres, dres, relgap = best
        fallback = best_it != it
        # every iterate failed the convergence test above in its own
        # iteration, so the best one is at most near optimal
        if pres <= 100 * ftol and dres <= 100 * ftol and relgap <= 100 * gtol:
            status = "near_optimal"

    return ConicSolution(status=status, u=u, y=y, z=z, s=s,
                         pcost=pcost + prog.c0, dcost=dcost + prog.c0,
                         gap=gap, pres=pres, dres=dres, iterations=it,
                         stop_reason=stop, fallback=fallback,
                         restart=restart)


def _refine(kkt, cone: Cone, scaling, bu, by, bz) -> tuple:
    """kkt's solve (du, dy, dz) of the full KKT system with right-hand side
    (bu, by, bz), refined against that system, W'W dz included, kkt.passes
    times."""
    Gx, GTx, Ax, ATx = cone.products
    du, dy, dz = kkt.solve(bu, by, bz)
    for _ in range(kkt.passes):
        wwdz = _apply_w(scaling, cone.groups, cone.n_nonneg, dz, "ww")
        cu, cy, cz = kkt.solve(bu - ATx(dy) - GTx(dz), by - Ax(du),
                               bz - Gx(du) + wwdz)
        du = du + cu
        dy = dy + cy
        dz = dz + cz
    return du, dy, dz


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a contiguous float vector, without numpy's
    wrappers: it computes the same sqrt(x.dot(x))."""
    return math.sqrt(x.dot(x))


def _shift_into_cone(cone: Cone, vec: np.ndarray) -> np.ndarray:
    """vec + (1 + alpha) e if vec is not safely interior."""
    margin = _cone_margin(cone.groups, cone.n_nonneg, vec)
    if margin > 1e-8 * max(1.0, _norm(vec)):
        return vec
    return vec + (1.0 - min(margin, 0.0)) * cone.identity


def _cone_margin(groups, l_nn, vec) -> float:
    """Smallest eigenvalue of vec in the cone (inf for an empty cone)."""
    margin = np.inf
    if l_nn:
        margin = min(margin, float(np.min(vec[:l_nn])))
    for g in groups:
        margin = min(margin, float(np.min(_min_eig(g, vec[None]))))
    return margin


def kkt_residuals(prog: ConicProgram, sol: ConicSolution) -> dict:
    """Recompute optimality residuals of a solution from scratch.

    Returns primal equality/cone violations, dual residual, dual cone
    violation and the complementarity gap. Cone violations are the most
    negative slack (0 when inside the cone).
    """
    cone = prog.cone
    groups, l_nn, h, b = cone.groups, cone.n_nonneg, cone.h, cone.b
    Gx, GTx, Ax, ATx = cone.products
    u, y, z, s = sol.u, sol.y, sol.z, sol.s
    Gu = Gx(u)
    return {
        "primal_eq": float(np.max(np.abs(Ax(u) - b), initial=0.0)),
        "primal_cone": max(0.0, -_cone_margin(groups, l_nn, h - Gu)),
        "slack_consistency": float(np.linalg.norm(Gu + s - h, np.inf)),
        "dual": float(np.linalg.norm(prog.c + ATx(y) + GTx(z), np.inf)),
        "dual_cone": max(0.0, -_cone_margin(groups, l_nn, z)),
        "complementarity": abs(float(s @ z)),
    }
