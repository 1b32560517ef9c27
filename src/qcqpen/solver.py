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
one G and one h span the whole product cone; they and A are built once per
solve, and every product in the iteration is a plain matrix-vector product.

The algorithm is a Nesterov-Todd scaled Mehrotra predictor-corrector method:
at each iterate the scaling W with W z-bar = W^{-T} s-bar = lambda is
computed per block, the Newton system is reduced to the normal matrix
H = G' (W'W)^{-1} G with the equalities kept beside it, and steps are damped
by a fraction of the distance to the cone boundary. G and A are CSR in the
working dtype: long double, where it is wider than float64, for programs
with at most `_EXTENDED_THRESHOLD` variables, and float64 otherwise.

Every term of H's diagonal and lower triangle comes from one pair list
built once per solve (`_NormalMap`): each pair of entries of a nonnegative
row, then each pair of variable slots of a PSD block, with its place in H.
That is all a Cholesky factorization reads (as in CVXOPT's potrf-based KKT
solvers). The reduced system is then factored on one of two paths, chosen
once per solve by `_kkt_path`:

- dense: H is summed from the terms with one np.add.at, which adds them in
  list order, and Cholesky-factored; the equalities go through a second
  Cholesky of the Schur complement A H^{-1} A'.
- sparse (float64 only): when the count of H entries the cone rows scatter,
  the sum of nnz^2 over nonnegative rows plus (variables in block)^2 over
  PSD blocks, is below a tenth of n^2, the terms are summed per place into
  the quasidefinite augmented matrix [[H, A'], [A, -delta I]] in CSC form
  and factored with one sparse LU per iteration (Vanderbei, "Symmetric
  quasi-definite matrices", 1995; as in ECOS).

Either way iterative refinement runs against the unregularized system.
Deterministic: no randomization anywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

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


@dataclass
class ConicProgram:
    """Cone program data; see module docstring for the standard form."""

    n_vars: int
    c: np.ndarray
    c0: float = 0.0
    # equalities A u = b, as triplet lists until finalized
    eq_rows: list = field(default_factory=list)
    eq_rhs: list = field(default_factory=list)
    # nonnegative rows  row . u <= rhs
    nn_rows: list = field(default_factory=list)
    nn_rhs: list = field(default_factory=list)
    blocks: list = field(default_factory=list)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        if self.c.shape != (self.n_vars,):
            raise ValueError("objective vector has wrong length")

    def add_equality_row(self, cols, vals, rhs: float):
        self.eq_rows.append((np.asarray(cols, dtype=np.int64),
                             np.asarray(vals, dtype=float)))
        self.eq_rhs.append(float(rhs))

    def add_nonneg_row(self, cols, vals, rhs: float):
        self.nn_rows.append((np.asarray(cols, dtype=np.int64),
                             np.asarray(vals, dtype=float)))
        self.nn_rhs.append(float(rhs))

    def add_psd_block(self, block: PsdBlock):
        if block.size < 1:
            raise ValueError("empty PSD block")
        self.blocks.append(block)

    @property
    def n_eq(self) -> int:
        return len(self.eq_rows)

    @property
    def n_nonneg(self) -> int:
        return len(self.nn_rows)

    def _triplet_matrix(self, rows) -> sp.csr_matrix:
        data, ri, ci = [], [], []
        for k, (cols, vals) in enumerate(rows):
            ri.extend([k] * len(cols))
            ci.extend(cols.tolist())
            data.extend(vals.tolist())
        return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), self.n_vars))

    def eq_matrix(self) -> sp.csr_matrix:
        return self._triplet_matrix(self.eq_rows)

    def nn_matrix(self) -> sp.csr_matrix:
        return self._triplet_matrix(self.nn_rows)


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
    log: list = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.pcost


def iteration_log_csv(sol: ConicSolution) -> str:
    lines = ["iter,pcost,dcost,gap,pres,dres,step"]
    for row in sol.log:
        lines.append("%d,%.12e,%.12e,%.9e,%.9e,%.9e,%.4f" % (
            row["iter"], row["pcost"], row["dcost"], row["gap"],
            row["pres"], row["dres"], row["step"]))
    return "\n".join(lines) + "\n"


class _BlockGroup:
    """Blocks of one size, batched: index arrays shaped (nb, ns)."""

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
        # svec slots of the diagonal entries, (nb, m)
        self.dslot = self.slot[:, rows == cols]
        self.mask = self.var >= 0
        # row and column of each svec slot
        self.ka = np.asarray(rows)
        self.kb = np.asarray(cols)

    def gather(self, vec: np.ndarray) -> np.ndarray:
        """(nb, ns) slice of an s-space vector."""
        return vec[self.slot]

    def mats(self, vec: np.ndarray) -> np.ndarray:
        return smat(self.gather(vec), self.m)


def _build_groups(prog: ConicProgram, dt):
    """(groups, G, h): the blocks batched by size, and s = h - G u.

    G is CSR in `dt` and spans every cone slot, the nonnegative rows first
    and then each block's svec slots.
    """
    sizes: dict = {}
    off = prog.n_nonneg
    for blk in prog.blocks:
        sizes.setdefault(blk.size, []).append((blk, off))
        off += blk.size * (blk.size + 1) // 2
    groups = [_BlockGroup(m, *zip(*sizes[m])) for m in sorted(sizes)]
    Gn = prog.nn_matrix().tocoo()
    rows = np.concatenate([Gn.row] + [g.slot[g.mask] for g in groups])
    cols = np.concatenate([Gn.col] + [g.var[g.mask] for g in groups])
    vals = np.concatenate([Gn.data] + [g.gcoef[g.mask] for g in groups])
    G = sp.csr_matrix((vals, (rows, cols)), shape=(off, prog.n_vars))
    h = np.zeros(off, dtype=dt)
    h[:prog.n_nonneg] = prog.nn_rhs
    for g in groups:
        h[g.slot] = g.h
    return groups, G.astype(dt, copy=False), h


class _Scaling:
    """NT scaling state for one iteration."""

    def __init__(self, wn, lam_n, group_data):
        self.wn = wn                  # nonneg scaling sqrt(s/z)
        self.lam_n = lam_n
        self.groups = group_data      # per group: dict R, Rinv, Winv, lam


def _nt_scaling(groups, s, z, l_nn, dt=np.float64):
    """Compute the NT scaling at (s, z); requires strict interiority.

    The eigen/Cholesky work runs in float64 (LAPACK); results are stored in
    dt so that extended-precision KKT assembly stays internally consistent.
    """
    if l_nn:
        sn, zn = s[:l_nn], z[:l_nn]
        wn = np.sqrt(sn / zn)
        lam_n = np.sqrt(sn * zn)
    else:
        wn = np.zeros(0, dtype=dt)
        lam_n = np.zeros(0, dtype=dt)
    gdata = []
    for g in groups:
        S = np.asarray(g.mats(s), dtype=np.float64)
        Z = np.asarray(g.mats(z), dtype=np.float64)
        Ls = np.linalg.cholesky(S)
        M = np.swapaxes(Ls, -1, -2) @ Z @ Ls
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        d, Q = np.linalg.eigh(M)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("scaling eigenvalues not positive")
        R = Ls @ Q * (d[..., None, :] ** -0.25)
        Rinv = (d[..., :, None] ** 0.25) * np.swapaxes(Q, -1, -2) @ \
            np.linalg.inv(Ls)
        Rinv = Rinv.astype(dt)
        gdata.append({"R": R.astype(dt), "Rinv": Rinv,
                      "Winv": np.swapaxes(Rinv, -1, -2) @ Rinv,
                      "lam": np.sqrt(d).astype(dt)})
    return _Scaling(wn, lam_n, gdata)


def _pair_index(g: _BlockGroup, blk, t1, t2):
    """(idx, kww) for the slot pairs (blk, t1, t2) of a group.

    Slot t holds entry (a_t, b_t). idx is (4, pairs) int32: the flat places
    of P[a1, a2], P[b1, b2], P[a1, b2] and P[b1, a2] in the group's
    (nb, m, m) W^{-1}; kww is 0.5 w_t1 w_t2.
    """
    a, b, m = g.ka.astype(np.int32), g.kb.astype(np.int32), g.m
    base = (blk * (m * m)).astype(np.int32)
    a1, b1 = base + a[t1] * m, base + b[t1] * m
    a2, b2 = a[t2], b[t2]
    idx = np.stack([a1 + a2, b1 + b2, a1 + b2, b1 + a2])
    return idx, 0.5 * (g.w[t1] * g.w[t2])


def _pair_entries(Winv, idx, kww):
    """Entries K[t1, t2] at the pairs of `_pair_index`, where K is the
    symmetric Kronecker product with K svec(M) = svec(P M P), P = W^{-1}:
    kww (P[a1, a2] P[b1, b2] + P[a1, b2] P[b1, a2]) (Todd, Toh and
    Tutuncu, SIAM J. Optim. 1998)."""
    P = Winv.reshape(-1)
    vals = P.take(idx[0])
    vals *= P.take(idx[1])
    cross = P.take(idx[2])
    cross *= P.take(idx[3])
    vals += cross
    vals *= kww
    return vals


def _congruence(groups, factors, vec, out):
    """out's PSD slots := svec(sym(L mat(v) R)) per group, with (L, R) from
    `factors`; returns out."""
    for g, (L, R) in zip(groups, factors):
        res = L @ g.mats(vec) @ R
        res = 0.5 * (res + np.swapaxes(res, -1, -2))
        out[g.slot.ravel()] = svec(res).ravel()
    return out


def _apply_w(scaling, groups, l_nn, vec, mode):
    """Apply W ('w'), W' ('wt'), W^{-T} ('wit') blockwise to an s-space vector.

    W diag: nonneg part multiplies by wn (W = W' there); PSD part maps
    z -> svec(R' mat(z) R) for 'w', s -> svec(R^{-1} mat(s) R^{-T}) for
    'wit', v -> svec(R mat(v) R') for 'wt'.
    """
    out = np.empty_like(vec)
    if l_nn:
        wn = scaling.wn
        out[:l_nn] = vec[:l_nn] * (wn if mode in ("w", "wt") else 1.0 / wn)
    factors = []
    for gd in scaling.groups:
        R, Rinv = gd["R"], gd["Rinv"]
        Rt = np.swapaxes(R, -1, -2)
        factors.append({"w": (Rt, R), "wt": (R, Rt),
                        "wit": (Rinv, np.swapaxes(Rinv, -1, -2))}[mode])
    return _congruence(groups, factors, vec, out)


def _max_cone_step(groups, scaling, l_nn, scaled_dir):
    """Largest alpha with lambda + alpha*dir in the cone (dir in scaled space)."""
    alpha = np.inf
    if l_nn:
        d = scaled_dir[:l_nn]
        lam = scaling.lam_n
        neg = d < 0
        if np.any(neg):
            alpha = min(alpha, float(np.min(-lam[neg] / d[neg])))
    for g, gd in zip(groups, scaling.groups):
        lam = gd["lam"]
        D = g.mats(scaled_dir)
        scale = 1.0 / np.sqrt(lam)
        T = D * scale[..., :, None] * scale[..., None, :]
        T = np.asarray(0.5 * (T + np.swapaxes(T, -1, -2)), dtype=np.float64)
        emin = float(np.min(np.linalg.eigvalsh(T)))
        if emin < 0:
            alpha = min(alpha, -1.0 / emin)
    return alpha


def _jordan_solve(scaling, groups, l_nn, d):
    """Solve lambda o v = d in scaled space."""
    v = np.empty_like(d)
    if l_nn:
        v[:l_nn] = d[:l_nn] / scaling.lam_n
    for g, gd in zip(groups, scaling.groups):
        lam = gd["lam"]
        D = g.mats(d)
        denom = 0.5 * (lam[..., :, None] + lam[..., None, :])
        v[g.slot.ravel()] = svec(D / denom).ravel()
    return v


def _jordan_prod(groups, l_nn, a, b):
    """a o b in scaled space ((AB + BA)/2 on PSD blocks)."""
    out = np.empty_like(a)
    if l_nn:
        out[:l_nn] = a[:l_nn] * b[:l_nn]
    for g in groups:
        A = g.mats(a)
        B = g.mats(b)
        P = 0.5 * (A @ B + B @ A)
        out[g.slot.ravel()] = svec(P).ravel()
    return out


def _lambda_vec(scaling, groups, l_nn, dim, dt=np.float64):
    lam = np.zeros(dim, dtype=dt)
    if l_nn:
        lam[:l_nn] = scaling.lam_n
    for g, gd in zip(groups, scaling.groups):
        lam[g.dslot] = gd["lam"]
    return lam


def _chol_ext(H: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor for dtypes LAPACK does not cover (long double)."""
    L = np.tril(H)
    n = L.shape[0]
    for j in range(n):
        d = L[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0:
            raise np.linalg.LinAlgError("matrix not positive definite")
        d = np.sqrt(d)
        L[j, j] = d
        if j + 1 < n:
            L[j + 1:, j] = (L[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / d
    return L


def _cho_solve_ext(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L' x = b by substitution; b may have trailing columns."""
    x = np.array(b, dtype=L.dtype, copy=True)
    n = L.shape[0]
    for j in range(n):
        x[j] = (x[j] - L[j, :j] @ x[:j]) / L[j, j]
    for j in range(n - 1, -1, -1):
        x[j] = (x[j] - L[j + 1:, j] @ x[j + 1:]) / L[j, j]
    return x


# first diagonal shift of the factorization ladder, relative to the largest
# diagonal entry: 1e-14 (about 45 machine epsilons) in float64, and the same
# multiple of long double's epsilon, so that every step registers in it
_REG_START_F64 = 1e-14
_REG_START_EXT = _REG_START_F64 * float(np.finfo(np.longdouble).eps
                                        / np.finfo(np.float64).eps)


def _factor_regularized(M, ext, what):
    """Cholesky factor of M, shifting its diagonal until it factors.

    Up to six shifts, each 100 times the last, are added in place; returns
    (factor, total shift) or raises LinAlgError(what).
    """
    scale = max(1.0, float(np.max(np.abs(np.diag(M)))))
    eps = (_REG_START_EXT if ext else _REG_START_F64) * scale
    reg = 0.0
    for _ in range(6):
        try:
            fac = _chol_ext(M) if ext else \
                sla.cho_factor(M, lower=True, check_finite=False)
            return fac, reg
        except np.linalg.LinAlgError:
            M[np.diag_indices_from(M)] += eps
            reg += eps
            eps *= 100.0
    raise np.linalg.LinAlgError(what)


class _KktSolver:
    """Cholesky factors of the reduced saddle system [H A'; A 0].

    H is a dense array of the working dtype; only its diagonal and lower
    triangle are read, and the diagonal is shifted in place when it does
    not factor. A is CSR, densified to form the Schur complement. reg_used
    is the total diagonal shift added to H and to the Schur complement.
    """

    def __init__(self, H, A):
        self.ext = H.dtype != np.float64
        self.cho, self.reg_used = _factor_regularized(
            H, self.ext, "normal equations not positive definite")
        if A.shape[0]:
            A = A.toarray()
            HiAt = self._cho_solve(self.cho, A.T)
            S = A @ HiAt
            S = 0.5 * (S + S.T)
            self.schur, schur_reg = _factor_regularized(
                S, self.ext, "equality Schur complement singular")
            self.reg_used += schur_reg
            self.HiAt = HiAt
        else:
            self.schur = None
            self.HiAt = None

    def _cho_solve(self, fac, r):
        if self.ext:
            return _cho_solve_ext(fac, r)
        return sla.cho_solve(fac, r, check_finite=False)

    def solve(self, r1, r2):
        """Solve [H A'; A 0] [du; dy] = [r1; r2]."""
        w = self._cho_solve(self.cho, r1)
        if self.schur is not None:
            rhs = self.HiAt.T @ r1 - r2
            dy = self._cho_solve(self.schur, rhs)
            du = w - self.HiAt @ dy
            return du, dy
        return w, np.zeros(0)


class _NormalMap:
    """Every term of H = G' (W'W)^{-1} G on its diagonal and lower triangle.

    Built once per solve: one list of pairs, each with its flat place
    i * n + j, i >= j, in `place`. First, row by row, each pair of entries
    of a nonnegative row k at columns i >= j, with the term
    G[k, i] (G[k, j] (1 / wn_k^2)). Then, per group in (block, t1, t2) order,
    each pair of variable slots with var(t1) >= var(t2), with the term
    K[t1, t2] gc[t1] gc[t2] (`_pair_entries`).
    """

    def __init__(self, G, groups, l_nn):
        n = self.n = G.shape[1]
        Gn = G[:l_nn]
        self.data = Gn.data
        nk = np.diff(Gn.indptr)
        self.entry_row = np.repeat(np.arange(l_nn), nk)
        # the r-th entry of a row pairs with the row's first r + 1 entries,
        # whose columns are j <= i because CSR keeps each row sorted
        first = np.repeat(Gn.indptr[:-1], nk)
        self.reps = np.arange(Gn.nnz) - first + 1
        self.partner = np.arange(int(self.reps.sum()))
        self.partner -= np.repeat(np.cumsum(self.reps) - self.reps - first,
                                  self.reps)
        cols = Gn.indices.astype(np.int64)
        places = [np.repeat(cols * n, self.reps) + cols[self.partner]]
        self.psd = []
        for g in groups:
            both = g.mask[:, :, None] & g.mask[:, None, :]
            both &= g.var[:, :, None] >= g.var[:, None, :]
            blk, t1, t2 = np.nonzero(both)
            self.psd.append(_pair_index(g, blk, t1, t2)
                            + (g.gcoef[blk, t1], g.gcoef[blk, t2]))
            places.append(g.var[blk, t1] * n + g.var[blk, t2])
        self.place = np.concatenate(places)

    def terms(self, scaling) -> np.ndarray:
        """The pairs' terms at `scaling`, in the working dtype."""
        out = np.empty(self.place.size, dtype=self.data.dtype)
        lo = self.partner.size
        scaled = self.data * (1.0 / scaling.wn ** 2)[self.entry_row]
        # partner is in range by construction: "clip" only skips the
        # buffered bounds check
        np.take(scaled, self.partner, out=out[:lo], mode="clip")
        out[:lo] *= np.repeat(self.data, self.reps)
        for (idx, kww, gc1, gc2), gd in zip(self.psd, scaling.groups):
            seg = out[lo:lo + kww.size]
            np.multiply(_pair_entries(gd["Winv"], idx, kww), gc1, out=seg)
            seg *= gc2
            lo += kww.size
        return out

    def normal_matrix(self, scaling) -> np.ndarray:
        """Dense H at `scaling`; its strict upper triangle is zero.

        np.add.at adds in index order, so every place receives its terms in
        list order.
        """
        # terms before H: the other way round, glibc gave H fresh pages on
        # every call (2,000 page faults, 6 ms on dense_full's program)
        terms = self.terms(scaling)
        H = np.zeros(self.n * self.n, dtype=terms.dtype)
        np.add.at(H, self.place, terms)
        return H.reshape(self.n, self.n)


# absolute static regularization of the equality block on the sparse path;
# scaled by H's largest diagonal (1e8 and more near convergence) it left the
# first solves' residuals far above what refinement recovers
_SPARSE_DELTA = 1e-12
# the sparse path runs when the scatter count is below this share of n^2
_SPARSE_SHARE = 0.1
# programs with at most this many variables run the KKT solves in extended
# precision (x86 long double), which keeps the normal equations
# factorizable far past the float64 conditioning wall
_EXTENDED_THRESHOLD = 300


def _kkt_path(prog: ConicProgram):
    """(dtype, sparse) of the KKT solves, from counts known before assembly.

    Long double is used up to _EXTENDED_THRESHOLD variables when it is
    truly wider than float64, always on the dense path. A float64 program
    goes sparse when the entries its cone rows scatter into H, nnz^2 per
    nonnegative row plus (variables in block)^2 per PSD block, number fewer
    than _SPARSE_SHARE * n^2.
    """
    n = prog.n_vars
    if n <= _EXTENDED_THRESHOLD and np.finfo(np.longdouble).eps < 1e-17:
        return np.longdouble, False
    count = sum(len(cols) ** 2 for cols, _ in prog.nn_rows)
    count += sum(int(np.count_nonzero(blk.var >= 0)) ** 2 for blk in prog.blocks)
    return np.float64, count < _SPARSE_SHARE * n * n


class _SparseKkt:
    """Sparse path: the augmented matrix [[H, A'], [A, -delta I]] in CSC.

    Built once per solve from a `_NormalMap`: each pair's place in H's lower
    triangle is mapped to its CSC entry, and each place off the diagonal to
    the entry that mirrors it, so `factor` fills the data array with one
    bincount and one copy and factors it with one sparse LU.
    """

    def __init__(self, nmap: _NormalMap, A):
        m, n = A.shape
        self.nmap = nmap
        self.n = n
        self.dim = N = n + m
        lower, pair = np.unique(nmap.place, return_inverse=True)
        i, j = np.divmod(lower, n)
        off = i != j
        # constant entries: A, A', -delta I and explicit zeros on H's
        # diagonal, so that the factorization ladder can shift any of it
        Ac = A.tocoo()
        diag = np.arange(N)
        rows = np.concatenate([i, j[off], diag, n + Ac.row, Ac.col])
        cols = np.concatenate([j, i[off], diag, Ac.col, n + Ac.row])
        const = np.concatenate([np.zeros(n), np.full(m, -_SPARSE_DELTA),
                                Ac.data, Ac.data])
        uniq, inv = np.unique(cols * N + rows, return_inverse=True)
        n_low, n_up = lower.size, int(np.count_nonzero(off))
        self.pair = inv[:n_low][pair]
        self.lower = inv[:n_low][off]
        self.upper = inv[n_low:n_low + n_up]
        self.base = np.bincount(inv[n_low + n_up:], weights=const,
                                minlength=uniq.size)
        self.indices = uniq % N
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(uniq // N, minlength=N))])
        self.diag = np.searchsorted(uniq, diag * (N + 1))
        self.delta = _SPARSE_DELTA if m else 0.0

    def factor(self, scaling) -> "_LuKkt":
        """LU of the augmented matrix at `scaling`.

        If SuperLU finds it exactly singular, up to five diagonal shifts,
        each 100 times the last, are added to H and subtracted from the
        equality block; raises LinAlgError when all fail.
        """
        # imported here: SuperLU's module adds 2 MB of resident memory to
        # every process, also to those that never take the sparse path
        from scipy.sparse.linalg import splu

        data = np.bincount(self.pair, weights=self.nmap.terms(scaling),
                           minlength=self.base.size)
        data[self.upper] = data[self.lower]
        data += self.base
        n = self.n
        eps = _REG_START_F64 * max(1.0, float(np.max(data[self.diag[:n]])))
        reg = self.delta
        for _ in range(6):
            K = sp.csc_matrix((data, self.indices, self.indptr),
                              shape=(self.dim, self.dim))
            try:
                lu = splu(K, permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
                return _LuKkt(lu, n, reg)
            except RuntimeError:
                data[self.diag[:n]] += eps
                data[self.diag[n:]] -= eps
                reg += eps
                eps *= 100.0
        raise np.linalg.LinAlgError("KKT system singular")


class _LuKkt:
    """One sparse LU of the augmented system; solves like _KktSolver."""

    def __init__(self, lu, n, reg_used):
        self.lu = lu
        self.n = n
        self.reg_used = reg_used

    def solve(self, r1, r2):
        """Solve [H A'; A -delta I] [du; dy] = [r1; r2]."""
        x = self.lu.solve(np.concatenate([r1, r2]))
        return x[:self.n], x[self.n:]


# fraction of the distance to the cone boundary that a step may take
_STEP_FRACTION = 0.99
# iterative refinement passes per Newton solve, against the unregularized
# system
_REFINEMENT = 2


def solve_conic(prog: ConicProgram, settings: SolverSettings | None = None) -> ConicSolution:
    """Solve a ConicProgram with the built-in interior-point method."""
    settings = settings or SolverSettings()
    l_nn = prog.n_nonneg
    dt, sparse_kkt = _kkt_path(prog)
    groups, G, h = _build_groups(prog, dt)
    sdim = h.size
    if sdim == 0:
        raise ValueError("program has no cone constraints")
    A = prog.eq_matrix().astype(dt, copy=False)
    b = np.asarray(prog.eq_rhs, dtype=dt)
    c = np.asarray(prog.c, dtype=dt)

    # cone order (for the barrier parameter)
    nu = l_nn + sum(g.nb * g.m for g in groups)
    e_vec = _cone_identity(groups, l_nn, sdim, dt)

    def shift_into_cone(vec):
        """vec + (1 + alpha) e if vec is not safely interior."""
        margin = _cone_margin(groups, l_nn, vec)
        if margin > 1e-8 * max(1.0, float(np.linalg.norm(vec))):
            return vec
        return vec + (1.0 - min(margin, 0.0)) * e_vec

    nmap = _NormalMap(G, groups, l_nn)
    if sparse_kkt:
        factor_kkt = _SparseKkt(nmap, A).factor
    else:
        def factor_kkt(scaling):
            return _KktSolver(nmap.normal_matrix(scaling), A)
    GT, AT = G.T, A.T

    # identity-scaled initial point: R = Rinv = Winv = I
    eyes = [np.tile(np.eye(g.m, dtype=dt), (g.nb, 1, 1)) for g in groups]
    id_scaling = _Scaling(np.ones(l_nn, dtype=dt), np.ones(l_nn, dtype=dt),
                          [{"R": eye, "Rinv": eye, "Winv": eye,
                            "lam": np.ones((g.nb, g.m), dtype=dt)}
                           for g, eye in zip(groups, eyes)])
    kkt = factor_kkt(id_scaling)
    u, yy = kkt.solve(GT @ h, b)
    s = shift_into_cone(h - G @ u)
    nu_v, w_v = kkt.solve(c, np.zeros_like(b))
    y = -w_v
    z = shift_into_cone(-(G @ nu_v))

    norm_b = 1.0 + np.linalg.norm(b)
    norm_h = 1.0 + np.linalg.norm(h)
    norm_c = 1.0 + np.linalg.norm(c)

    log: list = []
    trace = _log.isEnabledFor(logging.DEBUG)
    status = "iteration_limit"
    it = 0
    step = 0.0
    stall = 0
    best = None  # (score, u, y, z, s, pcost, dcost, gap, pres, dres, relgap)

    for it in range(settings.max_iterations + 1):
        Au, Gu_s, ATy, GTz = A @ u, G @ u + s, AT @ y, GT @ z
        res_y = Au - b
        res_z = Gu_s - h
        res_x = c + ATy + GTz
        gap = float(s @ z)
        pcost = float(c @ u)
        dcost = float(-h @ z - b @ y)
        pres = max(
            float(np.linalg.norm(res_y)) / norm_b,
            float(np.linalg.norm(res_z)) / norm_h,
        )
        dres = float(np.linalg.norm(res_x)) / norm_c
        relgap = gap / max(1.0, abs(pcost))
        score = max(pres, dres, relgap)
        log.append({"iter": it, "pcost": pcost + prog.c0, "dcost": dcost + prog.c0,
                    "gap": gap, "pres": pres, "dres": dres, "step": step})
        if trace:
            _log.debug("it %3d p % .6e d % .6e gap %.2e pres %.2e dres %.2e "
                       "step %.3f", it, pcost + prog.c0, dcost + prog.c0, gap,
                       pres, dres, step)
        if best is None or score < best[0]:
            best = (score, u.copy(), y.copy(), z.copy(), s.copy(),
                    pcost, dcost, gap, pres, dres, relgap)

        ftol, gtol = settings.feasibility_tol, settings.gap_tol
        if pres <= ftol and dres <= ftol and relgap <= gtol:
            status = "optimal"
            break

        # infeasibility certificates from the current iterate
        by_hz = float(h @ z + b @ y)
        if by_hz < -1e-10:
            cert = float(np.linalg.norm(ATy + GTz)) / (-by_hz)
            if cert * norm_h <= ftol * 10:
                status = "infeasible"
                break
        if pcost < -1e-10:
            ray = max(float(np.linalg.norm(Au)), float(np.linalg.norm(Gu_s)))
            if ray / (-pcost) * norm_c <= ftol * 10:
                status = "unbounded"
                break
        if it == settings.max_iterations:
            break
        if it > 5 and score > max(1e5 * best[0], 1e-2):
            break  # diverging; the best iterate is returned below

        kkt = None  # frees the last factor before the next is built
        try:
            scaling = _nt_scaling(groups, s, z, l_nn, dt)
            kkt = factor_kkt(scaling)
        except np.linalg.LinAlgError:
            break

        lam = _lambda_vec(scaling, groups, l_nn, sdim, dt)
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
            r1 = -rx + GT @ _apply_winv2(scaling, groups, l_nn, bz)
            du, dy = kkt.solve(r1, -ry)
            for _ in range(_REFINEMENT):
                Hdu = GT @ _apply_winv2(scaling, groups, l_nn, G @ du)
                c1, c2 = kkt.solve(r1 - Hdu - AT @ dy, -ry - A @ du)
                du = du + c1
                dy = dy + c2
            Gdu = G @ du
            dz = _apply_winv2(scaling, groups, l_nn, Gdu - bz)
            ds = -rz_vec - Gdu
            return du, dy, dz, ds

        # predictor
        ds_aff_target = -_jordan_prod(groups, l_nn, lam, lam)
        try:
            du_a, dy_a, dz_a, ds_a = kkt_step(res_x, res_y, res_z, ds_aff_target)
        except np.linalg.LinAlgError:
            break
        rho = _apply_w(scaling, groups, l_nn, ds_a, "wit")
        sig = _apply_w(scaling, groups, l_nn, dz_a, "w")
        amax = min(_max_cone_step(groups, scaling, l_nn, rho),
                   _max_cone_step(groups, scaling, l_nn, sig))
        alpha_aff = min(1.0, amax)
        gap_aff = float((s + alpha_aff * ds_a) @ (z + alpha_aff * dz_a))
        sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3

        # combined corrector step
        corr = _jordan_prod(groups, l_nn, rho, sig)
        ds_comb = -_jordan_prod(groups, l_nn, lam, lam) - corr + sigma * mu * e_vec
        scale_r = 1.0 - sigma
        try:
            du, dy, dz, ds = kkt_step(scale_r * res_x, scale_r * res_y,
                                      scale_r * res_z, ds_comb)
        except np.linalg.LinAlgError:
            break
        rho = _apply_w(scaling, groups, l_nn, ds, "wit")
        sig = _apply_w(scaling, groups, l_nn, dz, "w")
        amax = min(_max_cone_step(groups, scaling, l_nn, rho),
                   _max_cone_step(groups, scaling, l_nn, sig))
        step = min(1.0, _STEP_FRACTION * amax)
        if step <= 1e-10:
            break
        stall = stall + 1 if step < 1e-5 else 0
        if stall >= 3:
            break
        u = u + step * du
        y = y + step * dy
        z = z + step * dz
        s = s + step * ds

    if status == "iteration_limit" and best is not None:
        # fall back to the best iterate seen
        _, u, y, z, s, pcost, dcost, gap, pres, dres, relgap = best
        ftol, gtol = settings.feasibility_tol, settings.gap_tol
        if pres <= ftol and dres <= ftol and relgap <= gtol:
            status = "optimal"
        elif pres <= 100 * ftol and dres <= 100 * ftol and relgap <= 100 * gtol:
            status = "near_optimal"

    return ConicSolution(status=status,
                         u=np.asarray(u, dtype=np.float64),
                         y=np.asarray(y, dtype=np.float64),
                         z=np.asarray(z, dtype=np.float64),
                         s=np.asarray(s, dtype=np.float64),
                         pcost=pcost + prog.c0, dcost=dcost + prog.c0,
                         gap=gap, pres=pres, dres=dres, iterations=it, log=log)


def _apply_winv2(scaling, groups, l_nn, vec):
    """Apply (W'W)^{-1}: nonneg scale z/s; PSD map M -> Winv M Winv."""
    out = np.empty_like(vec)
    if l_nn:
        out[:l_nn] = vec[:l_nn] / (scaling.wn ** 2)
    return _congruence(groups, [(gd["Winv"], gd["Winv"])
                                for gd in scaling.groups], vec, out)


def _cone_identity(groups, l_nn, dim, dt=np.float64):
    e = np.zeros(dim, dtype=dt)
    if l_nn:
        e[:l_nn] = 1.0
    for g in groups:
        e[g.dslot] = 1.0
    return e


def _cone_margin(groups, l_nn, vec) -> float:
    """Smallest eigenvalue of vec in the cone (inf for an empty cone)."""
    margin = np.inf
    if l_nn:
        margin = min(margin, float(np.min(vec[:l_nn])))
    for g in groups:
        M = np.asarray(g.mats(vec), dtype=np.float64)
        margin = min(margin, float(np.min(np.linalg.eigvalsh(M))))
    return margin


def kkt_residuals(prog: ConicProgram, sol: ConicSolution) -> dict:
    """Recompute optimality residuals of a solution from scratch.

    Returns primal equality/cone violations, dual residual, dual cone
    violation and the complementarity gap. Cone violations are the most
    negative slack (0 when inside the cone).
    """
    groups, G, h = _build_groups(prog, np.float64)
    l_nn = prog.n_nonneg
    u, y, z, s = sol.u, sol.y, sol.z, sol.s
    A = prog.eq_matrix()
    Gu = G @ u
    return {
        "primal_eq": float(np.max(np.abs(A @ u - prog.eq_rhs), initial=0.0)),
        "primal_cone": max(0.0, -_cone_margin(groups, l_nn, h - Gu)),
        "slack_consistency": float(np.linalg.norm(Gu + s - h, np.inf)),
        "dual": float(np.linalg.norm(prog.c + A.T @ y + G.T @ z, np.inf)),
        "dual_cone": max(0.0, -_cone_margin(groups, l_nn, z)),
        "complementarity": abs(float(s @ z)),
    }
