"""Shared instance generators for the test suite."""

import importlib
import importlib.util
import json
import logging
import pathlib
import sys

import numpy as np

from qcqpen import QcqpProblem, QuadraticFunction, solve_conic

POLY_EXAMPLE = ("min a st a^5 - b^4 - c^4 + 2*a^3 + 2*a^2*b"
                " - 2*a*b^2 + 6*a*b*c - 2 = 0")

# two small QPLIB instances: a box-bounded QP, and a maximization with a
# two-sided range, an equality and a free row
BOX_QP = """\
! tiny box QP
tiny1
QBC
minimize
2
3
1 1 2.0
2 2 4.0
2 1 1.0
0.0
1
1 -1.0
0.5
1.0e30
-1.0
0
1.0
0
"""

TWO_SIDED = """\
twosided
QQC
maximize
2
2
1
1 1 2.0
0.0
0
0.0
2
1 1 1 2.0
2 2 2 2.0
2
2 1 1.0
2 2 1.0
1.0e30
-1.0
1
2 2.0
1.0
1
2 2.0
-1.0e31
0
1.0e31
0
"""

# extra polynomial problems for the reformulation suites
POLY_EXTRA = [
    "min x^4 + y^4 - 3*x*y st x^2 + y^2 - 4 <= 0",
    "min a^3*b - 2*a*b + b^2 st a*b*c - 1 = 0 ; a^2 + b^2 + c^2 - 9 <= 0",
    "min 2*u^5 - u^2*v^2 + v st u^2 - v <= 0 ; u + v - 3 = 0",
    "min x*y*z*w st x^2 + y^2 - 1 = 0 ; z^2 + w^2 - 1 <= 0",
]


def solve_logged(prog, settings=None):
    """(sol, rows) of solve_conic(prog, settings): rows holds one dict per
    iteration, keyed iter, pcost, dcost, gap, pres, dres and step, from the
    full-precision arguments of the qcqpen.solver DEBUG records."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("qcqpen.solver")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        sol = solve_conic(prog, settings)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    keys = ("iter", "pcost", "dcost", "gap", "pres", "dres", "step")
    return sol, [dict(zip(keys, r.args)) for r in records]


def nan_direction_from(monkeypatch, k):
    """Make every solve of the sparse KKT path from its k-th call on return
    a NaN direction, as a Newton system that broke down numerically
    does."""
    import qcqpen.solver as solver
    solve = solver._Eliminated.solve
    calls = []

    def broken(self, bu, by, bz):
        calls.append(None)
        du, dy, dz = solve(self, bu, by, bz)
        if len(calls) >= k:
            return du * np.nan, dy * np.nan, dz * np.nan
        return du, dy, dz
    monkeypatch.setattr(solver._Eliminated, "solve", broken)


def rand_quad(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    A = 0.5 * (M + M.T) * scale / np.sqrt(n)
    b = rng.normal(size=n) * scale
    return A, b


def constraint_through(A, b, x, margin=0.0):
    """Quadratic with q(x) = -margin (binding at x when margin is 0)."""
    val = float(x @ A @ x + 2.0 * b @ x)
    return QuadraticFunction(A, b, -val - margin)


def random_feasible_qcqp(seed):
    """Random QCQP with a known feasible point satisfying LICQ.

    Returns (problem, xstar). One or two inequalities are binding at
    xstar, the rest hold with a margin, equalities hold exactly; the
    binding gradients are rejected until numerically independent.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    while True:
        xstar = rng.normal(size=n)
        n_eq = int(rng.integers(0, 2)) if n >= 3 else 0
        n_bind = int(rng.integers(1, 3)) if n >= 4 else 1
        ineqs, binding = [], []
        for _ in range(n_bind):
            A, b = rand_quad(rng, n)
            q = constraint_through(A, b, xstar)
            ineqs.append(q)
            binding.append(q)
        for _ in range(int(rng.integers(1, 3))):
            A, b = rand_quad(rng, n)
            ineqs.append(constraint_through(A, b, xstar,
                                            margin=0.5 + rng.random()))
        eqs = []
        for _ in range(n_eq):
            A, b = rand_quad(rng, n)
            q = constraint_through(A, b, xstar)
            eqs.append(q)
            binding.append(q)
        J = np.array([q.gradient(xstar) for q in binding])
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] > 1e-3 * max(sv[0], 1.0):
            break
    A0, b0 = rand_quad(rng, n)
    p = QcqpProblem(n=n, objective=QuadraticFunction(A0, b0, 0.0),
                    inequalities=ineqs, equalities=eqs,
                    name=f"feas{seed}")
    return p, xstar


def random_box_qcqp(seed, n=3, affine_rows=2):
    """Box-bounded QCQP with interior feasible anchor z.

    A ball constraint around z keeps the feasible set nonempty; a couple
    of affine rows give the RLT machinery something to multiply.
    """
    rng = np.random.default_rng(seed)
    half = 1.5 + rng.random(n)
    z = rng.uniform(-0.4, 0.4, size=n) * half
    rho = 0.6 + 0.5 * rng.random()
    ineqs = [QuadraticFunction(np.eye(n), -z, float(z @ z) - rho ** 2)]
    for _ in range(int(rng.integers(1, 3))):
        A, b = rand_quad(rng, n)
        ineqs.append(constraint_through(A, b, z, margin=0.4 + rng.random()))
    for _ in range(affine_rows):
        g = rng.normal(size=n)
        c = -2.0 * float(g @ z) - 0.5 - rng.random()
        ineqs.append(QuadraticFunction(np.zeros((n, n)), g, c))
    A0, b0 = rand_quad(rng, n)
    p = QcqpProblem(n=n, objective=QuadraticFunction(A0, b0, 0.0),
                    inequalities=ineqs, lb=-half, ub=half,
                    name=f"box{seed}")
    return p, z


def sample_feasible(p, anchor, rng, count, spread=0.15, max_tries=20000):
    """Rejection-sample `count` feasible points near the anchor."""
    out = []
    for _ in range(max_tries):
        x = anchor + spread * rng.normal(size=p.n)
        if p.violation(x) <= 1e-9:
            out.append(x)
            if len(out) == count:
                break
    return out


def random_2var_qcqp(seed):
    """Two-variable instance with compact feasible set inside [-2, 2]^2."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.8, 0.8, size=2)
    rho = 0.9 + 0.5 * rng.random()
    ineqs = [QuadraticFunction(np.eye(2), -z, float(z @ z) - rho ** 2)]
    A, b = rand_quad(rng, 2)
    ineqs.append(constraint_through(A, b, z, margin=0.3 + 0.5 * rng.random()))
    A0 = rng.normal(size=(2, 2))
    A0 = 0.5 * (A0 + A0.T)
    b0 = rng.normal(size=2)
    p = QcqpProblem(n=2, objective=QuadraticFunction(A0, b0, 0.0),
                    inequalities=ineqs,
                    lb=np.full(2, -2.0), ub=np.full(2, 2.0),
                    name=f"g{seed}")
    return p


def quad_values(q, P):
    """q at each row of P, vectorized."""
    return np.einsum("ni,ij,nj->n", P, q.A, P) + 2.0 * P @ q.b + q.c


def grid_values(q, x, y):
    """The two-variable q at every grid point (x_i, y_j), (len(x), len(y)),
    for a column x (k, 1) and a row y (l,): q's terms in x alone and in y
    alone broadcast across the cross term, three operations per point."""
    A, (b0, b1) = q.A, q.b
    return ((A[0, 0] * x + 2.0 * b0) * x + q.c
            + ((A[1, 1] * y + 2.0 * b1) * y + (2.0 * A[0, 1] * x) * y))


def grid_minimum_2d(p, step=1e-3, chunk=200):
    """Brute-force objective minimum over the feasible grid points, chunk
    grid columns of x at a time."""
    xs = np.arange(p.lb[0], p.ub[0] + 0.5 * step, step)
    ys = np.arange(p.lb[1], p.ub[1] + 0.5 * step, step)
    best, arg = np.inf, None
    for k in range(0, xs.size, chunk):
        x = xs[k:k + chunk, None]
        ok = np.ones((x.size, ys.size), dtype=bool)
        for q in p.inequalities:
            ok &= grid_values(q, x, ys) <= 1e-9
        if not ok.any():
            continue
        vals = np.where(ok, grid_values(p.objective, x, ys), np.inf)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best:
            best, arg = float(vals[i, j]), np.array([xs[k + i], ys[j]])
    return best, arg


def lifted_vector(emap, x, X=None):
    """Solver variable vector for the point (x, X); X defaults to xx'."""
    x = np.asarray(x, dtype=float)
    if X is None:
        X = np.outer(x, x)
    u = np.zeros(emap.n + len(emap.X_index))
    u[:emap.n] = x
    for (i, j), k in emap.X_index.items():
        u[k] = X[i, j]
    return u


PERFBENCH = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")


def perfbench_module(name):
    """Import perfbench/<name>.py without writing bytecode next to it. Its
    modules import one another by bare name, so the directory joins
    sys.path."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    prior = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = prior


def tools_module(name):
    """Import tools/<name>.py, a script and not a package, without writing
    bytecode next to it or next to the perfbench modules it imports."""
    path = pathlib.Path(PERFBENCH).parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    prior = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = prior
    return module


def dense_symmetric(n, rows, cols, vals):
    """The dense path the builders took before they listed entries: sum
    vals into an n x n zero matrix in listing order, take 0.5 (M + M'),
    then scan its upper triangle row-major. Returns (A, terms)."""
    M = np.zeros((n, n))
    np.add.at(M, (np.asarray(rows, dtype=np.intp),
                  np.asarray(cols, dtype=np.intp)), vals)
    A = 0.5 * (M + M.T)
    nz = np.argwhere(np.triu(A) != 0.0)
    return A, (nz[:, 0], nz[:, 1], A[nz[:, 0], nz[:, 1]])


def quadratic_of(n, terms):
    """The quadratic over n variables that stores `terms` as given, with
    b = 0: enough for its dense view A."""
    q = QuadraticFunction.__new__(QuadraticFunction)
    q.n, q.terms, q.linear, q.c = n, terms, (np.zeros(0, np.intp),
                                             np.zeros(0)), 0.0
    return q


def rlt_dense_rows(p):
    """Dense reference for the rows that `rlt_cuts` multiplies: (H, h) with
    shapes (m, n), (m,), stacking Hx + h <= 0 from the affine inequalities
    (2b_k', c_k), then the affine equalities, then the negated affine
    equalities."""
    ineq = [(2.0 * q.b, q.c) for q in p.inequalities if q.is_affine()]
    eq = [(2.0 * q.b, q.c) for q in p.equalities if q.is_affine()]
    rows = ineq + eq + [(-r, -c) for r, c in eq]
    if not rows:
        return np.zeros((0, p.n)), np.zeros(0)
    H, h = zip(*rows)
    return np.vstack(H), np.asarray(h)


def problem_to_v1_json(p):
    """p as a version-1 native document, every quadratic a dense A and b:
    the layout that version-1 files on disk have."""
    def quad(q):
        return {"A": q.A.tolist(), "b": q.b.tolist(), "c": q.c}
    bound = (lambda v, s: None if v is None else
             [None if x == s * np.inf else float(x) for x in v])
    return json.dumps({
        "format": "qcqpen-problem", "version": 1, "name": p.name, "n": p.n,
        "objective": quad(p.objective),
        "inequalities": [quad(q) for q in p.inequalities],
        "equalities": [quad(q) for q in p.equalities],
        "lb": bound(p.lb, -1.0), "ub": bound(p.ub, +1.0)}) + "\n"


def record_symmetric(monkeypatch):
    """Record every quadratics._symmetric call as ((n, rows, cols, vals),
    terms); returns the list the records go to."""
    import qcqpen.quadratics as quadratics
    calls = []
    symmetric = quadratics._symmetric

    def recorded(n, rows, cols, vals):
        out = symmetric(n, rows, cols, vals)
        calls.append(((n, np.array(rows), np.array(cols), np.array(vals)),
                      out))
        return out

    monkeypatch.setattr(quadratics, "_symmetric", recorded)
    return calls


def assert_dense_identical(calls):
    """Each recorded quadratic has dense_symmetric's terms, byte for byte,
    and, in its dense view, its A, value for value."""
    assert calls
    for entries, terms in calls:
        A_ref, terms_ref = dense_symmetric(*entries)
        assert np.array_equal(quadratic_of(entries[0], terms).A, A_ref)
        for got, want in zip(terms, terms_ref):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _v2_document(objective):
    return json.dumps({
        "format": "qcqpen-problem", "version": 2, "name": "bad", "n": 3,
        "objective": objective, "inequalities": [], "equalities": [],
        "lb": None, "ub": None})


# version-2 documents that break the entry-list contract or give a field
# the wrong JSON type, each one way
MALFORMED_V2 = {
    "term_index_is_n": _v2_document(
        {"terms": [[0], [3], [1.0]], "linear": [[], []], "c": 0.0}),
    "term_index_negative": _v2_document(
        {"terms": [[-1], [0], [1.0]], "linear": [[], []], "c": 0.0}),
    "linear_index_is_n": _v2_document(
        {"terms": [[], [], []], "linear": [[3], [1.0]], "c": 0.0}),
    "terms_unequal": _v2_document(
        {"terms": [[0, 1], [0], [1.0, 2.0]], "linear": [[], []], "c": 0.0}),
    "linear_unequal": _v2_document(
        {"terms": [[], [], []], "linear": [[0, 1], [1.0]], "c": 0.0}),
    "term_index_fraction": _v2_document(
        {"terms": [[0.5], [1], [1.0]], "linear": [[], []], "c": 0.0}),
    "linear_index_string": _v2_document(
        {"terms": [[], [], []], "linear": [["0"], [1.0]], "c": 0.0}),
    "c_null": _v2_document(
        {"terms": [[], [], []], "linear": [[], []], "c": None}),
    "linear_number": _v2_document(
        {"terms": [[], [], []], "linear": 5, "c": 0.0}),
    "terms_null": _v2_document(
        {"terms": None, "linear": [[], []], "c": 0.0}),
}


# The cone kernels of one LAPACK (not `closed`) block group, written as the
# plain formulas over smat and svec that qcqpen.solver computed before its
# kernels were rewritten with fewer numpy calls. Each does the same
# floating-point operations in the same order, so the rewritten kernels
# must give these bits exactly.

def _swap(M):
    return np.swapaxes(M, -1, -2)


def ref_nt_scaling(g, s, z):
    """(R, Rinv, lam) of one group's NT scaling at (s, z)."""
    from qcqpen.solver import smat
    Ls = np.linalg.cholesky(smat(s[g.slot], g.m))
    Linv = np.linalg.inv(Ls)
    M = _swap(Ls) @ smat(z[g.slot], g.m) @ Ls
    d, Q = np.linalg.eigh(0.5 * (M + _swap(M)))
    R = Ls @ Q * (d[..., None, :] ** -0.25)
    Rinv = (d[..., :, None] ** 0.25) * _swap(Q) @ Linv
    return R, Rinv, np.sqrt(d)


# per `_apply_w` mode: the power of wn, and (L, R) from a group's (R, Rinv)
REF_MODES = {
    "w": (1, lambda R, Ri: (_swap(R), R)),
    "wt": (1, lambda R, Ri: (R, _swap(R))),
    "wit": (-1, lambda R, Ri: (Ri, _swap(Ri))),
    "ww": (2, lambda R, Ri: (R @ _swap(R),) * 2),
    "winv2": (-2, lambda R, Ri: (_swap(Ri) @ Ri,) * 2),
}


def ref_apply_w(scaling, groups, l_nn, vec, mode):
    """W's `mode` applied to an s-space vector (dim,) or to each row of a
    stack (k, dim): wn to a power on the nonnegative part, and on each
    block svec(0.5 (P + P')) with P = L smat(v_b) R."""
    from qcqpen.solver import smat, svec
    power, factors = REF_MODES[mode]
    out = np.empty_like(vec)
    out[..., :l_nn] = vec[..., :l_nn] * scaling.wn ** power
    for g, gd in zip(groups, scaling.groups):
        L, R = factors(gd["R"], gd["Rinv"])
        P = L @ smat(vec[..., g.slot], g.m) @ R
        out[..., g.slot] = svec(0.5 * (P + _swap(P)))
    return out


def ref_max_cone_step(groups, scaling, l_nn, *dirs):
    """The largest alpha with lambda + alpha dir in the cone for every dir:
    per direction, the smallest eigenvalue of each block's symmetrized
    D smat(dir_b) D, D = diag(lam^-1/2), and -1/emin for each negative
    one."""
    from qcqpen.solver import smat
    dirs = np.stack(dirs)
    d = dirs[:, :l_nn]
    ratio = np.divide(-scaling.lam_n, d, out=np.full(d.shape, np.inf),
                      where=d < 0)
    alpha = float(ratio.min(initial=np.inf))
    for g, gd in zip(groups, scaling.groups):
        scale = 1.0 / np.sqrt(gd["lam"])
        T = smat(dirs[:, g.slot], g.m)
        T = T * scale[..., :, None] * scale[..., None, :]
        T = 0.5 * (T + _swap(T))
        for emin in np.linalg.eigvalsh(T).min(-1).min(1).tolist():
            if emin < 0:
                alpha = min(alpha, -1.0 / emin)
    return alpha


def ref_jordan_solve(scaling, groups, l_nn, d):
    """lambda o v = d solved blockwise: svec(smat(d_b) / denom) with
    denom[a, b] = (lam_a + lam_b) / 2."""
    from qcqpen.solver import smat, svec
    v = np.empty_like(d)
    v[:l_nn] = d[:l_nn] / scaling.lam_n
    for g, gd in zip(groups, scaling.groups):
        lam = gd["lam"]
        denom = 0.5 * (lam[..., :, None] + lam[..., None, :])
        v[g.slot] = svec(smat(d[g.slot], g.m) / denom)
    return v


def ref_jordan_prod(groups, l_nn, a, b):
    """a o b: svec(0.5 (A B + B A)) on each block."""
    from qcqpen.solver import smat, svec
    out = np.empty_like(a)
    out[:l_nn] = a[:l_nn] * b[:l_nn]
    for g in groups:
        A, B = smat(a[g.slot], g.m), smat(b[g.slot], g.m)
        out[g.slot] = svec(0.5 * (A @ B + B @ A))
    return out


def ref_full_kkt_matrix(cone, scaling):
    """[[0, A', G'], [A, 0, 0], [G, 0, -W'W]]: on each block's slots (t1,
    t2), -0.5 w_t1 w_t2 (P[a1, a2] P[b1, b2] + P[a1, b2] P[b1, a2]) with
    P = R R' (the symmetric Kronecker product), negated last."""
    n, m, l_nn = cone.n_vars, cone.n_eq, cone.n_nonneg
    o = n + m
    Ad, Gd = cone.A.toarray(), cone.G.toarray()
    K = np.zeros((o + Gd.shape[0],) * 2)
    K[:n, n:o], K[:n, o:], K[n:o, :n], K[o:, :n] = Ad.T, Gd.T, Ad, Gd
    K[o + np.arange(l_nn), o + np.arange(l_nn)] = -scaling.wn ** 2
    for g, gd in zip(cone.groups, scaling.groups):
        a, b = g.ka[:, None], g.kb[:, None]
        kww = 0.5 * (g.w[:, None] * g.w[None, :])
        for blk, P in enumerate(gd["R"] @ _swap(gd["R"])):
            H = P[a, a.T] * P[b, b.T] + P[a, b.T] * P[b, a.T]
            K[np.ix_(o + g.slot[blk], o + g.slot[blk])] = -(H * kww)
    return K


def ref_full_kkt_solve(K, n, o, rhs):
    """(du, dy, dz) from LAPACK's LU of K and its solve."""
    import scipy.linalg as sla
    lu, piv, info = sla.lapack.dgetrf(K)
    assert info == 0
    x = sla.lapack.dgetrs(lu, piv, np.concatenate(rhs))[0]
    return x[:n], x[n:o], x[o:]
