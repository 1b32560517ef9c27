import logging
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qcqpen import Cone, ConicProgram, SolverSettings, solve_conic
from qcqpen.solver import (_CLOSED_FORM_BLOCKS,
                           _RESTART_RESIDUAL, PsdBlock,
                           _BlockGroup, _DualKkt,
                           _FullKkt, _NormalMap, _Scaling, _SparseKkt,
                           _apply_w, _cholesky, _cone_margin, _congruence,
                           _fixed_variables,
                           _jordan_prod, _jordan_solve,
                           _kept_rows, _kkt_path,
                           _lambda_vec, _matvec, _max_cone_step, _min_eig,
                           _norm, _nt_scaling,
                           _pair_entries, _pair_index,
                           kkt_residuals, smat, svec, svec_index)
from qcqpen import (QcqpProblem, QuadraticFunction, SysIdParams, gen_sysid,
                    build_relaxation)
from qcqpen.lifting import (RelaxationConfig, build_penalized, extract,
                            lift)
from qcqpen.polyopt import parse_poly, reformulate
from _support import (POLY_EXAMPLE, nan_direction_from, perfbench_module,
                      solve_logged)
import _support

OK = ("optimal", "near_optimal")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_svec_smat_round_trip(seed, m):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(m, m))
    M = 0.5 * (M + M.T)
    v = svec(M)
    assert v.shape == (m * (m + 1) // 2,)
    assert np.allclose(smat(v, m), M, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_svec_preserves_inner_product(seed, m):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m))
    A = 0.5 * (A + A.T)
    B = rng.normal(size=(m, m))
    B = 0.5 * (B + B.T)
    assert svec(A) @ svec(B) == pytest.approx(np.tensordot(A, B), rel=1e-12)


def test_svec_index_weights():
    rows, cols, w = svec_index(3)
    assert list(zip(rows.tolist(), cols.tolist())) == [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert w == pytest.approx([1.0, np.sqrt(2), 1.0, np.sqrt(2), np.sqrt(2), 1.0])


@pytest.mark.parametrize("m", range(1, 8))
def test_slot_maps_match_smat_and_svec(m):
    # a group of three blocks at scattered offsets: the gather and the two
    # svec maps give smat's and svec's bits exactly
    rng = np.random.default_rng(m)
    ns = m * (m + 1) // 2
    offsets = [4, 4 + ns + 3, 4 + 3 * ns + 7]
    g = _BlockGroup(m, [PsdBlock.from_entries(m, {})] * 3, offsets)
    vec = rng.normal(size=offsets[-1] + ns + 2)
    assert np.array_equal(g.mats(vec), smat(vec[g.slot], m))
    assert np.array_equal(g.flat, g.slot.ravel())
    M = rng.normal(size=(3, m, m))
    assert np.array_equal(g.svec(M), svec(M))
    assert np.array_equal(g.sym_svec(M),
                          svec(0.5 * (M + np.swapaxes(M, -1, -2))))
    # both svec maps keep the batch shape
    assert g.svec(M).shape == g.sym_svec(M).shape == (3, ns)
    # two stacked directions, as the step length gathers them: each row's
    # matrices are smat's, bit for bit
    dirs = rng.normal(size=(2, vec.size))
    ref = np.stack([smat(d[g.slot], m) for d in dirs])
    got = g.mats(dirs)
    assert got.shape == ref.shape == (2, 3, m, m)
    assert got.tobytes() == ref.tobytes()
    # the closed-form kernels' layout: mats' lower triangles, one svec
    # coordinate to a row, bit for bit
    rows, cols, _ = svec_index(m)
    assert g.entries(vec).tobytes() == \
        np.ascontiguousarray(g.mats(vec)[:, rows, cols].T).tobytes()
    assert np.array_equal(g.entries(dirs),
                          np.moveaxis(got[..., rows, cols], -1, 0))


def _cone(n, nn=(), eq=(), blocks=()):
    """A Cone over n variables from rows (cols, vals, rhs): nonnegative
    rows . u <= rhs and equalities . u = rhs."""
    def dense(rows):
        M = np.zeros((len(rows), n))
        for k, (cols, vals, _) in enumerate(rows):
            M[k, cols] = vals
        return M, [rhs for _, _, rhs in rows]
    return Cone(n, *dense(eq), *dense(nn), blocks)


def _lp_fixture(copies=1):
    # min x1 + 2 x2  s.t.  x1 + x2 = 1, x >= 0; optimum 1 at (1, 0); the
    # equality row repeated `copies` times
    return ConicProgram(_cone(2, nn=[([0], [-1.0], 0.0), ([1], [-1.0], 0.0)],
                              eq=[([0, 1], [1.0, 1.0], 1.0)] * copies),
                        [1.0, 2.0])


def test_lp_fixture():
    sol = solve_conic(_lp_fixture())
    assert sol.status in OK
    assert sol.pcost == pytest.approx(1.0, abs=1e-6)
    assert sol.u == pytest.approx([1.0, 0.0], abs=1e-6)
    assert sol.dcost == pytest.approx(1.0, abs=1e-6)
    res = kkt_residuals(_lp_fixture(), sol)
    assert res["primal_eq"] <= 1e-6
    assert res["dual"] <= 1e-6
    assert res["primal_cone"] <= 1e-9
    assert res["dual_cone"] <= 1e-9
    assert res["complementarity"] <= 1e-5


def _diag_sdp_fixture():
    # min sum d_i X_ii  s.t.  X_ii >= 1, X psd; optimum sum(d) at X = I
    d = np.array([1.0, 2.0, 0.5])
    rows, cols, _ = svec_index(3)
    nv = rows.shape[0]
    c = np.zeros(nv)
    entries = {}
    diag_vars = []
    for t, (a, b) in enumerate(zip(rows, cols)):
        entries[(int(a), int(b))] = (t, 1.0, 0.0)
        if a == b:
            c[t] = d[a]
            diag_vars.append(t)
    prog = ConicProgram(_cone(nv, nn=[([t], [-1.0], -1.0) for t in diag_vars],
                              blocks=[PsdBlock.from_entries(3, entries)]), c)
    return prog, d, diag_vars


def test_diagonal_sdp_fixture():
    prog, d, diag_vars = _diag_sdp_fixture()
    sol = solve_conic(prog)
    assert sol.status in OK
    assert sol.pcost == pytest.approx(d.sum(), abs=1e-6)
    for t in diag_vars:
        assert sol.u[t] == pytest.approx(1.0, abs=1e-5)


def _lambda_min_fixture():
    rng = np.random.default_rng(7)
    C = rng.normal(size=(4, 4))
    C = 0.5 * (C + C.T)
    entries = {}
    for a in range(4):
        for b in range(a + 1):
            if a == b:
                entries[(a, b)] = (0, -1.0, C[a, b])
            else:
                entries[(a, b)] = (-1, 0.0, C[a, b])
    prog = ConicProgram(Cone(1, blocks=[PsdBlock.from_entries(4, entries)]),
                        [-1.0])
    return prog, C


def test_lambda_min_sdp_fixture():
    # max t s.t. C - t I psd recovers the smallest eigenvalue
    prog, C = _lambda_min_fixture()
    sol = solve_conic(prog)
    assert sol.status in OK
    lam = np.linalg.eigvalsh(C)[0]
    assert -sol.pcost == pytest.approx(lam, abs=1e-6)


def test_weak_duality_along_the_path():
    for prog in (_lp_fixture(), _diag_sdp_fixture()[0], _lambda_min_fixture()[0]):
        sol, rows = solve_logged(prog)
        assert len(rows) == sol.iterations + 1
        for row in rows:
            assert row["gap"] >= -1e-12
        assert sol.pcost >= sol.dcost - 1e-6


def test_deterministic_replay():
    for build in (_lp_fixture, lambda: _diag_sdp_fixture()[0],
                  lambda: _lambda_min_fixture()[0]):
        a = solve_conic(build())
        b = solve_conic(build())
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert a.pcost == b.pcost
        assert np.array_equal(a.u, b.u)


def test_infeasible_lp_detected():
    # x >= 1 and x <= 0 simultaneously
    prog = ConicProgram(_cone(1, nn=[([0], [-1.0], -1.0), ([0], [1.0], 0.0)]),
                        [1.0])
    sol = solve_conic(prog)
    assert sol.status == sol.stop_reason == "infeasible"
    assert not sol.fallback


def test_unbounded_lp_detected():
    prog = ConicProgram(_cone(1, nn=[([0], [-1.0], 0.0)]), [-1.0])
    sol = solve_conic(prog)
    assert sol.status == sol.stop_reason == "unbounded"
    assert not sol.fallback


def test_stop_reason_converged_and_iteration_limit():
    sol = solve_conic(_lp_fixture())
    assert (sol.status, sol.stop_reason, sol.fallback) == (
        "optimal", "converged", False)
    sol = solve_conic(_lp_fixture(), SolverSettings(max_iterations=2))
    assert (sol.iterations, sol.stop_reason) == (2, "iteration_limit")


def _failing_from(func, k):
    """func, raising LinAlgError from its k-th call on."""
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) >= k:
            raise np.linalg.LinAlgError("injected")
        return func(*args)
    return failing


@pytest.mark.parametrize("owner, name, k, reason", [
    # the initial point takes the first scaling, factorization and two
    # solves; iteration 0 the next ones, and the predictor's solve is first
    (None, "_nt_scaling", 4, "factorization_failed"),
    ("_FullKkt", "factor", 3, "factorization_failed"),
    ("_LuKkt", "solve", 3, "solve_failed"),
])
def test_stop_reason_names_the_failed_step(monkeypatch, owner, name, k,
                                           reason):
    import qcqpen.solver as solver
    target = getattr(solver, owner) if owner else solver
    monkeypatch.setattr(target, name, _failing_from(getattr(target, name), k))
    sol, rows = solve_logged(_lp_fixture())
    assert sol.stop_reason == reason
    assert sol.status == "iteration_limit"
    # the last iterate is the best one so far: nothing falls back
    assert not sol.fallback
    assert sol.iterations == len(rows) - 1


@pytest.mark.parametrize("amax, reason, iterations", [
    (1e-12, "step_too_small", 0), (1e-6, "stalled", 2)])
def test_stop_reason_short_steps(monkeypatch, amax, reason, iterations):
    import qcqpen.solver as solver
    monkeypatch.setattr(solver, "_max_cone_step", lambda *args: amax)
    sol = solve_conic(_lp_fixture())
    assert (sol.stop_reason, sol.iterations) == (reason, iterations)
    assert sol.status == "iteration_limit"


def test_unbounded_relaxation_stops_diverging():
    # criterion 1's relaxation has no finite value and no certificate of
    # unboundedness: the loop stops on the divergence test long before the
    # iteration limit and returns an earlier, better iterate
    prob, _ = reformulate(parse_poly(POLY_EXAMPLE))
    prog, _ = build_relaxation(prob, RelaxationConfig())
    sol, rows = solve_logged(prog)
    assert sol.status == "iteration_limit"
    assert sol.stop_reason == "diverging"
    assert sol.iterations < SolverSettings().max_iterations
    assert sol.fallback
    assert sol.pcost != rows[-1]["pcost"]


def test_iteration_record_ends_at_the_solution():
    # one DEBUG record per iteration, the last one at the returned
    # iterate: the LP converges without falling back
    sol, rows = solve_logged(_lp_fixture())
    assert (sol.stop_reason, sol.fallback) == ("converged", False)
    assert [row["iter"] for row in rows] == list(range(sol.iterations + 1))
    for key in ("pcost", "dcost", "gap", "pres", "dres"):
        assert rows[-1][key] == getattr(sol, key)


def test_verbose_prints_iterations(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="qcqpen.solver"):
        sol = solve_conic(_lp_fixture())
    lines = [r.getMessage() for r in caplog.records
             if r.name == "qcqpen.solver" and r.levelno == logging.DEBUG]
    assert len(lines) == sol.iterations + 1
    assert lines[0].startswith("it   0 p ")
    assert capsys.readouterr().out == ""


def test_tight_gap_on_penalized_relaxation():
    # the penalized relaxation drives the duality gap far below 1e-8;
    # the endgame has to survive the associated ill-conditioning
    pp = parse_poly("min a st a^5 - b^4 - c^4 + 2*a^3 + 2*a^2*b"
                    " - 2*a*b^2 + 6*a*b*c - 2 = 0")
    prob, _ = reformulate(pp)
    prog, _ = build_penalized(lift(prob, RelaxationConfig(), penalized=True),
                              np.zeros(prob.n), 0.025)
    sol = solve_conic(prog, SolverSettings(gap_tol=1.25e-10))
    assert sol.status == "optimal"
    assert sol.gap / max(1.0, abs(sol.pcost)) <= 1.3e-10


@pytest.fixture(scope="module")
def sysid_program():
    # the benchmark's sysid instance: r = 2 blocks, 672 lifted variables
    inst = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01, seed=0))
    p = inst.problem
    prog, _ = build_penalized(lift(p, RelaxationConfig(r=2), penalized=True),
                              np.zeros(p.n), 40.0)
    return prog


def _random_interior_scaling(cone, seed):
    rng = np.random.default_rng(seed)
    groups, sdim, l_nn = cone.groups, cone.h.size, cone.n_nonneg
    s = np.empty(sdim)
    z = np.empty(sdim)
    s[:l_nn] = np.exp(rng.normal(scale=2.0, size=l_nn))
    z[:l_nn] = np.exp(rng.normal(scale=2.0, size=l_nn))
    for g in groups:
        for vec in (s, z):
            B = rng.normal(size=(g.nb, g.m, g.m))
            M = B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(g.m)
            vec[g.slot] = svec(M)
    return _nt_scaling(groups, s, z, l_nn)


def test_build_groups_matches_entrywise():
    # nonnegative rows, an equality and blocks of sizes 3, 2, 3 in that
    # order, with constant and variable entries
    nn = [([0, 3], [1.5, -2.0], 0.5), ([4], [-1.0], 0.0)]
    cone = _cone(5, nn=nn, eq=[([1, 2], [1.0, 1.0], 1.0)], blocks=[
        PsdBlock.from_entries(3, {
            (0, 0): (0, 1.0, 1.0), (1, 0): (1, 0.5, 0.0),
            (2, 2): (-1, 0.0, 2.0), (1, 2): (4, -3.0, 0.25)}),
        PsdBlock.from_entries(2, {
            (0, 0): (2, 2.0, 0.0), (0, 1): (3, 1.0, -1.0),
            (1, 1): (0, 1.0, 0.0)}),
        PsdBlock.from_entries(3, {
            (2, 0): (3, -1.0, 0.5), (1, 1): (-1, 0.0, 4.0),
            (2, 2): (4, 2.0, 1.0)})])
    sdim = cone.n_nonneg + 6 + 3 + 6
    # s = h - G u entry by entry: nonnegative rows first, then each block's
    # svec slots, where slot t of a block holds w_t (const_t + coef_t u[var])
    G = np.zeros((sdim, cone.n_vars))
    h = np.zeros(sdim)
    for k, (cols, vals, rhs) in enumerate(nn):
        for j, v in zip(cols, vals):
            G[k, j] += v
        h[k] = rhs
    t = cone.n_nonneg
    for blk in cone.blocks:
        for v, cf, ct, wt in zip(blk.var, blk.coef, blk.const,
                                 svec_index(blk.size)[2]):
            if v >= 0:
                G[t, v] = -wt * cf
            h[t] = wt * ct
            t += 1
    groups, Gs, hs = cone.groups, cone.G, cone.h
    assert [g.m for g in groups] == [2, 3]
    assert sp.issparse(Gs) and Gs.format == "csr"
    assert np.array_equal(Gs.toarray(), G)
    assert np.array_equal(hs, h)


def _matvec_cases():
    rng = np.random.default_rng(11)
    G = sp.random(40, 30, density=0.3, format="csr", random_state=rng)
    A = sp.csr_matrix((0, 30))
    E = sp.random(12, 7, density=0.5, format="lil", random_state=rng)
    E[[0, 5, 11], :] = 0.0        # empty rows, and empty columns in E.T
    E = E.tocsr()
    assert np.diff(E.indptr)[[0, 5, 11]].tolist() == [0, 0, 0]
    return {"csr": G, "csc": G.T, "zero_rows": A, "zero_columns": A.T,
            "empty_rows": E, "empty_columns": E.T}


@pytest.mark.parametrize("kernel", [True, False])
@pytest.mark.parametrize("case", ["csr", "csc", "zero_rows", "zero_columns",
                                  "empty_rows", "empty_columns"])
def test_matvec_equals_matmul_bitwise(case, kernel, monkeypatch):
    # the bound kernel, and the `@` fallback when the kernel is missing,
    # give M @ x to the last bit
    import qcqpen.solver as solver
    if not kernel:
        monkeypatch.setattr(solver, "_sparsetools", None)
    M = _matvec_cases()[case]
    assert M.format == ("csc" if case in ("csc", "zero_columns",
                                          "empty_columns") else "csr")
    x = np.random.default_rng(12).normal(size=M.shape[1])
    got, want = _matvec(M)(x), M @ x
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_matvec_uses_the_kernel(monkeypatch):
    # with the installed scipy the products call its csr and csc kernels
    # directly, not `@` and its dispatch, so a silent fallback cannot slow
    # every solve unnoticed
    G = _matvec_cases()["csr"]
    x, xt = np.ones(G.shape[1]), np.ones(G.shape[0])
    want = [G @ x, G.T @ xt]

    def no_dispatch(self, other):
        raise AssertionError("scipy's @ dispatch was called")
    for cls in (type(G), type(G.T)):
        monkeypatch.setattr(cls, "_matmul_dispatch", no_dispatch)
    got = [_matvec(G)(x), _matvec(G.T)(xt)]
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_from_entries_slots_follow_svec_index():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 5):
        rows, cols, _ = svec_index(m)
        entries = {(int(b), int(a)) if rng.random() < 0.5 else (int(a), int(b)):
                   (int(t), float(rng.normal()), float(rng.normal()))
                   for t, (a, b) in enumerate(zip(rows, cols))
                   if rng.random() < 0.7}
        blk = PsdBlock.from_entries(m, entries)
        for t, (a, b) in enumerate(zip(rows, cols)):
            v, cf, ct = entries.get((int(a), int(b)),
                                    entries.get((int(b), int(a)), (-1, 0.0, 0.0)))
            assert (blk.var[t], blk.coef[t], blk.const[t]) == (v, cf, ct)


_W_MODES = [("w", 1), ("wt", 1), ("wit", -1), ("ww", 2), ("winv2", -2)]


def _closed_cone():
    """Three nonnegative rows, then `_CLOSED_FORM_BLOCKS` blocks of each
    order 1, 2 and 3, interleaved, with two of order 4 among them: three
    closed groups whose slots span the LAPACK group's."""
    sizes = [1, 2, 3] * _CLOSED_FORM_BLOCKS
    sizes[5:5] = sizes[100:100] = [4]
    return Cone(3, Gn=np.eye(3), hn=np.ones(3), blocks=[
        PsdBlock.from_entries(m, {(0, 0): (0, 1.0, 1.0)}) for m in sizes])


@pytest.mark.parametrize("mode, e, closed", [
    pytest.param(mode, e, closed,
                 id=("closed-" if closed else "") + f"{mode}-{e}")
    for closed in (False, True) for mode, e in _W_MODES])
def test_apply_w_matches_per_block_reference(mode, e, closed):
    # two blocks of each size 1 to 4 behind three nonnegative rows: each
    # mode gives, bit for bit, svec(sym(L smat(v) R)) block by block with
    # the factors (L, R) its docstring names. On the closed cone the
    # closed groups' sparse maps sum in another order than LAPACK's
    # matmuls: each of their blocks is within 4 eps ||L|| ||R|| ||v||,
    # while the nonnegative rows and the order-4 blocks keep the bits
    cone = _closed_cone() if closed else Cone(
        3, Gn=np.eye(3), hn=np.ones(3), blocks=[
            PsdBlock.from_entries(m, {(0, 0): (0, 1.0, 1.0)})
            for m in (3, 1, 4, 2, 1, 3, 2, 4)])
    groups, h = cone.groups, cone.h
    nb = _CLOSED_FORM_BLOCKS if closed else 2
    assert [(g.nb, g.closed) for g in groups] == \
        [(nb, closed)] * 3 + [(2, False)]
    scaling = _random_interior_scaling(cone, seed=4)
    vec = np.random.default_rng(6).normal(size=h.size)
    got = _apply_w(scaling, groups, 3, vec, mode)
    ref = vec.copy()
    ref[:3] = vec[:3] * scaling.wn ** e
    eps = np.finfo(float).eps
    for g, gd in zip(groups, scaling.groups):
        for k in range(g.nb):
            R, Rinv = gd["R"][k], gd["Rinv"][k]
            left, right = {"w": (R.T, R), "wt": (R, R.T),
                           "wit": (Rinv, Rinv.T),
                           "ww": (gd["WW"][k], gd["WW"][k]),
                           "winv2": (gd["Winv"][k], gd["Winv"][k])}[mode]
            v = vec[g.slot[k]]
            res = left @ smat(v, g.m) @ right
            ref[g.slot[k]] = svec(0.5 * (res + res.T))
            if g.closed:
                assert np.max(np.abs(got[g.slot[k]] - ref[g.slot[k]])) <= \
                    4 * eps * (np.linalg.norm(left) * np.linalg.norm(right)
                               * np.linalg.norm(v))
                got[g.slot[k]] = ref[g.slot[k]]
    assert np.array_equal(got, ref)


def test_closed_groups_share_one_map_pair(monkeypatch):
    # the three closed groups of a cone take two kernel calls per
    # congruence, one per stage: csr_matvec for a vector and csr_matvecs
    # for a stack, and only the LAPACK group symmetrizes its products.
    # Without scipy's private kernels the stages go through csr_matrix's
    # `@`, which reaches the same kernels: the same bits
    import qcqpen.solver as solver
    from scipy.sparse import _sparsetools
    cone = _closed_cone()
    groups = cone.groups
    scaling = _random_interior_scaling(cone, seed=5)
    rng = np.random.default_rng(6)
    vec, V = rng.normal(size=cone.h.size), rng.normal(size=(4, cone.h.size))
    calls, symmetrized = [], set()
    sym_svec = _BlockGroup.sym_svec

    def recorded(g, M):
        symmetrized.add(g.m)
        return sym_svec(g, M)
    monkeypatch.setattr(_BlockGroup, "sym_svec", recorded)

    class Counted:
        def __getattr__(self, name):
            kernel = getattr(_sparsetools, name)

            def counted(*args):
                calls.append(name)
                return kernel(*args)
            return counted

    def run():
        out = []
        for mode, _ in _W_MODES:
            out.append(_apply_w(scaling, groups, 3, vec, mode))
            out.append(_congruence(groups, scaling.mode(mode)[1], V,
                                   np.zeros_like(V)))
        return [a.tobytes() for a in out]
    monkeypatch.setattr(solver, "_sparsetools", Counted())
    want = run()
    assert len(groups.closed_map.members) == 3
    assert calls == (["csr_matvec"] * 2 + ["csr_matvecs"] * 2) * 5
    assert symmetrized == {4}
    monkeypatch.setattr(solver, "_sparsetools", None)
    assert run() == want


def test_jordan_solve_matches_per_block_reference():
    # lambda o v = d in scaled space: on each block, v = svec(smat(d) /
    # denom) with denom[a, b] = (lam_a + lam_b) / 2, bit for bit
    cone = Cone(3, Gn=np.eye(3), hn=np.ones(3), blocks=[
        PsdBlock.from_entries(m, {(0, 0): (0, 1.0, 1.0)})
        for m in (3, 1, 4, 2, 1, 3, 2, 4)])
    groups = cone.groups
    scaling = _random_interior_scaling(cone, seed=9)
    d = np.random.default_rng(10).normal(size=cone.h.size)
    ref = np.empty_like(d)
    ref[:3] = d[:3] / scaling.lam_n
    for g, gd in zip(groups, scaling.groups):
        for k in range(g.nb):
            lam = gd["lam"][k]
            denom = 0.5 * (lam[:, None] + lam[None, :])
            ref[g.slot[k]] = svec(smat(d[g.slot[k]], g.m) / denom)
    assert _jordan_solve(scaling, groups, 3, d).tobytes() == ref.tobytes()


@pytest.mark.parametrize("cone", ["nonneg", "psd", "mixed", "closed"])
def test_max_cone_step_of_two_directions_is_min_of_each(cone):
    # one call with two directions, their matrices in one `_min_eig` per
    # group, gives bit for bit the smaller of the single-direction steps,
    # also when one or both directions never reach the boundary (inf);
    # the closed forms work matrix by matrix, so this holds for them too
    nonneg = cone != "psd"
    sizes = {"nonneg": (), "psd": (3, 1, 2, 3, 2), "mixed": (3, 1, 2, 3, 2),
             "closed": (3, 2) * _CLOSED_FORM_BLOCKS}[cone]
    built = Cone(3, Gn=np.eye(3) if nonneg else None,
                 hn=np.ones(3) if nonneg else (),
                 blocks=[PsdBlock.from_entries(m, {(0, 0): (0, 1.0, 1.0)})
                         for m in sizes])
    groups, h, l_nn = built.groups, built.h, built.n_nonneg
    assert all(g.closed == (cone == "closed") for g in groups)
    scaling = _random_interior_scaling(built, seed=7)
    rng = np.random.default_rng(8)
    lam = _lambda_vec(scaling, groups, l_nn, h.size)
    d1, d2 = rng.normal(size=(2, h.size))
    pairs = [(d1, d2), (d2, d1), (d1, lam), (lam, d2), (lam, 2.0 * lam),
             (d1, d1)]
    for a, b in pairs:
        alone = [_max_cone_step(groups, scaling, l_nn, d) for d in (a, b)]
        both = _max_cone_step(groups, scaling, l_nn, a, b)
        assert both == min(alone)
        assert np.float64(both).tobytes() == np.float64(min(alone)).tobytes()
    assert _max_cone_step(groups, scaling, l_nn, lam, 2.0 * lam) == np.inf
    assert _max_cone_step(groups, scaling, l_nn, d1, d2) < np.inf


@pytest.mark.parametrize("l_nn", [3, 40])
def test_orthant_step_in_python_floats_keeps_numpys_bits(l_nn, monkeypatch):
    # up to _FEW_NONNEG rows take the step length's quotients -lam / d in
    # Python floats, more rows in numpy: the same bits, also for a
    # direction with no negative entry (inf) and past zero and NaN entries
    import qcqpen.solver as solver
    cone = Cone(l_nn, Gn=np.eye(l_nn), hn=np.ones(l_nn))
    scaling = _random_interior_scaling(cone, seed=7)
    d1, d2 = np.random.default_rng(8).normal(size=(2, l_nn))
    d2[::3] = 0.0
    d2[1] = np.nan
    for dirs in ((d1,), (d2,), (d1, d2), (np.abs(d1),), (np.abs(d1), d2)):
        steps = []
        for few in (0, l_nn):      # numpy, then Python floats
            monkeypatch.setattr(solver, "_FEW_NONNEG", few)
            steps.append(_max_cone_step(cone.groups, scaling, l_nn, *dirs))
        assert (np.float64(steps[0]).tobytes()
                == np.float64(steps[1]).tobytes())
    assert steps[0] < np.inf
    assert _max_cone_step(cone.groups, scaling, l_nn, np.abs(d1)) == np.inf


EPS = np.finfo(float).eps
# the closed forms' error bound against LAPACK, in eps * ||M||
_KERNEL_EPS = 16


def _closed_group(m):
    """(group, s-space size) of _CLOSED_FORM_BLOCKS blocks of order m."""
    cone = Cone(1, blocks=[PsdBlock.from_entries(m, {(0, 0): (0, 1.0, 1.0)})
                           ] * _CLOSED_FORM_BLOCKS)
    assert [g.closed for g in cone.groups] == [True]
    return cone.groups[0], cone.h.size


def _kernel_stack(kind, m, nb, rng):
    """nb symmetric m x m matrices Q diag(ev) Q' of one kind; "pair_low"
    has a nearly double smallest eigenvalue and a third far from it, where
    Smith's formula alone keeps only half the digits."""
    ev = {"random": rng.normal(size=(nb, m)),
          "cond1e12": np.logspace(0.0, -12.0, m) * np.ones((nb, 1)),
          "close": 1.0 + 1e-12 * rng.uniform(-1.0, 1.0, size=(nb, m)),
          "pair_low": np.array([1.0, 1.0 + 1e-12, 3.0])[:m] * np.ones((nb, 1)),
          "pair_high": np.array([-3.0, 1.0, 1.0 + 1e-12])[-m:]
          * np.ones((nb, 1)),
          "diagonal": rng.normal(size=(nb, m)),
          "1e100": 1e100 * rng.normal(size=(nb, m)),
          "1e-100": 1e-100 * rng.normal(size=(nb, m))}[kind]
    if kind == "diagonal":
        return ev[:, :, None] * np.eye(m)
    Q = np.linalg.qr(rng.normal(size=(nb, m, m)))[0]
    M = (Q * ev[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _norm2(M):
    """The spectral norm of each matrix of a stack."""
    return np.linalg.norm(M, 2, axis=(-2, -1))


_KINDS = ["random", "cond1e12", "close", "pair_low", "pair_high", "diagonal",
          "1e100", "1e-100"]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", _KINDS)
def test_closed_min_eig_matches_lapack(m, kind):
    # the smallest eigenvalue in closed form against LAPACK's eigvalsh of
    # the same matrices, plain and scaled as the step length scales them
    g, dim = _closed_group(m)
    rng = np.random.default_rng(m)
    vecs = np.zeros((2, dim))
    for v in vecs:
        v[g.slot] = svec(_kernel_stack(kind, m, g.nb, rng))
    scale = rng.uniform(0.5, 2.0, size=(g.nb, m))
    T = g.mats(vecs)
    for got, mats in ((_min_eig(g, vecs), T),
                      (_min_eig(g, vecs, scale),
                       T * scale[..., :, None] * scale[..., None, :])):
        ref = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
        tol = _KERNEL_EPS * EPS * np.abs(ref).max(-1)
        assert got.shape == (2, g.nb)
        assert np.all(np.abs(got - ref[..., 0]) <= tol)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_min_eig_raises_on_non_finite(m, bad):
    # as the step length's eigvalsh did on a non-finite direction, so that
    # the solve stops "solve_failed"
    g, dim = _closed_group(m)
    vecs = np.zeros((2, dim))
    vecs[1, g.slot[5, -1]] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _min_eig(g, vecs)
    with pytest.raises(np.linalg.LinAlgError):
        _min_eig(g, vecs, np.ones((g.nb, m)))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["random", "cond1e12", "close", "pair_low",
                                  "diagonal", "1e100", "1e-100"])
def test_closed_cholesky_matches_lapack(m, kind):
    # positive definite stacks: L is lower triangular, L L' = M and
    # X L = I for X = L^{-1}, to the bound of LAPACK's own factor
    g, dim = _closed_group(m)
    rng = np.random.default_rng(10 + m)
    M = _kernel_stack(kind, m, g.nb, rng)
    # the kinds with eigenvalues of either sign, made positive definite
    if kind == "diagonal":
        M = np.abs(M)
    elif kind in ("random", "1e100", "1e-100"):
        M = M @ M
    s = np.zeros(dim)
    s[g.slot] = svec(M)
    M = g.mats(s)
    L, X = _cholesky(g, s)
    ref = np.linalg.cholesky(M)
    norm = _norm2(M)
    for F in (L, X):
        assert np.array_equal(np.triu(F, 1), np.zeros_like(F))
    back = _norm2(L @ np.swapaxes(L, -1, -2) - M)
    assert np.all(back <= _KERNEL_EPS * EPS * norm)
    inv = _norm2(X @ L - np.eye(m))
    assert np.all(inv <= _KERNEL_EPS * EPS * _norm2(X) * _norm2(L))
    diff = _norm2(L - ref)
    assert np.all(diff <= _KERNEL_EPS * EPS * np.linalg.cond(ref)
                  * _norm2(ref))


_NOT_PD = {
    2: [[[1.0, 1.0], [1.0, 1.0]], [[4.0, 2.0], [2.0, 1.0]],
        [[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)),
        [[1.0, 0.0], [0.0, 1e-300]], [[1.0, 1 - 2.0 ** -20],
                                     [1 - 2.0 ** -20, 1.0]]],
    3: [np.ones((3, 3)), np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 0.0]),
        [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]],
        [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]],
        np.diag([1.0, 1e-300, 1.0]), [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                                      [0.0, -1.0, 2.0]]],
}


@pytest.mark.parametrize("m", [2, 3])
def test_closed_cholesky_fails_where_lapack_fails(m):
    # one block of an identity stack replaced at a time: the closed form
    # raises LinAlgError on exactly the stacks np.linalg.cholesky refuses
    g, dim = _closed_group(m)
    outcomes = []
    for block in _NOT_PD[m]:
        s = np.zeros(dim)
        s[g.slot] = svec(np.eye(m))
        s[g.slot[7]] = svec(np.asarray(block, dtype=float))
        fails = []
        for factor in (lambda: _cholesky(g, s),
                       lambda: np.linalg.cholesky(g.mats(s))):
            try:
                factor()
                fails.append(False)
            except np.linalg.LinAlgError:
                fails.append(True)
        assert fails[0] == fails[1], block
        outcomes.append(fails[0])
    assert True in outcomes and False in outcomes
    # a NaN pivot fails, as reference LAPACK's potrf fails it
    s[g.slot[3, 0]] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(g, s)


def test_single_block_keeps_lapack_bits():
    # a group of one block never takes the closed forms: the step length,
    # the cone margin and the NT scaling of one 3 x 3 block give the bits of
    # LAPACK's eigvalsh, cholesky and inv called directly
    assert _CLOSED_FORM_BLOCKS >= 2
    cone = Cone(1, blocks=[PsdBlock.from_entries(3, {(0, 0): (0, 1.0, 1.0)})])
    g, = groups = cone.groups
    assert (g.nb, g.closed) == (1, False)
    rng = np.random.default_rng(12)
    s, z = np.zeros((2, cone.h.size))
    for v in (s, z):
        B = rng.normal(size=(1, 3, 3))
        v[g.slot] = svec(B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(3))
    scaling = _nt_scaling(groups, s, z, 0)
    Ls = np.linalg.cholesky(g.mats(s))
    M = np.swapaxes(Ls, -1, -2) @ g.mats(z) @ Ls
    d, Q = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
    gd = scaling.groups[0]
    assert gd["R"].tobytes() == (Ls @ Q * (d[..., None, :] ** -0.25)).tobytes()
    assert gd["Rinv"].tobytes() == ((d[..., :, None] ** 0.25)
                                    * np.swapaxes(Q, -1, -2)
                                    @ np.linalg.inv(Ls)).tobytes()
    assert gd["lam"].tobytes() == np.sqrt(d).tobytes()
    dirs = rng.normal(size=(2, cone.h.size))
    scale = 1.0 / np.sqrt(gd["lam"])
    T = g.mats(dirs) * scale[..., :, None] * scale[..., None, :]
    emin = np.linalg.eigvalsh(0.5 * (T + np.swapaxes(T, -1, -2))).min()
    assert emin < 0
    want = np.float64(-1.0 / emin).tobytes()
    assert np.float64(_max_cone_step(groups, scaling, 0, *dirs)).tobytes() \
        == want
    assert np.float64(_cone_margin(groups, 0, dirs[0])).tobytes() == \
        np.float64(np.linalg.eigvalsh(g.mats(dirs[0])).min()).tobytes()


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("where", ["s", "z"])
def test_nt_scaling_raises_on_nan_single_block(where, slot):
    # a single 2 x 2 block takes LAPACK, whose eigh can return NaN
    # eigenvalues: a NaN in any slot of s or of z raises LinAlgError, as
    # the closed-form Cholesky does, and yields no scaling with lam NaN
    cone = Cone(1, blocks=[PsdBlock.from_entries(2, {(0, 0): (0, 1.0, 1.0)})])
    g, = groups = cone.groups
    assert (g.nb, g.closed) == (1, False)
    s, z = np.zeros((2, cone.h.size))
    s[g.slot] = z[g.slot] = svec(np.eye(2))
    {"s": s, "z": z}[where][g.slot[0, slot]] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _nt_scaling(groups, s, z, 0)


def _columnwise_normal_matrix(G, groups, l_nn, scaling):
    """H = G' (W'W)^{-1} G built column by column, apart from both paths."""
    Gd = G.toarray()
    return Gd.T @ np.column_stack([_apply_w(scaling, groups, l_nn, Gd[:, j],
                                            "winv2")
                                   for j in range(Gd.shape[1])])


def _refined(kkt, cone, scaling, rhs):
    """(du, dy, dz, relative residual) of kkt's solve of the full KKT
    system after its own refinement passes (kkt.passes) against it, as
    solve_conic refines."""
    Gx, GTx, Ax, ATx = cone.products
    bu, by, bz = rhs

    def residual(du, dy, dz):
        wwdz = _apply_w(scaling, cone.groups, cone.n_nonneg, dz, "ww")
        return bu - ATx(dy) - GTx(dz), by - Ax(du), bz - Gx(du) + wwdz
    du, dy, dz = kkt.solve(*rhs)
    for _ in range(kkt.passes):
        cu, cy, cz = kkt.solve(*residual(du, dy, dz))
        du, dy, dz = du + cu, dy + cy, dz + cz
    res = np.linalg.norm(np.concatenate(residual(du, dy, dz)))
    return du, dy, dz, res / np.linalg.norm(np.concatenate(rhs))


def _random_rhs(cone, seed):
    """A random right-hand side (bu, by, bz) of the cone's KKT system."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=cone.n_vars), rng.normal(size=cone.n_eq),
            rng.normal(size=cone.h.size))


def _dense_elimination(cone, scaling, rhs):
    """(du, dy, dz) of the full KKT system by dense elimination of dz:
    [H A'; A 0] [du; dy] = [bu + G'W^-2 bz; by] solved with H built column
    by column, and dz = W^-2 (G du - bz)."""
    groups, G, A, n = cone.groups, cone.G, cone.A, cone.n_vars
    bu, by, bz = rhs

    def winv2(v):
        return _apply_w(scaling, groups, cone.n_nonneg, v, "winv2")
    H = _columnwise_normal_matrix(G, groups, cone.n_nonneg, scaling)
    Ad, m = A.toarray(), cone.n_eq
    x = np.linalg.solve(np.block([[H, Ad.T], [Ad, np.zeros((m, m))]]),
                        np.concatenate([bu + G.T @ winv2(bz), by]))
    return x[:n], x[n:], winv2(G @ x[:n] - bz)


def _assert_matches_dense_elimination(pattern, cone):
    """The sparse path factors in an order of its own (`_ordering`), not
    the cone's: at a random interior scaling its solve, refined, equals the
    dense elimination (`_dense_elimination`). Returns the factor."""
    assert sorted(pattern.perm) == list(range(pattern.dim))
    assert np.any(pattern.perm != np.arange(pattern.dim))
    scaling = _random_interior_scaling(cone, seed=3)
    rhs = _random_rhs(cone, 4)
    kkt = pattern.factor(scaling)
    *got, res = _refined(kkt, cone, scaling, rhs)
    assert res <= 1e-10
    for g, w in zip(got, _dense_elimination(cone, scaling, rhs)):
        assert np.linalg.norm(g - w) <= 1e-6 * np.linalg.norm(w)
    return kkt


def test_sparse_kkt_matches_dense_on_sysid(sysid_program):
    # sysid's cone keeps no row, and each of its equality rows fixes one
    # observed state, so no equality row is left in the factored system
    # and no shift delta either
    cone = sysid_program.cone
    assert _kkt_path(cone) == "sparse"
    assert not _kept_rows(cone).any()
    kkt = _assert_matches_dense_elimination(_SparseKkt(cone), cone)
    assert kkt.reg_used == 0.0


def _with_left_equality_row(c):
    """sysid's cone c with one more equality row, over two of its free
    columns, which no fixed variable condenses out."""
    free = np.setdiff1d(np.arange(c.n_vars), _SparseKkt(c).fcol)[:2]
    row = sp.csr_matrix((np.ones(2), (np.zeros(2, int), free)),
                        shape=(1, c.n_vars))
    return Cone(c.n_vars, sp.vstack([c.A, row]), np.append(c.b, 0.0), c.Gn,
                c.hn, c.blocks)


def test_sparse_kkt_shifts_a_left_equality_row(sysid_program):
    # sysid's cone with one more equality row, over two of its free
    # columns: that row is left in the factored system, so the second
    # block is shifted by -delta
    c = sysid_program.cone
    cone = _with_left_equality_row(c)
    assert _kkt_path(cone) == "sparse"
    pattern = _SparseKkt(cone)
    assert pattern.eq.tolist() == [c.n_eq]
    assert pattern.fcol.size == c.n_eq
    kkt = _assert_matches_dense_elimination(pattern, cone)
    assert kkt.reg_used > 0.0


def test_sparse_kkt_matches_dense_with_kept_rows():
    # three dense nonnegative rows kept in the augmented system, whose
    # last block row subtracts W_D^2 on their places of the diagonal
    cone, at = _with_dense_rows("full", "between", _EQ_ROWS)
    assert np.flatnonzero(_kept_rows(cone)).tolist() == [at, at + 1, at + 2]
    _assert_matches_dense_elimination(_SparseKkt(cone), cone)


def test_condensed_rows_satisfy_first_block_row(sysid_program):
    # the dy of each condensed row i, (bu_j - (G'dz)_j) / a, makes the
    # first block row A'dy + G'dz = bu hold at its fixed column j, before
    # and after refinement, to 1e-10 of bu there. The condensation is
    # exact, not a guess that refinement repairs: the first solve alone
    # already meets the full system to 1e-8
    cone = sysid_program.cone
    pattern = _SparseKkt(cone)
    assert pattern.frow.tolist() == list(range(cone.n_eq))
    scaling = _random_interior_scaling(cone, seed=5)
    bu, by, bz = rhs = _random_rhs(cone, 6)
    kkt = pattern.factor(scaling)
    Gx, GTx, Ax, ATx = cone.products
    du, dy, dz = kkt.solve(*rhs)
    wwdz = _apply_w(scaling, cone.groups, cone.n_nonneg, dz, "ww")
    res = np.concatenate([bu - ATx(dy) - GTx(dz), by - Ax(du),
                          bz - Gx(du) + wwdz])
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(np.concatenate(rhs))
    *refined, res = _refined(kkt, cone, scaling, rhs)
    assert res <= 1e-10
    for du, dy, dz in ((du, dy, dz), refined):
        first = (bu - ATx(dy) - GTx(dz))[pattern.fcol]
        assert (np.linalg.norm(first)
                <= 1e-10 * np.linalg.norm(bu[pattern.fcol]))


def test_fixed_variables_need_a_column_of_their_own():
    # a one-entry row is a fixed variable only when no other equality row
    # holds its column and its entry is nonzero: row 0's column 0 is also
    # in row 1, rows 3 and 4 share column 2, and row 5's entry is an
    # explicit zero; only row 2 fixes its column
    A = sp.csr_matrix((np.array([2.0, 1.0, -1.0, -1.5, 1.0, 3.0, 0.0]),
                       (np.array([0, 1, 1, 2, 3, 4, 5]),
                        np.array([0, 0, 4, 6, 2, 2, 7]))), shape=(6, 9))
    rows, cols, vals = _fixed_variables(A)
    assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([2], [6], [-1.5])


def test_singleton_row_sharing_its_column_is_not_condensed():
    # row 0 has one entry, at column 0, which row 1 holds too: it stays in
    # the factored system with row 1, and only row 2 is condensed. The
    # refined solve equals the dense solve of the full KKT matrix
    cone = _dense_kkt_program("full", eq=[([0], [2.0], 0.3),
                                          ([0, 4], [1.0, -1.0], 0.1),
                                          ([6], [-1.5], 0.2)]).cone
    pattern = _SparseKkt(cone)
    assert (pattern.frow.tolist(), pattern.fcol.tolist()) == ([2], [6])
    assert pattern.eq.tolist() == [0, 1]
    _assert_matches_full_kkt(pattern, cone)


def test_fixed_column_in_kept_rows_matches_full_kkt(monkeypatch):
    # with a share of 0 every nonnegative row is kept, and the fixed
    # column 8 (X22) is in the kept box row over x2 and X22 and in the PSD
    # block: the refined solve equals the dense solve of the full KKT
    # matrix
    import qcqpen.solver as solver
    monkeypatch.setattr(solver, "_SPARSE_SHARE", 0.0)
    cone = _dense_kkt_program("full", eq=_EQ_ROWS + [([8], [2.0], 0.3)]).cone
    assert _kept_rows(cone).all()
    assert cone.Gn[:, 8].nnz > 0
    pattern = _SparseKkt(cone)
    assert (pattern.frow.tolist(), pattern.fcol.tolist()) == ([2], [8])
    _assert_matches_full_kkt(pattern, cone)


def test_normal_map_builds_no_term_at_a_fixed_column(sysid_program,
                                                     monkeypatch):
    # sysid's 64 fixed columns, and a fixed column in an eliminated box
    # row: the map lists no term at a fixed column, and its places and
    # terms are the map's without fixed columns, in order, less every term
    # that touches one
    import qcqpen.solver as solver
    monkeypatch.setattr(solver, "_SPARSE_SHARE", 1.0)
    box = _dense_kkt_program("full", eq=[([8], [2.0], 0.3)]).cone
    for cone in (sysid_program.cone, box):
        assert not _kept_rows(cone).any()
        nmap = _SparseKkt(cone).nmap
        fixed = _fixed_variables(cone.A)[1]
        rows = np.arange(cone.n_nonneg)
        full = _NormalMap(cone.G, cone.groups, rows)
        n = cone.n_vars
        i, j = np.divmod(full.place, n)
        touch = np.isin(i, fixed) | np.isin(j, fixed)
        assert touch.any()
        assert not np.isin(np.divmod(nmap.place, n), fixed).any()
        assert np.array_equal(nmap.place, full.place[~touch])
        scaling = _random_interior_scaling(cone, 1)
        assert (nmap.terms(scaling).tobytes()
                == full.terms(scaling)[~touch].tobytes())
    assert _fixed_variables(sysid_program.cone.A)[1].size == 64


def _assert_matches_full_kkt(pattern, cone):
    """At three random interior scalings the sparse path's (du, dy, dz),
    refined, equal the dense solve of the full KKT matrix."""
    n, m = cone.n_vars, cone.n_eq
    for seed in range(3):
        scaling = _random_interior_scaling(cone, seed)
        rhs = _random_rhs(cone, seed)
        *got, res = _refined(pattern.factor(scaling), cone, scaling, rhs)
        assert res <= 1e-10
        x = np.linalg.solve(_full_kkt_reference(cone, cone.G, cone.A,
                                                cone.groups, scaling),
                            np.concatenate(rhs))
        for g, w in zip(got, np.split(x, [n, n + m])):
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-9 * np.linalg.norm(w)


def test_sparse_path_solves_like_dense(sysid_program, monkeypatch):
    # sysid on the sparse path as chosen, no row kept, and with a share of
    # 0, which keeps every one of its nonnegative rows in the augmented
    # system: the same statuses and pcost
    import qcqpen.solver as solver
    sol = solve_conic(sysid_program)
    monkeypatch.setattr(solver, "_SPARSE_SHARE", 0.0)
    # a cone keeps the path it chose first: the kept rows need a new one
    c = sysid_program.cone
    kept = ConicProgram(Cone(c.n_vars, c.A, c.b, c.Gn, c.hn, c.blocks),
                        sysid_program.c, sysid_program.c0)
    assert _kkt_path(kept.cone) == "sparse"
    assert _kept_rows(kept.cone).all()
    ref = solve_conic(kept)
    assert sol.status in OK and ref.status in OK
    assert sol.pcost == pytest.approx(ref.pcost, rel=1e-6)


def _kkt_order(prog):
    """n + m + the cone's dimension: the order of the full KKT matrix."""
    return prog.cone.n_vars + prog.cone.n_eq + prog.cone.h.size


def test_kkt_path_choice(sysid_program):
    import qcqpen.solver as solver
    bound = solver._FULL_KKT_ORDER
    rng = np.random.default_rng(0)
    relaxed = {}
    for n in (13, 14, 23, 24):
        B = rng.normal(size=(n, n))
        obj = QuadraticFunction(0.5 * (B + B.T), rng.normal(size=n), 0.0)
        ball = QuadraticFunction(np.eye(n), np.zeros(n), -1.0)
        cfg = RelaxationConfig(r=None if n > 20 else 2, sparsity=False)
        relaxed[n], _ = build_relaxation(
            QcqpProblem(n, obj, inequalities=[ball]), cfg)
    # a full moment matrix (dense H, order about 2n) on both sides of the
    # bound: 299 and 324 variables. Above it every variable has a PSD slot
    # and the dual path's order is 2 (the ball row and the constant slot)
    assert _kkt_order(relaxed[23]) <= bound < _kkt_order(relaxed[24])
    assert _kkt_path(relaxed[23].cone) == "full"
    assert _kkt_path(relaxed[24].cone) == "dual"
    # r = 2 blocks without sparsity: 104 and 119 variables, but 78 and 91
    # 3x3 blocks put the order on both sides of the bound. Above it the
    # blocks scatter into more than a tenth of H and the dual path's order
    # exceeds n, so the sparse path takes it, and the ball row (14 nonzeros)
    # is not kept
    assert _kkt_order(relaxed[13]) <= bound < _kkt_order(relaxed[14])
    assert relaxed[14].cone.n_vars < relaxed[23].cone.n_vars
    assert _kkt_path(relaxed[13].cone) == "full"
    assert _kkt_path(relaxed[14].cone) == "sparse"
    assert not _kept_rows(relaxed[14].cone).any()
    # r = 2 blocks scatter into few entries of H: sparse above the bound;
    # below it the full path runs however sparse H is (50 one-entry rows
    # scatter into 50 of 2,500 entries)
    assert _kkt_order(sysid_program) > bound
    assert _kkt_path(sysid_program.cone) == "sparse"
    box = Cone(50, Gn=-np.eye(50), hn=np.zeros(50))
    assert 50 < solver._SPARSE_SHARE * 50 ** 2
    for cone in (box, _lp_fixture().cone, _dense_kkt_program("shared").cone):
        assert _kkt_path(cone) == "full"


def test_sparse_path_orders_its_pattern_once_per_cone(monkeypatch):
    # five rounds of the benchmark's sysid run over one cone: SuperLU
    # computes a fill-reducing order once, when the cone's sparse path is
    # built, and every factorization of every round, the start's included,
    # reuses it ("NATURAL" on the matrix built in that order)
    import scipy.sparse.linalg as spla
    import qcqpen.sequential as sequential
    specs, splu = [], spla.splu

    def spy(K, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(K, **kwargs)
    monkeypatch.setattr(spla, "splu", spy)
    cones, iterations, solve = set(), [], sequential.solve_conic

    def recorded(prog, *args, **kwargs):
        cones.add(prog.cone)
        sol = solve(prog, *args, **kwargs)
        iterations.append(sol.iterations)
        return sol
    monkeypatch.setattr(sequential, "solve_conic", recorded)
    inst = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01, seed=0))
    cfg = sequential.SequentialConfig(
        relaxation=RelaxationConfig(r=2), eta=40.0, init="zero",
        max_rounds=5, stop_rel=None)
    assert len(sequential.run(inst.problem, cfg).rounds) == 5
    [cone] = cones
    assert _kkt_path(cone) == "sparse"
    assert specs[0] == "MMD_AT_PLUS_A"
    assert specs[1:] == ["NATURAL"] * (len(specs) - 1)
    assert len(specs) - 1 >= sum(iterations) + 1


def test_sparse_kkt_singular_is_regularized(monkeypatch):
    # variable 2 appears in no row: the augmented matrix has a zero column,
    # which SuperLU reports as exactly singular. The pattern, with its
    # diagonal, still gives the ordering; the ladder's shifts land on the
    # diagonal of the matrix in that order, in place, until it factors
    import scipy.sparse.linalg as spla
    seen, splu = [], spla.splu

    def spy(K, **kwargs):
        seen.append((kwargs["permc_spec"], K.toarray()))
        return splu(K, **kwargs)
    monkeypatch.setattr(spla, "splu", spy)
    cone = _cone(3, nn=[([0], [-1.0], 0.0), ([0, 1], [-1.0, -1.0], 0.0)],
                 eq=[([0, 1], [1.0, 1.0], 1.0)])
    scaling = _Scaling(np.ones(2), np.ones(2), [])
    pattern = _SparseKkt(cone)
    kkt = pattern.factor(scaling)
    assert kkt.reg_used > pattern.delta
    specs = [spec for spec, _ in seen]
    assert specs[0] == "MMD_AT_PLUS_A"
    assert specs[1:] == ["NATURAL"] * (len(seen) - 1) and len(seen) >= 3
    # back in the cone's numbering, the shifts are +reg on H's diagonal and
    # -reg on the second block's, reg being the ladder's beyond delta, up
    # to the rounding of the entries they were added to
    at = np.ix_(pattern.perm, pattern.perm)
    first, last = seen[1][1][at], seen[-1][1][at]
    shift = kkt.reg_used - pattern.delta
    n = cone.n_vars
    assert np.allclose(last - first,
                       np.diag(np.r_[np.full(n, shift),
                                     np.full(pattern.dim - n, -shift)]),
                       rtol=0.0, atol=0.01 * shift)
    for d in kkt.solve(np.array([1.0, 2.0, 0.0]), np.array([1.0]),
                       np.array([0.5, -1.0])):
        assert np.all(np.isfinite(d))


def _reference_normal_matrix(G, groups, l_nn, scaling):
    """H = G'(W'W)^{-1}G from a dense G: each nonnegative row's outer
    product added in row order, then the full symmetric Kronecker of every
    block scattered with np.add.at: the assembly the pair list replaced."""
    H = np.zeros((G.shape[1],) * 2)
    for row, d in zip(G[:l_nn], 1.0 / scaling.wn ** 2):
        H += np.outer(row, row * d)
    for g, gd in zip(groups, scaling.groups):
        Rinv = gd["Rinv"]
        P = np.swapaxes(Rinv, -1, -2) @ Rinv
        a, b, w = g.ka, g.kb, g.w
        A1 = P[:, a[:, None], a[None, :]] * P[:, b[:, None], b[None, :]]
        A2 = P[:, a[:, None], b[None, :]] * P[:, b[:, None], a[None, :]]
        ww = w[:, None] * w[None, :]
        K = 0.5 * ww * (A1 + A2)
        gc = np.where(g.mask, g.gcoef, 0.0)
        C = K * gc[:, :, None] * gc[:, None, :]
        varc = np.where(g.mask, g.var, 0)
        np.add.at(H, (varc[:, :, None], varc[:, None, :]), C)
    return H


def _moment_block(rng, index, lifted):
    """[[1, x'], [x, X]] over the variables `index`; lifted maps (i, j),
    i >= j, to the variable of X[i, j]. Coefficients are random."""
    entries = {(0, 0): (-1, 0.0, 1.0)}
    for a, i in enumerate(index):
        entries[(a + 1, 0)] = (i, rng.uniform(0.5, 2.0), 0.0)
        for b, j in enumerate(index[:a + 1]):
            entries[(a + 1, b + 1)] = (lifted[max(i, j), min(i, j)],
                                       rng.uniform(0.5, 2.0), 0.0)
    return PsdBlock.from_entries(len(index) + 1, entries)


def _dense_kkt_program(case, extra=0, nn=(), eq=()):
    """'full': one 4x4 moment block over x0..x2 and X. 'shared': two 3x3
    r = 2-style blocks over (x0, x1) and (x0, x2), which share x0 and
    X00. Each x_i gets a box row. `extra` variables appear in no cone row,
    only in one equality row. The rows nn and eq follow the program's own
    nonnegative and equality rows."""
    rng = np.random.default_rng(11)
    pairs = ([(i, j) for i in range(3) for j in range(i + 1)]
             if case == "full" else [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)])
    lifted = {p: 3 + k for k, p in enumerate(pairs)}
    n = 3 + len(pairs) + extra
    c = rng.normal(size=n)
    rows = []
    for i in range(3):
        rows.append(([i], [1.0], 1.0))
        rows.append(([i, lifted[i, i]], [-1.0, 0.5], 1.0))
    if case == "full":
        blocks = [_moment_block(rng, [0, 1, 2], lifted)]
    else:
        blocks = [_moment_block(rng, [0, 1], lifted),
                  _moment_block(rng, [0, 2], lifted)]
    eqs = ([(list(range(n - extra - 1, n)), np.ones(extra + 1), 1.0)]
           if extra else [])
    return ConicProgram(_cone(n, nn=rows + list(nn), eq=eqs + list(eq),
                              blocks=blocks), c)


@pytest.mark.parametrize("case", ["full", "shared"])
def test_pair_entries_match_svec_of_winv_map(case):
    # column t of the block's Hessian is svec(W^-1 smat(e_t) W^-1)
    cone = _dense_kkt_program(case).cone
    groups = cone.groups
    scaling = _random_interior_scaling(cone, seed=7)
    for g, gd in zip(groups, scaling.groups):
        blk, t1, t2 = np.indices((g.nb, g.ns, g.ns)).reshape(3, -1)
        idx, kww = _pair_index(g, blk, t1, t2)
        assert idx.dtype == np.intp
        K = _pair_entries(gd["Winv"], idx, kww).reshape(g.nb, g.ns, g.ns)
        P = gd["Winv"]
        for k in range(g.nb):
            ref = np.column_stack([svec(P[k] @ smat(e, g.m) @ P[k])
                                   for e in np.eye(g.ns)])
            assert np.allclose(K[k], ref, rtol=1e-12,
                               atol=1e-14 * np.abs(ref).max())


def _with_dense_rows(case, where, eq=()):
    """The cone of `_dense_kkt_program(case, eq=eq)` with three nonnegative
    rows over every variable placed before, between or after its box
    rows."""
    base = _dense_kkt_program(case, eq=eq).cone
    n = base.n_vars
    rng = np.random.default_rng(13)
    dense = sp.csr_matrix(rng.normal(size=(3, n)))
    box, hn = base.Gn, base.hn
    cut = {"before": 0, "between": 3, "after": box.shape[0]}[where]
    Gn = sp.vstack([box[:cut], dense, box[cut:]], format="csr")
    hn = np.concatenate([hn[:cut], np.ones(3), hn[cut:]])
    return Cone(n, base.A, base.b, Gn, hn, base.blocks), cut


@pytest.mark.parametrize("where", ["before", "between", "after"])
@pytest.mark.parametrize("case", ["full", "shared"])
def test_normal_matrix_product_sums_like_add_at(case, where):
    # np.add.at over zeros of the pair list (`place`, `terms`) gives the
    # bytes of the reference assembly on H's diagonal and lower triangle,
    # the part the factorization reads: wherever the dense rows sit among
    # the box rows, where places receive up to five row terms, and where
    # PSD places repeat across blocks
    cone = _with_dense_rows(case, where)[0]
    n = cone.n_vars
    assert np.diff(cone.Gn.indptr).max() == n
    nmap = _NormalMap(cone.G, cone.groups, np.arange(cone.n_nonneg))
    for seed in range(3):
        scaling = _random_interior_scaling(cone, seed)
        H = np.zeros(n * n)
        np.add.at(H, nmap.place, nmap.terms(scaling))
        H = H.reshape(n, n)
        ref = _reference_normal_matrix(cone.G.toarray(), cone.groups,
                                       cone.n_nonneg, scaling)
        assert np.tril(H).tobytes() == np.tril(ref).tobytes()


@pytest.mark.parametrize("dt", [np.float64])
@pytest.mark.parametrize("case", ["full", "shared"])
def test_dense_normal_matrix_matches_add_at_reference(case, dt):
    # box rows only: the pair list, summed by np.add.at over zeros, gives
    # H's lower triangle bit for bit as the full symmetric Kronecker and
    # np.add.at of the reference assembly did
    cone = _dense_kkt_program(case).cone
    n = cone.n_vars
    nmap = _NormalMap(cone.G, cone.groups, np.arange(cone.n_nonneg))
    for seed in range(3):
        scaling = _random_interior_scaling(cone, seed)
        terms = nmap.terms(scaling)
        assert terms.dtype == dt
        H = np.zeros(n * n)
        np.add.at(H, nmap.place, terms)
        H = H.reshape(n, n)
        ref = _reference_normal_matrix(cone.G.toarray(), cone.groups,
                                       cone.n_nonneg, scaling)
        assert np.array_equal(np.tril(H), np.tril(ref))


def _factored_normal_block(cone, scaling, monkeypatch):
    """The H block of the augmented matrix that the sparse path's `factor`
    hands to SuperLU at `scaling`, before any shift of its ladder, mapped
    back from the pattern's order to the cone's numbering."""
    import scipy.sparse.linalg as spla
    seen, splu = [], spla.splu

    def spy(K, **kwargs):
        if kwargs["permc_spec"] == "NATURAL":
            seen.append(K.copy())
        return splu(K, **kwargs)
    monkeypatch.setattr(spla, "splu", spy)
    pattern = _SparseKkt(cone)
    pattern.factor(scaling)
    at = pattern.perm[:cone.n_vars]
    return seen[0].toarray()[np.ix_(at, at)]


@pytest.mark.parametrize("case", ["full", "shared", "rows"])
def test_normal_matrix_sums_like_add_at(case, monkeypatch):
    # the sparse path's np.bincount sums each place's terms in list order,
    # as np.add.at over zeros does: the same bytes on the diagonal and lower
    # triangle of the H that SuperLU factors. "rows" adds three nonnegative
    # rows over every variable, eliminated since a share of 1 keeps no row,
    # so that places receive up to five row terms
    import qcqpen.solver as solver
    monkeypatch.setattr(solver, "_SPARSE_SHARE", 1.0)
    if case == "rows":
        n = _dense_kkt_program("full", extra=1).cone.n_vars
        rng = np.random.default_rng(12)
        rows = [(np.arange(n), rng.normal(size=n), 1.0) for _ in range(3)]
        cone = _dense_kkt_program("full", extra=1, nn=rows).cone
        assert np.diff(cone.Gn.indptr).max() == n
    else:
        cone = _dense_kkt_program(case).cone
    assert not _kept_rows(cone).any()
    n = cone.n_vars
    nmap = _NormalMap(cone.G, cone.groups, np.arange(cone.n_nonneg))
    for seed in range(3):
        scaling = _random_interior_scaling(cone, seed)
        ref = np.zeros(n * n)
        np.add.at(ref, nmap.place, nmap.terms(scaling))
        H = _factored_normal_block(cone, scaling, monkeypatch)
        assert H.shape == (n, n)
        ref = ref.reshape(H.shape)
        assert np.tril(H).tobytes() == np.tril(ref).tobytes()


_EQ_ROWS = [([0, 3, 5], [1.0, -0.5, 2.0], 0.3), ([1, 2], [1.0, 1.0], -0.2)]


@pytest.mark.parametrize("eq", [(), _EQ_ROWS], ids=["no_eq", "eq"])
@pytest.mark.parametrize("where", ["before", "between", "after"])
@pytest.mark.parametrize("case", ["full", "shared"])
def test_kept_rows_solve_matches_full_kkt(case, where, eq):
    # the three dense rows are kept in the augmented system, the box rows
    # eliminated: at random interior scalings the sparse path's
    # (du, dy, dz), refined, equal the dense solve of the full KKT matrix
    cone, at = _with_dense_rows(case, where, eq)
    assert np.flatnonzero(_kept_rows(cone)).tolist() == [at, at + 1, at + 2]
    n, m = cone.n_vars, cone.n_eq
    assert m == len(eq)
    for seed in range(3):
        scaling = _random_interior_scaling(cone, seed)
        rhs = _random_rhs(cone, seed)
        kkt = _SparseKkt(cone).factor(scaling)
        *got, res = _refined(kkt, cone, scaling, rhs)
        assert res <= 1e-10
        x = np.linalg.solve(_full_kkt_reference(cone, cone.G, cone.A,
                                                cone.groups, scaling),
                            np.concatenate(rhs))
        for g, w in zip(got, np.split(x, [n, n + m])):
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-9 * np.linalg.norm(w)


def _arrays(value):
    """Every numpy array held in value, through lists, tuples and sparse
    matrices."""
    if isinstance(value, np.ndarray):
        return [value]
    if sp.issparse(value):
        return [value.data, value.indices, value.indptr]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays(v)]
    return []


def test_kept_rows_build_no_pair_list(monkeypatch):
    # three nonnegative rows over all n variables are kept on the sparse
    # path: a list of their pairs of entries would hold sum nk (nk + 1) / 2
    # entries; after a factorization and a solve the path's maps hold no
    # array that large. The 20 extra variables make the rows, not the
    # block's pairs, the bulk of the terms.
    import qcqpen.solver as solver
    n = _dense_kkt_program("full", extra=20).cone.n_vars
    rng = np.random.default_rng(12)
    rows = [(np.arange(n), rng.normal(size=n), 1.0) for _ in range(3)]
    cone = _dense_kkt_program("full", extra=20, nn=rows).cone
    monkeypatch.setattr(solver, "_FULL_KKT_ORDER", 0)
    assert _kkt_path(cone) == "sparse"
    kept = _kept_rows(cone)
    assert np.flatnonzero(kept).tolist() == [6, 7, 8]
    patterns = []

    class Recorded(_SparseKkt):
        def __init__(self, *args):
            super().__init__(*args)
            patterns.append(self)
    monkeypatch.setattr(solver, "_SparseKkt", Recorded)
    kkt = cone.factor_kkt(_random_interior_scaling(cone, 0))
    kkt.solve(np.ones(n), np.ones(cone.n_eq), np.ones(cone.h.size))
    [pattern] = patterns
    nk = np.diff(cone.Gn.indptr)[kept]
    pairs = int(np.sum(nk * (nk + 1) // 2))
    held = _arrays(list(vars(pattern).values())
                   + list(vars(pattern.nmap).values()))
    assert held and max(a.size for a in held) < pairs


def _full_kkt_reference(cone, G, A, groups, scaling):
    """[[0, A', G'], [A, 0, 0], [G, 0, -W'W]] from dense blocks, with each
    PSD block's part of W'W built column by column as svec(P mat(e_t) P),
    P = R R'."""
    n, m, sdim = cone.n_vars, cone.n_eq, G.shape[0]
    l_nn = cone.n_nonneg
    WW = np.zeros((sdim, sdim))
    WW[:l_nn, :l_nn] = np.diag(scaling.wn ** 2)
    for g, gd in zip(groups, scaling.groups):
        for k in range(g.nb):
            P = gd["R"][k] @ gd["R"][k].T
            WW[np.ix_(g.slot[k], g.slot[k])] = np.column_stack(
                [svec(P @ smat(e, g.m) @ P) for e in np.eye(g.ns)])
    Gd, Ad = G.toarray(), A.toarray()
    return np.block([[np.zeros((n, n)), Ad.T, Gd.T],
                     [Ad, np.zeros((m, m + sdim))],
                     [Gd, np.zeros((sdim, m)), -WW]])


@pytest.mark.parametrize("case", ["full", "shared"])
def test_full_kkt_matrix_matches_svec_reference(case):
    # the full path's matrix, its -W'W block included, entry by entry
    cone = _dense_kkt_program(case, extra=1).cone
    groups, G, A = cone.groups, cone.G, cone.A
    scaling = _random_interior_scaling(cone, seed=8)
    K = _FullKkt(cone).matrix(scaling)
    ref = _full_kkt_reference(cone, G, A, groups, scaling)
    assert np.allclose(K, ref, rtol=1e-12, atol=1e-14 * np.abs(ref).max())


def test_full_path_solve_matches_dense_elimination():
    # equalities, nonnegative rows and a PSD block, at an interior
    # non-identity scaling: the full KKT LU and the sparse path's
    # elimination of dz, refined, give the same (du, dy, dz)
    cone = _dense_kkt_program("full", eq=_EQ_ROWS).cone
    groups, G, A = cone.groups, cone.G, cone.A
    assert not _kept_rows(cone).any()
    scaling = _random_interior_scaling(cone, seed=9)
    rhs = _random_rhs(cone, 10)
    full = _FullKkt(cone).factor(scaling)
    sparse = _SparseKkt(cone).factor(scaling)
    assert full.reg_used == 0.0
    ref = _full_kkt_reference(cone, G, A, groups, scaling)
    x = np.concatenate(full.solve(*rhs))
    assert np.linalg.norm(ref @ x - np.concatenate(rhs)) <= \
        1e-12 * np.linalg.norm(ref) * np.linalg.norm(x)
    *got, res = _refined(sparse, cone, scaling, rhs)
    assert res <= 1e-12
    for g, want in zip(got, full.solve(*rhs)):
        assert np.linalg.norm(g - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("case", ["full", "shared", "closed"])
def test_congruence_of_a_stack_matches_each_row(case):
    # the stacked congruence the dual path runs over C's rows gives each
    # row the bits of the single-vector kernel, also through the closed
    # groups' sparse maps; zero stays on the nonnegative slots of the
    # output
    cone = (_closed_cone() if case == "closed" else
            _dense_kkt_program(case).cone)
    scaling = _random_interior_scaling(cone, 3)
    V = np.random.default_rng(4).normal(size=(5, cone.h.size))
    for mode in ("ww", "w", "winv2"):
        factors = scaling.mode(mode)[1]
        stacked = _congruence(cone.groups, factors, V, np.zeros_like(V))
        assert not stacked[:, :cone.n_nonneg].any()
        for row, v in zip(stacked, V):
            single = _congruence(cone.groups, factors, v, np.zeros_like(v))
            assert row.tobytes() == single.tobytes()


def _dual_path_program(case):
    """'moment': the full moment lifting, with bound cuts, of a 9-variable
    box QCQP with a quadratic and an affine equality (54 variables, 45
    nonnegative rows). 'subsets': a 4-variable one lifted over the
    overlapping subsets {0, 1, 2} and {1, 2, 3}, so x1, x2 and their
    products fill a PSD slot in each block."""
    n = 9 if case == "moment" else 4
    rng = np.random.default_rng(31)
    B, C = rng.normal(size=(2, n, n))
    if case == "subsets":
        B[0, 3] = B[3, 0] = C[0, 3] = C[3, 0] = 0.0
    obj = QuadraticFunction(B + B.T, rng.normal(size=n), 0.0)
    eqs = [QuadraticFunction(C + C.T, rng.normal(size=n), -0.1),
           QuadraticFunction(np.zeros((n, n)), np.full(n, 0.5), -0.2)]
    p = QcqpProblem(n, obj, equalities=eqs, lb=-np.ones(n), ub=np.ones(n))
    cfg = (RelaxationConfig(bound_cuts=True) if case == "moment" else
           RelaxationConfig(r=3, subsets=[[0, 1, 2], [1, 2, 3]],
                            bound_cuts=True))
    return build_relaxation(p, cfg)[0]


def _dual_path_cone(case):
    """The cone of `_dual_path_program(case)`."""
    return _dual_path_program(case).cone


@pytest.mark.parametrize("case", ["moment", "subsets"])
def test_dual_path_solve_matches_full_kkt(case):
    # the dual path's (du, dy, dz) at non-identity NT scalings equal the
    # full KKT LU's, with equality and bound-cut rows, and where a variable
    # has a second PSD slot (a row -1 at it, the ratio at the first)
    cone = _dual_path_cone(case)
    assert cone.n_eq == 2
    slots = np.diff(cone.G[cone.n_nonneg:].tocsc().indptr)
    assert slots.min() == 1 and slots.max() == (1 if case == "moment" else 2)
    for seed in range(3):
        scaling = _random_interior_scaling(cone, seed)
        rng = np.random.default_rng(seed)
        rhs = (rng.normal(size=cone.n_vars), rng.normal(size=cone.n_eq),
               rng.normal(size=cone.h.size))
        full = _FullKkt(cone).factor(scaling)
        dual = _DualKkt(cone).factor(scaling)
        assert dual.reg_used == 0.0
        for got, want in zip(dual.solve(*rhs), full.solve(*rhs)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def _dense_full_cone():
    """The cone of the benchmark's dense_full workload: the full moment
    lifting, with bound cuts, of a dense 30-variable box QCQP."""
    inst = perfbench_module("inputs").dense_box_qcqp(0, 0, 30)
    cfg = RelaxationConfig(r=None, bound_cuts=True)
    return build_relaxation(inst.problem, cfg)[0]


def test_kkt_path_chooses_dual(sysid_program, monkeypatch):
    # dense_full's cone: 495 variables, each with a PSD slot, and
    # r = 152 nonnegative rows + 1 constant slot. sysid scatters into few
    # entries of H; the 29-variable cone has 20 variables in no PSD slot,
    # so the sparse path takes it although its block and box rows scatter
    # into more than a tenth of H
    import qcqpen.solver as solver
    cone = _dense_full_cone().cone
    assert (cone.n_vars, cone.n_eq, cone.n_nonneg) == (495, 0, 152)
    assert _kkt_path(cone) == "dual"
    assert _kkt_path(sysid_program.cone) == "sparse"
    n = _dense_kkt_program("full", extra=20).cone.n_vars
    rng = np.random.default_rng(12)
    rows = [(np.arange(n), rng.normal(size=n), 1.0) for _ in range(3)]
    monkeypatch.setattr(solver, "_FULL_KKT_ORDER", 0)
    assert _kkt_path(_dense_kkt_program("full", extra=20, nn=rows).cone) \
        == "sparse"


def test_dual_path_solves_like_dense(monkeypatch):
    # the relaxation of dense_box_qcqp(0, 0, 30) on the dual path and on
    # the forced sparse path, which keeps the two quadratic rows: same
    # status and iterations, and pcost
    import qcqpen.solver as solver
    prog = _dense_full_cone()
    assert _kkt_path(prog.cone) == "dual"
    assert np.count_nonzero(_kept_rows(prog.cone)) == 2
    sol = solve_conic(prog)
    monkeypatch.setattr(solver, "_kkt_path", lambda cone: "sparse")
    c = prog.cone
    ref = solve_conic(ConicProgram(Cone(c.n_vars, c.A, c.b, c.Gn, c.hn,
                                        c.blocks), prog.c, prog.c0))
    assert sol.status == ref.status == "optimal"
    assert sol.iterations == ref.iterations
    assert sol.pcost == pytest.approx(ref.pcost, rel=1e-6)


def test_dense_box_r2_keeps_its_quadratic_rows():
    # dense_box_qcqp(0, 0, 20) under r = 2 blocks without sparsity: its 2
    # quadratic rows (230 nonzeros each, over 230 variables) are kept, and
    # the box and bound-cut rows and the 190 blocks scatter into few
    # entries of H
    inst = perfbench_module("inputs").dense_box_qcqp(0, 0, 20)
    cfg = RelaxationConfig(r=2, sparsity=False, bound_cuts=True)
    prog = build_relaxation(inst.problem, cfg)[0]
    assert prog.cone.n_vars == 230
    assert _kkt_path(prog.cone) == "sparse"
    assert np.count_nonzero(_kept_rows(prog.cone)) == 2
    sol = solve_conic(prog)
    assert sol.status == "optimal"
    assert sol.pcost == pytest.approx(-125.9794365, rel=1e-8)


def test_full_kkt_zero_pivot_ladder(monkeypatch):
    # a duplicated equality row makes the full KKT matrix exactly singular:
    # the ladder shifts it where the LU meets a zero pivot, no warning
    # escapes, and the solve still ends optimal
    import qcqpen.solver as solver
    prog = _lp_fixture(copies=2)
    regs = []
    factor = solver._FullKkt.factor

    def recorded(self, scaling):
        kkt = factor(self, scaling)
        regs.append(kkt.reg_used)
        return kkt
    monkeypatch.setattr(solver._FullKkt, "factor", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_conic(prog)
    assert any(reg > 0.0 for reg in regs)
    assert sol.status == "optimal"
    assert sol.pcost == pytest.approx(1.0, abs=1e-6)


def _dual_reference_matrix(dual, scaling):
    """M = C W'W C' + diag(0, wn^2, 0) by the stacked congruence: W'W
    applied to every row of C densified, then one product with C."""
    Cd = dual.C.toarray()
    wwC = _congruence(dual.groups, scaling.mode("ww")[1], Cd,
                      np.zeros_like(Cd))
    M = dual.C @ wwC.T
    M[dual.nn, dual.nn] += scaling.wn ** 2
    return M


def _dense_box_cone(n, n_quad):
    """The full moment lifting, with bound cuts, of
    dense_box_qcqp(0, 0, n, n_quad): n_quad dense rows in C."""
    inst = perfbench_module("inputs").dense_box_qcqp(0, 0, n, n_quad=n_quad)
    cfg = RelaxationConfig(r=None, bound_cuts=True)
    return build_relaxation(inst.problem, cfg)[0].cone


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", ["moment", "subsets", "dense_full",
                                  "dense_box", "bounds"])
def test_dual_normal_matrix_matches_congruence_reference(case, reverse):
    # M from the sparse rows' slot pairs and the dense rows' congruence
    # equals the stacked congruence of every row, on its lower triangle:
    # with no, one and several dense rows, and over two blocks, where a
    # variable's second slot puts a row across both and cross-block pairs
    # must add nothing. The liftings list the quadratic (dense) rows first;
    # with the rows reversed the dense rows follow sparse ones, so their
    # rows of the lower triangle come from the mirror of M's dense columns.
    # 'bounds' is 'moment' without its equalities
    cone = (_dense_full_cone().cone if case == "dense_full" else
            _dense_box_cone(12, 4) if case == "dense_box" else
            _dual_path_cone("moment" if case == "bounds" else case))
    if case == "bounds":
        cone = Cone(cone.n_vars, None, (), cone.Gn, cone.hn, cone.blocks)
    if reverse:
        cone = Cone(cone.n_vars, cone.A[::-1], cone.b[::-1], cone.Gn[::-1],
                    cone.hn[::-1], cone.blocks)
    dual = _DualKkt(cone)
    assert dual.dense.size == {"moment": 1, "subsets": 1, "dense_full": 2,
                               "dense_box": 4, "bounds": 0}[case]
    assert case == "bounds" or (dual.dense[0] > 0) == reverse
    assert len(cone.blocks) == (2 if case == "subsets" else 1)
    for seed in range(3):
        scaling = _random_interior_scaling(cone, seed)
        M = dual.matrix(scaling)
        ref = _dual_reference_matrix(dual, scaling)
        assert np.max(np.abs(np.tril(M - ref))) <= \
            1e-13 * np.max(np.abs(ref))


def test_dual_path_congruence_only_on_dense_rows(monkeypatch):
    # dense_full's cone: only its 2 quadratic rows, 495 nonzeros each, have
    # more nonzeros than the block's order 31, and only they go through the
    # W'W congruence; every other row of C has at most two. After a
    # factorization and a solve the path holds no array of r x dim floats
    import qcqpen.solver as solver
    cone = _dense_full_cone().cone
    dual = _DualKkt(cone)
    r, dim = dual.C.shape
    assert (r, dim) == (153, 648)
    nnz = np.diff(dual.C.indptr)
    assert nnz[dual.dense].tolist() == [495, 495]
    assert np.delete(nnz, dual.dense).max() == 2
    stacks = []

    def recorded(groups, factors, vec, out):
        if vec.ndim == 2:
            stacks.append(vec.copy())
        return _congruence(groups, factors, vec, out)
    monkeypatch.setattr(solver, "_congruence", recorded)
    kkt = dual.factor(_random_interior_scaling(cone, 0))
    kkt.solve(np.ones(cone.n_vars), np.ones(cone.n_eq), np.ones(dim))
    [stack] = stacks
    assert np.array_equal(stack, dual.C[dual.dense].toarray())
    held = _arrays(list(vars(dual).values()))
    assert held and max(a.size for a in held) < r * dim


def test_dual_kkt_singular_ladder(monkeypatch):
    # a duplicated equality row makes M singular: on the dual path the
    # ladder shifts its diagonal, no warning escapes, and the solve ends
    # optimal at the value of the program without the copy
    import qcqpen.solver as solver
    prog = _dual_path_program("moment")
    c = prog.cone
    cone = Cone(c.n_vars, sp.vstack([c.A, c.A[0]]), np.append(c.b, c.b[0]),
                c.Gn, c.hn, c.blocks)
    monkeypatch.setattr(solver, "_FULL_KKT_ORDER", 0)
    assert _kkt_path(cone) == _kkt_path(c) == "dual"
    regs = []
    factor = solver._DualKkt.factor

    def recorded(self, scaling):
        kkt = factor(self, scaling)
        regs.append(kkt.reg_used)
        return kkt
    monkeypatch.setattr(solver._DualKkt, "factor", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_conic(ConicProgram(cone, prog.c, prog.c0))
    assert any(reg > 0.0 for reg in regs)
    ref = solve_conic(prog)
    assert sol.status == ref.status == "optimal"
    assert sol.pcost == pytest.approx(ref.pcost, rel=1e-6)


def test_refinement_passes_follow_the_factorization(sysid_program,
                                                   monkeypatch):
    # one refinement pass where the factored matrix is positive definite
    # and unshifted: the sparse path's H alone (no equality row left, no
    # row kept, no ladder shift) and the dual path's M at reg_used 0. Two
    # on the full path's indefinite LU, on a quasidefinite augmented
    # matrix and after any ladder shift
    import qcqpen.solver as solver

    def factored(kind, cone, scaling=None):
        if scaling is None:
            scaling = _random_interior_scaling(cone, 3)
        return kind(cone).factor(scaling)
    full = factored(_FullKkt, _dense_kkt_program("full", eq=_EQ_ROWS).cone)
    assert (full.reg_used, full.passes) == (0.0, 2)
    sysid = factored(_SparseKkt, sysid_program.cone)
    assert (sysid.reg_used, sysid.passes) == (0.0, 1)
    left = factored(_SparseKkt, _with_left_equality_row(sysid_program.cone))
    assert left.reg_used == solver._SPARSE_DELTA and left.passes == 2
    cone = _with_dense_rows("full", "between")[0]
    assert _kept_rows(cone).any() and cone.n_eq == 0
    kept = factored(_SparseKkt, cone)
    assert (kept.reg_used, kept.passes) == (0.0, 2)
    cone = _dual_path_cone("moment")
    dual = factored(_DualKkt, cone)
    assert (dual.reg_used, dual.passes) == (0.0, 1)
    # a zero equality row makes M singular, so the ladder shifts it
    cone = Cone(cone.n_vars, sp.vstack([cone.A, sp.csr_matrix(
        (1, cone.n_vars))]), np.append(cone.b, 0.0), cone.Gn, cone.hn,
        cone.blocks)
    dual = factored(_DualKkt, cone)
    assert dual.reg_used > 0.0 and dual.passes == 2
    # variable 2 is in no row, with no row kept and no equality row: H
    # alone is singular, and the ladder shifts it
    monkeypatch.setattr(solver, "_SPARSE_SHARE", 1.0)
    cone = _cone(3, nn=[([0], [-1.0], 0.0), ([0, 1], [-1.0, -1.0], 0.0)])
    pattern = _SparseKkt(cone)
    assert pattern.dim == cone.n_vars
    shifted = pattern.factor(_Scaling(np.ones(2), np.ones(2), []))
    assert shifted.reg_used > 0.0 and shifted.passes == 2


@pytest.mark.parametrize("seed", [0, 1])
def test_non_finite_direction_ends_solve_failed(seed, monkeypatch):
    # the T=20 sysid r=2 relaxation with its KKT solves turned NaN from the
    # 20th on, in iteration 2's corrector: a non-finite direction used to
    # raise LinAlgError out of the solve from the step length's eigvalsh;
    # the loop now stops and reports it
    inst = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01,
                                 seed=seed))
    prog, _ = build_relaxation(inst.problem, RelaxationConfig(r=2))
    nan_direction_from(monkeypatch, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solve_conic(prog)
    assert sol.stop_reason == "solve_failed"


@pytest.mark.parametrize("size", [0, 1, 7, 1000])
@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_norm_is_numpy_norm_bitwise(size, scale):
    # the same sqrt(x.dot(x)) as np.linalg.norm, also where the square
    # underflows to 0 or overflows to inf
    x = np.random.default_rng(size).normal(size=size) * scale
    with np.errstate(over="ignore"):
        want = float(np.linalg.norm(x))
        got = _norm(x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if size and scale == 1e200:
        assert got == np.inf


def _sysid_objectives():
    """Two anchors of the benchmark's sysid lifting (sparse path)."""
    inst = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01, seed=0))
    p = inst.problem
    relaxation = lift(p, RelaxationConfig(r=2), penalized=True)
    progs = [build_penalized(relaxation, x, 40.0)[0]
             for x in (np.zeros(p.n), np.full(p.n, 0.1))]
    return progs[0].cone, [prog.c for prog in progs]


def _full_path_objectives():
    """Two objectives over one 4x4 moment block (full path)."""
    prog = _dense_kkt_program("full")
    return prog.cone, [prog.c, np.abs(prog.c)]


def _solution_bytes(sol):
    return (b"".join(v.tobytes() for v in (sol.u, sol.y, sol.z, sol.s)),
            sol.status, sol.stop_reason, sol.iterations)


@pytest.mark.parametrize("objectives, path", [
    (_sysid_objectives, "sparse"), (_full_path_objectives, "full")])
def test_one_start_per_cone(objectives, path, monkeypatch):
    # the identity scaling's factor, u and s are built once per cone; two
    # objectives solved over one cone give the bits of each solved over a
    # fresh cone
    import qcqpen.solver as solver
    identity_calls = []
    nt_scaling = solver._nt_scaling

    def counted(groups, s, z, l_nn):
        if s is z:       # only the start scales at s = z = e
            identity_calls.append(None)
        return nt_scaling(groups, s, z, l_nn)
    monkeypatch.setattr(solver, "_nt_scaling", counted)
    cone, cs = objectives()
    assert _kkt_path(cone) == path
    shared = [solve_conic(ConicProgram(cone, c)) for c in cs]
    assert len(identity_calls) == 1
    fresh = [solve_conic(ConicProgram(objectives()[0], c)) for c in cs]
    assert len(identity_calls) == 3
    assert [_solution_bytes(sol) for sol in shared] == \
        [_solution_bytes(sol) for sol in fresh]
    assert all(sol.status in OK for sol in shared)
    # the cached start is read-only, and no solution shares its arrays
    kkt, u, s = cone.start
    for arr in (u, s):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        assert not any(np.shares_memory(arr, sol.u) or
                       np.shares_memory(arr, sol.s) for sol in shared)


def _residuals(prog, u, y, z, s):
    """(pres, dres) of an iterate, as solve_conic measures them."""
    cone = prog.cone
    Gx, GTx, Ax, ATx = cone.products
    pres = max(_norm(Ax(u) - cone.b) / (1.0 + _norm(cone.b)),
               _norm(Gx(u) + s - cone.h) / (1.0 + _norm(cone.h)))
    dres = _norm(prog.c + ATx(y) + GTx(z)) / (1.0 + _norm(prog.c))
    return pres, dres


@pytest.mark.parametrize("objectives", [_sysid_objectives,
                                        _full_path_objectives],
                         ids=["sysid", "full"])
def test_cold_solve_keeps_an_interior_restart(objectives):
    # the restart is an iterate strictly inside both cones with both
    # residuals at most _RESTART_RESIDUAL, and no later one: the first
    # iterate that gets there
    cone, cs = objectives()
    prog = ConicProgram(cone, cs[0])
    sol, rows = solve_logged(prog)
    assert sol.status == "optimal"
    u, y, z, s = sol.restart
    assert _cone_margin(cone.groups, cone.n_nonneg, s) > 0
    assert _cone_margin(cone.groups, cone.n_nonneg, z) > 0
    pres, dres = _residuals(prog, u, y, z, s)
    assert max(pres, dres) <= _RESTART_RESIDUAL
    first = next(r for r in rows
                 if max(r["pres"], r["dres"]) <= _RESTART_RESIDUAL)
    assert (pres, dres) == pytest.approx((first["pres"], first["dres"]),
                                         rel=1e-9)
    # a mid-solve iterate, far from the optimum
    assert 0 < first["iter"] < sol.iterations
    assert float(s @ z) > 1e3 * sol.gap


def test_warm_solve_from_a_sysid_restart():
    # round 2 of a sysid run (anchor at round 1's point) started from
    # round 1's restart ends optimal in fewer iterations than cold, at the
    # same optimum; it keeps no restart and writes nothing into its start
    inst = gen_sysid(SysIdParams(n=4, m=3, T=20, o=16, sigma=0.01, seed=0))
    p = inst.problem
    relaxation = lift(p, RelaxationConfig(r=2), penalized=True)
    prog1, emap = build_penalized(relaxation, np.zeros(p.n), 40.0)
    first = solve_conic(prog1)
    assert first.status == "optimal" and first.restart is not None
    prog2, _ = build_penalized(relaxation, extract(first, emap).x, 40.0)
    before = [v.copy() for v in first.restart]
    warm = solve_conic(prog2, start=first.restart)
    cold = solve_conic(prog2)
    assert all(np.array_equal(a, b) for a, b in zip(before, first.restart))
    assert warm.status == cold.status == "optimal"
    assert warm.iterations < cold.iterations
    assert warm.restart is None and cold.restart is not None
    assert warm.pcost == pytest.approx(cold.pcost, rel=1e-5)


def _lapack_cone(m, nb):
    """Two nonnegative rows and one equality over the first variables, then
    nb blocks of order m in which every slot holds a variable of its own
    with coefficient 1: G has full column rank, so the full KKT matrix is
    nonsingular at an interior scaling."""
    ns = m * (m + 1) // 2
    n = nb * ns
    blocks = [PsdBlock.from_entries(m, {
        (a, c): (b * ns + a * (a + 1) // 2 + c, 1.0, 0.0)
        for a in range(m) for c in range(a + 1)}) for b in range(nb)]
    return _cone(n, nn=[([0], [1.0], 1.0), ([0, n - 1], [1.0, -1.0], 2.0)],
                 eq=[(list(range(n)), np.ones(n), 1.0)], blocks=blocks)


def _bits(x):
    """The int64 view of a float array, or of a tuple of them."""
    if isinstance(x, tuple):
        x = np.concatenate(x)
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("nb", [1, 3])
@pytest.mark.parametrize("m", range(1, 10))
def test_lapack_group_kernels_keep_their_bits(m, nb):
    # every kernel on a LAPACK group, against the formulas it computed
    # before it was rewritten with fewer numpy calls (tests/_support):
    # the NT scaling, each mode of W on a vector and on a stack (the dual
    # path's dense rows), the step length of one and of two directions,
    # both Jordan kernels, and the full KKT matrix, factor and solve, bit
    # for bit
    cone = _lapack_cone(m, nb)
    groups, l_nn, dim = cone.groups, cone.n_nonneg, cone.h.size
    [g] = groups
    assert (g.m, g.nb, g.closed) == (m, nb, False)
    rng = np.random.default_rng(10 * m + nb)
    s, z = np.exp(rng.normal(scale=2.0, size=(2, dim)))
    for vec in (s, z):
        B = rng.normal(size=(nb, m, m))
        vec[g.slot] = svec(B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(m))
    scaling = _nt_scaling(groups, s, z, l_nn)
    gd = scaling.groups[0]
    for got, want in zip((gd["R"], gd["Rinv"], gd["lam"]),
                         _support.ref_nt_scaling(g, s, z)):
        assert np.array_equal(_bits(got), _bits(want))
    v, a, b = rng.normal(size=(3, dim))
    V = rng.normal(size=(4, dim))
    for mode in ("w", "wt", "wit", "ww", "winv2"):
        want = _support.ref_apply_w(scaling, groups, l_nn, v, mode)
        assert np.array_equal(_bits(_apply_w(scaling, groups, l_nn, v, mode)),
                              _bits(want))
        want = _support.ref_apply_w(scaling, groups, l_nn, V, mode)
        want[:, :l_nn] = 0.0
        got = _congruence(groups, scaling.mode(mode)[1], V, np.zeros_like(V))
        assert np.array_equal(_bits(got), _bits(want))
    lam = _lambda_vec(scaling, groups, l_nn, dim)
    for dirs in ((a,), (a, b), (b, a), (lam, 2.0 * lam), (a, lam)):
        got = _max_cone_step(groups, scaling, l_nn, *dirs)
        want = _support.ref_max_cone_step(groups, scaling, l_nn, *dirs)
        assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(_jordan_solve(scaling, groups, l_nn, a)),
                          _bits(_support.ref_jordan_solve(scaling, groups,
                                                          l_nn, a)))
    assert np.array_equal(_bits(_jordan_prod(groups, l_nn, a, b)),
                          _bits(_support.ref_jordan_prod(groups, l_nn, a, b)))
    full = _FullKkt(cone)
    K = _support.ref_full_kkt_matrix(cone, scaling)
    assert np.array_equal(_bits(full.matrix(scaling)), _bits(K))
    rhs = (rng.normal(size=cone.n_vars), rng.normal(size=cone.n_eq), v)
    n, o = cone.n_vars, cone.n_vars + cone.n_eq
    assert np.array_equal(_bits(full.factor(scaling).solve(*rhs)),
                          _bits(_support.ref_full_kkt_solve(K, n, o, rhs)))


@pytest.mark.parametrize("where", ["direction", "diagonal", "corner"])
@pytest.mark.parametrize("m", range(1, 10))
def test_step_length_on_a_nan_direction_as_before(m, where):
    # a NaN in a direction on a LAPACK group: the step length raises
    # LinAlgError where the formula it replaced raised (LAPACK's eigvalsh
    # on a block of order 3 or more), and otherwise returns its bits (a
    # direction whose smallest eigenvalue is NaN bounds nothing)
    cone = _lapack_cone(m, 3)
    groups, l_nn, dim = cone.groups, cone.n_nonneg, cone.h.size
    scaling = _random_interior_scaling(cone, seed=m)
    rng = np.random.default_rng(m)
    good, bad = rng.normal(size=(2, dim))
    g = groups[0]
    if where == "direction":
        bad[:] = np.nan
    else:
        # the first or, on order 2 and up, the last off-diagonal slot
        bad[g.slot[1, 0 if where == "diagonal" or m == 1 else -2]] = np.nan
    outcomes = []
    for step in (_max_cone_step, _support.ref_max_cone_step):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                outcomes.append(_bits(step(groups, scaling, l_nn, good,
                                           bad)).tolist())
            except np.linalg.LinAlgError:
                outcomes.append("raised")
    assert outcomes[0] == outcomes[1]
    if where == "direction" and m >= 3:
        assert outcomes[0] == "raised"
