"""Checks on the program's outputs, computed apart from the program.

Constraint values come from the raw data the generators drew, evaluated
here; the system-identification layout is unpacked here from its
documented definition. Each check returns a list of failure messages, empty
when the output passes.
"""

import numpy as np

from inputs import POLY_ROUNDS, REF_OBJECTIVE, ROUND_TABLE, poly_constraint

FEAS_TOL = 1e-6
# Slack for a rise of the objective between tight rounds: the rounds solve to
# a relative duality gap of at most 1e-8, so 1e-6 relative leaves a margin.
DESCENT_TOL = 1e-6
# Tolerances of acceptance criterion 2b: every round's (a, b, c) within 5e-2
# of the paper's table, round 10 within 1e-2, the final objective within
# 0.2 % of the reference.
TABLE_TOL = 5e-2
TABLE_TOL_LAST = 1e-2
REF_OBJECTIVE_REL = 2e-3
# A table point counts as feasible when the original constraint is within
# this of zero there; rounding the table to four decimals moves g by at most
# 2.6e-3, while the last infeasible table point still gives 0.0987.
TABLE_FEAS_TOL = 1e-2
# Largest |g| at the degree-5 example's final point; the three starts end
# at about 2e-9.
POLY_FEAS_TOL = 1e-5
# Largest scaled A-error |A - A_true|_F / n a sysid estimate may have. The
# generator scales A_true to spectral norm 0.5, so A = 0 is off by at most
# 0.5 / sqrt(n) = 0.25 for n = 4: this guards against a gross error only.
# Criterion 8's bound, 0.02, is a mean over five T = 40 instances after 10
# rounds and does not hold per instance at T = 20.
SYSID_A_ERR_MAX = 0.25


def quad_value(t, x):
    A, b, c = t
    return float(x @ A @ x + 2.0 * b @ x + c)


def violation(inst, x):
    """Largest constraint violation of x, from the instance's raw data."""
    x = np.asarray(x, dtype=float)
    v = [max(quad_value(t, x), 0.0) for t in inst.inequalities]
    v += [abs(quad_value(t, x)) for t in inst.equalities]
    if inst.lb is not None:
        v.append(float(np.max(inst.lb - x, initial=0.0)))
    if inst.ub is not None:
        v.append(float(np.max(x - inst.ub, initial=0.0)))
    return max(v, default=0.0)


def feasible(inst, x):
    v = violation(inst, x)
    return [] if v <= FEAS_TOL else [f"violation {v:.3g} > {FEAS_TOL:g}"]


def not_above(value, reference, what):
    if value <= reference + FEAS_TOL:
        return []
    return [f"{what} {value:.10g} above {reference:.10g}"]


def not_below(value, bound, what):
    if value >= bound - DESCENT_TOL * max(1.0, abs(bound)):
        return []
    return [f"{what} {value:.10g} below the bound {bound:.10g}"]


def descent(values, residuals, tight_tol):
    """The objective does not rise from one tight round to the next."""
    out = []
    for i in range(1, len(values)):
        if residuals[i - 1] < tight_tol and residuals[i] < tight_tol:
            slack = DESCENT_TOL * max(1.0, abs(values[i - 1]))
            if values[i] > values[i - 1] + slack:
                out.append(f"objective rose from {values[i - 1]:.10g} to "
                           f"{values[i]:.10g} at round {i + 1}")
    return out


def all_tight(residuals, tight_tol):
    loose = [i + 1 for i, r in enumerate(residuals) if not r < tight_tol]
    return [f"rounds {loose} not tight"] if loose else []


# ---------------------------------------------------------------------------
# system identification


def sysid_unpack(inst, x):
    """(z, A, y, B) from the layout [z; vec A; alpha y; alpha vec B]."""
    p = inst.params
    n, m, T = p.n, p.m, p.T
    x = np.asarray(x, dtype=float)
    k = T * n
    z = x[:k].reshape(T, n)
    A = x[k:k + n * n].reshape(n, n).T
    k += n * n
    y = x[k:k + (T - 1) * n].reshape(T - 1, n) / p.alpha
    k += (T - 1) * n
    B = x[k:k + n * m].reshape(m, n).T / p.alpha
    return z, A, y, B


def sysid_objective(inst, x):
    return float(sysid_unpack(inst, x)[2].sum())


def sysid_feasible(inst, x):
    """Observed states equal the trajectory; y covers every residual."""
    z, A, y, B = sysid_unpack(inst, x)
    obs = np.asarray(inst.observed) - 1
    out = []
    dz = float(np.max(np.abs(z[obs] - inst.z_traj[obs])))
    if dz > FEAS_TOL:
        out.append(f"observed states off by {dz:.3g}")
    r = z[1:] - z[:-1] @ A.T - inst.u_traj[:-1] @ B.T
    short = float(np.max(np.abs(r) - y))
    if short > FEAS_TOL:
        out.append(f"y falls short of |residual| by {short:.3g}")
    return out


def sysid_a_error(inst, x):
    A = sysid_unpack(inst, x)[1]
    return float(np.linalg.norm(A - inst.A_true)) / inst.params.n


def sysid_recovery(inst, x):
    err = sysid_a_error(inst, x)
    if err <= SYSID_A_ERR_MAX:
        return []
    return [f"A-error {err:.4g} > {SYSID_A_ERR_MAX:g}"]


# ---------------------------------------------------------------------------
# degree-5 example


def table_first_tight_round(name):
    """First round whose table point satisfies g to TABLE_FEAS_TOL."""
    return next((i for i, pt in sorted(ROUND_TABLE[name].items())
                 if abs(poly_constraint(*pt)) <= TABLE_FEAS_TOL), None)


def tracks_table(name, xs):
    """Criterion 2b: each round's (a, b, c) near the paper's table."""
    out = []
    if len(xs) != POLY_ROUNDS:
        return [f"{len(xs)} rounds, expected {POLY_ROUNDS}"]
    for i, ref in ROUND_TABLE[name].items():
        dev = float(np.max(np.abs(np.asarray(xs[i - 1][:3]) - ref)))
        tol = TABLE_TOL_LAST if i == POLY_ROUNDS else TABLE_TOL
        if dev > tol:
            out.append(f"round {i} off the table by {dev:.3g}")
    obj = float(xs[-1][0])
    if abs(obj - REF_OBJECTIVE) > REF_OBJECTIVE_REL * abs(REF_OBJECTIVE):
        out.append(f"final objective {obj:.5g}, reference {REF_OBJECTIVE}")
    return out


def poly_feasible(x):
    g = poly_constraint(*np.asarray(x, dtype=float)[:3])
    return [] if abs(g) <= POLY_FEAS_TOL else [f"original constraint {g:.3g}"]
