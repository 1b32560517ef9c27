"""Tests of the benchmark's own checks and generators.

    python3 -m pytest perfbench/test_perfbench.py

Each check must pass the right answer and reject a deliberately wrong one;
each generator must give the same instance for the same seed.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
from qcqpen import SysIdParams, gen_sysid  # noqa: E402


@pytest.fixture(scope="module")
def sysid_instance():
    return gen_sysid(SysIdParams(n=4, m=3, T=6, o=4, sigma=0.01, seed=3))


def test_feasibility_check_rejects_a_perturbed_point():
    inst = inputs.feasible_qcqp(0, 0, 4)
    assert checks.feasible(inst, inst.xstar) == []
    A, b, _ = inst.inequalities[0]          # binds at x*
    step = 1e-3 * (A @ inst.xstar + b)
    assert checks.violation(inst, inst.xstar + step) > 1e-6
    assert checks.feasible(inst, inst.xstar + step) != []


def test_feasibility_check_covers_the_box():
    inst = inputs.dense_box_qcqp(0, 0, 5)
    assert checks.feasible(inst, inst.xstar) == []
    x = inst.xstar.copy()
    x[2] = inst.ub[2] + 1e-3
    assert checks.violation(inst, x) > 5e-4


def test_sysid_checks_accept_the_ground_truth(sysid_instance):
    inst = sysid_instance
    x = inst.ground_truth_x()
    assert checks.sysid_feasible(inst, x) == []
    assert checks.sysid_recovery(inst, x) == []
    assert checks.sysid_a_error(inst, x) == 0.0
    assert checks.sysid_objective(inst, x) == pytest.approx(
        np.abs(inst.w_traj).sum())


def test_sysid_feasibility_rejects_a_moved_state_and_a_short_y(
        sysid_instance):
    inst = sysid_instance
    z, A, y, B = inst.unpack(inst.ground_truth_x())
    moved = z.copy()
    moved[inst.observed[0] - 1, 0] += 1e-3
    assert checks.sysid_feasible(inst, inst.pack(moved, A, y, B)) != []
    assert checks.sysid_feasible(inst, inst.pack(z, A, 0.5 * y, B)) != []


def test_recovery_check_rejects_a_wrong_a(sysid_instance):
    inst = sysid_instance
    z, A, y, B = inst.unpack(inst.ground_truth_x())
    wrong = inst.pack(z, A + 0.6, y, B)
    assert checks.sysid_a_error(inst, wrong) == pytest.approx(0.6)
    assert checks.sysid_recovery(inst, wrong) != []


def _table_points(name):
    return [np.array(inputs.ROUND_TABLE[name][i] + (0.0,) * 5)
            for i in range(1, inputs.POLY_ROUNDS + 1)]


def test_table_check_accepts_the_table_and_rejects_a_shifted_row():
    for name in inputs.ROUND_TABLE:
        assert checks.tracks_table(name, _table_points(name)) == []
    xs = _table_points("x2")
    xs[4] = xs[4] + np.array([0.0, 0.06, 0.0, 0, 0, 0, 0, 0])
    assert checks.tracks_table("x2", xs) != []
    xs = _table_points("x3")
    xs[-1] = xs[-1] + 0.011
    assert checks.tracks_table("x3", xs) != []
    assert checks.tracks_table("x1", _table_points("x1")[:-1]) != []


def test_first_tight_rounds_from_the_table():
    assert [checks.table_first_tight_round(n) for n in ("x1", "x2", "x3")] \
        == [2, 9, 4]


def test_original_constraint_check():
    from scipy.optimize import brentq
    a = brentq(lambda t: inputs.poly_constraint(t, 0.0, 0.0), 0.0, 2.0,
               xtol=1e-15)
    assert checks.poly_feasible([a, 0.0, 0.0]) == []
    assert checks.poly_feasible([a + 1e-4, 0.0, 0.0]) != []


def test_descent_check_rejects_a_rise_between_tight_rounds():
    tight = [0.0, 0.0, 0.0]
    assert checks.descent([3.0, 2.0, 2.0], tight, 1e-7) == []
    assert checks.descent([3.0, 2.0, 2.1], tight, 1e-7) != []
    assert checks.descent([3.0, 4.0], [1.0, 0.0], 1e-7) == []
    assert checks.all_tight([0.0, 1e-3], 1e-7) != []
    assert checks.not_below(-1.0, -1.0 + 1e-3, "objective") != []
    assert checks.not_above(1.0, 1.0 - 1e-3, "objective") != []


@pytest.mark.parametrize("make", [
    lambda s: inputs.feasible_qcqp(s, 1, 4),
    lambda s: inputs.dense_box_qcqp(s, 1, 6),
])
def test_generators_repeat_for_a_seed(make):
    a, b, c = make(7), make(7), make(8)
    quads = lambda i: [i.objective] + i.inequalities + i.equalities  # noqa
    for (A1, b1, c1), (A2, b2, c2) in zip(quads(a), quads(b)):
        assert np.array_equal(A1, A2) and np.array_equal(b1, b2) \
            and c1 == c2
    assert np.array_equal(a.xstar, b.xstar)
    assert not np.array_equal(a.objective[0], c.objective[0])


def test_sysid_generator_repeats_for_a_seed():
    p = dict(n=4, m=3, T=6, o=4, sigma=0.01)
    a = gen_sysid(SysIdParams(**p, seed=5))
    b = gen_sysid(SysIdParams(**p, seed=5))
    assert np.array_equal(a.z_traj, b.z_traj)
    assert np.array_equal(a.A_true, b.A_true)
    assert np.array_equal(a.observed, b.observed)
    for qa, qb in zip(a.problem.constraints, b.problem.constraints):
        assert np.array_equal(qa.A, qb.A) and np.array_equal(qa.b, qb.b)
