"""Workload inputs: the benchmark's own generators and reference data.

They live here rather than in tests/ so that editing a test cannot change a
workload. Every generator takes the workload seed and an instance index and
keeps the raw (A, b, c) data it drew next to the QcqpProblem built from it,
so that the checks can evaluate constraints without going through the
program's QuadraticFunction or QcqpProblem.violation.
"""

from dataclasses import dataclass, field

import numpy as np

from qcqpen import QcqpProblem, QuadraticFunction


@dataclass
class Instance:
    """A QCQP plus the data it was built from.

    objective, inequalities and equalities hold raw (A, b, c) triples with
    q(x) = x'Ax + 2b'x + c. xstar is a known feasible point, when there is
    one.
    """

    problem: QcqpProblem
    objective: tuple
    inequalities: list
    equalities: list = field(default_factory=list)
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    xstar: np.ndarray | None = None


def _problem(n, objective, inequalities, equalities=(), lb=None, ub=None,
             name=""):
    def quad(t):
        return QuadraticFunction(*t)
    return QcqpProblem(n=n, objective=quad(objective),
                       inequalities=[quad(t) for t in inequalities],
                       equalities=[quad(t) for t in equalities],
                       lb=lb, ub=ub, name=name)


def _rand_quad(rng, n):
    M = rng.normal(size=(n, n))
    return 0.5 * (M + M.T) / np.sqrt(n), rng.normal(size=n)


def _through(A, b, x, margin=0.0):
    """(A, b, c) with q(x) = -margin, so the constraint binds at x when 0."""
    return A, b, -float(x @ A @ x + 2.0 * b @ x) - margin


def feasible_qcqp(seed, index, n):
    """Random n-variable QCQP with a known feasible point x* satisfying LICQ.

    The acceptance suite's criterion-3 recipe with n fixed by the caller:
    one or two inequalities bind at x*, one or two more hold with a margin,
    and for n >= 3 there may be one equality through x*. Draws are redone
    until the binding gradients are numerically independent.
    """
    rng = np.random.default_rng([seed, index, n])
    while True:
        xstar = rng.normal(size=n)
        n_eq = int(rng.integers(0, 2)) if n >= 3 else 0
        n_bind = int(rng.integers(1, 3)) if n >= 4 else 1
        ineqs = [_through(*_rand_quad(rng, n), xstar) for _ in range(n_bind)]
        binding = list(ineqs)
        ineqs += [_through(*_rand_quad(rng, n), xstar,
                           margin=0.5 + rng.random())
                  for _ in range(int(rng.integers(1, 3)))]
        eqs = [_through(*_rand_quad(rng, n), xstar) for _ in range(n_eq)]
        binding += eqs
        J = np.array([2.0 * (A @ xstar + b) for A, b, _ in binding])
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] > 1e-3 * max(sv[0], 1.0):
            break
    A0, b0 = _rand_quad(rng, n)
    objective = (A0, b0, 0.0)
    return Instance(_problem(n, objective, ineqs, eqs,
                             name=f"feas_{seed}_{index}"),
                    objective, ineqs, eqs, xstar=xstar)


def dense_box_qcqp(seed, index, n, n_quad=2):
    """Dense, nonconvex, box-bounded QCQP on n variables.

    Every matrix is a dense random symmetric one, so the objective and the
    constraints are indefinite. The n_quad quadratic inequalities hold with
    a margin at an interior anchor z, which keeps the feasible set
    nonempty; the box [-h, h] with h in [1, 2) bounds it.
    """
    rng = np.random.default_rng([seed, index, n])
    half = 1.0 + rng.random(n)
    z = rng.uniform(-0.3, 0.3, size=n) * half
    ineqs = [_through(*_rand_quad(rng, n), z, margin=0.5 + rng.random())
             for _ in range(n_quad)]
    A0, b0 = _rand_quad(rng, n)
    objective = (A0, b0, 0.0)
    return Instance(_problem(n, objective, ineqs, lb=-half, ub=half,
                             name=f"box_{seed}_{index}"),
                    objective, ineqs, lb=-half, ub=half, xstar=z)


# ---------------------------------------------------------------------------
# The paper's degree-5 example: text, starts and per-round reference table

POLY_EXAMPLE = ("min a st a^5 - b^4 - c^4 + 2*a^3 + 2*a^2*b"
                " - 2*a*b^2 + 6*a*b*c - 2 = 0")
POLY_ETA = 0.025
POLY_ROUNDS = 10


def poly_constraint(a, b, c):
    """The example's original constraint g(a, b, c) = 0, written out."""
    return (a ** 5 - b ** 4 - c ** 4 + 2 * a ** 3 + 2 * a ** 2 * b
            - 2 * a * b ** 2 + 6 * a * b * c - 2)


# Starting points in the reformulation's variable order
# (a, b, c, a^2, b^2, c^2, a*b, a^3): x2 is (-3, 0, 2) lifted.
POLY_STARTS = {
    "x1": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "x2": (-3.0, 0.0, 2.0, 9.0, 0.0, 4.0, 0.0, -27.0),
    "x3": (0.0, 4.0, 0.0, 0.0, 16.0, 0.0, 0.0, 0.0),
}

# (a, b, c) after each round, eta = 0.025, from the paper
ROUND_TABLE = {
    "x1": {1: (-1.2739, 0.6601, -0.4697), 2: (-1.5173, 1.1445, -1.0128),
           3: (-1.6882, 1.3773, -1.2015), 4: (-1.8021, 1.5739, -1.3561),
           5: (-1.8824, 1.7447, -1.4873), 6: (-1.9386, 1.8930, -1.5992),
           7: (-1.9760, 2.0180, -1.6923), 8: (-1.9985, 2.1175, -1.7656),
           9: (-2.0104, 2.1907, -1.8193), 10: (-2.0160, 2.2408, -1.8559)},
    "x2": {1: (-2.5377, 1.2831, -0.7380), 2: (-2.4389, 2.0715, -1.3946),
           3: (-2.2889, 2.2685, -1.7098), 4: (-2.1878, 2.3416, -1.8442),
           5: (-2.1194, 2.3621, -1.9007), 6: (-2.0733, 2.3611, -1.9250),
           7: (-2.0423, 2.3526, -1.9352), 8: (-2.0214, 2.3426, -1.9393),
           9: (-2.0197, 2.3352, -1.9302), 10: (-2.0198, 2.3304, -1.9240)},
    "x3": {1: (-1.5721, 2.6848, -0.9492), 2: (-1.5749, 2.7588, -1.3854),
           3: (-1.6678, 2.6583, -1.5228), 4: (-1.8322, 2.6083, -1.5587),
           5: (-1.9460, 2.5261, -1.6624), 6: (-2.0002, 2.4391, -1.7847),
           7: (-2.0156, 2.3824, -1.8598), 8: (-2.0189, 2.3532, -1.8938),
           9: (-2.0196, 2.3387, -1.9079), 10: (-2.0197, 2.3313, -1.9135)},
}
REF_OBJECTIVE = -2.0198
