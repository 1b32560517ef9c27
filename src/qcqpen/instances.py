"""Instance I/O: QPLIB-subset parsing, a native JSON problem format,
system-identification instance generation, and results CSV output.

QPLIB subset. `parse_qplib` reads continuous QCQP instances (problem
type third character C). The format stores the objective as
0.5 x'Qx + b'x + c and constraints as cl <= 0.5 x'Qx + b'x <= cu, with
Hessian entries listed once for the lower triangle; both are converted
to the q(x) = x'Ax + 2b'x + c convention used everywhere else (A = Q/2).
Two-sided constraint ranges become two inequality rows, equalities
(cl = cu) one equality row, and maximization is handled by negating the
objective. Integer problem types are rejected.

Native format. `problem_to_json` / `problem_from_json` serialize a
QcqpProblem losslessly (floats survive a round trip bit for bit; infinite
bounds are stored as nulls), versioned under "format"/"version". Version 2
writes each quadratic as it is stored, {"terms": [rows, cols, vals],
"linear": [idx, vals], "c": c}, and reads it through `from_sparse`.
Version 1, still read, held a dense A and b; its zeros come back +0.0.

System identification. `gen_sysid` builds a least-absolute-value
estimation QCQP for a linear system z[t+1] = A z[t] + B u[t] + w[t]
with partially observed states: minimize sum_t 1'y[t] subject to
y[t] >= +-(z[t+1] - A z[t] - B u[t]) and z[t] fixed at observed times.
The decision vector is [z(1..T); vec(A); alpha*y(1..T-1); alpha*vec(B)]
where alpha preconditions the slack and B blocks. Randomness comes from
a counter-based generator (Philox) so a seed pins the instance bytes on
every platform.
"""

from dataclasses import dataclass
import json
import logging

import numpy as np

from .polyopt import parse_poly, reformulate
from .quadratics import QuadraticFunction, QcqpProblem
from .sequential import gap_percent

_log = logging.getLogger("qcqpen")


# ---------------------------------------------------------------------------
# QPLIB subset parser


class QplibParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedProblemError(QplibParseError):
    """Problem type outside the continuous QCQP subset."""


class _Lines:
    """Token cursor over the file; '!' starts a comment, blanks skipped."""

    def __init__(self, text: str):
        self.rows = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("!", 1)[0].strip()
            if body:
                self.rows.append((no, body))
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.rows)

    def next_line(self, what: str):
        if self.at_end():
            raise QplibParseError(f"unexpected end of file, expected {what}",
                                  self.rows[-1][0] + 1 if self.rows else 1)
        no, body = self.rows[self.pos]
        self.pos += 1
        return no, body

    def take_int(self, what: str) -> int:
        no, body = self.next_line(what)
        tok = body.split()[0]
        try:
            return int(tok)
        except ValueError:
            raise QplibParseError(f"expected integer {what}, got {tok!r}", no)

    def take_float(self, what: str) -> float:
        no, body = self.next_line(what)
        tok = body.split()[0]
        try:
            return float(tok)
        except ValueError:
            raise QplibParseError(f"expected number {what}, got {tok!r}", no)

    def take_fields(self, count: int, what: str):
        no, body = self.next_line(what)
        toks = body.split()
        if len(toks) < count:
            raise QplibParseError(
                f"expected {count} fields for {what}, got {len(toks)}", no)
        return no, toks[:count]


def _index(tok: str, upper: int, what: str, no: int) -> int:
    try:
        i = int(tok)
    except ValueError:
        raise QplibParseError(f"bad {what} index {tok!r}", no)
    if not 1 <= i <= upper:
        raise QplibParseError(f"{what} index {i} out of range 1..{upper}", no)
    return i - 1


def _value(tok: str, what: str, no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise QplibParseError(f"bad {what} value {tok!r}", no)


def _defaulted_vector(lines: _Lines, n: int, what: str,
                      index_name: str) -> np.ndarray:
    """QPLIB block: default value, count of non-defaults, then (i v) lines."""
    default = lines.take_float(f"default {what}")
    out = np.full(n, default)
    k = lines.take_int(f"number of non-default {what}")
    if not 0 <= k <= n:
        raise QplibParseError(f"non-default {what} count {k} out of range",
                              lines.rows[lines.pos - 1][0])
    for _ in range(k):
        no, (si, sv) = lines.take_fields(2, what)
        out[_index(si, n, index_name, no)] = _value(sv, what, no)
    return out


def _skip_defaulted_block(lines: _Lines, what: str):
    """Parse-and-ignore a trailing default/count/entries block; EOF is fine."""
    if lines.at_end():
        return False
    lines.take_float(f"default {what}")
    k = lines.take_int(f"number of non-default {what}")
    for _ in range(max(k, 0)):
        lines.take_fields(2, what)
    return True


def parse_qplib(text: str) -> QcqpProblem:
    """Parse a continuous QPLIB instance into a QcqpProblem."""
    lines = _Lines(text)
    _, name = lines.next_line("problem name")
    no, ptype = lines.next_line("problem type")
    ptype = ptype.split()[0].upper()
    if len(ptype) != 3 or ptype[0] not in "LDCQ" or ptype[1] not in "NBLDCQ":
        raise QplibParseError(f"unrecognized problem type {ptype!r}", no)
    if ptype[2] != "C":
        raise UnsupportedProblemError(
            f"problem type {ptype}: integer variables are not supported", no)
    has_cons = ptype[1] in "LDCQ"

    no, sense = lines.next_line("objective sense")
    sense = sense.split()[0].lower()
    if sense not in ("minimize", "maximize"):
        raise QplibParseError(f"bad objective sense {sense!r}", no)

    n = lines.take_int("number of variables")
    if n < 1:
        raise QplibParseError("number of variables must be positive")
    m = lines.take_int("number of constraints") if has_cons else 0
    if m < 0:
        raise QplibParseError("negative constraint count")

    # objective: 0.5 x'Qx + b'x + c, stored lower triangle of Q, listed as
    # A = Q/2's entries (i, j, v/2) and, off the diagonal, (j, i, v/2)
    Q0 = []
    for _ in range(lines.take_int("objective Hessian entry count")):
        no, (si, sj, sv) = lines.take_fields(3, "objective Hessian entry")
        i = _index(si, n, "row", no)
        j = _index(sj, n, "column", no)
        v = _value(sv, "Hessian", no)
        Q0 += [(i, j, 0.5 * v), (j, i, 0.5 * v)][:1 + (i != j)]
    b0 = 0.5 * _defaulted_vector(lines, n, "objective linear coefficient",
                                 "variable")
    c0 = lines.take_float("objective constant")

    qQ = [[] for _ in range(m)]
    qb = [[] for _ in range(m)]
    if has_cons:
        for _ in range(lines.take_int("constraint Hessian entry count")):
            no, (sk, si, sj, sv) = lines.take_fields(
                4, "constraint Hessian entry")
            k = _index(sk, m, "constraint", no)
            i = _index(si, n, "row", no)
            j = _index(sj, n, "column", no)
            v = _value(sv, "Hessian", no)
            qQ[k] += [(i, j, 0.5 * v), (j, i, 0.5 * v)][:1 + (i != j)]
        for _ in range(lines.take_int("constraint linear entry count")):
            no, (sk, si, sv) = lines.take_fields(3, "constraint linear entry")
            k = _index(sk, m, "constraint", no)
            i = _index(si, n, "variable", no)
            qb[k].append((i, 0.5 * _value(sv, "linear coefficient", no)))

    infinity = lines.take_float("infinity threshold")

    def definite(v: float, sign: float) -> float:
        return sign * np.inf if abs(v) >= infinity else v

    if has_cons:
        cl = _defaulted_vector(lines, m, "constraint lower limit",
                               "constraint")
        cu = _defaulted_vector(lines, m, "constraint upper limit",
                               "constraint")
    lb = _defaulted_vector(lines, n, "variable lower bound", "variable")
    ub = _defaulted_vector(lines, n, "variable upper bound", "variable")
    lb = np.array([definite(v, -1.0) for v in lb])
    ub = np.array([definite(v, +1.0) for v in ub])

    # trailing starting-point and name blocks are irrelevant here
    for what in ("starting x", "starting y", "starting z"):
        if not _skip_defaulted_block(lines, what):
            break
    while not lines.at_end():
        lines.next_line("trailing block")

    ineqs, eqs = [], []
    quad = QuadraticFunction.from_sparse
    for k in range(m):
        lo = definite(cl[k], -1.0)
        hi = definite(cu[k], +1.0)
        if lo == -np.inf and hi == np.inf:
            continue
        rows, cols, vals = np.reshape(qQ[k], (-1, 3)).T
        idx, lin = np.reshape(qb[k], (-1, 2)).T
        if lo == hi:
            eqs.append(quad(n, rows, cols, vals, (idx, lin), -lo))
            continue
        if hi < np.inf:
            ineqs.append(quad(n, rows, cols, vals, (idx, lin), -hi))
        if lo > -np.inf:
            ineqs.append(quad(n, rows, cols, -vals, (idx, -lin), lo))

    rows, cols, vals = np.reshape(Q0, (-1, 3)).T
    if sense == "maximize":
        vals, b0, c0 = -vals, -b0, -c0

    return QcqpProblem(
        n=n,
        objective=QuadraticFunction.from_entries(rows, cols, vals, b0, c0),
        inequalities=ineqs,
        equalities=eqs,
        lb=None if np.all(lb == -np.inf) else lb,
        ub=None if np.all(ub == np.inf) else ub,
        name=name.split()[0] if name.split() else "",
    )


# ---------------------------------------------------------------------------
# native JSON problem format

_FORMAT = "qcqpen-problem"
_VERSION = 2


def _quad_to_obj(q: QuadraticFunction) -> dict:
    return {"terms": [a.tolist() for a in q.terms],
            "linear": [a.tolist() for a in q.linear], "c": q.c}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_list(x, item=_is_number, count=None) -> bool:
    """x is a JSON list of `count` values (any count if None), each of
    which item() accepts."""
    return (isinstance(x, list) and count in (None, len(x))
            and all(map(item, x)))


_REQUIRED = object()


def _field(obj: dict, key: str, ok, what: str, where: str,
           default=_REQUIRED):
    """obj[key], or `default` when the key is absent and a default is
    given; ValueError naming the field when it is missing or ok() rejects
    its JSON value, which must be `what`."""
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{where} has no field {key!r}")
    if not ok(value):
        raise ValueError(f"{where} field {key!r} must be {what}")
    return value


def _quad_from_v1(obj: dict, n: int, where: str) -> QuadraticFunction:
    return QuadraticFunction(
        _field(obj, "A", lambda x: _is_list(x, _is_list),
               "a list of lists of numbers", where),
        _field(obj, "b", _is_list, "a list of numbers", where),
        _field(obj, "c", _is_number, "a number", where))


def _quad_from_v2(obj: dict, n: int, where: str) -> QuadraticFunction:
    r, c, v = map(np.asarray, _field(obj, "terms",
                                     lambda x: _is_list(x, _is_list, 3),
                                     "three lists of numbers", where))
    if not r.shape == c.shape == v.shape:
        raise ValueError("terms arrays of unequal length in JSON problem")
    # each off-diagonal term listed at (i, j) and (j, i): v + v halves to v
    off = r != c
    return QuadraticFunction.from_sparse(
        n, np.concatenate([r, c[off]]), np.concatenate([c, r[off]]),
        np.concatenate([v, v[off]]),
        _field(obj, "linear", lambda x: _is_list(x, _is_list, 2),
               "two lists of numbers", where),
        _field(obj, "c", _is_number, "a number", where))


def _bound_to_list(v, sign: float):
    if v is None:
        return None
    return [None if x == sign * np.inf else float(x) for x in v]


def _bound_from_list(lst, sign: float):
    if lst is None:
        return None
    return np.array([sign * np.inf if x is None else float(x) for x in lst])


def problem_to_json(p: QcqpProblem, indent: int | None = None) -> str:
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "name": p.name,
        "n": p.n,
        "objective": _quad_to_obj(p.objective),
        "inequalities": [_quad_to_obj(q) for q in p.inequalities],
        "equalities": [_quad_to_obj(q) for q in p.equalities],
        "lb": _bound_to_list(p.lb, -1.0),
        "ub": _bound_to_list(p.ub, +1.0),
    }
    return json.dumps(doc, indent=indent, allow_nan=False) + "\n"


def problem_from_json(text: str) -> QcqpProblem:
    return _problem_from_doc(json.loads(text))


def _problem_from_doc(doc) -> QcqpProblem:
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document")
    version = doc.get("version")
    if version not in (1, _VERSION):
        raise ValueError(f"unsupported {_FORMAT} version {version}")
    read = _quad_from_v1 if version == 1 else _quad_from_v2
    n = int(_field(doc, "n", lambda x: _is_number(x) and x >= 0 and (
        isinstance(x, int) or x.is_integer()), "a nonnegative integer",
        "problem"))

    def quads(key):
        objs = _field(doc, key, lambda x: _is_list(
            x, lambda o: isinstance(o, dict)), "a list of objects", "problem")
        return [read(obj, n, f"{key}[{k}]") for k, obj in enumerate(objs)]

    def bound(key, sign):
        return _bound_from_list(_field(
            doc, key, lambda x: x is None or _is_list(
                x, lambda e: e is None or _is_number(e)),
            "null or a list of numbers and nulls", "problem", None), sign)

    return QcqpProblem(
        n=n,
        objective=read(_field(doc, "objective",
                              lambda x: isinstance(x, dict), "an object",
                              "problem"), n, "objective"),
        inequalities=quads("inequalities"),
        equalities=quads("equalities"),
        lb=bound("lb", -1.0),
        ub=bound("ub", +1.0),
        name=_field(doc, "name", lambda x: isinstance(x, str), "a string",
                    "problem", ""),
    )


def load_problem(path: str) -> QcqpProblem:
    """Load a problem file, sniffing its format from path and content.

    A .poly file, or text that starts with `min`, is the polynomial grammar,
    reformulated as a QCQP the way `reformulate` does. Text that starts with
    `{` is a native problem or sysid JSON document (the sysid instance's
    problem is returned). Anything else is parsed as QPLIB.
    """
    with open(path) as fh:
        text = fh.read()
    head = text.lstrip()
    if path.endswith(".poly") or head.startswith("min"):
        pp = parse_poly(text)
        prob, _ = reformulate(pp)
        _log.info("polynomial problem: %d variables lifted to %d", pp.n, prob.n)
        return prob
    if head.startswith("{"):
        doc = json.loads(text)
        if isinstance(doc, dict) and doc.get("format") == "qcqpen-sysid":
            return _sysid_from_doc(doc).problem
        return _problem_from_doc(doc)
    return parse_qplib(text)


# ---------------------------------------------------------------------------
# system identification instances


@dataclass
class SysIdParams:
    n: int                  # state dimension
    m: int                  # input dimension
    T: int                  # horizon
    o: int                  # number of observed states
    sigma: float            # disturbance standard deviation
    alpha: float = 1e-3     # preconditioning on y and vec(B) slots
    seed: int = 0

    def __post_init__(self):
        if min(self.n, self.m) < 1 or self.T < 2:
            raise ValueError("need n, m >= 1 and T >= 2")
        if not 1 <= self.o <= self.T:
            raise ValueError(f"observed count o={self.o} outside 1..T={self.T}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def n_vars(self) -> int:
        n, m, T = self.n, self.m, self.T
        return T * n + n * n + (T - 1) * n + n * m

    def label(self) -> str:
        return (f"sysid_n{self.n}_m{self.m}_T{self.T}_o{self.o}"
                f"_sig{self.sigma:g}_seed{self.seed}")


@dataclass
class SysIdInstance:
    """Generated estimation QCQP plus the ground truth it was built from.

    Variable layout: [z[1]; ...; z[T]; vec(A); alpha*y[1]; ...;
    alpha*y[T-1]; alpha*vec(B)], vec() in column-major order.
    """

    params: SysIdParams
    problem: QcqpProblem
    A_true: np.ndarray           # (n, n), largest singular value 0.5
    B_true: np.ndarray           # (n, m)
    u_traj: np.ndarray           # (T, m) known inputs
    z_traj: np.ndarray           # (T, n) simulated states
    w_traj: np.ndarray           # (T-1, n) disturbances
    observed: np.ndarray         # sorted 1-based observation times

    # -- slot arithmetic ---------------------------------------------------
    def z_off(self, tau: int) -> int:
        return (tau - 1) * self.params.n

    @property
    def a_off(self) -> int:
        return self.params.T * self.params.n

    def y_off(self, tau: int) -> int:
        p = self.params
        return p.T * p.n + p.n * p.n + (tau - 1) * p.n

    @property
    def b_off(self) -> int:
        p = self.params
        return p.T * p.n + p.n * p.n + (p.T - 1) * p.n

    def pack(self, z, A, y, B) -> np.ndarray:
        """Assemble the decision vector (applies the alpha scaling)."""
        p = self.params
        return np.concatenate([
            np.asarray(z, dtype=float).reshape(p.T * p.n),
            np.asarray(A, dtype=float).flatten(order="F"),
            p.alpha * np.asarray(y, dtype=float).reshape((p.T - 1) * p.n),
            p.alpha * np.asarray(B, dtype=float).flatten(order="F"),
        ])

    def unpack(self, x):
        """Split a decision vector into (z, A, y, B), undoing alpha."""
        p = self.params
        x = np.asarray(x, dtype=float)
        z = x[:p.T * p.n].reshape(p.T, p.n)
        A = x[self.a_off:self.a_off + p.n * p.n].reshape(
            (p.n, p.n), order="F")
        y = x[self.y_off(1):self.y_off(1) + (p.T - 1) * p.n].reshape(
            p.T - 1, p.n) / p.alpha
        B = x[self.b_off:].reshape((p.n, p.m), order="F") / p.alpha
        return z, A, y, B

    def ground_truth_x(self) -> np.ndarray:
        """Feasible point: true system, simulated states, y = |w|."""
        return self.pack(self.z_traj, self.A_true,
                         np.abs(self.w_traj), self.B_true)

    def recovery_errors(self, x):
        """Scaled Frobenius errors (|A - A_true|_F / n, |B - B_true|_F / sqrt(mn))."""
        p = self.params
        _, A, _, B = self.unpack(x)
        a_err = float(np.linalg.norm(A - self.A_true)) / p.n
        b_err = float(np.linalg.norm(B - self.B_true)) / np.sqrt(p.m * p.n)
        return a_err, b_err


def _assemble_sysid(params: SysIdParams, A_true, B_true, u, z, w,
                    observed) -> SysIdInstance:
    n, m, T, alpha = params.n, params.m, params.T, params.alpha
    N = params.n_vars
    inst = SysIdInstance(params=params, problem=None, A_true=A_true,
                         B_true=B_true, u_traj=u, z_traj=z, w_traj=w,
                         observed=observed)

    # y[t] >= s*(z[t+1] - A z[t] - B u[t]) for s = +1 then s = -1,
    # rows ordered t-major, state-index minor
    quad = QuadraticFunction.from_sparse
    ineqs = []
    j, l = np.arange(n), np.arange(m)
    for s in (1.0, -1.0):
        for tau in range(1, T):
            for i in range(n):
                # z[tau+1][i], B[i, l] at slot b_off + l n + i, y[tau][i]
                idx = np.r_[inst.z_off(tau + 1) + i, inst.b_off + l * n + i,
                            inst.y_off(tau) + i]
                ell = np.r_[s, -s * u[tau - 1] / alpha, -1.0 / alpha]
                # -s A[i, j] z[tau][j], A[i, j] at slot a_off + j n + i
                ineqs.append(quad(N, inst.a_off + j * n + i,
                                  inst.z_off(tau) + j, np.full(n, -s),
                                  (idx, 0.5 * ell)))

    eqs = [quad(N, [], [], [], ([inst.z_off(tau) + i], [0.5]), -z[tau - 1, i])
           for tau in observed.tolist() for i in range(n)]

    y = np.arange(inst.y_off(1), inst.b_off)
    inst.problem = QcqpProblem(
        n=N, objective=quad(N, [], [], [], (y, np.full(y.size, 0.5 / alpha))),
        inequalities=ineqs, equalities=eqs, name=params.label())
    return inst


def gen_sysid(params: SysIdParams) -> SysIdInstance:
    """Generate a system-identification instance.

    Draw order (fixed, so seeds pin the instance): A entries, B, inputs
    u[1..T], initial state z[1], disturbances w[1..T-1], observation
    times. A is rescaled to largest singular value 0.5; everything else
    is standard normal (w scaled by sigma). Time 1 is always observed;
    the remaining o-1 observation times are a uniform draw without
    replacement from 2..T.
    """
    n, m, T, o = params.n, params.m, params.T, params.o
    rng = np.random.Generator(np.random.Philox(params.seed))

    A = rng.standard_normal((n, n))
    A *= 0.5 / np.linalg.svd(A, compute_uv=False)[0]
    B = rng.standard_normal((n, m))
    u = rng.standard_normal((T, m))
    z = np.zeros((T, n))
    z[0] = rng.standard_normal(n)
    w = params.sigma * rng.standard_normal((T - 1, n))
    for tau in range(T - 1):
        z[tau + 1] = A @ z[tau] + B @ u[tau] + w[tau]
    rest = rng.choice(np.arange(2, T + 1), size=o - 1, replace=False)
    observed = np.sort(np.concatenate([[1], rest])).astype(int)

    return _assemble_sysid(params, A, B, u, z, w, observed)


def sysid_to_json(inst: SysIdInstance, indent: int | None = None) -> str:
    p = inst.params
    doc = {
        "format": "qcqpen-sysid",
        "version": 1,
        "params": {"n": p.n, "m": p.m, "T": p.T, "o": p.o,
                   "sigma": p.sigma, "alpha": p.alpha, "seed": p.seed},
        "A_true": inst.A_true.tolist(),
        "B_true": inst.B_true.tolist(),
        "u_traj": inst.u_traj.tolist(),
        "z_traj": inst.z_traj.tolist(),
        "w_traj": inst.w_traj.tolist(),
        "observed": inst.observed.tolist(),
    }
    return json.dumps(doc, indent=indent, allow_nan=False) + "\n"


def sysid_from_json(text: str) -> SysIdInstance:
    return _sysid_from_doc(json.loads(text))


def _sysid_from_doc(doc) -> SysIdInstance:
    if not isinstance(doc, dict) or doc.get("format") != "qcqpen-sysid":
        raise ValueError("not a qcqpen-sysid document")
    if doc.get("version") != 1:
        raise ValueError(f"unsupported qcqpen-sysid version {doc.get('version')}")
    params = SysIdParams(**doc["params"])
    arrays = [np.asarray(doc[key], dtype=float)
              for key in ("A_true", "B_true", "u_traj", "z_traj", "w_traj")]
    return _assemble_sysid(params, *arrays,
                           np.asarray(doc["observed"], dtype=int))


# ---------------------------------------------------------------------------
# results output


def _ub_round(trace):
    """Round whose objective is reported as the upper bound."""
    if trace.i_stop is not None:
        want = trace.i_stop
    elif trace.i_feas is not None:
        want = trace.rounds[-1].i
    else:
        return None
    for r in trace.rounds:
        if r.i == want:
            return r
    return None


def write_results(traces, refs=None) -> str:
    """Summary CSV, one row per trace.

    Columns: instance label, eta, first tight round, stopping round,
    cumulative solve time, upper bound (objective at the stopping round,
    or at the final round when no stop fired), and the optimality gap in
    percent when a reference objective is supplied. `refs` maps trace
    labels to reference values (or is a list aligned with `traces`).
    """
    lines = ["instance,eta,i_feas,i_stop,time_s,ub,gap_pct"]
    for idx, tr in enumerate(traces):
        label = tr.label or f"instance{idx}"
        if isinstance(refs, dict):
            ref = refs.get(label)
        elif refs is not None:
            ref = refs[idx]
        else:
            ref = None
        r = _ub_round(tr)
        ub = "" if r is None else "%.6f" % r.q0
        gap = ""
        if r is not None and ref is not None:
            gap = "%.2f" % gap_percent(r.q0, float(ref))
        lines.append("%s,%g,%s,%s,%.2f,%s,%s" % (
            label, tr.eta,
            "" if tr.i_feas is None else tr.i_feas,
            "" if tr.i_stop is None else tr.i_stop,
            tr.total_time(), ub, gap))
    return "\n".join(lines) + "\n"


def read_refs_csv(text: str) -> dict:
    """Reference objectives from CSV with (instance, value) per row.

    The first row that is not blank or a comment may be a header.
    """
    out = {}
    rows = [(no, raw.strip())
            for no, raw in enumerate(text.splitlines(), start=1)
            if raw.strip() and not raw.strip().startswith("#")]
    for k, (no, row) in enumerate(rows):
        parts = [p.strip() for p in row.split(",")]
        if len(parts) < 2:
            raise ValueError(f"refs line {no}: expected 'instance,value'")
        if k == 0 and parts[0].lower() in ("instance", "name"):
            continue
        out[parts[0]] = float(parts[1])
    return out
