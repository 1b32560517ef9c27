"""Polynomial programs and their quadratic reformulation.

A polynomial problem

    min p0(x)  s.t.  pk(x) <= 0 or pk(x) = 0

is rewritten as a QCQP by introducing auxiliary variables for monomials of
degree >= 2 that are needed as factors: each auxiliary y equals a product
of two earlier entries (original variables or previous auxiliaries), added
as the quadratic equality y - f1*f2 = 0. Degrees are halved at each split
(x^e -> x^ceil(e/2) * x^floor(e/2)); monomials over several variables are
split into per-variable power factors combined left-to-right in variable
order. Auxiliaries are hash-consed and ordered by (degree, first need), so
the layout is deterministic and every definition references only earlier
entries. Every original monomial of degree d >= 3 then becomes a single
bilinear term in two stored entries, so all rewritten constraints are
quadratic.

Text format (one statement, whitespace and newlines free):

    min <poly> st <poly> <= 0 ; <poly> = 0 ; ...

where a polynomial is +/- separated terms, each term a '*'-separated list
of factors, and a factor is a number or a variable with an optional
integer power (x^3). Implicit multiplication ("2 x" or "x y") is a parse
error; senses are <=, >= and = with a numeric right-hand side.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .quadratics import QcqpProblem, QuadraticFunction

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|=|\+|-|\*|\^|;)
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {col}: {message}")
        self.pos = pos


@dataclass
class PolyProblem:
    """Polynomials as ordered {exponent tuple: coefficient} maps."""

    n: int
    objective: dict
    constraints: list                  # (poly, sense) with sense "<=" or "="
    var_names: list = field(default_factory=list)

    def __post_init__(self):
        if not self.var_names:
            self.var_names = [f"x{i + 1}" for i in range(self.n)]

    def polynomials(self) -> list:
        return [self.objective] + [poly for poly, _ in self.constraints]

    def degree(self) -> int:
        return max((sum(e) for poly in self.polynomials() for e in poly),
                   default=0)

    def monomial_count(self) -> int:
        """Monomials of degree >= 1 across all polynomials."""
        return sum(1 for poly in self.polynomials() for e in poly if sum(e))


def poly_value(poly: dict, x) -> float:
    x = np.asarray(x, dtype=float)
    total = 0.0
    for exps, coeff in poly.items():
        term = coeff
        for v, e in enumerate(exps):
            if e:
                term *= x[v] ** e
        total += term
    return float(total)


def poly_gradient(poly: dict, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.shape[0])
    for exps, coeff in poly.items():
        for v, e in enumerate(exps):
            if not e:
                continue
            term = coeff * e * x[v] ** (e - 1)
            for w, ew in enumerate(exps):
                if w != v and ew:
                    term *= x[w] ** ew
            g[v] += term
    return g


def _tokens(text: str):
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise PolyParseError(f"unexpected character {m.group()!r}",
                                 m.start(), text)
        out.append((kind, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokens(text)
        self.k = 0
        self.vars: dict = {}

    def peek(self):
        return self.toks[self.k]

    def take(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def err(self, msg):
        raise PolyParseError(msg, self.peek()[2], self.text)

    def expect_name(self, word):
        kind, val, _ = self.peek()
        if kind == "name" and val == word:
            self.take()
            return True
        return False

    def parse(self):
        if not self.expect_name("min"):
            self.err("problem must start with 'min'")
        objective = self.poly()
        constraints = []
        if self.expect_name("st"):
            while True:
                poly = self.poly()
                kind, val, _ = self.peek()
                if kind != "op" or val not in ("<=", ">=", "="):
                    self.err("expected <=, >= or = after constraint polynomial")
                self.take()
                nkind, nval, _ = self.peek()
                sign = 1.0
                if nkind == "op" and nval == "-":
                    self.take()
                    sign = -1.0
                nkind, nval, _ = self.peek()
                if nkind != "num":
                    self.err("right-hand side must be a number")
                self.take()
                rhs = sign * float(nval)
                if val == ">=":
                    poly = {e: -c for e, c in poly.items()}
                    rhs = -rhs
                if rhs != 0.0:
                    poly[()] = poly.get((), 0.0) - rhs
                sense = "=" if val == "=" else "<="
                constraints.append((poly, sense))
                kind, val, _ = self.peek()
                if kind == "op" and val == ";":
                    self.take()
                    if self.peek()[0] == "end":
                        break
                    continue
                break
        if self.peek()[0] != "end":
            self.err("unexpected trailing input")
        n = len(self.vars)

        def canon(poly):
            out = {}
            for exps, coeff in poly.items():
                full = [0] * n
                for v, e in dict(exps).items():
                    full[v] = e
                key = tuple(full)
                out[key] = out.get(key, 0.0) + coeff
            return {e: c for e, c in out.items() if c != 0.0 or e == (0,) * n}

        names = [None] * n
        for name, v in self.vars.items():
            names[v] = name
        return PolyProblem(
            n=n,
            objective=canon(objective),
            constraints=[(canon(poly), sense) for poly, sense in constraints],
            var_names=names,
        )

    def poly(self):
        terms: dict = {}
        sign = 1.0
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1.0 if val == "-" else 1.0
        while True:
            exps, coeff = self.term()
            key = tuple(sorted(exps.items()))
            terms[key] = terms.get(key, 0.0) + sign * coeff
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                sign = -1.0 if val == "-" else 1.0
                continue
            break
        return {k: v for k, v in terms.items()}

    def term(self):
        exps: dict = {}
        coeff = 1.0
        first = True
        while True:
            kind, val, pos = self.peek()
            if kind == "num":
                self.take()
                coeff *= float(val)
            elif kind == "name":
                if val in ("st", "min") and not first:
                    break
                self.take()
                if val in ("st", "min"):
                    self.err(f"{val!r} is a keyword")
                v = self.vars.setdefault(val, len(self.vars))
                e = 1
                kind2, val2, _ = self.peek()
                if kind2 == "op" and val2 == "^":
                    self.take()
                    kind3, val3, _ = self.peek()
                    if kind3 != "num" or not val3.isdigit():
                        self.err("power must be a positive integer")
                    self.take()
                    e = int(val3)
                    if e < 1:
                        self.err("power must be a positive integer")
                exps[v] = exps.get(v, 0) + e
            else:
                self.err("expected a number or variable")
            kind, val, pos = self.peek()
            first = False
            if kind == "op" and val == "*":
                self.take()
                continue
            if kind in ("num", "name") and not (kind == "name" and val == "st"):
                raise PolyParseError(
                    "implicit multiplication is not allowed; write '*'",
                    pos, self.text)
            break
        return exps, coeff


def parse_poly(text: str) -> PolyProblem:
    """Parse the textual polynomial-problem format; see module docstring."""
    return _Parser(text).parse()


def format_poly(pp: PolyProblem) -> str:
    """Textual form of pp; parse_poly(format_poly(pp)) round-trips."""
    def fmt(poly):
        parts = []
        for exps, coeff in poly.items():
            mag = abs(coeff)
            factors = []
            if mag != 1.0 or not any(exps):
                factors.append(repr(mag))
            for v, e in enumerate(exps):
                if e == 1:
                    factors.append(pp.var_names[v])
                elif e > 1:
                    factors.append(f"{pp.var_names[v]}^{e}")
            parts.append((coeff < 0.0, "*".join(factors)))
        if not parts:
            return "0"
        neg, term = parts[0]
        out = ("-" + term) if neg else term
        for neg, term in parts[1:]:
            out += (" - " if neg else " + ") + term
        return out

    out = "min " + fmt(pp.objective)
    if pp.constraints:
        out += " st " + " ; ".join(
            f"{fmt(poly)} {'<=' if sense == '<=' else '='} 0"
            for poly, sense in pp.constraints)
    return out


@dataclass
class MonomialMap:
    """Auxiliary layout of a reformulation.

    Entry i defines extended variable n_orig + i as the product of extended
    entries factors[i] = (a, b) with a, b < n_orig + i; exponents[i] is the
    monomial it represents.
    """

    n_orig: int
    exponents: list
    factors: list
    var_names: list

    @property
    def n_ext(self) -> int:
        return self.n_orig + len(self.exponents)


def lift_point(qmap: MonomialMap, x) -> np.ndarray:
    """Forward-substitute the auxiliary definitions at x."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (qmap.n_orig,):
        raise ValueError("point has wrong dimension")
    out = np.zeros(qmap.n_ext)
    out[:qmap.n_orig] = x
    for i, (a, b) in enumerate(qmap.factors):
        out[qmap.n_orig + i] = out[a] * out[b]
    return out


def _split(m: tuple):
    """One product split of a monomial (exponent tuple)."""
    present = [v for v, e in enumerate(m) if e]
    if len(present) == 1:
        v = present[0]
        e = m[v]
        a = (e + 1) // 2
        m1 = tuple(a if w == v else 0 for w in range(len(m)))
        m2 = tuple(e - a if w == v else 0 for w in range(len(m)))
        return m1, m2
    last = present[-1]
    m1 = tuple(0 if w == last else e for w, e in enumerate(m))
    m2 = tuple(m[last] if w == last else 0 for w in range(len(m)))
    return m1, m2


def _product(i1: int, i2: int, coeff: float) -> list:
    """A's entries (i, j, v) for coeff * x_i1 * x_i2, mirror included."""
    if i1 == i2:
        return [(i1, i1, coeff)]
    return [(i1, i2, 0.5 * coeff), (i2, i1, 0.5 * coeff)]


def reformulate(pp: PolyProblem):
    """Rewrite pp as an equivalent QCQP; returns (QcqpProblem, MonomialMap).

    Feasible points correspond one-to-one through lift_point, with equal
    objective values.
    """
    n = pp.n
    needed: dict = {}      # monomial -> (first-need sequence, split pair)

    def ensure(m: tuple):
        if sum(m) <= 1 or m in needed:
            return
        m1, m2 = _split(m)
        ensure(m1)
        ensure(m2)
        needed[m] = (len(needed), (m1, m2))

    polys = pp.polynomials()
    for poly in polys:
        for exps in poly:
            if sum(exps) >= 3:
                m1, m2 = _split(exps)
                ensure(m1)
                ensure(m2)

    order = sorted(needed, key=lambda m: (sum(m), needed[m][0]))
    node_id = {}
    for v in range(n):
        unit = tuple(1 if w == v else 0 for w in range(n))
        node_id[unit] = v
    aux_names = []
    for i, m in enumerate(order):
        node_id[m] = n + i
        pieces = [f"{pp.var_names[v]}{e if e > 1 else ''}"
                  for v, e in enumerate(m) if e]
        aux_names.append("_" + "".join(pieces))
    n_ext = n + len(order)

    def to_quadratic(poly) -> QuadraticFunction:
        entries, linear = [], []
        c = 0.0
        for exps, coeff in poly.items():
            d = sum(exps)
            if d == 0:
                c += coeff
            elif d == 1:
                v = next(v for v, e in enumerate(exps) if e)
                linear.append((v, 0.5 * coeff))
            else:
                m1, m2 = _split(exps)
                entries += _product(node_id[m1], node_id[m2], coeff)
        return QuadraticFunction.from_sparse(
            n_ext, *np.reshape(entries, (-1, 3)).T,
            np.reshape(linear, (-1, 2)).T, c)

    objective = to_quadratic(pp.objective)
    inequalities = []
    equalities = []
    for poly, sense in pp.constraints:
        q = to_quadratic(poly)
        (inequalities if sense == "<=" else equalities).append(q)

    factors = []
    for i, m in enumerate(order):
        m1, m2 = needed[m][1]
        i1, i2 = node_id[m1], node_id[m2]
        factors.append((i1, i2))
        equalities.append(QuadraticFunction.from_sparse(
            n_ext, *np.reshape(_product(i1, i2, -1.0), (-1, 3)).T,
            ([n + i], [0.5])))

    qp = QcqpProblem(
        n=n_ext,
        objective=objective,
        inequalities=inequalities,
        equalities=equalities,
        name="poly",
    )
    qmap = MonomialMap(n_orig=n, exponents=order, factors=factors,
                       var_names=list(pp.var_names) + aux_names)
    return qp, qmap


def aux_count_bound(pp: PolyProblem) -> int:
    """m * n * (floor(log2 d) + 1) with m = monomials of degree >= 1."""
    d = max(pp.degree(), 1)
    return pp.monomial_count() * pp.n * (int(math.log2(d)) + 1)


def licq_transfer_check(pp: PolyProblem, x, tol: float = 1e-6) -> dict:
    """Compare LICQ of the polynomial problem at x and of its QCQP
    reformulation at the lifted point.

    Binding sets use |value| <= tol*(1 + |constant term|) for inequalities;
    equalities (and all auxiliary definitions) are always binding. Rank is
    decided by `row_rank_test` on the binding Jacobian.
    """
    from .regularity import binding_sets, row_rank_test
    from .quadratics import jacobian as qcqp_jacobian

    x = np.asarray(x, dtype=float).ravel()
    rows = []
    for poly, sense in pp.constraints:
        val = poly_value(poly, x)
        const = poly.get((0,) * pp.n, 0.0)
        if sense == "=" or abs(val) <= tol * (1.0 + abs(const)):
            rows.append(poly_gradient(poly, x))
    poly_ok = not row_rank_test(np.array(rows).reshape(len(rows), pp.n))[1]

    qp, qmap = reformulate(pp)
    xbar = lift_point(qmap, x)
    b = binding_sets(qp, xbar, tol=tol)
    J = qcqp_jacobian(qp, xbar)[b["licq_binding"]]
    qcqp_ok = not row_rank_test(J)[1]
    return {
        "poly_licq": poly_ok,
        "qcqp_licq": qcqp_ok,
        "poly_binding_rows": len(rows),
        "qcqp_binding": b["licq_binding"],
    }
