"""Arithmetic the checks use, written apart from twistdirac.

Polynomials are dicts mapping exponent tuples to Fractions.  Expression
trees from the package are evaluated by walking their public node
attributes (``kind``, ``value``, ``name``, ``args``, ``base``, ``exp``,
``order``, ``arg``): exactly with Fractions where the value is rational,
and with 80-digit Decimals where a radical is irrational.  Nothing here
calls the package's own evaluator, normaliser or solver.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction

CTX = Context(prec=80)


class Singular(ArithmeticError):
    """Division by zero or a negative radicand at an evaluation point."""


# ---------------------------------------------------------------------------
# polynomials over named coordinates


def pconst(n, c):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def pvar(n, i, c=1):
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(c)}


def padd(a, b, scale=1):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + c * scale
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def pdiff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            e = list(m)
            e[i] -= 1
            out[tuple(e)] = c * m[i]
    return out


def peval(p, values):
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for v, e in zip(values, m):
            if e:
                term *= v ** e
        total += term
    return total


def depends_on(p, i):
    return any(m[i] for m in p)


def poly_text(p, names):
    """The polynomial in the package's expression grammar."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p):
        factors = [f"({p[m]})"]
        for name, e in zip(names, m):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def poly_expr(p, chart):
    """The polynomial as a package expression tree built from public
    node constructors."""
    from twistdirac.symexpr import Prod, Rat, Sum
    xs = chart.vars()
    terms = []
    for m in sorted(p):
        factors = [Rat(p[m])]
        for x, e in zip(xs, m):
            factors.extend([x] * e)
        terms.append(Prod(*factors))
    if not terms:
        return Rat(0)
    return terms[0] if len(terms) == 1 else Sum(*terms)


# ---------------------------------------------------------------------------
# numbers: Fractions while exact, Decimals once a radical is irrational


def _dec(x):
    if isinstance(x, Decimal):
        return x
    return CTX.divide(Decimal(x.numerator), Decimal(x.denominator))


def _add(x, y):
    if isinstance(x, Decimal) or isinstance(y, Decimal):
        return CTX.add(_dec(x), _dec(y))
    return x + y


def _mul(x, y):
    if isinstance(x, Decimal) or isinstance(y, Decimal):
        return CTX.multiply(_dec(x), _dec(y))
    return x * y


def _iroot(n, k):
    if n < 2:
        return n
    r = round(n ** (1.0 / k)) if n.bit_length() < 1000 else \
        1 << (n.bit_length() // k)
    for _ in range(200):
        if r ** k == n:
            return r
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt == r or nxt < 1:
            break
        r = nxt
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** k == n:
            return cand
    return None


def _pow(b, q):
    q = Fraction(q)
    if b == 0:
        if q > 0:
            return Fraction(0)
        raise Singular("zero to a negative power")
    if q.denominator == 1:
        return b ** int(q) if isinstance(b, Fraction) else \
            CTX.power(b, int(q))
    if b < 0:
        raise Singular("negative radicand")
    if isinstance(b, Fraction):
        k = q.denominator
        rn, rd = _iroot(b.numerator, k), _iroot(b.denominator, k)
        if rn is not None and rd is not None:
            return Fraction(rn, rd) ** q.numerator
    root = CTX.power(_dec(b), CTX.divide(Decimal(1), Decimal(q.denominator)))
    out = CTX.power(root, abs(q.numerator))
    return CTX.divide(Decimal(1), out) if q < 0 else out


def func_value(coeffs, order, x):
    """order-th derivative of the polynomial sum(coeffs[j] * t^j) at x."""
    acc = Fraction(0)
    for j in range(len(coeffs) - 1, order - 1, -1):
        c = Fraction(coeffs[j]) * math.perm(j, order)
        acc = _add(_mul(acc, x), c)
    return acc


def evaluate(e, point, funcs=None):
    """Value of a package expression at point (coordinate name -> Fraction);
    funcs maps function symbols to polynomial coefficient tuples."""
    kind = e.kind
    if kind == "rat":
        return Fraction(e.value)
    if kind == "var":
        return Fraction(point[e.name])
    if kind == "sum":
        acc = Fraction(0)
        for a in e.args:
            acc = _add(acc, evaluate(a, point, funcs))
        return acc
    if kind == "prod":
        acc = Fraction(1)
        for a in e.args:
            acc = _mul(acc, evaluate(a, point, funcs))
        return acc
    if kind == "pow":
        return _pow(evaluate(e.base, point, funcs), e.exp)
    if kind == "func":
        return func_value(funcs[e.name], e.order,
                          evaluate(e.arg, point, funcs))
    raise TypeError(f"unknown node kind {kind!r}")


def function_names(e, out=None):
    out = set() if out is None else out
    kind = e.kind
    if kind == "func":
        out.add(e.name)
        function_names(e.arg, out)
    elif kind in ("sum", "prod"):
        for a in e.args:
            function_names(a, out)
    elif kind == "pow":
        function_names(e.base, out)
    return out


def is_tiny(v):
    """Zero for exact values; below 1e-40 for 80-digit Decimals."""
    if isinstance(v, Decimal):
        return abs(v) < Decimal("1e-40")
    return v == 0


# ---------------------------------------------------------------------------
# linear algebra over Fractions


def solve(M, rhs):
    """x with M x = rhs, or None when M is singular."""
    n = len(M)
    A = [list(row) + [b] for row, b in zip(M, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        p = A[col][col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col] / p
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[i][n] / A[i][i] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]
