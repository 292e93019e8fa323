"""Exact symbolic scalar expressions over chart coordinates.

Provides the expression tree (rational constants, coordinates, sums,
products, rational powers, unary function applications with formal
derivative towers), exact differentiation, numeric evaluation, a
normalizing ``simplify``, a seeded randomized zero-test oracle, and the
text grammar used by scenario files.

Expressions are immutable; every operation is a pure function.  Trees
are the parse and print form: ``simplify``, ``diff`` and ``is_zero`` work
on the normal-form polynomials of ``_normal``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isfinite, lcm

from ._normal import (canon_expr, combined_fraction, from_poly, iroot,
                      is_rational_function, p_diff, recompose, to_poly)


class SymExprError(Exception):
    """Base class for errors raised by this package."""


class ChartMismatchError(SymExprError):
    pass


class ParseError(SymExprError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvaluationSingularityError(SymExprError):
    """Division by zero or an invalid radicand at an evaluation point."""


class OracleInconclusiveError(SymExprError):
    """Every resampling attempt for some sample point hit a singularity."""


class MissingFunctionError(SymExprError):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system; all variables resolve to one chart."""

    name: str
    coords: tuple

    MAX_DIM = 16          # the largest chart the engine accepts

    def __init__(self, name, coords):
        coords = tuple(coords)
        if len(coords) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise ValueError("chart coordinates must be distinct")
        if len(coords) > self.MAX_DIM:
            raise ValueError(
                f"chart dimension {len(coords)} exceeds limit {self.MAX_DIM}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coords", coords)
        # identity of the chart in coordinate keys: charts that share a
        # name but not their coordinates must not share atoms; one interned
        # string keeps those keys cheap to hash and compare
        object.__setattr__(self, "ident", sys.intern(repr((name, coords))))
        object.__setattr__(self, "_vars",
                           tuple(Var(self, i) for i in range(len(coords))))

    @property
    def dim(self):
        return len(self.coords)

    def index(self, coord):
        try:
            return self.coords.index(coord)
        except ValueError:
            raise ChartMismatchError(
                f"{coord!r} is not a coordinate of chart {self.name!r}")

    def var(self, coord):
        """The chart's coordinate atom, by name or by index."""
        if isinstance(coord, int) and 0 <= coord < self.dim:
            return self._vars[coord]
        return self._vars[self.index(coord)]

    def vars(self):
        return self._vars

    def __getitem__(self, coord):
        return self.var(coord)


def _merge_charts(*charts):
    found = None
    for c in charts:
        if c is None:
            continue
        if found is None:
            found = c
        elif found != c:
            raise ChartMismatchError(
                f"mixed charts {found.name!r} and {c.name!r}")
    return found


def as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


class Expr:
    """Immutable expression node; arithmetic operators build raw trees."""

    # _poly: the node's expansion as a polynomial, set on first use by
    # _normal._atom_poly
    __slots__ = ("chart", "_key", "_hash", "_poly")

    kind = None

    def __add__(self, other):
        return Sum(self, as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Sum(self, Prod(Rat(-1), as_expr(other)))

    def __rsub__(self, other):
        return Sum(as_expr(other), Prod(Rat(-1), self))

    def __mul__(self, other):
        return Prod(self, as_expr(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Prod(self, Pow(as_expr(other), Fraction(-1)))

    def __rtruediv__(self, other):
        return Prod(as_expr(other), Pow(self, Fraction(-1)))

    def __neg__(self):
        return Prod(Rat(-1), self)

    def __pow__(self, e):
        return Pow(self, Fraction(e))

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        return expr_to_str(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class Rat(Expr):
    __slots__ = ("value",)
    kind = "rat"

    def __init__(self, num, den=None):
        value = Fraction(num) if den is None else Fraction(num, den)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "chart", None)
        key = ("rat", value.numerator, value.denominator)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))


class Var(Expr):
    __slots__ = ("index",)
    kind = "var"

    def __init__(self, chart, index):
        if not 0 <= index < chart.dim:
            raise ChartMismatchError(
                f"coordinate index {index} out of range for {chart.name!r}")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "index", index)
        key = ("var", chart.ident, index)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    @property
    def name(self):
        return self.chart.coords[self.index]


class _NAry(Expr):
    """A sum or a product; nested nodes of the same kind are flattened."""

    __slots__ = ("args",)

    def __init__(self, *args):
        kind = self.kind
        flat = []
        for a in args:
            a = as_expr(a)
            if a.kind == kind:
                flat.extend(a.args)
            else:
                flat.append(a)
        chart = _merge_charts(*(a.chart for a in flat))
        object.__setattr__(self, "args", tuple(flat))
        object.__setattr__(self, "chart", chart)
        key = (kind, len(flat)) + tuple(a._key for a in flat)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))


class Sum(_NAry):
    __slots__ = ()
    kind = "sum"


class Prod(_NAry):
    __slots__ = ()
    kind = "prod"


class Pow(Expr):
    __slots__ = ("base", "exp")
    kind = "pow"

    def __init__(self, base, exp):
        base = as_expr(base)
        exp = Fraction(exp)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "chart", base.chart)
        key = ("pow", base._key, exp.numerator, exp.denominator)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))


class Func(Expr):
    """k-th formal derivative of a named smooth unary function, applied
    to an argument expression."""

    __slots__ = ("name", "order", "arg")
    kind = "func"

    def __init__(self, name, order, arg):
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        arg = as_expr(arg)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "chart", arg.chart)
        key = ("func", name, order, arg._key)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))



# ---------------------------------------------------------------------------
# differentiation


def diff(e, v):
    """Partial derivative of e with respect to coordinate v."""
    if not isinstance(v, Var):
        raise TypeError("differentiation variable must be a Var")
    if e.chart is not None and e.chart != v.chart:
        raise ChartMismatchError(
            f"cannot differentiate expression on chart "
            f"{e.chart.name!r} by coordinate of {v.chart.name!r}")
    return from_poly(p_diff(to_poly(e), v))


# ---------------------------------------------------------------------------
# smooth function instantiation and evaluation


class PolyFunc:
    """Polynomial instantiation of a function symbol.

    Supplies derivatives of every order, so a symbol and its formal
    derivative tower evaluate consistently.  The whole tower, down to the
    zero polynomial that every higher derivative equals, is built when
    the instance is made and never changes after, so one instance can
    serve several threads.  A float argument is evaluated in floats; any
    other argument is converted to a Fraction and evaluated exactly.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs = tuple(Fraction(c) for c in coeffs)
        tower = [_horner_forms(coeffs)]
        while coeffs != (0,):
            coeffs = _derivative_coeffs(coeffs)
            tower.append(_horner_forms(coeffs))
        self._tower = tuple(tower)

    @classmethod
    def random(cls, rng, degree):
        # strictly positive coefficients: keeps the built-in radial/conformal
        # scenarios away from sign-change singularities on the positive box
        return cls([Fraction(rng.randrange(4, 37), 16)
                    for _ in range(degree + 1)])

    def derivative(self):
        return PolyFunc(_derivative_coeffs(self.coeffs))

    def eval_deriv(self, order, x):
        tower = self._tower
        floats, ints, den = tower[min(order, len(tower) - 1)]
        if type(x) is not Fraction:
            if isinstance(x, float):
                acc = 0
                for c in floats:
                    acc = acc * x + c
                return acc
            x = Fraction(x)
        # Horner in integers: x = p/q, the value is num / (den * q^k)
        p, q = x.numerator, x.denominator
        num, qk = 0, 1
        for a in ints:
            qk *= q
            num = num * p + a * qk
        return Fraction(num, den * qk)

    def __call__(self, x):
        return self.eval_deriv(0, x)

    def __repr__(self):
        return f"PolyFunc({[str(c) for c in self.coeffs]})"


def _derivative_coeffs(coeffs):
    return tuple((i + 1) * c for i, c in enumerate(coeffs[1:])) or \
        (Fraction(0),)


def _horner_forms(coeffs):
    """Coefficients highest degree first, as floats and as integers over
    their common denominator, with that denominator."""
    exact = coeffs[::-1]
    den = lcm(*(c.denominator for c in exact))
    return (tuple(float(c) for c in exact),
            tuple(c.numerator * (den // c.denominator) for c in exact), den)


def _num_pow(base, exp):
    if exp.denominator == 1:
        n = int(exp)
        if base == 0 and n < 0:
            raise EvaluationSingularityError("0 raised to a negative power")
        if isinstance(base, float):
            return base ** n
        return (base if type(base) is Fraction else Fraction(base)) ** n
    if base == 0:
        if exp > 0:
            return base         # exact 0 stays exact, 0.0 stays a float
        raise EvaluationSingularityError("0 raised to a negative power")
    if base < 0:
        raise EvaluationSingularityError(
            "negative radicand for a fractional power")
    if isinstance(base, Fraction):
        rn = iroot(base.numerator, exp.denominator)
        if rn is not None:
            rd = iroot(base.denominator, exp.denominator)
            if rd is not None:
                return Fraction(rn, rd) ** exp.numerator
    return float(base) ** float(exp)


def _floats(a, b):
    """True when a op b computes on float(a) and float(b): one is a float,
    the other a float or a Fraction.  Converting directly skips Fraction's
    numbers.Real fallback, which does the same."""
    ta, tb = type(a), type(b)
    return (ta is float or tb is float) and \
        ta in _FLOAT_OR_FRACTION and tb in _FLOAT_OR_FRACTION


_FLOAT_OR_FRACTION = (float, Fraction)


def _eval(e, point, func_env, memo):
    """Value of e at point.  memo maps nodes to their values at this
    point; a subexpression found there, from this expression or from
    another one evaluated with the same memo, is not evaluated again."""
    kind = e.kind
    if kind == "rat":
        return e.value
    v = memo.get(e)
    if v is not None:
        return v
    if kind == "var":
        try:
            v = point[e.name]
        except KeyError:
            raise ChartMismatchError(f"point has no value for {e.name!r}")
        if type(v) is not Fraction and not isinstance(v, float):
            v = Fraction(v)
    elif kind == "sum":
        # exact terms are added as integers over a common denominator;
        # from the first other term on, left to right as numbers
        num, den, v = 0, 1, None
        for a in e.args:
            x = _eval(a, point, func_env, memo)
            if v is None:
                if type(x) is Fraction:
                    n, d = x.numerator, x.denominator
                    if d == den:
                        num += n
                    else:
                        g = gcd(den, d)
                        num = num * (d // g) + n * (den // g)
                        den = den // g * d
                    continue
                v = Fraction(num, den)
            v = float(v) + float(x) if _floats(v, x) else v + x
        if v is None:
            v = Fraction(num, den)
    elif kind == "prod":
        num, den, v = 1, 1, None
        for a in e.args:
            x = _eval(a, point, func_env, memo)
            if v is None:
                if type(x) is Fraction:
                    num *= x.numerator
                    den *= x.denominator
                    continue
                v = Fraction(num, den)
            v = float(v) * float(x) if _floats(v, x) else v * x
        if v is None:
            v = Fraction(num, den)
    elif kind == "pow":
        v = _num_pow(_eval(e.base, point, func_env, memo), e.exp)
    elif kind == "func":
        try:
            f = func_env[e.name]
        except KeyError:
            raise MissingFunctionError(
                f"no instantiation for function symbol {e.name!r}")
        try:
            eval_deriv = f.eval_deriv
        except AttributeError:
            raise MissingFunctionError(
                f"instantiation of {e.name!r} has no eval_deriv")
        v = eval_deriv(e.order, _eval(e.arg, point, func_env, memo))
    else:
        raise TypeError(f"unknown node kind {kind!r}")
    memo[e] = v
    return v


def eval_expr(e, point, func_env=None):
    """Evaluate e at a point (mapping coordinate name -> number).

    Arithmetic stays exact on Fractions where possible and falls back to
    floats for irrational powers.  Function symbols are looked up in
    func_env, whose values supply eval_deriv(order, x) (as PolyFunc
    does); order-k applications evaluate the k-th derivative.  A
    subexpression that occurs several times in e is evaluated once.
    """
    return _eval(e, point, func_env or {}, {})


# ---------------------------------------------------------------------------
# simplification


def simplify(e):
    """Idempotent normal form: expanded, collected, sorted monomials for
    the polynomial/rational subclass, best-effort normalization elsewhere."""
    return canon_expr(as_expr(e))


# ---------------------------------------------------------------------------
# the randomized zero-test oracle


_DEFAULT_INTERVAL = (Fraction(1, 4), Fraction(2))
MAX_RESAMPLE = 10       # draws per sample point before the oracle gives up


@dataclass(frozen=True)
class OracleConfig:
    """Deterministic sampling configuration for the zero-test oracle.

    The box maps coordinate names to closed rational intervals; unlisted
    coordinates use the default interval [1/4, 2] which keeps the built-in
    scenarios away from their singular loci.  Settings under which a
    Zero verdict would hold vacuously (no samples, a negative function
    degree, a tolerance that is negative, infinite or nan) are rejected
    with ValueError.
    """

    seed: int = 0
    samples: int = 128
    box: tuple = ()
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    func_degree: int = 3

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.func_degree < 0:
            raise ValueError(
                f"func_degree must be >= 0, got {self.func_degree}")
        for name in ("abs_tol", "rel_tol"):
            tol = getattr(self, name)
            if not (isfinite(tol) and tol >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {tol!r}")
        norm = tuple(sorted(
            (name, (Fraction(lo), Fraction(hi)))
            for name, (lo, hi) in dict(self.box).items()))
        object.__setattr__(self, "box", norm)

    def interval(self, name):
        for n, iv in self.box:
            if n == name:
                return iv
        return _DEFAULT_INTERVAL


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of a zero test: Zero, or NonZero with a witness point.

    A composite verdict (see combine) holds labelled children, one per
    residual it tested: a form's coefficients, a check's identities.
    """

    zero: bool
    exact: bool
    witness: tuple = None          # ((coord, Fraction), ...) or None
    magnitude: float = None
    func_env: tuple = None         # ((name, PolyFunc), ...) or None
    label: str = ""
    children: tuple = ()

    @classmethod
    def combine(cls, labelled, label=""):
        """Composite of (label, verdict) pairs.  Zero (exact) when every
        child is; the witness and func_env are those of the first failing
        child that carries a witness, the magnitude the largest among the
        failing children."""
        children = tuple(replace(v, label=name) for name, v in labelled)
        failing = [c for c in children if not c.zero]
        first = next((c for c in failing if c.witness is not None), None)
        return cls(
            zero=not failing, exact=all(c.exact for c in children),
            witness=first.witness if first else None,
            magnitude=max((c.magnitude for c in failing
                           if c.magnitude is not None), default=None),
            func_env=first.func_env if first else None,
            label=label, children=children)

    @property
    def failures(self):
        """[(label, child)] for the children that are not zero."""
        return [(c.label, c) for c in self.children if not c.zero]

    @property
    def witness_point(self):
        return dict(self.witness) if self.witness is not None else None

    def __str__(self):
        if self.zero:
            return "Zero(exact)" if self.exact else "Zero(sampled)"
        if self.children:
            label, child = self.failures[0]
            return f"NonZero at {label}: {child}"
        if self.magnitude is None:
            return "NonZero"
        pt = ", ".join(f"{n}={v}" for n, v in (self.witness or ()))
        return f"NonZero(|value|={self.magnitude:.3g} at {pt})"


def _sample_rng(cfg, tag):
    return random.Random(f"{cfg.seed}:{tag}")


def sample_point(cfg, coords, index, attempt=0):
    rng = _sample_rng(cfg, f"pt:{index}:{attempt}")
    point = {}
    for name in coords:
        lo, hi = cfg.interval(name)
        # lo + (hi - lo) * r/4096 over one denominator, reduced once
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, \
            hi.denominator
        point[name] = Fraction(
            4096 * ln * hd + (hn * ld - ln * hd) * rng.randrange(4097),
            4096 * ld * hd)
    return point


def oracle_function_env(cfg, e):
    """The seeded instantiation of every function symbol in e, as a dict
    name -> PolyFunc drawn from the symbol's own seeded stream; empty
    when e has no function symbols.

    A symbol applied at m distinct arguments, with derivatives up to
    order K, is drawn at degree max(cfg.func_degree, m(K+1) - 1).  At a
    point, e depends on the symbol only through its K-jets at those m
    arguments, and Hermite interpolation matches any such jets with a
    polynomial of degree m(K+1) - 1.  So an e that is nonzero for some
    smooth function is nonzero for some polynomial of that degree, and
    the sampled test can see it (Schwartz-Zippel); a fixed degree would
    pass every identity that holds for the polynomials of that degree.
    Coefficients are drawn in order, so the first func_degree + 1 do not
    depend on the degree.
    """
    args, order = {}, {}
    stack = [e]
    while stack:
        x = stack.pop()
        kind = x.kind
        if kind == "func":
            args.setdefault(x.name, set()).add(x.arg)
            order[x.name] = max(order.get(x.name, 0), x.order)
            stack.append(x.arg)
        elif kind in ("sum", "prod"):
            stack.extend(x.args)
        elif kind == "pow":
            stack.append(x.base)
    return {name: PolyFunc.random(
                _sample_rng(cfg, f"fn:{name}"),
                max(cfg.func_degree, len(args[name]) * (order[name] + 1) - 1))
            for name in sorted(args)}


def sampled_sums(e, cfg, coords, func_env):
    """Evaluations of e at the seeded sample points.

    Yields (point, total, tol) for each of cfg.samples points: the sum of
    e's additive terms at the point, and the zero tolerance there.  When
    every term is an exact Fraction at the point, so is the sum, and the
    tolerance is 0; otherwise the sum is a float and the tolerance is
    abs_tol plus rel_tol times the largest term.  The terms share one
    memo per point, so a subexpression that occurs in several terms
    (a function value, a radical) is evaluated once per point.  A point
    where evaluation hits a singularity is redrawn up to MAX_RESAMPLE
    times; OracleInconclusiveError when every attempt fails.
    """
    terms = e.args if e.kind == "sum" else (e,)
    for i in range(cfg.samples):
        for attempt in range(MAX_RESAMPLE):
            point = sample_point(cfg, coords, i, attempt)
            memo = {}
            try:
                values = [_eval(t, point, func_env, memo) for t in terms]
            except EvaluationSingularityError:
                continue
            break
        else:
            raise OracleInconclusiveError(
                f"sample point {i} hit singularities in all "
                f"{MAX_RESAMPLE} resampling attempts")
        if all(isinstance(v, Fraction) for v in values):
            yield point, sum(values), 0
            continue
        values = [float(v) for v in values]
        scale = max((abs(v) for v in values), default=0.0)
        yield point, sum(values), cfg.abs_tol + cfg.rel_tol * scale


def is_zero(e, cfg=OracleConfig()):
    """Decide whether e, an expression or a polynomial, is identically
    zero.

    Exact normalization decides the polynomial/rational subclass, where a
    nonzero normal form gets an exact witness from the seeded points;
    other expressions are evaluated at seeded sample points with function
    symbols instantiated as seeded random polynomials.  Identical seed and
    config give identical verdicts.
    """
    num, dens = combined_fraction(e if isinstance(e, dict)
                                  else to_poly(as_expr(e)))
    if not num:
        return ZeroVerdict(zero=True, exact=True)
    simplified = from_poly(recompose(num, dens))
    chart = simplified.chart
    coords = chart.coords if chart is not None else ()
    rational = is_rational_function(num, dens)
    if rational:
        # exactly nonzero as a rational function; exhibit a witness by
        # exact evaluation at (at least 8) seeded rational points
        cfg = replace(cfg, samples=max(cfg.samples, 8))
    env = oracle_function_env(cfg, simplified)
    func_env = None if rational else tuple(sorted(env.items()))
    for point, total, tol in sampled_sums(simplified, cfg, coords, env):
        if abs(total) > tol:
            return ZeroVerdict(
                zero=False, exact=rational,
                witness=tuple(sorted(point.items())),
                magnitude=float(abs(total)), func_env=func_env)
    if rational:
        raise OracleInconclusiveError(
            "nonzero normal form but no nonzero sample point found")
    return ZeroVerdict(zero=True, exact=False, func_env=func_env)


# ---------------------------------------------------------------------------
# grammar: lexer, parser, printer


_OPS = set("+-*/^()")


def tokenize(text):
    """Token stream of (kind, value, line, col); kinds NUM, IDENT, OP, END.

    IDENT values are (name, prime_count).
    """
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit()
                             or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("NUM", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            primes = 0
            while j < n and text[j] == "'":
                primes += 1
                j += 1
            tokens.append(("IDENT", (text[i:j - primes] if primes
                                     else text[i:j], primes),
                           line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(("OP", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("END", None, line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, line, col = self.peek()
        if kind != "OP" or value != op:
            raise ParseError(f"expected {op!r}", line, col)
        return self.next()

    def error(self, message):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)


class ExprParser:
    """Recursive-descent parser for the scalar expression grammar.

    Nodes are built through add, neg, mul, div, power and apply, so a
    subclass can parse the same grammar into other values (form
    literals, in exterior)."""

    def __init__(self, stream, chart, names=None):
        self.ts = stream
        self.chart = chart
        self.names = names or {}

    def parse_all(self):
        """The whole token stream as one expression."""
        e = self.parse_expr()
        kind, _, line, col = self.ts.peek()
        if kind != "END":
            raise ParseError("unexpected trailing input", line, col)
        return e

    def parse_expr(self):
        left = self.parse_term()
        while True:
            kind, value, _, _ = self.ts.peek()
            if kind == "OP" and value in "+-":
                self.ts.next()
                right = self.parse_term()
                left = self.add(left, right if value == "+"
                                else self.neg(right))
            else:
                return left

    def parse_term(self):
        left = self.parse_factor()
        while True:
            kind, value, _, _ = self.ts.peek()
            if kind == "OP" and value in "*/":
                self.ts.next()
                right = self.parse_factor()
                left = self.mul(left, right) if value == "*" \
                    else self.div(left, right)
            else:
                return left

    def parse_factor(self):
        base = self.parse_base()
        kind, value, _, _ = self.ts.peek()
        if kind == "OP" and value == "^":
            self.ts.next()
            return self.power(base)
        return base

    def parse_exponent(self):
        kind, value, line, col = self.ts.peek()
        if kind == "OP" and value == "(":
            self.ts.next()
            num = self._signed_int()
            self.ts.expect_op("/")
            den = self._signed_int(allow_sign=False)
            self.ts.expect_op(")")
            return Fraction(num, den)
        return Fraction(self._signed_int())

    def _signed_int(self, allow_sign=True):
        sign = 1
        kind, value, line, col = self.ts.peek()
        if allow_sign and kind == "OP" and value == "-":
            self.ts.next()
            sign = -1
            kind, value, line, col = self.ts.peek()
        if kind != "NUM" or "." in value:
            raise ParseError("expected an integer exponent", line, col)
        self.ts.next()
        return sign * int(value)

    def parse_base(self):
        kind, value, line, col = self.ts.peek()
        if kind == "NUM":
            self.ts.next()
            return Rat(Fraction(value))
        if kind == "IDENT":
            self.ts.next()
            name, primes = value
            nk, nv, _, _ = self.ts.peek()
            if nk == "OP" and nv == "(":
                self.ts.next()
                arg = self.parse_expr()
                self.ts.expect_op(")")
                return self.apply(name, primes, arg)
            if primes:
                raise ParseError(
                    f"derivative marks on {name!r} need a function "
                    f"application", line, col)
            return self.resolve_ident(name, line, col)
        if kind == "OP" and value == "(":
            self.ts.next()
            inner = self.parse_expr()
            self.ts.expect_op(")")
            return inner
        if kind == "OP" and value == "-":
            self.ts.next()
            return self.neg(self.parse_factor())
        self.ts.error("expected a number, identifier or parenthesis")

    def resolve_ident(self, name, line, col):
        if name in self.chart.coords:
            return self.chart.var(name)
        if name in self.names:
            return self.names[name]
        raise ParseError(f"unknown identifier {name!r}", line, col)

    # node construction --------------------------------------------------

    def add(self, left, right):
        return Sum(left, right)

    def neg(self, value):
        return Prod(Rat(-1), value)

    def mul(self, left, right):
        return Prod(left, right)

    def div(self, left, right):
        return Prod(left, Pow(right, Fraction(-1)))

    def power(self, base):
        """base raised to the exponent that follows '^'."""
        return Pow(base, self.parse_exponent())

    def apply(self, name, order, arg):
        return Func(name, order, arg)


def parse_expr(text, chart, names=None):
    """Parse the expression grammar; idents resolve to chart coordinates
    or previously defined names, and an ident before '(' is a function
    symbol (primes mark derivative order)."""
    return ExprParser(TokenStream(tokenize(text)), chart, names).parse_all()


# printer ------------------------------------------------------------------


def _frac_str(v):
    return str(v.numerator) if v.denominator == 1 else \
        f"{v.numerator}/{v.denominator}"


def _exp_str(e):
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e.numerator}/{e.denominator})"


def _atom_str(e):
    s = expr_to_str(e)
    if e.kind in ("rat", "var", "func") and not s.startswith("-"):
        return s
    return f"({s})"


def _pow_str(base, exp):
    if exp == 1:
        return _atom_str(base) if base.kind in ("sum", "prod") else \
            expr_to_str(base) if not expr_to_str(base).startswith("-") else \
            f"({expr_to_str(base)})"
    return f"{_atom_str(base)}^{_exp_str(exp)}"


def expr_to_str(e):
    """Render an expression in the input grammar (explicit '*', negative
    exponents printed as divisions)."""
    kind = e.kind
    if kind == "rat":
        return _frac_str(e.value)
    if kind == "var":
        return e.name
    if kind == "func":
        primes = "'" * e.order
        return f"{e.name}{primes}({expr_to_str(e.arg)})"
    if kind == "pow":
        if e.exp < 0:
            return f"1/{_pow_str(e.base, -e.exp)}"
        return _pow_str(e.base, e.exp)
    if kind == "prod":
        nums, dens = [], []
        coeff = None
        for a in e.args:
            if a.kind == "rat" and coeff is None and not nums and not dens:
                coeff = a.value
            elif a.kind == "pow" and a.exp < 0:
                dens.append(_pow_str(a.base, -a.exp))
            else:
                nums.append(_factor_str(a))
        prefix = ""
        if coeff is not None:
            if coeff == -1 and (nums or dens):
                prefix = "-"
            elif coeff != 1 or not (nums or dens):
                s = _frac_str(abs(coeff))
                prefix = ("-" if coeff < 0 else "") + s
                if nums or dens:
                    prefix += "*"
        body = "*".join(nums) if nums else ("1" if dens else "")
        for d in dens:
            body += "/" + d
        return prefix + body
    if kind == "sum":
        if not e.args:
            return "0"
        parts = []
        for i, a in enumerate(e.args):
            s = expr_to_str(a)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s}")
        return "".join(parts)
    raise TypeError(f"unknown node kind {kind!r}")


def _factor_str(a):
    s = expr_to_str(a)
    if a.kind == "sum" or s.startswith("-"):
        return f"({s})"
    return s
