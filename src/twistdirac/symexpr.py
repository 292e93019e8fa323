"""Exact symbolic scalar expressions over chart coordinates.

Provides the expression tree (rational constants, coordinates, sums,
products, rational powers, unary function applications with formal
derivative towers), exact differentiation, numeric evaluation, a
normalizing ``simplify``, a seeded randomized zero-test oracle, and the
text grammar used by scenario files.

Expressions are immutable; every operation is a pure function.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import _normal
from ._normal import canon_expr, combined_fraction, recompose, to_poly


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

    MAX_DIM = 16          # default cap; raise per chart when needed
    HARD_DIM_LIMIT = 62   # multi-indices are coordinate bitmasks

    def __init__(self, name, coords, max_dim=MAX_DIM):
        coords = tuple(coords)
        if len(coords) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise ValueError("chart coordinates must be distinct")
        if len(coords) > min(max_dim, self.HARD_DIM_LIMIT):
            raise ValueError(
                f"chart dimension {len(coords)} exceeds limit "
                f"{min(max_dim, self.HARD_DIM_LIMIT)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coords", coords)
        # identity of the chart in coordinate keys: charts that share a
        # name but not their coordinates must not share atoms; one interned
        # string keeps those keys cheap to hash and compare
        object.__setattr__(self, "ident", sys.intern(repr((name, coords))))

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
        if isinstance(coord, int):
            return Var(self, coord)
        return Var(self, self.index(coord))

    def vars(self):
        return tuple(Var(self, i) for i in range(self.dim))

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

    __slots__ = ("chart", "_key", "_hash")

    kind = None

    def sort_key(self):
        return self._key

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
        return isinstance(other, Expr) and self.sort_key() == other.sort_key()

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


class Sum(Expr):
    __slots__ = ("args",)
    kind = "sum"

    def __init__(self, *args):
        flat = []
        for a in args:
            a = as_expr(a)
            if a.kind == "sum":
                flat.extend(a.args)
            else:
                flat.append(a)
        chart = _merge_charts(*(a.chart for a in flat))
        object.__setattr__(self, "args", tuple(flat))
        object.__setattr__(self, "chart", chart)
        key = ("sum", len(flat)) + tuple(a.sort_key() for a in flat)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))


class Prod(Expr):
    __slots__ = ("args",)
    kind = "prod"

    def __init__(self, *args):
        flat = []
        for a in args:
            a = as_expr(a)
            if a.kind == "prod":
                flat.extend(a.args)
            else:
                flat.append(a)
        chart = _merge_charts(*(a.chart for a in flat))
        object.__setattr__(self, "args", tuple(flat))
        object.__setattr__(self, "chart", chart)
        key = ("prod", len(flat)) + tuple(a.sort_key() for a in flat)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))


class Pow(Expr):
    __slots__ = ("base", "exp")
    kind = "pow"

    def __init__(self, base, exp):
        base = as_expr(base)
        exp = Fraction(exp)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "chart", base.chart)
        key = ("pow", base.sort_key(), exp.numerator, exp.denominator)
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
        key = ("func", name, order, arg.sort_key())
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))


_normal._NormCtx.register(Rat, Var, Sum, Prod, Pow, Func)

ZERO = Rat(0)
ONE = Rat(1)


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
    return _diff(e, v)


def _diff(e, v):
    kind = e.kind
    if kind == "rat":
        return ZERO
    if kind == "var":
        return ONE if e.index == v.index else ZERO
    if kind == "sum":
        return Sum(*[_diff(a, v) for a in e.args])
    if kind == "prod":
        terms = []
        for i, a in enumerate(e.args):
            da = _diff(a, v)
            if da is ZERO or (da.kind == "rat" and da.value == 0):
                continue
            terms.append(Prod(*e.args[:i], da, *e.args[i + 1:]))
        return Sum(*terms) if terms else ZERO
    if kind == "pow":
        db = _diff(e.base, v)
        if db.kind == "rat" and db.value == 0:
            return ZERO
        if e.exp == 1:
            return db
        return Prod(Rat(e.exp), Pow(e.base, e.exp - 1), db)
    if kind == "func":
        da = _diff(e.arg, v)
        if da.kind == "rat" and da.value == 0:
            return ZERO
        return Prod(Func(e.name, e.order + 1, e.arg), da)
    raise TypeError(f"unknown node kind {kind!r}")


# ---------------------------------------------------------------------------
# smooth function instantiation and evaluation


class PolyFunc:
    """Polynomial instantiation of a function symbol.

    Supplies derivatives of every order, so a symbol and its formal
    derivative tower evaluate consistently.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def random(cls, rng, degree):
        # strictly positive coefficients: keeps the built-in radial/conformal
        # scenarios away from sign-change singularities on the positive box
        return cls([Fraction(rng.randrange(4, 37), 16)
                    for _ in range(degree + 1)])

    def derivative(self):
        return PolyFunc([(i + 1) * c for i, c in enumerate(self.coeffs[1:])]
                        or [Fraction(0)])

    def eval_deriv(self, order, x):
        f = self
        for _ in range(order):
            f = f.derivative()
        acc = 0 if isinstance(x, float) else Fraction(0)
        for c in reversed(f.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def __call__(self, x):
        return self.eval_deriv(0, x)

    def __repr__(self):
        return f"PolyFunc({[str(c) for c in self.coeffs]})"


def _num_pow(base, exp):
    if exp.denominator == 1:
        n = int(exp)
        if base == 0 and n < 0:
            raise EvaluationSingularityError("0 raised to a negative power")
        if isinstance(base, float):
            return base ** n
        return Fraction(base) ** n
    if base == 0:
        if exp > 0:
            return 0.0
        raise EvaluationSingularityError("0 raised to a negative power")
    if base < 0:
        raise EvaluationSingularityError(
            "negative radicand for a fractional power")
    if isinstance(base, Fraction):
        val, leftover = _normal.rational_pow(base, exp)
        if leftover is None:
            return val
    return float(base) ** float(exp)


def eval_expr(e, point, func_env=None):
    """Evaluate e at a point (mapping coordinate name -> number).

    Arithmetic stays exact on Fractions where possible and falls back to
    floats for irrational powers.  Function symbols are looked up in
    func_env; order-k applications evaluate the k-th derivative.
    """
    func_env = func_env or {}
    kind = e.kind
    if kind == "rat":
        return e.value
    if kind == "var":
        try:
            v = point[e.name]
        except KeyError:
            raise ChartMismatchError(f"point has no value for {e.name!r}")
        return v if isinstance(v, float) else Fraction(v)
    if kind == "sum":
        acc = Fraction(0)
        for a in e.args:
            acc = acc + eval_expr(a, point, func_env)
        return acc
    if kind == "prod":
        acc = Fraction(1)
        for a in e.args:
            acc = acc * eval_expr(a, point, func_env)
        return acc
    if kind == "pow":
        return _num_pow(eval_expr(e.base, point, func_env), e.exp)
    if kind == "func":
        try:
            f = func_env[e.name]
        except KeyError:
            raise MissingFunctionError(
                f"no instantiation for function symbol {e.name!r}")
        x = eval_expr(e.arg, point, func_env)
        if e.order and not hasattr(f, "eval_deriv"):
            raise MissingFunctionError(
                f"instantiation of {e.name!r} cannot supply derivatives")
        if hasattr(f, "eval_deriv"):
            return f.eval_deriv(e.order, x)
        return f(x)
    raise TypeError(f"unknown node kind {kind!r}")


# ---------------------------------------------------------------------------
# simplification


def simplify(e):
    """Idempotent normal form: expanded, collected, sorted monomials for
    the polynomial/rational subclass, best-effort normalization elsewhere."""
    return canon_expr(as_expr(e))


def function_symbols(e):
    out = set()
    stack = [e]
    while stack:
        x = stack.pop()
        kind = x.kind
        if kind == "func":
            out.add(x.name)
            stack.append(x.arg)
        elif kind in ("sum", "prod"):
            stack.extend(x.args)
        elif kind == "pow":
            stack.append(x.base)
    return out


# ---------------------------------------------------------------------------
# the randomized zero-test oracle


@dataclass(frozen=True)
class OracleConfig:
    """Deterministic sampling configuration for the zero-test oracle.

    The box maps coordinate names to closed rational intervals; unlisted
    coordinates use the default interval [1/4, 2] which keeps the built-in
    scenarios away from their singular loci.
    """

    seed: int = 0
    samples: int = 128
    box: tuple = ()
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    func_degree: int = 3
    max_resample: int = 10

    def __post_init__(self):
        norm = tuple(sorted(
            (name, (Fraction(lo), Fraction(hi)))
            for name, (lo, hi) in dict(self.box).items()))
        object.__setattr__(self, "box", norm)

    def interval(self, name):
        for n, iv in self.box:
            if n == name:
                return iv
        return (Fraction(1, 4), Fraction(2))


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of a zero test: Zero, or NonZero with a witness point."""

    zero: bool
    exact: bool
    witness: tuple = None          # ((coord, Fraction), ...) or None
    magnitude: float = None
    func_env: tuple = None         # ((name, PolyFunc), ...) or None

    @property
    def witness_point(self):
        return dict(self.witness) if self.witness is not None else None

    def __str__(self):
        if self.zero:
            return "Zero(exact)" if self.exact else "Zero(sampled)"
        pt = ", ".join(f"{n}={v}" for n, v in (self.witness or ()))
        return f"NonZero(|value|={self.magnitude:.3g} at {pt})"


def _sample_rng(cfg, tag):
    return random.Random(f"{cfg.seed}:{tag}")


def sample_point(cfg, coords, index, attempt=0):
    rng = _sample_rng(cfg, f"pt:{index}:{attempt}")
    point = {}
    for name in coords:
        lo, hi = cfg.interval(name)
        point[name] = lo + (hi - lo) * Fraction(rng.randrange(4097), 4096)
    return point


def oracle_function_env(cfg, names):
    return {name: PolyFunc.random(_sample_rng(cfg, f"fn:{name}"),
                                  cfg.func_degree)
            for name in sorted(names)}


def sampled_sums(e, cfg, coords, func_env):
    """Float evaluations of e at the seeded sample points.

    Yields (point, total, tol) for each of cfg.samples points: the sum of
    e's additive terms at the point, and the zero tolerance there (abs_tol
    plus rel_tol times the largest term).  A point where evaluation hits a
    singularity is redrawn up to cfg.max_resample times;
    OracleInconclusiveError when every attempt fails.
    """
    terms = e.args if e.kind == "sum" else (e,)
    for i in range(cfg.samples):
        for attempt in range(cfg.max_resample):
            point = sample_point(cfg, coords, i, attempt)
            try:
                values = [float(eval_expr(t, point, func_env))
                          for t in terms]
            except EvaluationSingularityError:
                continue
            break
        else:
            raise OracleInconclusiveError(
                f"sample point {i} hit singularities in all "
                f"{cfg.max_resample} resampling attempts")
        scale = max((abs(v) for v in values), default=0.0)
        yield point, sum(values), cfg.abs_tol + cfg.rel_tol * scale


def _poly_over_vars(p):
    for m in p:
        for a, e in m:
            if a.kind != "var" or e.denominator != 1:
                return False
    return True


def _is_rational_subclass(num, dens):
    if not _poly_over_vars(num):
        return False
    return all(_poly_over_vars(_normal._atom_poly(a)) for a in dens)


def is_zero(e, cfg=OracleConfig()):
    """Decide whether e is identically zero.

    Exact normalization decides the polynomial/rational subclass; other
    expressions are evaluated at seeded sample points with function symbols
    instantiated as seeded random polynomials.  Identical seed and config
    give identical verdicts.
    """
    e = as_expr(e)
    num, dens = combined_fraction(to_poly(e))
    if not num:
        return ZeroVerdict(zero=True, exact=True)
    simplified = _normal.from_poly(recompose(num, dens))
    chart = simplified.chart
    coords = chart.coords if chart is not None else ()
    if _is_rational_subclass(num, dens):
        # exactly nonzero as a rational function; exhibit a witness by
        # exact evaluation at seeded rational points
        for i in range(max(cfg.samples, 8)):
            for attempt in range(cfg.max_resample):
                point = sample_point(cfg, coords, i, attempt)
                try:
                    val = eval_expr(simplified, point)
                except EvaluationSingularityError:
                    continue
                if val != 0:
                    return ZeroVerdict(
                        zero=False, exact=True,
                        witness=tuple(sorted(point.items())),
                        magnitude=abs(float(val)))
                break
        raise OracleInconclusiveError(
            "nonzero normal form but no nonzero sample point found")
    env = oracle_function_env(cfg, function_symbols(simplified))
    for point, total, tol in sampled_sums(simplified, cfg, coords, env):
        if abs(total) > tol:
            return ZeroVerdict(
                zero=False, exact=False,
                witness=tuple(sorted(point.items())),
                magnitude=abs(total),
                func_env=tuple(sorted(env.items())))
    return ZeroVerdict(zero=True, exact=False,
                       func_env=tuple(sorted(env.items())))


def exprs_equal(a, b, cfg=OracleConfig()):
    return is_zero(as_expr(a) - as_expr(b), cfg)


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
    """Recursive-descent parser for the scalar expression grammar."""

    def __init__(self, stream, chart, names=None):
        self.ts = stream
        self.chart = chart
        self.names = names or {}

    def parse_expr(self):
        left = self.parse_term()
        while True:
            kind, value, _, _ = self.ts.peek()
            if kind == "OP" and value in "+-":
                self.ts.next()
                right = self.parse_term()
                if value == "+":
                    left = Sum(left, right)
                else:
                    left = Sum(left, Prod(Rat(-1), right))
            else:
                return left

    def parse_term(self):
        left = self.parse_factor()
        while True:
            kind, value, _, _ = self.ts.peek()
            if kind == "OP" and value in "*/":
                self.ts.next()
                right = self.parse_factor()
                if value == "*":
                    left = Prod(left, right)
                else:
                    left = Prod(left, Pow(right, Fraction(-1)))
            else:
                return left

    def parse_factor(self):
        base = self.parse_base()
        kind, value, _, _ = self.ts.peek()
        if kind == "OP" and value == "^":
            self.ts.next()
            return Pow(base, self.parse_exponent())
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
                return Func(name, primes, arg)
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
            return Prod(Rat(-1), self.parse_factor())
        self.ts.error("expected a number, identifier or parenthesis")

    def resolve_ident(self, name, line, col):
        if name in self.chart.coords:
            return self.chart.var(name)
        if name in self.names:
            return self.names[name]
        raise ParseError(f"unknown identifier {name!r}", line, col)


def parse_expr(text, chart, names=None):
    """Parse the expression grammar; idents resolve to chart coordinates
    or previously defined names, and an ident before '(' is a function
    symbol (primes mark derivative order)."""
    ts = TokenStream(tokenize(text))
    parser = ExprParser(ts, chart, names)
    e = parser.parse_expr()
    kind, _, line, col = ts.peek()
    if kind != "END":
        raise ParseError("unexpected trailing input", line, col)
    return e


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
