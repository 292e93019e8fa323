"""Exact symbolic scalar expressions over chart coordinates.

Provides the expression tree (rational constants, coordinates, sums,
products, rational powers, unary function applications with formal
derivative towers), exact differentiation, numeric evaluation, a
normalizing ``simplify``, a seeded randomized zero-test oracle, and the
text grammar used by scenario files.

Expressions are immutable; every operation is a pure function.  Trees
are the parse and print form: ``simplify``, ``diff`` and ``is_zero`` work
on the normal-form polynomials of ``_normal``.

Every engine text is written here, and every number read: rationals in
trees, witness points, Lie-algebra values and signed sums (forms print
their terms through the same join).  Numbers go through ``Decimal``, so
a number of any length is read and printed exactly; ``int`` and ``str``
stop at Python's integer string limit of 4300 digits.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from math import gcd, inf, isfinite, lcm, nan, ulp
from numbers import Real

from ._normal import (MAX_COORDS, canon_expr, combined_fraction, from_poly,
                      has_packed, iroot, is_rational_function, p_diff,
                      recompose, sorted_terms, tail_atoms, to_poly)


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
    """Division by zero, an invalid radicand, or a value beyond float
    range at an evaluation point."""


class OracleInconclusiveError(SymExprError):
    """Every resampling attempt for some sample point hit a singularity."""


class MissingFunctionError(SymExprError):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system; all variables resolve to one chart."""

    name: str
    coords: tuple

    MAX_DIM = MAX_COORDS  # one packed exponent field per coordinate

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
        self.value = value
        self.chart = None
        key = ("rat", value.numerator, value.denominator)
        self._key = key
        self._hash = hash(key)


class Var(Expr):
    __slots__ = ("index",)
    kind = "var"

    def __init__(self, chart, index):
        if not 0 <= index < chart.dim:
            raise ChartMismatchError(
                f"coordinate index {index} out of range for {chart.name!r}")
        self.chart = chart
        self.index = index
        key = ("var", chart.ident, index)
        self._key = key
        self._hash = hash(key)

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
        self.args = tuple(flat)
        self.chart = chart
        key = (kind, len(flat)) + tuple(a._key for a in flat)
        self._key = key
        self._hash = hash(key)


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
        self.base = base
        self.exp = exp
        self.chart = base.chart
        key = ("pow", base._key, exp.numerator, exp.denominator)
        self._key = key
        self._hash = hash(key)


class Func(Expr):
    """k-th formal derivative of a named smooth unary function, applied
    to an argument expression."""

    __slots__ = ("name", "order", "arg")
    kind = "func"

    def __init__(self, name, order, arg):
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        arg = as_expr(arg)
        self.name = name
        self.order = order
        self.arg = arg
        self.chart = arg.chart
        key = ("func", name, order, arg._key)
        self._key = key
        self._hash = hash(key)



# ---------------------------------------------------------------------------
# differentiation


def diff(e, v):
    """Partial derivative of e with respect to coordinate v."""
    if not isinstance(v, Var):
        raise TypeError("differentiation variable must be a Var")
    _merge_charts(e.chart, v.chart)
    return from_poly(p_diff(to_poly(e), v), v.chart)


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
        return f"PolyFunc({[_rat_str(c) for c in self.coeffs]})"


def _derivative_coeffs(coeffs):
    return tuple((i + 1) * c for i, c in enumerate(coeffs[1:])) or \
        (Fraction(0),)


def _horner_forms(coeffs):
    """Coefficients highest degree first, as floats and as integers over
    their common denominator, with that denominator.  A coefficient
    beyond float range is a float inf, so a float evaluation through it
    makes its point singular (see _enter); exact evaluation uses the
    integers only."""
    exact = coeffs[::-1]
    den = lcm(*(c.denominator for c in exact))
    return (tuple(map(_to_float, exact)),
            tuple(c.numerator * (den // c.denominator) for c in exact), den)


def _to_float(v):
    """An exact number as a float; inf or -inf beyond float range."""
    try:
        return float(v)
    except OverflowError:
        return inf if v > 0 else -inf


# A compiled expression is a straight-line program: a list of
# instructions (op, dst, a, b), each writing one register, in the order a
# depth-first walk of the tree first reaches each node, so a subexpression
# that occurs several times is computed once.  Constants are preloaded
# into the register template.  A register holds an exact value as an
# unreduced integer pair (num, den) with den > 0, or a float.  A number is
# converted to one of the two where it enters the program: at a
# coordinate and at the value of a function instantiation.  Exact values
# meet a float by one correctly rounded num / den.  A value beyond float
# range makes the point singular.
_SUM, _PROD, _IPOW, _RPOW, _VAR, _FUNC = range(6)


class _Program:
    """Compiles expressions and polynomial terms into one program; run()
    evaluates every compiled node at a point."""

    def __init__(self, func_env):
        self.func_env = func_env
        self.code = []
        self.template = []
        self.memo = {}
        self.consts = {}

    def _reg(self, value=None):
        self.template.append(value)
        return len(self.template) - 1

    def _emit(self, op, a, b=None):
        r = self._reg()
        self.code.append((op, r, a, b))
        return r

    def const(self, c):
        r = self.consts.get(c)
        if r is None:
            r = self.consts[c] = self._reg((c.numerator, c.denominator))
        return r

    def expr(self, e):
        """The register of e's value."""
        kind = e.kind
        if kind == "rat":
            return self.const(e.value)
        if kind == "pow":
            return self.power(e.base, e.exp)
        r = self.memo.get(e)
        if r is None:
            if kind == "var":
                r = self._emit(_VAR, e.name)
            elif kind == "sum" or kind == "prod":
                args = tuple(self.expr(a) for a in e.args)
                r = self._emit(_SUM if kind == "sum" else _PROD, args)
            elif kind == "func":
                arg = self.expr(e.arg)
                r = self._emit(_FUNC, arg, (self._lookup(e.name), e.order))
            else:
                raise TypeError(f"unknown node kind {kind!r}")
            self.memo[e] = r
        return r

    def power(self, base, exp):
        """The register of base^exp, shared with every equal power."""
        key = (base, exp.numerator, exp.denominator)
        r = self.memo.get(key)
        if r is None:
            src = self.expr(base)
            exp = Fraction(exp)
            if exp.denominator == 1:
                r = self._emit(_IPOW, src, int(exp))
            else:
                r = self._emit(_RPOW, src, (exp, float(exp)))
            self.memo[key] = r
        return r

    def terms(self, e, chart=None):
        """The registers of the additive terms of e, an expression or a
        polynomial on chart.  A polynomial's terms are its monomials, each
        compiled as from_poly writes it and in its order, without building
        the tree."""
        if not isinstance(e, dict):
            return [self.expr(t) for t in
                    (e.args if e.kind == "sum" else (e,))]
        outs = []
        for m, c in sorted_terms(e, chart):
            factors = [self.expr(a) if k == 1 else self.power(a, k)
                       for a, k in m]
            if not factors:
                outs.append(self.const(c))
            elif c != 1:
                outs.append(self._emit(_PROD, (self.const(c), *factors)))
            elif len(factors) > 1:
                outs.append(self._emit(_PROD, tuple(factors)))
            else:
                outs.append(factors[0])
        return outs

    def _lookup(self, name):
        """name's eval_deriv; a missing one raises when it is called, so
        errors come in the order a tree walk would meet them."""
        try:
            return self.func_env[name].eval_deriv
        except KeyError:
            message = f"no instantiation for function symbol {name!r}"
        except AttributeError:
            message = f"instantiation of {name!r} has no eval_deriv"

        def missing(order, x):
            raise MissingFunctionError(message)
        return missing

    def run(self, point):
        """The registers after running the program at point."""
        regs = self.template[:]
        try:
            for op, dst, a, b in self.code:
                if op == _PROD:
                    # exact factors are multiplied as integers; from the
                    # first float on, left to right in floats
                    num, den, v = 1, 1, None
                    for r in a:
                        x = regs[r]
                        if v is None:
                            if type(x) is tuple:
                                num *= x[0]
                                den *= x[1]
                                continue
                            v = num / den
                        v *= x if type(x) is float else x[0] / x[1]
                    regs[dst] = (num, den) if v is None else v
                elif op == _SUM:
                    # the same, with exact terms over a common denominator
                    num, den, v = 0, 1, None
                    for r in a:
                        x = regs[r]
                        if v is None:
                            if type(x) is tuple:
                                n, d = x
                                g = gcd(den, d)
                                num = num * (d // g) + n * (den // g)
                                den = den // g * d
                                continue
                            v = num / den
                        v += x if type(x) is float else x[0] / x[1]
                    regs[dst] = (num, den) if v is None else v
                elif op == _RPOW:
                    x = regs[a]
                    sign = x[0] if type(x) is tuple else x
                    if sign > 0:
                        if type(x) is float:
                            regs[dst] = x ** b[1]
                            continue
                        # iroot needs reduced terms: 18/32 is the square 9/16
                        n, d = x
                        g = gcd(n, d)
                        q = b[0].denominator
                        rn = iroot(n // g, q)
                        rd = None if rn is None else iroot(d // g, q)
                        regs[dst] = (n / d) ** b[1] if rd is None else \
                            _pair_pow(rn, rd, b[0].numerator)
                    elif sign == 0 and b[0] > 0:
                        regs[dst] = x   # an exact 0 stays exact, 0.0 a float
                    else:
                        raise EvaluationSingularityError(
                            "0 raised to a negative power" if sign == 0
                            else "negative radicand for a fractional power")
                elif op == _IPOW:
                    x = regs[a]
                    exact = type(x) is tuple
                    if b < 0 and not (x[0] if exact else x):
                        raise EvaluationSingularityError(
                            "0 raised to a negative power")
                    regs[dst] = _pair_pow(x[0], x[1], b) if exact else x ** b
                elif op == _VAR:
                    try:
                        regs[dst] = _enter(point[a])
                    except KeyError:
                        raise ChartMismatchError(
                            f"point has no value for {a!r}")
                else:           # _FUNC: b is (eval_deriv, order)
                    regs[dst] = _enter(b[0](b[1], _value(regs[a])))
        except OverflowError:
            raise EvaluationSingularityError(
                "a value beyond float range") from None
        return regs


def _enter(v):
    """A number as a register: a finite float stays a float, any other
    number becomes an exact pair.  An infinite or nan float makes the
    point singular."""
    if type(v) is not Fraction:
        if isinstance(v, float):
            if not isfinite(v):
                raise EvaluationSingularityError("a value beyond float range")
            return float(v)
        v = Fraction(v)
    return v.numerator, v.denominator


def _pair_pow(n, d, k):
    """(n/d)^k as a pair; n != 0 when k < 0."""
    if k >= 0:
        return n ** k, d ** k
    return (d ** -k, n ** -k) if n > 0 else ((-d) ** -k, (-n) ** -k)


def _value(x):
    """A register's value as a number: a reduced Fraction when exact."""
    return Fraction(*x) if type(x) is tuple else x


def eval_expr(e, point, func_env=None):
    """Evaluate e at a point (mapping coordinate name -> number).

    e is compiled into a straight-line program, each distinct
    subexpression once, and the program is run at the point.  A float
    coordinate is a float in the program, any other number an exact
    integer pair.  Exact values are reduced to a Fraction only before a
    root, before a function call and at the end, so an exact result is a
    reduced Fraction; irrational powers fall back to floats.  A value
    beyond float range raises EvaluationSingularityError.  Function
    symbols are looked up in func_env, whose values supply
    eval_deriv(order, x) (as PolyFunc does); order-k applications evaluate
    the k-th derivative.  eval_deriv gets a reduced Fraction or a float
    and may return a float or any exact number; an exact one (an int
    too) continues as a Fraction.
    """
    program = _Program(func_env or {})
    out = program.expr(e)
    return _value(program.run(point)[out])


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
MAX_SAMPLES = 4096      # sample points per zero test, 32 times the default
MAX_FUNC_DEGREE = 96    # function symbol degree, 32 times the default
_MAX_DRAWN_DEGREE = 4 * MAX_FUNC_DEGREE   # the most oracle_function_env draws


@dataclass(frozen=True)
class OracleConfig:
    """Deterministic sampling configuration for the zero-test oracle.

    The box maps coordinate names to closed rational intervals, each a
    (lo, hi) pair of numbers or strings such as "1/4"; unlisted
    coordinates use the default interval [1/4, 2] which keeps the built-in
    scenarios away from their singular loci.  Every setting is checked
    here, once, and a bad one raises ValueError: the seed, the sample
    count and the function degree must be ints (a bool is not), the
    tolerances real numbers (a bool is not; they are kept as floats),
    and each box entry a pair whose ends are not bools.  So are the
    settings under which a Zero verdict would hold vacuously (no samples,
    a negative function degree, a tolerance that is negative, infinite,
    nan or beyond float range, an interval whose lo is not below its hi),
    and a sample count above MAX_SAMPLES or a function degree above
    MAX_FUNC_DEGREE, which would make one zero test grind instead of
    answering.  Each config keeps what it has drawn in one table: its
    sample points (see sample_point) and its function instantiations,
    keyed by symbol name and degree (see oracle_function_env).  Both
    depend only on the settings and the key, so drawing one twice gives
    the same value, and threads may share the table.  The table is not a
    setting, so it takes no part in equality or hashing, and replace()
    starts a new one.
    """

    seed: int = 0
    samples: int = 128
    box: tuple = ()
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    func_degree: int = 3
    _points: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        for name, lo, hi in (("samples", 1, MAX_SAMPLES),
                             ("func_degree", 0, MAX_FUNC_DEGREE)):
            value = getattr(self, name)
            if type(value) is not int or not lo <= value <= hi:
                raise ValueError(f"{name} must be an int between {lo} and "
                                 f"{hi}, got {value!r}")
        for name in ("abs_tol", "rel_tol"):
            tol = getattr(self, name)
            real = isinstance(tol, Real) and not isinstance(tol, bool)
            try:
                value = float(tol) if real else nan
            except OverflowError:
                value = inf
            if not (isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be a finite number >= 0, got {tol!r}")
            object.__setattr__(self, name, value)
        box = dict(self.box)
        for name, interval in box.items():
            if not (isinstance(interval, (tuple, list))
                    and len(interval) == 2) \
                    or any(isinstance(end, bool) for end in interval):
                raise ValueError(f"the interval of {name} must be a "
                                 f"[lo, hi] pair, got {interval!r}")
        norm = tuple(sorted(
            (name, (Fraction(lo), Fraction(hi)))
            for name, (lo, hi) in box.items()))
        for name, (lo, hi) in norm:
            if not lo < hi:
                raise ValueError(
                    f"the interval of {name} must have lo < hi, "
                    f"got [{lo}, {hi}]")
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
        return (f"NonZero(|value|={self.magnitude:.3g} at "
                f"{_witness_str(self.witness or ())})")


def _sample_rng(cfg, tag):
    return random.Random(f"{cfg.seed}:{tag}")


def sample_point(cfg, coords, index, attempt=0):
    """The seeded point number index (redraw number attempt) over the
    named coordinates, as a new dict.  A point depends only on cfg and
    the arguments, so it is drawn once and kept in cfg's table."""
    key = (tuple(coords), index, attempt)
    point = cfg._points.get(key)
    if point is None:
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
        cfg._points[key] = point
    return dict(point)


def oracle_function_env(cfg, e):
    """The seeded instantiation of every function symbol in e, an
    expression or a polynomial, as a dict name -> PolyFunc drawn from the
    symbol's own seeded stream; empty when e has no function symbols.

    A symbol applied at m distinct arguments, with derivatives up to
    order K, is drawn at degree max(cfg.func_degree, m(K+1) - 1).  At a
    point, e depends on the symbol only through its K-jets at those m
    arguments, and Hermite interpolation matches any such jets with a
    polynomial of degree m(K+1) - 1.  So an e that is nonzero for some
    smooth function is nonzero for some polynomial of that degree, and
    the sampled test can see it (Schwartz-Zippel); a fixed degree would
    pass every identity that holds for the polynomials of that degree.
    Coefficients are drawn in order, so the first func_degree + 1 do not
    depend on the degree.  A degree above _MAX_DRAWN_DEGREE is a
    SymExprError: a lower one could pass a nonzero e as zero.  Each
    (name, degree) is drawn once per config and kept in its table, so
    every zero test on one config shares the instance.
    """
    args, order = {}, {}
    stack = tail_atoms(e) if isinstance(e, dict) else [e]
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
    env = {}
    for name in sorted(args):
        degree = max(cfg.func_degree, len(args[name]) * (order[name] + 1) - 1)
        if degree > _MAX_DRAWN_DEGREE:
            raise SymExprError(
                f"function {name!r} needs degree {degree}, above the "
                f"limit {_MAX_DRAWN_DEGREE}")
        f = cfg._points.get((name, degree))
        if f is None:
            # threads racing here draw equal instances; the first is kept
            f = cfg._points.setdefault((name, degree), PolyFunc.random(
                _sample_rng(cfg, f"fn:{name}"), degree))
        env[name] = f
    return env


def sampled_sums(e, cfg, func_env, chart=None, count=None):
    """Evaluations of e, an expression or a polynomial, at the seeded
    sample points over the coordinates of chart (a polynomial's chart;
    None when e has no coordinates): the oracle's one sampling loop.

    Yields (point, total, tol) for each of the first count seeded indices
    (cfg.samples when count is None): the sum of e's additive terms at the
    point, and the zero tolerance there.  When every term is exact at the
    point, the sum is an exact Fraction and the tolerance is 0; otherwise
    the sum is a float and the tolerance is abs_tol plus rel_tol times the
    largest term.  The terms and their sum are compiled once into one
    straight-line program, run at every point and every redrawn point, so
    a subexpression that occurs in several terms (a function value, a
    radical) is evaluated once per point.  A point where evaluation hits a
    singularity, or where a float term or the float sum leaves float
    range, is redrawn up to MAX_RESAMPLE times; OracleInconclusiveError
    when every attempt fails.
    """
    program = _Program(func_env)
    outs = program.terms(e, chart)
    out = program._emit(_SUM, tuple(outs))
    coords = chart.coords if chart is not None else ()
    for i in range(cfg.samples if count is None else count):
        for attempt in range(MAX_RESAMPLE):
            point = sample_point(cfg, coords, i, attempt)
            try:
                total, tol = _total(program.run(point), outs, out, cfg)
            except EvaluationSingularityError:
                continue
            break
        else:
            raise OracleInconclusiveError(
                f"sample point {i} hit singularities in all "
                f"{MAX_RESAMPLE} resampling attempts")
        yield point, total, tol


def _total(regs, outs, out, cfg):
    """The sum at a point and its tolerance: the exact sum register when
    it is exact, otherwise the float sum of the terms one by one."""
    total = regs[out]
    if type(total) is tuple:
        return Fraction(*total), 0
    try:
        values = [v[0] / v[1] if type(v) is tuple else v
                  for v in (regs[r] for r in outs)]
    except OverflowError:
        raise EvaluationSingularityError(
            "a term beyond float range") from None
    total = sum(values)
    if not isfinite(total):
        raise EvaluationSingularityError("a sum beyond float range")
    return total, cfg.abs_tol + cfg.rel_tol * max(map(abs, values))


def is_zero(e, cfg=OracleConfig(), chart=None):
    """Decide whether e, an expression or a polynomial on chart, is
    identically zero.

    Exact normalization decides the polynomial/rational subclass, where a
    nonzero normal form gets an exact witness from the first
    max(samples, 8) seeded points of cfg; other expressions are evaluated
    at cfg's seeded sample points with function symbols instantiated as
    seeded random polynomials (Schwartz-Zippel).  Either way the normal
    form's terms are compiled into one program, run at every point by
    sampled_sums until the first nonzero one.  Identical seed and config
    give identical verdicts.  A NonZero total beyond float range has
    magnitude inf, and one below it the smallest positive float.
    """
    if not isinstance(e, dict):
        e = as_expr(e)
        chart = e.chart
        e = to_poly(e)
    num, dens = combined_fraction(e)
    if not num:
        return ZeroVerdict(zero=True, exact=True)
    p = recompose(num, dens)
    # the chart of the atoms p holds: the packed coordinates are on chart
    chart = _merge_charts(chart if has_packed(p) else None,
                          *(a.chart for a in tail_atoms(p)))
    rational = is_rational_function(num, dens)
    if rational:
        # exactly nonzero as a rational function: a witness by exact
        # evaluation at (at least 8) seeded rational points
        env, count, func_env = {}, max(cfg.samples, 8), None
    else:
        env = oracle_function_env(cfg, p)
        count, func_env = cfg.samples, tuple(sorted(env.items()))
    for point, total, tol in sampled_sums(p, cfg, env, chart, count):
        if abs(total) > tol:
            return ZeroVerdict(
                zero=False, exact=rational,
                witness=tuple(sorted(point.items())),
                magnitude=_to_float(abs(total)) or ulp(0.0),
                func_env=func_env)
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
    line, line_start = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        col = i - line_start + 1
        j = i + 1
        if ch == "\n":
            line, line_start = line + 1, j
        elif ch.isdecimal():
            seen_dot = False
            while j < n and (text[j].isdecimal()
                             or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(("NUM", text[i:j], line, col))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name_end = j
            while j < n and text[j] == "'":
                j += 1
            tokens.append(("IDENT", (text[i:name_end], j - name_end),
                           line, col))
        elif ch in _OPS:
            tokens.append(("OP", ch, line, col))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i = j
    tokens.append(("END", None, line, n - line_start + 1))
    return tokens


class ExprParser:
    """Recursive-descent parser for the scalar expression grammar, over
    the tokens of one text.

    Nodes are built through add, neg, mul, div, power and apply, so a
    subclass can parse the same grammar into other values (form
    literals, in exterior)."""

    def __init__(self, text, chart, names=None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.chart = chart
        self.names = names or {}

    def peek(self):
        return self.tokens[self.pos]

    def expect_op(self, op):
        kind, value, line, col = self.peek()
        if kind != "OP" or value != op:
            raise ParseError(f"expected {op!r}", line, col)
        self.pos += 1

    def error(self, message):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)

    def parse_all(self):
        """The whole text as one expression."""
        e = self.parse_expr()
        kind, _, line, col = self.peek()
        if kind != "END":
            raise ParseError("unexpected trailing input", line, col)
        return e

    def parse_expr(self):
        left = self.parse_term()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.pos += 1
                right = self.parse_term()
                left = self.add(left, right if value == "+"
                                else self.neg(right))
            else:
                return left

    def parse_term(self):
        left = self.parse_factor()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "OP" and value in "*/":
                self.pos += 1
                right = self.parse_factor()
                left = self.mul(left, right) if value == "*" \
                    else self.div(left, right)
            else:
                return left

    def parse_factor(self):
        base = self.parse_base()
        kind, value, _, _ = self.peek()
        if kind == "OP" and value == "^":
            self.pos += 1
            return self.power(base)
        return base

    def parse_exponent(self):
        kind, value, line, col = self.peek()
        if kind == "OP" and value == "(":
            self.pos += 1
            num = self._signed_int()
            self.expect_op("/")
            _, _, line, col = self.peek()
            den = self._signed_int(allow_sign=False)
            if not den:
                raise ParseError("zero denominator in an exponent", line, col)
            self.expect_op(")")
            return num / den
        return self._signed_int()

    def _signed_int(self, allow_sign=True):
        sign = 1
        kind, value, line, col = self.peek()
        if allow_sign and kind == "OP" and value == "-":
            self.pos += 1
            sign = -1
            kind, value, line, col = self.peek()
        if kind != "NUM" or "." in value:
            raise ParseError("expected an integer exponent", line, col)
        self.pos += 1
        return sign * _number(value)

    def parse_base(self):
        kind, value, line, col = self.peek()
        if kind == "NUM":
            self.pos += 1
            return Rat(_number(value))
        if kind == "IDENT":
            self.pos += 1
            name, primes = value
            nk, nv, _, _ = self.peek()
            if nk == "OP" and nv == "(":
                self.pos += 1
                arg = self.parse_expr()
                self.expect_op(")")
                return self.apply(name, primes, arg)
            if primes:
                raise ParseError(
                    f"derivative marks on {name!r} need a function "
                    f"application", line, col)
            return self.resolve_ident(name, line, col)
        if kind == "OP" and value == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "OP" and value == "-":
            self.pos += 1
            return self.neg(self.parse_factor())
        self.error("expected a number, identifier or parenthesis")

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


def _number(digits):
    """Decimal digits with an optional point as an exact Fraction;
    Decimal reads any number of digits, where int() stops at 4300."""
    return Fraction(Decimal(digits))


def parse_expr(text, chart, names=None):
    """Parse the expression grammar; idents resolve to chart coordinates
    or previously defined names, and an ident before '(' is a function
    symbol (primes mark derivative order)."""
    return ExprParser(text, chart, names).parse_all()


# printer ------------------------------------------------------------------


def _rat_str(v):
    """A rational, an int or a Fraction, as text, exactly: str(Decimal)
    has no digit limit, where str(int) has."""
    num = str(Decimal(v.numerator))
    return num if v.denominator == 1 else f"{num}/{Decimal(v.denominator)}"


def _witness_str(witness):
    """A witness point, a dict or (coord, value) pairs, as
    "p1=3/4, q1=1/2", in coordinate order."""
    return ", ".join(f"{name}={_rat_str(v)}"
                     for name, v in sorted(dict(witness).items()))


def _sum_str(texts):
    """Term texts as one sum: " - " before a term that starts with "-",
    " + " before any other, "0" for no terms."""
    if not texts:
        return "0"
    return texts[0] + "".join(f" - {s[1:]}" if s.startswith("-")
                              else f" + {s}" for s in texts[1:])


def _pow_str(base, exp):
    """base^exp, or the base alone when exp is 1; a power needs no
    parentheses then."""
    s = expr_to_str(base)
    if s.startswith("-") or base.kind in ("sum", "prod") \
            or base.kind == "pow" and exp != 1:
        s = f"({s})"
    if exp == 1:
        return s
    e = _rat_str(exp)
    return f"{s}^{e}" if exp.denominator == 1 else f"{s}^({e})"


def expr_to_str(e):
    """Render an expression in the input grammar (explicit '*', negative
    exponents printed as divisions)."""
    kind = e.kind
    if kind == "rat":
        return _rat_str(e.value)
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
                s = _rat_str(abs(coeff))
                prefix = ("-" if coeff < 0 else "") + s
                if nums:
                    prefix += "*"
        # the coefficient is the numerator when there is no other
        body = "*".join(nums) if nums else \
            ("1" if dens and prefix in ("", "-") else "")
        for d in dens:
            body += "/" + d
        return prefix + body
    if kind == "sum":
        return _sum_str([expr_to_str(a) for a in e.args])
    raise TypeError(f"unknown node kind {kind!r}")


def _factor_str(a):
    s = expr_to_str(a)
    if a.kind == "sum" or s.startswith("-"):
        return f"({s})"
    return s
