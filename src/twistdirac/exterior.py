"""Differential forms and vector fields with symbolic coefficients.

Forms store coefficients on strictly increasing multi-indices encoded as
bitmasks over the chart coordinates; all sign bookkeeping happens at
operation time via merge-parity counts.  Iterated contractions are
innermost-first: interior(X, interior(Y, a)) contracts Y into the first
slot of a, so i_Z i_Y i_X H = H(X, Y, Z).

Coefficients and components are normal-form ``_normal`` polynomials.
Constructors convert expression trees once; every operation acts on the
polynomials; ``coeffs``, ``coeff()``, ``terms()``, ``scalar_value()`` and
``comps`` rebuild canonical trees for printing and evaluation.

``form_is_zero`` and ``vf_is_zero`` call ``is_zero`` on every stored
coefficient in basis order.  They answer with one composite
``ZeroVerdict`` whose children are those verdicts, labelled by basis
element; the first coefficient whose test raises raises its own error.
"""

from __future__ import annotations

from fractions import Fraction

from ._normal import (from_poly, normal, p_add_inplace, p_const, p_diff,
                      p_mul, to_poly)
from .symexpr import (Chart, Expr, ExprParser, OracleConfig, Pow, Rat,
                      SymExprError, ZeroVerdict, _merge_charts, _sum_str,
                      as_expr, is_zero, parse_expr)

__all__ = [
    "Chart", "VectorField", "KForm", "wedge", "ext_d",
    "interior", "lie_derivative", "vf_bracket", "vf_apply", "parse_form",
    "parse_vector_field", "form_is_zero", "vf_is_zero",
]


def _merge_sign(m1, m2):
    """Parity sign for sorting the concatenation of two disjoint masks."""
    inversions = 0
    rest = m2
    while rest:
        j = (rest & -rest).bit_length() - 1
        inversions += (m1 >> (j + 1)).bit_count()
        rest &= rest - 1
    return -1 if inversions & 1 else 1


def _as_poly(c, chart):
    """A coefficient as a polynomial: a polynomial passes through, an
    expression (or number) on the chart is converted once."""
    if isinstance(c, dict):
        return c
    c = as_expr(c)
    _merge_charts(c.chart, chart)
    return to_poly(c)


class VectorField:
    """Vector field on a chart: one component per coordinate, each given
    as an expression or a polynomial and held as a polynomial."""

    __slots__ = ("chart", "polys")

    def __init__(self, chart, comps):
        polys = tuple(_as_poly(c, chart) for c in comps)
        if len(polys) != chart.dim:
            raise ValueError("one component per chart coordinate required")
        self.chart = chart
        self.polys = polys

    @property
    def comps(self):
        """The components as canonical expressions."""
        return tuple(from_poly(normal(p), self.chart) for p in self.polys)

    @classmethod
    def zero(cls, chart):
        return cls(chart, ({},) * chart.dim)

    @classmethod
    def basis(cls, chart, coord):
        i = coord if isinstance(coord, int) else chart.index(coord)
        return cls(chart, tuple(p_const(1 if j == i else 0)
                                for j in range(chart.dim)))

    def __add__(self, other):
        _merge_charts(self.chart, other.chart)
        return VectorField(self.chart,
                           tuple(p_add_inplace(dict(a), b) for a, b in
                                 zip(self.polys, other.polys)))

    def __sub__(self, other):
        _merge_charts(self.chart, other.chart)
        return VectorField(self.chart,
                           tuple(p_add_inplace(dict(a), b, -1) for a, b in
                                 zip(self.polys, other.polys)))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        factor = _as_poly(factor, self.chart)
        return VectorField(self.chart,
                           tuple(p_mul(factor, c) for c in self.polys))

    def simplified(self):
        return VectorField(self.chart, tuple(normal(p) for p in self.polys))

    def __str__(self):
        parts = []
        for name, p in zip(self.chart.coords, self.polys):
            q = normal(p)
            if q:
                parts.append(f"({from_poly(q, self.chart)})*"
                             f"{_field_label(name)}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<VectorField {self}>"


class KForm:
    """Alternating k-form; coefficients keyed by increasing-index bitmask,
    each given as an expression or a polynomial and held as a polynomial."""

    __slots__ = ("chart", "degree", "polys")

    def __init__(self, chart, degree, coeffs=None):
        if degree < 0:
            raise ValueError("form degree must be >= 0")
        self.chart = chart
        self.degree = degree
        store = {}
        for mask, c in (coeffs or {}).items():
            if mask.bit_count() != degree or mask >= (1 << chart.dim):
                raise ValueError(
                    f"mask {mask:b} invalid for a degree-{degree} form")
            p = _as_poly(c, chart)
            if p:
                store[mask] = p
        self.polys = store

    @property
    def coeffs(self):
        """The nonzero coefficients as canonical expressions."""
        return {mask: from_poly(q, self.chart)
                for mask, p in self.polys.items()
                if (q := normal(p))}

    @classmethod
    def zero(cls, chart, degree):
        return cls(chart, degree)

    @classmethod
    def scalar(cls, chart, value):
        return cls(chart, 0, {0: value})

    @classmethod
    def covector(cls, chart, coord):
        i = coord if isinstance(coord, int) else chart.index(coord)
        return cls(chart, 1, {1 << i: p_const(1)})

    @classmethod
    def basis(cls, chart, coords, coeff=1):
        """coeff * dx_{i1} ^ ... ^ dx_{ik} for coordinates in any order."""
        form = cls.scalar(chart, coeff)
        for c in coords:
            form = wedge(form, cls.covector(chart, c))
        return form

    def coeff(self, mask):
        return from_poly(normal(self.polys.get(mask, {})), self.chart)

    def terms(self):
        return sorted(self.coeffs.items())

    def is_structurally_zero(self):
        return not self.polys

    def scalar_value(self):
        if self.degree != 0:
            raise ValueError("not a degree-0 form")
        return self.coeff(0)

    def __add__(self, other):
        _merge_charts(self.chart, other.chart)
        if self.degree != other.degree:
            if self.is_structurally_zero():
                return other
            if other.is_structurally_zero():
                return self
            raise ValueError("cannot add forms of different degree")
        out = dict(self.polys)
        for mask, p in other.polys.items():
            out[mask] = p_add_inplace(dict(out[mask]), p) if mask in out \
                else p
        return KForm(self.chart, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        factor = _as_poly(factor, self.chart)
        return KForm(self.chart, self.degree,
                     {m: p_mul(factor, p) for m, p in self.polys.items()})

    def simplified(self):
        return KForm(self.chart, self.degree,
                     {m: normal(p) for m, p in self.polys.items()})

    def __str__(self):
        parts = []
        for mask, cs in self.terms():
            basis = _form_label(self.chart, mask)
            if self.degree == 0:
                parts.append(str(cs))
            elif cs.kind == "rat" and cs.value == 1:
                parts.append(basis)
            elif cs.kind == "rat" and cs.value == -1:
                parts.append(f"-{basis}")
            else:
                s = str(cs)
                if cs.kind == "sum":
                    s = f"({s})"
                parts.append(f"{s}*{basis}")
        return _sum_str(parts)

    def __repr__(self):
        return f"<KForm deg={self.degree} {self}>"


def _mask_indices(mask):
    out = []
    while mask:
        i = (mask & -mask).bit_length() - 1
        out.append(i)
        mask &= mask - 1
    return out


def _form_label(chart, mask):
    """The basis element of mask: "dq1^dp1", "" for a function."""
    return "^".join(f"d{chart.coords[i]}" for i in _mask_indices(mask))


def _field_label(name):
    """The basis field of a component: "d/dq1"."""
    return f"d/d{name}"


def wedge(a, b):
    """Exterior product; associative, graded-commutative."""
    _merge_charts(a.chart, b.chart)
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return KForm.zero(a.chart, degree)
    acc = {}
    for m1, c1 in a.polys.items():
        for m2, c2 in b.polys.items():
            if m1 & m2:
                continue
            p_mul(c1, c2, acc.setdefault(m1 | m2, {}),
                  -1 if _merge_sign(m1, m2) < 0 else None)
    return KForm(a.chart, degree, acc)


def ext_d(a):
    """De Rham differential: linear, graded Leibniz, squares to zero."""
    chart = a.chart
    degree = a.degree + 1
    if degree > chart.dim:
        return KForm.zero(chart, degree)
    acc = {}
    xs = chart.vars()
    for mask, c in a.polys.items():
        for i in range(chart.dim):
            bit = 1 << i
            if mask & bit:
                continue
            dc = p_diff(c, xs[i])
            if dc:
                p_add_inplace(acc.setdefault(mask | bit, {}), dc,
                              -1 if (mask & (bit - 1)).bit_count() & 1
                              else None)
    return KForm(chart, degree, acc)


def interior(X, a):
    """Contraction of X into the first slot of a."""
    if not isinstance(X, VectorField):
        raise TypeError("first argument must be a VectorField")
    _merge_charts(X.chart, a.chart)
    if a.degree == 0:
        return KForm.zero(a.chart, 0)
    acc = {}
    for mask, c in a.polys.items():
        for pos, i in enumerate(_mask_indices(mask)):
            comp = X.polys[i]
            if comp:
                p_mul(comp, c, acc.setdefault(mask & ~(1 << i), {}),
                      -1 if pos & 1 else None)
    return KForm(a.chart, a.degree - 1, acc)


def lie_derivative(X, a):
    """Lie derivative along X via the homotopy formula
    L_X = interior(X, .) o d + d o interior(X, .)."""
    return interior(X, ext_d(a)) + ext_d(interior(X, a))


def vf_apply(X, f):
    """Directional derivative X(f), as a canonical expression."""
    f = as_expr(f)
    _merge_charts(f.chart, X.chart)
    return from_poly(normal(apply_poly(X, to_poly(f))), X.chart)


def apply_poly(X, p):
    """Directional derivative X(p) of a polynomial, as a polynomial."""
    out = {}
    for comp, v in zip(X.polys, X.chart.vars()):
        if comp:
            dp = p_diff(p, v)
            if dp:
                p_mul(comp, dp, out)
    return out


def vf_bracket(X, Y):
    """Lie bracket of vector fields: [X, Y]_i = X(Y_i) - Y(X_i)."""
    _merge_charts(X.chart, Y.chart)
    comps = tuple(p_add_inplace(apply_poly(X, yc), apply_poly(Y, xc), -1)
                  for xc, yc in zip(X.polys, Y.polys))
    return VectorField(X.chart, comps)


def form_is_zero(a, cfg=OracleConfig()):
    """Zero-test every stored coefficient of a form: a composite
    ZeroVerdict with one child per coefficient, labelled by its basis
    element ("dq1^dp1", "1" for a function), each is_zero's verdict."""
    return ZeroVerdict.combine(
        (_form_label(a.chart, mask) or "1", is_zero(p, cfg, a.chart))
        for mask, p in sorted(a.polys.items()))


def vf_is_zero(X, cfg=OracleConfig()):
    """Zero-test every component of a vector field: one child per
    component, labelled "d/dq1"."""
    return ZeroVerdict.combine((_field_label(name), is_zero(p, cfg, X.chart))
                               for name, p in zip(X.chart.coords, X.polys))


# ---------------------------------------------------------------------------
# form literals


class FormSyntaxError(SymExprError):
    pass


class _FormParser(ExprParser):
    """The expression grammar over forms: ``d<coord>`` and the names in
    form_names are forms, ``*`` scales a form by a scalar, ``/`` divides
    it by one, and ``^`` after a form wedges.  Scalars stay expressions;
    a purely scalar literal is one expression."""

    def __init__(self, text, chart, names, form_names):
        super().__init__(text, chart, names)
        self.form_names = form_names or {}

    def resolve_ident(self, name, line, col):
        if name[:1] == "d" and name[1:] in self.chart.coords:
            return KForm.covector(self.chart, name[1:])
        if name in self.form_names:
            return self.form_names[name]
        return super().resolve_ident(name, line, col)

    def add(self, left, right):
        if not isinstance(left, KForm) and not isinstance(right, KForm):
            return super().add(left, right)
        left, right = self._as_form(left), self._as_form(right)
        try:
            return left + right
        except ValueError:      # degrees differ, neither form is zero
            raise FormSyntaxError(f"cannot mix degrees {left.degree} and "
                                  f"{right.degree} in one literal") from None

    def neg(self, value):
        if isinstance(value, KForm):
            return value.scale(Rat(-1))
        return super().neg(value)

    def mul(self, left, right):
        if isinstance(left, KForm):
            if isinstance(right, KForm):
                self.error("use '^' to wedge basis covectors")
            return left.scale(right)
        if isinstance(right, KForm):
            return right.scale(left)
        return super().mul(left, right)

    def div(self, left, right):
        if isinstance(right, KForm):
            self.error("cannot divide by a form")
        if isinstance(left, KForm):
            return left.scale(Pow(right, Fraction(-1)))
        return super().div(left, right)

    def power(self, base):
        if not isinstance(base, KForm):
            return super().power(base)
        right = self.parse_factor()
        if not isinstance(right, KForm):
            self.error("'^' in a form literal must join basis covectors")
        return wedge(base, right)

    def apply(self, name, order, arg):
        if isinstance(arg, KForm):
            self.error(f"the argument of {name!r} must be a scalar")
        return super().apply(name, order, arg)

    def _as_form(self, value):
        return value if isinstance(value, KForm) \
            else KForm.scalar(self.chart, value)


def parse_form(text, chart, degree=None, names=None, form_names=None):
    """Parse a form literal in the expression grammar (see _FormParser).

    A literal that is purely scalar is a degree-0 form; ``degree``
    disambiguates the all-zero literal.
    """
    result = _FormParser(text, chart, names, form_names).parse_all()
    if not isinstance(result, KForm):
        result = KForm.scalar(chart, result)
    if result.is_structurally_zero() and degree is not None:
        return KForm.zero(chart, degree)
    if degree is not None and result.degree != degree:
        raise FormSyntaxError(
            f"form literal has degree {result.degree}, expected {degree}")
    return result


def parse_vector_field(components, chart, names=None):
    """Vector field from a mapping coordinate name -> expression text."""
    comps = [Rat(0)] * chart.dim
    for coord, text in components.items():
        i = chart.index(coord)
        comps[i] = text if isinstance(text, Expr) else \
            parse_expr(text, chart, names)
    return VectorField(chart, comps)
