"""Property tests on random expression trees with radicals, inverse powers
and function symbols, over a sampling box that includes negative
coordinates (skipped when hypothesis is not installed)."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistdirac.exterior import KForm, ext_d, form_is_zero  # noqa: E402
from twistdirac.symexpr import (  # noqa: E402
    MAX_RESAMPLE, Chart, EvaluationSingularityError, Func, OracleConfig,
    OracleInconclusiveError, PolyFunc, Pow, Prod, Rat, Sum, diff, eval_expr,
    is_zero, sample_point, sampled_sums, simplify)

CHART = Chart("prop", ["x", "y", "z"])
HALF = Fraction(1, 2)
# x changes sign on the box, y is negative, z positive
SIGNED = OracleConfig(seed=11, samples=16,
                      box={"x": (-2, 2), "y": (-2, Fraction(-1, 4))})
ENV = {"F": PolyFunc([Fraction(1, 3), Fraction(1, 2), Fraction(-1, 4),
                      Fraction(1, 5)])}
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _nodes(children):
    """rand_expr's node kinds, plus an even power under a root (|e|)."""
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda t: Sum(*t)),
        pairs.map(lambda t: Prod(*t)),
        st.tuples(children, st.sampled_from([2, 3])).map(
            lambda t: Pow(t[0], t[1])),
        children.map(lambda e: Pow(Prod(e, e), HALF)),
        children.map(lambda e: Pow(Sum(Prod(e, e), Rat(1)), HALF)),
        st.tuples(children, st.sampled_from([-1, -2])).map(
            lambda t: Pow(Sum(Prod(t[0], t[0]), Rat(1)), t[1])),
        children.map(lambda e: Func("F", 0, e)))


EXPRS = st.recursive(
    st.one_of(st.fractions(min_value=-3, max_value=3,
                           max_denominator=4).map(Rat),
              st.sampled_from(CHART.vars())),
    _nodes, max_leaves=6)


def _values_agree(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)


def _zero(verdict_of):
    try:
        return verdict_of().zero
    except OracleInconclusiveError:
        assume(False)


@SETTINGS
@given(EXPRS)
def test_simplify_keeps_values_where_both_are_defined(e):
    s = simplify(e)
    for i in range(8):
        point = sample_point(SIGNED, CHART.coords, i)
        try:
            a, b = eval_expr(e, point, ENV), eval_expr(s, point, ENV)
        except EvaluationSingularityError:
            continue
        assert _values_agree(a, b), (e, s, point, a, b)


@SETTINGS
@given(EXPRS)
def test_mixed_partials_commute(e):
    x, y = CHART["x"], CHART["y"]
    residual = diff(diff(e, x), y) - diff(diff(e, y), x)
    assert _zero(lambda: is_zero(residual, SIGNED)), e


@SETTINGS
@given(st.lists(EXPRS, min_size=3, max_size=3))
def test_d_squared_vanishes(coeffs):
    a = KForm(CHART, 1, {1 << i: c for i, c in enumerate(coeffs)})
    f = KForm.scalar(CHART, coeffs[0])
    assert _zero(lambda: form_is_zero(ext_d(ext_d(a)), SIGNED)), coeffs
    assert _zero(lambda: form_is_zero(ext_d(ext_d(f)), SIGNED)), coeffs[0]


def _shared_atom(e):
    """An irrational radical, a function value or an inverse square built
    on e, for reuse across the terms of a sum."""
    return st.sampled_from([
        Pow(Sum(Prod(e, e), e, Rat(2)), HALF),
        Func("F", 0, Pow(Sum(Prod(e, e), Rat(1)), HALF)),
        Func("F", 2, e),
        Pow(Sum(Prod(e, e), Rat(1)), -2)])


def _plain_eval(e, point):
    """eval_expr as a plain tree walk: every node evaluated where it
    occurs, the operators applied to Fractions and floats as they come,
    derivatives by repeated PolyFunc.derivative()."""
    kind = e.kind
    if kind == "rat":
        return e.value
    if kind == "var":
        v = point[e.name]
        return v if isinstance(v, float) else Fraction(v)
    if kind in ("sum", "prod"):
        acc = Fraction(0 if kind == "sum" else 1)
        for a in e.args:
            v = _plain_eval(a, point)
            acc = acc + v if kind == "sum" else acc * v
        return acc
    if kind == "pow":
        base, exp = _plain_eval(e.base, point), e.exp
        if base == 0 and exp < 0 or base < 0 and exp.denominator != 1:
            raise EvaluationSingularityError(e)
        if exp.denominator == 1:
            return base ** int(exp) if isinstance(base, float) \
                else Fraction(base) ** int(exp)
        if base == 0:
            return base
        assert exp.denominator == 2, exp
        if isinstance(base, Fraction):
            rn, rd = math.isqrt(base.numerator), math.isqrt(base.denominator)
            if rn * rn == base.numerator and rd * rd == base.denominator:
                return Fraction(rn, rd) ** exp.numerator
        return float(base) ** float(exp)
    f = ENV[e.name]
    for _ in range(e.order):
        f = f.derivative()
    x = _plain_eval(e.arg, point)
    acc = 0 if isinstance(x, float) else Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + (float(c) if isinstance(x, float) else c)
    return acc


def _reference_sums(terms, cfg, evaluate):
    """sampled_sums' rule, with each term evaluated on its own."""
    for i in range(cfg.samples):
        for attempt in range(MAX_RESAMPLE):
            point = sample_point(cfg, CHART.coords, i, attempt)
            try:
                values = [evaluate(t, point) for t in terms]
            except EvaluationSingularityError:
                continue
            break
        else:
            return
        if all(isinstance(v, Fraction) for v in values):
            yield point, sum(values), 0
            continue
        values = [float(v) for v in values]
        yield point, sum(values), \
            cfg.abs_tol + cfg.rel_tol * max(abs(v) for v in values)


def _bits(sums):
    return [(point, type(total), repr(total), repr(tol))
            for point, total, tol in sums]


@SETTINGS
@given(st.lists(EXPRS.flatmap(_shared_atom), min_size=1, max_size=3),
       st.data())
def test_sampled_sums_match_per_term_evaluation(atoms, data):
    picks = st.lists(st.sampled_from(range(len(atoms))), min_size=1,
                     max_size=3)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = [Prod(Rat(c), *(atoms[i] for i in idx)) for c, idx in
             data.draw(st.lists(st.tuples(coeff, picks), min_size=2,
                                max_size=5))]
    try:
        got = _bits(sampled_sums(Sum(*terms), SIGNED, ENV, CHART))
    except OracleInconclusiveError:
        assume(False)
    per_term = _bits(_reference_sums(
        terms, SIGNED, lambda t, point: eval_expr(t, point, ENV)))
    assert got == per_term, terms
    assert per_term == _bits(_reference_sums(terms, SIGNED, _plain_eval))
