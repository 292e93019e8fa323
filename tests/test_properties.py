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
    Chart, EvaluationSingularityError, Func, OracleConfig,
    OracleInconclusiveError, PolyFunc, Pow, Prod, Rat, Sum, diff, eval_expr,
    is_zero, sample_point, simplify)

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
