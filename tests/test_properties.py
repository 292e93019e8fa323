"""Property tests on random expression trees with radicals, inverse powers
and function symbols, over a sampling box that includes negative
coordinates (skipped when hypothesis is not installed)."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistdirac import _normal, dirac  # noqa: E402
from twistdirac._normal import (  # noqa: E402
    combined_fraction, from_poly, is_rational_function, normal,
    normalize_sum, p_add_inplace, p_diff, p_mul, p_pow, recompose, to_poly,
    try_divide)
from twistdirac.exterior import (  # noqa: E402
    KForm, VectorField, ext_d, form_is_zero, vf_is_zero)
from twistdirac.symexpr import (  # noqa: E402
    MAX_RESAMPLE, Chart, EvaluationSingularityError, Func, OracleConfig,
    OracleInconclusiveError, PolyFunc, Pow, Prod, Rat, Sum, SymExprError,
    ZeroVerdict, diff, eval_expr, is_zero, oracle_function_env, sample_point,
    sampled_sums, simplify)

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


def _reference_sums(terms, cfg, evaluate, coords=CHART.coords):
    """sampled_sums' rule, with each term evaluated on its own."""
    for i in range(cfg.samples):
        for attempt in range(MAX_RESAMPLE):
            point = sample_point(cfg, coords, i, attempt)
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


def _reference_verdict(p, cfg):
    """is_zero's rule for one polynomial on CHART, with each term
    evaluated on its own: the normal form decides a zero, a rational
    function is walked over max(samples, 8) points for an exact witness,
    and _reference_sums evaluates the terms one by one."""
    num, dens = combined_fraction(p)
    if not num:
        return ZeroVerdict(zero=True, exact=True)
    e = from_poly(recompose(num, dens), CHART)
    rational = is_rational_function(num, dens)
    env = {} if rational else oracle_function_env(cfg, e)
    func_env = None if rational else tuple(sorted(env.items()))
    count = max(cfg.samples, 8) if rational else cfg.samples
    walked = 0
    for point, total, tol in _reference_sums(
            e.args if e.kind == "sum" else (e,), replace(cfg, samples=count),
            lambda t, point: eval_expr(t, point, env),
            CHART.coords if e.chart is not None else ()):
        if abs(total) > tol:
            return ZeroVerdict(zero=False, exact=rational,
                               witness=tuple(sorted(point.items())),
                               magnitude=float(abs(total)) or math.ulp(0.0),
                               func_env=func_env)
        walked += 1
    if walked < count:
        raise OracleInconclusiveError(
            f"sample point {walked} hit singularities in all "
            f"{MAX_RESAMPLE} resampling attempts")
    if rational:
        raise OracleInconclusiveError(
            "nonzero normal form but no nonzero sample point found")
    return ZeroVerdict(zero=True, exact=False, func_env=func_env)


def _outcome(test):
    """The verdicts' (zero, exact, witness, repr(magnitude), func_env),
    or the error's type and message."""
    try:
        verdicts = test()
    except SymExprError as exc:
        return type(exc), str(exc)
    return [(v.zero, v.exact, v.witness, repr(v.magnitude), v.func_env)
            for v in verdicts]


def _reference_outcome(polys, cfg):
    return _outcome(lambda: [_reference_verdict(p, cfg) for p in polys])


# (x+1)^(1/2)*(x+2)^(1/2) = ((x+1)*(x+2))^(1/2) where x > -1, which the
# normal form does not see: z is positive on every box below
_SQRTS = Sum(Prod(Pow(Sum(CHART["z"], Rat(1)), HALF),
                  Pow(Sum(CHART["z"], Rat(2)), HALF)),
             Prod(Rat(-1), Pow(Prod(Sum(CHART["z"], Rat(1)),
                                    Sum(CHART["z"], Rat(2))), HALF)))
# a negative radicand at every point: the test of it is inconclusive
_NOWHERE = Pow(Sum(Prod(Rat(-1), CHART["z"], CHART["z"]), Rat(-1)), HALF)
# F at four arguments to order 100 needs degree 4 * 101 - 1 = 403, above
# the oracle's limit: its test raises before any point is drawn
_TOO_DEEP = Sum(*(Func("F", 100 if k == 0 else 0, Sum(CHART["z"], Rat(k)))
                  for k in range(4)))
# a config with fewer than 8 samples; SIGNED has 16 on a signed box
FEW = OracleConfig(seed=5, samples=4, box={"x": (-1, 1)})


def _singular_at_first_point(cfg):
    """1/(x - x0), with x0 the x of sample point 0: singular there only."""
    x0 = sample_point(cfg, CHART.coords, 0)["x"]
    return Pow(Sum(CHART["x"], Rat(-x0)), -1)


def _vanishing_at_first_points(cfg, n=4):
    """The product of x - x_i over the first n sample points: a rational
    function whose witness lies beyond a walk of n points."""
    return Prod(*(Sum(CHART["x"], Rat(-sample_point(cfg, CHART.coords,
                                                    i)["x"]))
                  for i in range(n)))


def _coefficients(cfg):
    """Residuals of every route: exact zeros, rational functions (nonzero
    ones get exact witnesses, some only past the first four points),
    sampled expressions, function atoms, sampled zeros, sums singular at
    the first sample point only, a residual singular everywhere, and one
    whose function needs too high a degree."""
    singular = _singular_at_first_point(cfg)
    return st.one_of(
        st.just(_vanishing_at_first_points(cfg)),
        EXPRS.map(lambda e: Sum(e, Prod(Rat(-1), e))),
        SMALL_REF_POLYS.map(lambda a: from_poly(_engine(a), CHART)),
        EXPRS,
        EXPRS.map(lambda e: Prod(Func("F", 1, e), CHART["y"])),
        EXPRS.map(lambda e: Prod(e, _SQRTS)),
        EXPRS.map(lambda e: Prod(Func("F", 0, CHART["z"]), e, _SQRTS)),
        EXPRS.map(lambda e: Sum(singular, e)),
        st.just(singular),
        EXPRS.map(lambda e: Prod(e, _NOWHERE)),
        st.just(_TOO_DEEP))


@settings(SETTINGS, max_examples=80)
@given(st.sampled_from([SIGNED, FEW]), st.data())
def test_one_pass_zero_tests_match_per_coefficient_tests(base, data):
    coeffs = data.draw(st.lists(_coefficients(base), min_size=3,
                                max_size=3))
    # a fresh config per example: the reference and the tests under test
    # share its table, so they see the same function instances
    cfg = replace(base)
    form = KForm(CHART, 1, {1 << i: c for i, c in enumerate(coeffs)})
    field = VectorField(CHART, coeffs)
    masks = sorted(form.polys)
    assert _outcome(lambda: form_is_zero(form, cfg).children) == \
        _reference_outcome([form.polys[m] for m in masks], cfg)
    assert _outcome(lambda: vf_is_zero(field, cfg).children) == \
        _reference_outcome(field.polys, cfg)


def _ref_polys(exponents, min_size=0):
    return st.dictionaries(
        st.tuples(*[exponents] * 3),
        st.fractions(min_value=-4, max_value=4,
                     max_denominator=3).filter(bool),
        min_size=min_size, max_size=4)


# random rational polynomials over CHART, as {exponent tuple: Fraction}:
# the reference every engine result below is compared with.  REF_POLYS
# reaches total degrees past 2047, into the thousands; a denominator is
# drawn from SMALL_REF_POLYS, since evaluating a negative power of such
# a degree exactly at POINT takes seconds per property
REF_POLYS = _ref_polys(st.one_of(st.integers(0, 2),
                                 st.sampled_from([2047, 2048, 4096])))
SMALL_REF_POLYS = _ref_polys(st.integers(0, 2))
# sums of two or more terms: their negative powers are sum atoms
SMALL_REF_SUMS = _ref_polys(st.integers(0, 2), min_size=2)
SCALES = st.one_of(st.none(), st.fractions(min_value=-3, max_value=3,
                                           max_denominator=2).filter(bool))
POINT = {"x": Fraction(1, 3), "y": Fraction(-2, 7), "z": Fraction(5, 4)}


def _engine(ref):
    """The engine polynomial of a reference polynomial, through to_poly."""
    xs = CHART.vars()
    return to_poly(Sum(*(Prod(Rat(c), *(Pow(x, k) for x, k in zip(xs, e)
                                         if k))
                         for e, c in ref.items())))


def _canonical(p):
    """p's coefficients are nonzero ints or non-integral Fractions."""
    for c in p.values():
        assert c != 0, p
        assert type(c) is int or \
            (type(c) is Fraction and c.denominator != 1), (c, p)


def _reference_of(p):
    """A polynomial of packed monomials as a reference polynomial,
    checking its coefficient types on the way."""
    _canonical(p)
    out = {}
    for m, c in p.items():
        assert type(m) is int, m
        out[_normal._fields(m)[:CHART.dim]] = Fraction(c)
    return out


def _ref_add(a, b, scale=None):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c * (1 if scale is None else scale)
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = _ref_add(out, {tuple(map(sum, zip(e1, e2))): c1 * c2})
    return out


def _ref_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out = _ref_add(out, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]})
    return out


def _ref_eval(a, point):
    xs = [point[name] for name in CHART.coords]
    return sum((c * math.prod(x ** k for x, k in zip(xs, e))
                for e, c in a.items()), Fraction(0))


_ENDS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@SETTINGS
@given(SMALL_REF_POLYS, st.lists(st.tuples(_ENDS, _ENDS).filter(
    lambda t: t[0] != t[1]).map(sorted), min_size=3, max_size=3),
    st.integers(-40, 40), st.integers(0, 2 ** 32))
def test_an_excluded_zero_holds_at_every_point_of_the_box(a, ends, shift,
                                                          seed):
    # a factor proven nonzero on the box has one strict sign at its
    # corners and at seeded points of the box; the shift makes about
    # half the factors provable
    a = _ref_add(a, {(0, 0, 0): Fraction(shift)})
    cfg = OracleConfig(seed=seed, box=dict(zip(CHART.coords, ends)))
    if not dirac._box_excludes_zero(_engine(a), cfg, CHART):
        return
    corners = [dict(zip(CHART.coords, c))
               for c in itertools.product(*ends)]
    values = [_ref_eval(a, point) for point in corners + [
        sample_point(cfg, CHART.coords, i) for i in range(16)]]
    assert all(v > 0 for v in values) or all(v < 0 for v in values), a


@SETTINGS
@given(REF_POLYS, REF_POLYS, SCALES, st.integers(2, 3))
def test_engine_arithmetic_keeps_one_coefficient_type(a, b, scale, n):
    pa, pb = _engine(a), _engine(b)
    assert _reference_of(pa) == a
    assert _reference_of(p_mul(pa, pb)) == _ref_mul(a, b)
    assert _reference_of(p_add_inplace(dict(pa), pb, scale)) == \
        _ref_add(a, b, scale)
    for i, x in enumerate(CHART.vars()):
        assert _reference_of(p_diff(pa, x)) == _ref_diff(a, i)
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        power = _ref_mul(power, a)
    assert _reference_of(p_pow(pa, Fraction(n), CHART)) == power
    # the operands are shared, never mutated
    assert _reference_of(pa) == a and _reference_of(pb) == b


@SETTINGS
@given(REF_POLYS, REF_POLYS)
def test_exact_division_keeps_one_coefficient_type(a, b):
    pa, pb = _engine(a), _engine(b)
    if pb:
        assert _reference_of(try_divide(p_mul(pa, pb), pb)) == a
    q = try_divide(pa, pb)
    if q is not None:
        assert _ref_mul(_reference_of(q), b) == a
    unit, norm = normalize_sum(pa)
    _canonical({0: unit})
    assert all(type(c) is int for c in norm.values())
    assert _ref_mul({(0, 0, 0): Fraction(unit)}, _reference_of(norm)) == a


@SETTINGS
@given(REF_POLYS, SMALL_REF_POLYS, REF_POLYS, st.sampled_from([-1, -2]))
def test_normal_forms_of_quotients_keep_one_coefficient_type(a, b, c, n):
    assume(b and _ref_eval(b, POINT))
    pa, pb, pc = _engine(a), _engine(b), _engine(c)
    inverse = p_pow(pb, Fraction(n), CHART)
    _canonical(inverse)
    got = normal(p_add_inplace(p_mul(pa, inverse), pc))
    _canonical(got)
    assert eval_expr(from_poly(got, CHART), POINT) == \
        _ref_eval(a, POINT) * _ref_eval(b, POINT) ** n + _ref_eval(c, POINT)
    if a:
        # a root of one term: a rational constant or a radical atom
        term = dict([next(iter(a.items()))])
        _canonical(p_pow(_engine(term), HALF, CHART))


@SETTINGS
@given(REF_POLYS, REF_POLYS, REF_POLYS, SCALES)
def test_multiply_accumulate_adds_the_scaled_product(a, b, c, scale):
    pa, pb, acc = _engine(a), _engine(b), _engine(c)
    assert p_mul(pa, pb, acc, scale) is acc
    assert _reference_of(acc) == _ref_add(c, _ref_mul(a, b), scale)
    assert _reference_of(pa) == a and _reference_of(pb) == b


# seeded rational points, POINT among them
POINTS = [POINT, {"x": Fraction(-5, 2), "y": Fraction(7, 3),
                  "z": Fraction(-1, 6)},
          {"x": Fraction(9, 4), "y": Fraction(1, 5), "z": Fraction(-8, 3)}]


@SETTINGS
@given(st.lists(st.tuples(SMALL_REF_POLYS, st.integers(0, 2),
                          st.sampled_from([-1, -2, -3])),
                min_size=1, max_size=5),
       st.lists(st.one_of(SMALL_REF_SUMS, SMALL_REF_POLYS), min_size=3,
                max_size=3))
def test_cleared_fractions_recompose_to_their_input(terms, dens):
    """A sum of a_i / b_j^k_i over shared denominators b_j: the
    monomials fall into groups that need different powers of each b_j,
    and the cleared fraction has the sum's value at every point."""
    assume(all(_ref_eval(dens[j], point)
               for _, j, _ in terms for point in POINTS))
    p = {}
    for a, j, n in terms:
        p_mul(_engine(a), p_pow(_engine(dens[j]), Fraction(n), CHART), p)
    num, dmap = combined_fraction(p)
    _canonical(num)
    assert all(type(k) is int and k > 0 for k in dmap.values())
    for point in POINTS:
        want = sum((_ref_eval(a, point) * _ref_eval(dens[j], point) ** n
                    for a, j, n in terms), Fraction(0))
        assert eval_expr(from_poly(p, CHART), point) == want
        assert eval_expr(from_poly(recompose(num, dmap), CHART),
                         point) == want
