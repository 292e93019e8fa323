"""The normal-form engine: it keeps no module-level state, a rational
power is a constant when exact and an atom otherwise, and a monomial has
one key however its exponents were reached."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from twistdirac import _normal
from twistdirac._normal import (normalize_sum, p_const, p_diff, p_mul,
                                rational_pow, sorted_terms, to_poly,
                                try_divide)
from twistdirac.symexpr import (Chart, EvaluationSingularityError,
                                OracleConfig, Pow, Rat, diff, eval_expr,
                                is_zero, parse_expr, sample_point,
                                simplify)

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

# (c, e, c**e when it is rational, else None)
RADICALS = [
    (Fraction(4, 9), HALF, Fraction(2, 3)),
    (Fraction(27, 8), Fraction(2, 3), Fraction(9, 4)),
    (Fraction(1), THIRD, Fraction(1)),
    (Fraction(2), HALF, None),
    (Fraction(-8), THIRD, None),
    (Fraction(0), HALF, Fraction(0)),
]


def test_the_module_holds_no_mutable_state():
    held = [name for name, value in vars(_normal).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))]
    assert held == []


IDS = [f"{c}^({e})" for c, e, _ in RADICALS]


@pytest.mark.parametrize("c, e, root", RADICALS, ids=IDS)
def test_rational_pow_is_a_constant_or_an_atom(c, e, root):
    got = rational_pow(c, e)
    if root is None:
        # one term, coefficient 1, whose only factor is the atom c to the e
        assert sorted_terms(got, None) == [(((Rat(c), e),), 1)]
    else:
        assert got == p_const(root)


# the rows with a nonnegative radicand
@pytest.mark.parametrize("c, e, root", RADICALS[:4] + RADICALS[5:],
                         ids=IDS[:4] + IDS[5:])
def test_eval_of_a_radical_is_exact_when_the_root_is_rational(c, e, root):
    got = eval_expr(Pow(Rat(c), e), {})
    if root is None:
        assert type(got) is float
        assert repr(got) == repr(float(c) ** float(e))
    else:
        assert type(got) is Fraction and got == root


def test_eval_of_a_negative_radicand_is_singular():
    with pytest.raises(EvaluationSingularityError):
        eval_expr(Pow(Rat(-8), THIRD), {})


SHARED = ["1/(1 + x*y)*(1 + x*y) - 1",
          "(1 + x*y)^2/(1 + x*y)^3 - 1/(1 + x*y)",
          "1/(1 + x*y) - 1/(1 + x)",
          "(x + y)^(1/2)*(x + y)^(1/2) - x - y",
          "F(1 + x*y)^2/(1 + x*y) - F(1 + x*y)",
          "(2*x + 2*y)^(1/2)/(x + y)^(1/2)"]


def _verdicts(residuals):
    cfg = OracleConfig(seed=9, samples=16)
    verdicts = [is_zero(r, cfg) for r in residuals]
    return [(v.zero, v.exact, v.witness, v.magnitude) for v in verdicts]


def test_threads_expanding_the_same_atoms_agree():
    # each thread's first use of a shared node stores its expansion there;
    # every thread must see the verdicts of a sequential run
    chart = Chart("threads", ["x", "y"])
    expected = _verdicts([parse_expr(t, chart) for t in SHARED])
    residuals = [parse_expr(t, chart) for t in SHARED]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_verdicts, residuals) for _ in range(8)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * 8


PLANE = Chart("plane", ["x", "y"])

# (input, its simplified form): exponents past a narrow packed field (at
# most 2047 in all), and coordinate exponents that move between the
# packed part and the tail
MONOMIALS = [
    ("x^70000*y - y*x^70000", "0"),
    ("x^4096*x^4096", "x^8192"),
    ("x^2047*x", "x^2048"),
    ("(x^2048*y)^2", "x^4096*y^2"),
    ("x^4096*x^4096/x^8191", "x"),
    ("x^1024*x^1024*y/x^2048", "y"),
    ("x^(1/2)*x^(1/2) - x", "0"),
    ("(x*y)^-2*x^3", "x/y^2"),
    ("x^(-3/2)*x^2", "x^(1/2)"),
    ("(x^3000 - y^3000)/(x^1500 - y^1500)", "x^1500 + y^1500"),
]


@pytest.mark.parametrize("text, expected", MONOMIALS,
                         ids=[t for t, _ in MONOMIALS])
def test_monomials_across_the_packed_layouts(text, expected):
    assert str(simplify(parse_expr(text, PLANE))) == expected


def test_a_laurent_monomial_cancels_exactly():
    assert str(is_zero(parse_expr("x^-1*x - 1", PLANE))) == "Zero(exact)"


@pytest.mark.parametrize("left, right, product", [
    ("x^(1/2)", "x^(1/2)", "x"), ("x^-1", "x^2", "x"),
    ("x^(-3/2)*y", "x^2", "x^(1/2)*y"), ("x^4096", "x^4096", "x^8192"),
    ("x^2047", "x", "x^2048"), ("x^2048", "x^-1", "x^2047")])
def test_a_monomial_has_one_key(left, right, product):
    got = p_mul(to_poly(parse_expr(left, PLANE)),
                to_poly(parse_expr(right, PLANE)))
    assert got == to_poly(parse_expr(product, PLANE))


def test_derivatives_across_the_packed_layouts():
    x, y = PLANE.vars()
    assert str(simplify(diff(parse_expr("x^2048 + x^2*y", PLANE), x))) == \
        "2*x*y + 2048*x^2047"
    assert str(simplify(diff(parse_expr("x^(1/2)*y^3000", PLANE), y))) == \
        "3000*x^(1/2)*y^2999"


def test_a_monomial_over_every_coordinate_of_the_largest_chart():
    names = [f"u{i}" for i in range(Chart.MAX_DIM)]
    chart = Chart("largest", names)
    u = chart.vars()

    def squares(ns):
        return "*".join(f"{n}^2" for n in ns)

    prod = parse_expr("*".join(names), chart)
    p = simplify(2 * prod * prod + prod)
    assert str(p) == f"{'*'.join(names)} + 2*{squares(names)}"
    assert str(simplify(diff(p, u[15]))) == \
        f"{'*'.join(names[:15])} + 4*{squares(names[:15])}*u15"
    assert str(simplify(diff(diff(p, u[0]), u[7]))) == \
        f"8*u0*{squares(names[1:7])}*u7*{squares(names[8:])} + " \
        f"{'*'.join(names[1:7] + names[8:])}"
    assert str(is_zero(diff(p, u[3]) - (4 * prod * prod + prod) / u[3])) \
        == "Zero(exact)"


def test_derivative_of_negative_and_fractional_coordinate_powers():
    x = PLANE["x"]
    d = diff(parse_expr("1/x + x^(1/2)*y", PLANE), x)
    assert str(simplify(d)) == "-1/x^2 + 1/2*y/x^(1/2)"


@pytest.mark.parametrize("text, expected", [
    ("(x^(1/2) + y)^2/(x^(1/2) + y)", "x^(1/2) + y"),
    ("1/(1/x + 1)", "x/(x + 1)"),
    ("(x + y)*(x - y)", "x^2 - y^2")])
def test_quotients_and_cancelling_products(text, expected):
    got = simplify(parse_expr(text, PLANE))
    assert simplify(got) == got
    assert str(is_zero(got - parse_expr(expected, PLANE))) == "Zero(exact)"


def test_zero_to_a_negative_power_is_kept_and_singular():
    e = simplify(parse_expr("1/0", PLANE))
    assert str(e) == "1/0"
    with pytest.raises(EvaluationSingularityError):
        eval_expr(e, {"x": 1, "y": 1})


def test_a_rational_witness_search_draws_at_least_8_points():
    # the residual vanishes at the first point, so one point finds nothing
    cfg = OracleConfig(samples=1)
    first = sample_point(cfg, PLANE.coords, 0)
    v = is_zero(PLANE["x"] - first["x"], cfg)
    assert not v.zero and v.exact
    assert v.witness_point == sample_point(cfg, PLANE.coords, 1)


# products and powers that make the exponent of an even power under a
# root an integer: the atom folds back into the polynomial
FOLDED = ["((x^2)^(1/2))^2 - x^2",
          "(x^2)^(1/2)*(x^2)^(1/2) - x^2",
          "((1/(x+1))^2)^(1/2)*((1/(x+1))^2)^(1/2) - 1/(x+1)^2",
          "((x^2)^(1/2))^4*y - x^4*y",
          "((F(1)^2)^(1/2))^2 - F(1)^2"]


@pytest.mark.parametrize("text", FOLDED)
def test_an_even_power_under_a_root_folds_at_an_integer_exponent(text):
    e = parse_expr(text, PLANE)
    assert str(simplify(e)) == "0"
    assert str(is_zero(e)) == "Zero(exact)"
    # the first operand alone: its normal form is a fixed point
    once = simplify(e.args[0])
    assert simplify(once) == once


def test_an_odd_power_of_an_absolute_value_keeps_its_sign():
    # |x|^3 = -x^3 on x < 0
    cfg = OracleConfig(box={"x": (-2, -1)})
    e = parse_expr("((x^2)^(1/2))^3", PLANE)
    assert is_zero(e + PLANE["x"] ** 3, cfg).zero
    assert not is_zero(e - PLANE["x"] ** 3, cfg).zero


def test_one_over_a_sum_with_inverse_coordinates_has_one_normal_form():
    inverse = simplify(parse_expr("1/(1/x + 1)", PLANE))
    quotient = simplify(parse_expr("x/(x + 1)", PLANE))
    assert str(inverse) == str(quotient) == "x/(1 + x)"
    both = simplify(parse_expr("1/(1/x + 1/y)", PLANE))
    assert str(both) == "x*y/(x + y)"
    for e in (inverse, both):
        assert simplify(e) == e


def test_a_root_of_a_sum_with_an_inverse_coordinate_keeps_its_base():
    # (1/x + 1)^(1/2) is real on x <= -1, where (1 + x)^(1/2) is not
    cfg = OracleConfig(box={"x": (-3, -2)})
    e = simplify(parse_expr("(1/x + 1)^(1/2)", PLANE))
    assert str(e) == "(1 + 1/x)^(1/2)"
    assert eval_expr(e, {"x": -2, "y": 1}) == pytest.approx(HALF ** HALF)
    assert is_zero(e * e - parse_expr("1 + 1/x", PLANE), cfg).zero
    assert not is_zero(e + parse_expr("(1/x + 1)^(1/2)", PLANE), cfg).zero


def test_a_quotient_of_coprime_integer_coefficients_is_a_fraction():
    q = try_divide(to_poly(parse_expr("2*x + 2", PLANE)),
                   to_poly(parse_expr("3*x + 3", PLANE)))
    assert q == {0: Fraction(2, 3)} and type(q[0]) is Fraction
    unit, norm = normalize_sum(to_poly(parse_expr("2/3*x + 4/9", PLANE)))
    assert unit == Fraction(2, 9) and type(unit) is Fraction
    assert sorted(norm.values()) == [2, 3]
    assert all(type(c) is int for c in norm.values())
    unit, norm = normalize_sum(to_poly(parse_expr("6*x + 4", PLANE)))
    assert unit == 2 and type(unit) is int


def test_the_derivative_of_a_root_has_a_fraction_coefficient():
    (c,) = p_diff(to_poly(parse_expr("x^(1/2)", PLANE)), PLANE["x"]).values()
    assert c == HALF and type(c) is Fraction


@pytest.mark.parametrize("text", ["2*x/(x + 1) + 2/(x + 1) - 2",
                                  "2*x/(x + 1) + 3*y - 2"])
def test_integral_fraction_coefficients_get_the_int_verdict(text):
    p = to_poly(parse_expr(text, PLANE))
    assert all(type(c) is int for c in p.values())
    as_fractions = {m: Fraction(c) for m, c in p.items()}
    assert is_zero(as_fractions, OracleConfig(), PLANE) == \
        is_zero(p, OracleConfig(), PLANE)
