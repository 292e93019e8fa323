"""Expression kernel: differentiation, evaluation, simplification, the
zero-test oracle, and the text grammar."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest

from twistdirac.symexpr import (MAX_FUNC_DEGREE, MAX_SAMPLES, Chart,
                                ChartMismatchError,
                                EvaluationSingularityError, Func,
                                MissingFunctionError, OracleConfig,
                                OracleInconclusiveError, ParseError,
                                PolyFunc, Pow, Prod, Rat, Sum,
                                SymExprError, diff, eval_expr, is_zero,
                                oracle_function_env, parse_expr,
                                sample_point, sampled_sums, simplify)
from twistdirac.exterior import KForm, form_is_zero, parse_form
from twistdirac.randgen import rand_expr, rand_poly, rng_for


def radial(chart):
    q1, q2, q3 = (chart[c] for c in ("q1", "q2", "q3"))
    return Pow(q1 * q1 + q2 * q2 + q3 * q3, Fraction(1, 2))


class TestDiff:
    def test_power_rule(self, phase):
        q1 = phase["q1"]
        assert simplify(diff(q1 ** 2, q1)) == simplify(2 * q1)

    def test_constant(self, phase):
        assert simplify(diff(Rat(7, 3), phase["q1"])) == Rat(0)

    def test_chain_rule_on_function_symbol(self, phase, cfg):
        # d/dq1 V(r) = V'(r) * q1 / r for the radial coordinate
        q1 = phase["q1"]
        r = radial(phase)
        d = diff(Func("V", 0, r), q1)
        expected = Func("V", 1, r) * q1 / r
        assert is_zero(d - expected, cfg).zero

    def test_derivative_order_increments(self, phase):
        r = radial(phase)
        d = diff(Func("V", 2, r), phase["q2"])
        orders = set()
        stack = [d]
        while stack:
            e = stack.pop()
            if e.kind == "func":
                orders.add(e.order)
                stack.append(e.arg)
            elif e.kind in ("sum", "prod"):
                stack.extend(e.args)
            elif e.kind == "pow":
                stack.append(e.base)
        assert 3 in orders

    def test_radial_derivative_against_finite_differences(self, phase):
        # independent oracle: central differences on the evaluated tree
        q1 = phase["q1"]
        r = radial(phase)
        expr = Func("V", 0, r)
        d = diff(expr, q1)
        rng = rng_for(99, "fd")
        env = {"V": PolyFunc.random(rng, 3)}
        cfg = OracleConfig(seed=4)
        h = 1e-6
        for i in range(20):
            point = sample_point(cfg, phase.coords, i)
            point = {k: float(v) for k, v in point.items()}
            up = dict(point, q1=point["q1"] + h)
            dn = dict(point, q1=point["q1"] - h)
            numeric = (eval_expr(expr, up, env)
                       - eval_expr(expr, dn, env)) / (2 * h)
            symbolic = float(eval_expr(d, point, env))
            assert abs(numeric - symbolic) <= 1e-5 * max(1.0, abs(symbolic))

    def test_chart_mismatch(self, phase):
        other = Chart("other", ["u", "v"])
        with pytest.raises(ChartMismatchError):
            diff(phase["q1"] ** 2, other["u"])

    def test_a_chart_owns_its_coordinates(self, phase):
        assert phase.vars() is phase.vars()
        assert phase["q1"] is phase.vars()[0]
        assert phase.var(5) is phase["p3"]
        for index in (-1, 6):
            with pytest.raises(ChartMismatchError):
                phase.var(index)

    def test_mixing_charts_rejected_at_construction(self, phase):
        other = Chart("other", ["u", "v"])
        with pytest.raises(ChartMismatchError):
            phase["q1"] + other["u"]
        with pytest.raises(ChartMismatchError):
            phase["q1"] * other["v"]

    def test_mixed_partials_commute(self, phase):
        cfg = OracleConfig(seed=8, samples=24)
        for i in range(15):
            rng = rng_for(500 + i, "mixed")
            e = rand_expr(rng, phase, depth=3 + i % 3)
            u, v = phase["q1"], phase["p2"]
            residual = diff(diff(e, u), v) - diff(diff(e, v), u)
            assert is_zero(residual, cfg).zero, i

    def test_product_rule(self, phase):
        cfg = OracleConfig(seed=9, samples=24)
        v = phase["q2"]
        for i in range(15):
            rng = rng_for(900 + i, "leibniz")
            a = rand_expr(rng, phase, depth=3)
            b = rand_expr(rng, phase, depth=3)
            residual = diff(a * b, v) - (diff(a, v) * b + a * diff(b, v))
            assert is_zero(residual, cfg).zero, i


class TestEval:
    def test_product(self, phase):
        assert eval_expr(phase["q1"] * phase["p1"],
                         {"q1": 2, "p1": 3}) == 6

    def test_radial_at_unit_point(self, phase):
        r = radial(phase)
        assert eval_expr(r, {"q1": 1, "q2": 0, "q3": 0}) == 1

    def test_function_instantiation(self, phase):
        r = radial(phase)
        val = eval_expr(Func("V", 0, r), {"q1": 1, "q2": 0, "q3": 0},
                        {"V": PolyFunc([0, 0, 1])})
        assert val == 1

    def test_exact_rational_arithmetic(self, phase):
        e = phase["q1"] / 3 + Rat(1, 6)
        assert eval_expr(e, {"q1": Fraction(1, 2)}) == Fraction(1, 3)

    def test_root_of_an_unreduced_square_is_exact(self, phase):
        # 2 * x * 1/2 * x at 3/4 multiplies out to 18/32, which is not a
        # square of integers until it is reduced to 9/16
        q1 = phase["q1"]
        e = Pow(Prod(Rat(2), q1, Rat(1, 2), q1), Fraction(1, 2))
        got = eval_expr(e, {"q1": Fraction(3, 4)})
        assert type(got) is Fraction and got == Fraction(3, 4)

    @pytest.mark.parametrize("text, value", [
        ("q1 + p1", Fraction(5, 6)), ("q1*p1*6", Fraction(1)),
        ("q1^2*p1^-2 - 9/4", Fraction(0)),
        ("(q1 + p1)^-3", Fraction(216, 125))])
    def test_exact_results_are_reduced_fractions(self, phase, text, value):
        got = eval_expr(parse_expr(text, phase),
                        {"q1": Fraction(1, 2), "p1": Fraction(1, 3)})
        assert type(got) is Fraction and got == value

    def test_a_float_in_an_exact_sum(self, phase):
        # the exact terms before the float are summed exactly, then
        # converted once, as float(Fraction) does
        e = parse_expr("q1/3 + p1/7 + q2 + q3/11", phase)
        point = {"q1": Fraction(1, 5), "p1": Fraction(2, 9), "q2": 0.1,
                 "q3": Fraction(3, 13)}
        got = eval_expr(e, point)
        exact = Fraction(1, 15) + Fraction(2, 63)
        assert type(got) is float
        assert got == float(exact) + 0.1 + float(Fraction(3, 143))

    def test_a_coordinate_missing_from_the_point(self, phase):
        with pytest.raises(ChartMismatchError, match="'p1'"):
            eval_expr(phase["q1"] * phase["p1"], {"q1": 1})

    def test_division_by_zero(self, phase):
        with pytest.raises(EvaluationSingularityError):
            eval_expr(1 / phase["q1"], {"q1": 0})

    def test_negative_radicand(self, phase):
        with pytest.raises(EvaluationSingularityError):
            eval_expr(Pow(phase["q1"], Fraction(1, 2)), {"q1": -1})

    def test_missing_function(self, phase):
        with pytest.raises(MissingFunctionError):
            eval_expr(Func("W", 0, phase["q1"]), {"q1": 1})
        # an instantiation must supply eval_deriv, even at order 0
        with pytest.raises(MissingFunctionError):
            eval_expr(Func("W", 0, phase["q1"]), {"q1": 1},
                      {"W": lambda t: t})

    def test_an_exact_zero_radicand_stays_exact(self, phase):
        e = parse_expr("(q1 - 1)^(1/2)", phase)
        got = eval_expr(e, {"q1": 1})
        assert type(got) is Fraction and got == 0
        got = eval_expr(e, {"q1": 1.0})
        assert type(got) is float and got == 0.0

    @pytest.mark.parametrize("text, x", [("(q1 - 1)^(-1/2)", 1),
                                         ("1/q1", 0.0)])
    def test_zero_to_a_negative_power_is_singular(self, phase, text, x):
        with pytest.raises(EvaluationSingularityError):
            eval_expr(parse_expr(text, phase), {"q1": x})

    def test_an_instantiation_that_returns_an_int(self, phase):
        class Doubling:
            def eval_deriv(self, order, x):
                return 2 * int(x) + order

        # W(3)*3 + W'(3)/3 = 6*3 + 7/3
        e = parse_expr("W(q1)*q1 + W'(q1)/3", phase)
        assert eval_expr(e, {"q1": 3}, {"W": Doubling()}) == Fraction(61, 3)

    def test_derivative_tower_consistency(self):
        f = PolyFunc([1, 2, 3, 4])           # 1 + 2t + 3t^2 + 4t^3
        assert f.eval_deriv(1, Fraction(2)) == 2 + 6 * 2 + 12 * 4
        assert f.eval_deriv(3, Fraction(5)) == 24
        assert f.eval_deriv(4, Fraction(5)) == 0
        for k in range(5):       # an int argument is evaluated exactly
            got = f.eval_deriv(k, 3)
            assert type(got) is Fraction and got == f.eval_deriv(
                k, Fraction(3))

    @pytest.mark.parametrize("x", [Fraction(-7, 3), 1.375])
    def test_eval_deriv_matches_repeated_derivative(self, x):
        f = PolyFunc([Fraction(1, 3), -2, Fraction(5, 4), Fraction(-1, 6)])
        g = f
        for k in range(6):          # past the degree: the zero polynomial
            assert f.eval_deriv(k, x) == g(x)
            assert type(f.eval_deriv(k, x)) is type(x)
            g = g.derivative()
        assert g.coeffs == (0,)


class TestIsZero:
    def test_commutator_is_exactly_zero(self, phase):
        q1, p1 = phase["q1"], phase["p1"]
        v = is_zero(q1 * p1 - p1 * q1)
        assert v.zero and v.exact

    def test_binomial_identity(self, phase):
        q1, p1 = phase["q1"], phase["p1"]
        v = is_zero((q1 + p1) ** 2 - q1 ** 2 - 2 * q1 * p1 - p1 ** 2)
        assert v.zero and v.exact

    def test_wedge_coefficient_witness(self, phase, cfg):
        # the dp1^dq2 coefficient of d(phi) ^ d(L1) for phi = sum p_i^2/2
        # expands by hand to p1*p3
        from twistdirac.exterior import KForm, ext_d, wedge
        q2, q3, p1, p2, p3 = (phase[c] for c in
                              ("q2", "q3", "p1", "p2", "p3"))
        phi = (p1 ** 2 + p2 ** 2 + p3 ** 2) / 2
        L1 = q2 * p3 - q3 * p2
        product = wedge(ext_d(KForm.scalar(phase, phi)),
                        ext_d(KForm.scalar(phase, L1)))
        mask = (1 << phase.index("q2")) | (1 << phase.index("p1"))
        stored = product.coeff(mask)  # on dq2^dp1, the negative of dp1^dq2
        coefficient = simplify(Rat(-1) * stored)
        assert coefficient == simplify(p1 * p3)
        v = is_zero(coefficient, cfg)
        assert not v.zero
        assert eval_expr(coefficient, v.witness_point) != 0

    def test_determinism(self, phase):
        e = phase["q1"] * Func("V", 0, phase["q2"]) - Rat(1, 7)
        a = is_zero(e, OracleConfig(seed=123))
        b = is_zero(e, OracleConfig(seed=123))
        assert (a.zero, a.witness, a.magnitude) == \
            (b.zero, b.witness, b.magnitude)

    def test_nonzero_polynomials_are_caught(self):
        # soundness smoke test over random nonzero polynomials
        chart = Chart("c6", [f"x{i}" for i in range(1, 7)])
        caught = 0
        for i in range(500):
            rng = rng_for(3000 + i, "soundness")
            p = rand_poly(rng, chart, max_degree=6, terms=3)
            if simplify(p) == Rat(0):
                continue
            v = is_zero(p, OracleConfig(seed=77, samples=16))
            assert not v.zero, (i, p)
            caught += 1
        assert caught > 400

    def test_function_symbol_identity(self, phase, cfg):
        V = Func("V", 0, phase["q1"])
        assert is_zero(V * V - V ** 2, cfg).zero
        assert not is_zero(V - Func("W", 0, phase["q1"]), cfg).zero

    @pytest.mark.parametrize("text", [
        "V''''(x)",
        "V'''(x) - V'''(y)",
        "V(x+4) - 4*V(x+3) + 6*V(x+2) - 4*V(x+1) + V(x)",
        "V''(x) + V''(y) - V''(x+y) - V''(0)"])
    def test_identities_of_cubics_are_not_identities(self, text):
        # each holds for every cubic, the default instantiation degree,
        # and not for smooth V in general
        chart = Chart("plane", ["x", "y"])
        e = parse_expr(text, chart)
        v = is_zero(e)
        assert not v.zero and not v.exact
        assert eval_expr(e, v.witness_point, dict(v.func_env)) != 0

    def test_witness_reevaluates(self, phase, cfg):
        e = Func("V", 0, phase["q1"]) - phase["q2"]
        v = is_zero(e, cfg)
        assert not v.zero
        value = eval_expr(e, v.witness_point, dict(v.func_env))
        assert abs(float(value)) == pytest.approx(v.magnitude, rel=1e-12)

    def test_terms_exact_at_the_point_sum_exactly(self):
        # every term is a Fraction at the sample points, so the sum is
        # exact and needs no tolerance; summed in float it left a residue
        # of about 3e-05 that rel_tol=0 reported as NonZero
        chart = Chart("line", ["x"])
        e = parse_expr("F(x)^12*(x^2+2*x+1)^(1/2) - F(x)^12*x - F(x)^12",
                       chart)
        v = is_zero(e, OracleConfig(rel_tol=0))
        assert v.zero and not v.exact

    def test_a_shared_function_atom_is_evaluated_once_per_point(self):
        # F(x*y + 1) occurs in three terms; one memo per point serves all
        class CountingF:
            calls = 0

            def eval_deriv(self, order, x):
                CountingF.calls += 1
                return x + order

        chart = Chart("plane", ["x", "y"])
        x, y = chart.vars()
        F = Func("F", 0, Prod(x, y) + 1)
        e = Sum(Prod(x, F), Prod(y, F), Prod(Rat(3), x, y, F))
        cfg = OracleConfig(samples=16)
        sums = list(sampled_sums(e, cfg, {"F": CountingF()}, chart))
        assert len(sums) == 16
        assert CountingF.calls == 16

    def test_even_power_under_a_root_keeps_its_sign(self):
        # on x in [-2,-1], (x^2)^(1/2) = |x| = -x, not x
        chart = Chart("line", ["x"])
        cfg = OracleConfig(box={"x": (-2, -1)})
        v = is_zero(parse_expr("(x^2)^(1/2) - x", chart), cfg)
        assert not v.zero
        assert eval_expr(parse_expr("(x^2)^(1/2) - x", chart),
                         v.witness_point) > 0
        assert is_zero(parse_expr("(x^2)^(1/2) + x", chart), cfg).zero
        # the same with an even negative power of a sum, alone and as a
        # denominator cleared before the root is taken: x - 1 < 0 here
        for lhs, rhs in [("((x-1)^-2)^(1/2)", "1/(x-1)"),
                         ("(x^2 + (x-1)^-2)^(1/2)",
                          "(x^2*(x-1)^2 + 1)^(1/2)/(x-1)")]:
            assert not is_zero(parse_expr(f"{lhs} - {rhs}", chart),
                               cfg).zero
            assert is_zero(parse_expr(f"{lhs} + {rhs}", chart), cfg).zero

    def test_derivative_of_an_even_power_under_a_root(self):
        # d/dx |x| = -1 on x in [-2,-1]
        chart = Chart("line", ["x"])
        cfg = OracleConfig(box={"x": (-2, -1)})
        d = diff(parse_expr("(x^2)^(1/2)", chart), chart["x"])
        assert is_zero(d + 1, cfg).zero


class TestFloatRange:
    """A value beyond float range makes its point singular: the point is
    redrawn, and the value never decides a verdict."""

    PLANE = Chart("plane", ["x", "y"])

    def test_a_point_beyond_float_range_is_redrawn(self):
        # x^1100 leaves float range near the top of the default box
        e = parse_expr("(1 + x)^(1/2)*(1 + y)^(1/2)*x^1100"
                       " - (1 + x + y + x*y)^(1/2)*x^1100", self.PLANE)
        v = is_zero(e)
        assert v.zero and not v.exact
        with pytest.raises(EvaluationSingularityError):
            eval_expr(e, {"x": 2, "y": 1})

    def test_terms_beyond_float_range_never_sum_to_zero(self):
        # at 401/2 the second term overflows on the whole box; inf - inf
        # is nan, which no tolerance may pass as zero
        cfg = OracleConfig(samples=16, box={"x": (2, 3), "y": (2, 3)})
        text = ("(x^2 + 1)^({k}/2)*(y^2 + 1)^({k}/2)"
                " - (x^2 + 2)^({k}/2)*(y^2 + 3)^({k}/2)")
        assert not is_zero(parse_expr(text.format(k=41), self.PLANE),
                           cfg).zero
        with pytest.raises(OracleInconclusiveError):
            is_zero(parse_expr(text.format(k=401), self.PLANE), cfg)

    def test_an_exact_total_beyond_float_range(self):
        e = parse_expr("F(x)^400 - F(y)^400", self.PLANE)
        v = is_zero(e)
        assert not v.zero and v.magnitude == math.inf
        assert eval_expr(e, v.witness_point, dict(v.func_env)) != 0
        assert str(v).startswith("NonZero(|value|=inf at x=")

    def test_a_derivative_beyond_float_range_gets_a_verdict(self):
        # V is drawn at degree 171, so its 171st derivative is 171! times
        # the top coefficient: exact, but beyond float range as a float
        e = parse_expr("V" + "'" * 171 + "(x)", self.PLANE)
        v = is_zero(e)
        assert not v.zero and v.magnitude == math.inf
        env = dict(v.func_env)
        assert eval_expr(e, v.witness_point, env) > 0
        with pytest.raises(EvaluationSingularityError):
            eval_expr(e, {"x": 0.5}, env)

    def test_a_derivative_past_the_drawn_degree_limit_is_an_error(self):
        # drawn at degree 4 * MAX_FUNC_DEGREE, V^(k) is nonzero; at a lower
        # degree it would vanish, so past that limit there is no verdict
        limit = 4 * MAX_FUNC_DEGREE
        assert not is_zero(parse_expr("V" + "'" * limit + "(x)",
                                      self.PLANE)).zero
        with pytest.raises(SymExprError, match=f"'V' needs degree "
                           f"{limit + 1}, above the limit {limit}"):
            is_zero(parse_expr("V" + "'" * (limit + 1) + "(x)", self.PLANE))


class TestSimplify:
    def test_collect(self, phase):
        q1 = phase["q1"]
        assert simplify(q1 + q1) == simplify(2 * q1)

    def test_perfect_power_constants(self, phase):
        assert simplify(Pow(Rat(4), Fraction(1, 2))) == Rat(2)
        assert simplify(Pow(Rat(8, 27), Fraction(2, 3))) == Rat(4, 9)
        root2 = Pow(Rat(2), Fraction(1, 2))
        assert simplify(root2 * root2) == Rat(2)
        assert simplify(Pow(Rat(2), Fraction(1, 2))).kind in ("pow", "prod")

    def test_laurent_and_inverse_collection(self, phase):
        q1 = phase["q1"]
        assert simplify(q1 ** 2 / q1) == q1
        assert simplify((1 / (1 + q1)) * (1 + q1)) == Rat(1)
        assert simplify(1 / (q1 - 1) + 1 / (1 - q1)) == Rat(0)

    def test_numerator_dividing_the_denominator_leaves_a_monomial(self):
        xy = Chart("c", ["x", "y"])
        e = parse_expr("(x + x*y)/(x^2 + x^2*y)", xy)
        assert simplify(e) == Pow(xy["x"], -1)

    def test_mixed_fraction_sums(self, phase, cfg):
        q1, q2 = phase["q1"], phase["q2"]
        e = q2 + q1 / (1 + q1)
        s = simplify(e)
        assert is_zero(s - e, cfg).zero
        assert simplify((q2 * (1 + q1) + q1) / (1 + q1) - e) == Rat(0)

    def test_annihilates_zero_products(self, phase):
        assert simplify(Rat(0) * Func("V", 0, radial(phase))) == Rat(0)

    def test_difference_of_squares_cancels(self, phase, cfg):
        q1, p1 = phase["q1"], phase["p1"]
        e = (q1 ** 2 - p1 ** 2) / (q1 - p1)
        s = simplify(e)
        assert s == simplify(q1 + p1)
        assert is_zero(s - e, cfg).zero

    def test_idempotent(self, phase):
        for i in range(60):
            rng = rng_for(60 + i, "idem")
            e = rand_expr(rng, phase, depth=3 + i % 3)
            s = simplify(e)
            assert simplify(s) == s, i

    def test_evaluation_preserved(self, phase):
        cfg = OracleConfig(seed=5, samples=12)
        for i in range(40):
            rng = rng_for(200 + i, "evalpreserve")
            e = rand_expr(rng, phase, depth=3 + i % 3)
            assert is_zero(simplify(e) - e, cfg).zero, i

    def test_algebraic_inverse_pairs_cancel(self, phase):
        cfg = OracleConfig(seed=15, samples=12)
        for i in range(15):
            rng = rng_for(260 + i, "invpair")
            e = rand_expr(rng, phase, depth=2)
            guarded = (e * e + 1)
            product = simplify(guarded * (1 / guarded))
            assert product == Rat(1), i
            ratio = simplify((guarded ** 3) / (guarded ** 2))
            assert is_zero(ratio - guarded, cfg).zero, i


    def test_charts_sharing_a_name_do_not_collide(self):
        # coordinates are keyed on the whole chart, not on its name, so
        # the normal form's caches cannot hand one chart's atoms to the
        # other
        xy, uv = Chart("c", ["x", "y"]), Chart("c", ["u", "v"])
        a = simplify(parse_expr("1/(x+y) + 1", xy))
        b = simplify(parse_expr("1/(u+v) + 1", uv))
        assert a.chart == xy and b.chart == uv
        assert a != b and xy["x"] != uv["u"]
        assert is_zero(b - parse_expr("(u + v + 1)/(u + v)", uv)).zero


class TestGrammar:
    def test_angular_momentum_literal(self, phase):
        e = parse_expr("q2*p3 - q3*p2", phase)
        q2, q3, p2, p3 = (phase[c] for c in ("q2", "q3", "p2", "p3"))
        assert simplify(e) == simplify(q2 * p3 - q3 * p2)

    def test_hamiltonian_literal(self, phase, cfg):
        r = parse_expr("(q1^2 + q2^2 + q3^2)^(1/2)", phase)
        e = parse_expr("1/2*(p1^2+p2^2+p3^2) + V(r)", phase, {"r": r})
        p1, p2, p3 = (phase[c] for c in ("p1", "p2", "p3"))
        expected = (p1 ** 2 + p2 ** 2 + p3 ** 2) / 2 + \
            Func("V", 0, radial(phase))
        assert is_zero(e - expected, cfg).zero

    def test_incomplete_power_is_an_error(self, phase):
        with pytest.raises(ParseError):
            parse_expr("q1^", phase)

    def test_unknown_identifier(self, phase):
        with pytest.raises(ParseError) as err:
            parse_expr("q1 + bogus", phase)
        assert "bogus" in str(err.value)

    def test_error_carries_position(self, phase):
        with pytest.raises(ParseError) as err:
            parse_expr("q1 +\n* q2", phase)
        assert err.value.line == 2

    @pytest.mark.parametrize("text", ["2*\u00b2", "q1^\u00b2", "\u2460"])
    def test_a_digit_that_is_not_decimal_is_a_parse_error(self, phase,
                                                          text):
        # superscript two and circled one are digits, not decimals
        with pytest.raises(ParseError):
            parse_expr(text, phase)

    @pytest.mark.parametrize("text", ["q1^(2/0)", "q1^(0/0)"])
    def test_a_zero_exponent_denominator_is_a_parse_error(self, phase,
                                                          text):
        with pytest.raises(ParseError) as err:
            parse_expr(text, phase)
        assert (err.value.line, err.value.col) == (1, 7)

    def test_decimal_digits_of_any_script_are_numbers(self, phase):
        assert parse_expr("\u0661\u0662", phase) == Rat(12)

    def test_numbers_past_the_int_digit_limit_are_exact(self, phase):
        # str(int) and int(str) stop at 4300 digits
        nines = "9" * 5000
        e = parse_expr(nines, phase)
        assert e == Rat(10 ** 5000 - 1) and str(e) == nines
        e = parse_expr(nines[:2500] + "." + nines[2500:], phase)
        assert e == Rat(10 ** 5000 - 1, 10 ** 2500)
        assert str(e) == f"{nines}/1{'0' * 2500}"
        e = parse_expr(f"q1^{nines}", phase)
        assert e.exp == 10 ** 5000 - 1 and str(e) == f"q1^{nines}"

    def test_primes_mark_derivatives(self, phase):
        e = parse_expr("V''(q1)", phase)
        assert e.kind == "func" and e.order == 2

    def test_primes_without_application_rejected(self, phase):
        with pytest.raises(ParseError):
            parse_expr("q1'", phase)

    def test_roundtrip(self, phase):
        cfg = OracleConfig(seed=21, samples=16)
        for i in range(25):
            rng = rng_for(700 + i, "roundtrip")
            e = simplify(rand_expr(rng, phase, depth=4))
            back = parse_expr(str(e), phase)
            assert is_zero(back - e, cfg).zero, (i, str(e))

    @pytest.mark.parametrize("text, printed", [
        ("12/(2 + p1)", "12/(2 + p1)"), ("3*q1^-1", "3/q1"),
        ("-3/q1", "-3/q1"), ("-1/(2 + p1)", "-1/(2 + p1)"),
        ("1/2/(2 + p1)", "1/2/(2 + p1)"), ("-3/4*q1^-2", "-3/4/q1^2"),
        ("12/(2 + p1)/q1", "12/(2 + p1)/q1"),
        ("3*q2/(2 + p1)", "3*q2/(2 + p1)")])
    def test_a_coefficient_over_denominators_is_the_numerator(
            self, phase, text, printed):
        e = simplify(parse_expr(text, phase))
        assert str(e) == printed
        assert simplify(parse_expr(printed, phase)) == e

    def test_unary_minus_and_fraction_exponents(self, phase):
        e = parse_expr("-q1^2 + q2^(-1/2)", phase)
        q1, q2 = phase["q1"], phase["q2"]
        expected = Rat(-1) * q1 ** 2 + Pow(q2, Fraction(-1, 2))
        assert simplify(e) == simplify(expected)


def _projection(verdicts):
    """What a verdict reports, with the function instances by value."""
    return [(v.zero, v.exact, v.witness, repr(v.magnitude), repr(v.func_env))
            for v in verdicts]


class TestFunctionTable:
    def test_a_config_draws_each_function_instance_once(self, phase):
        cfg = OracleConfig(seed=4)
        V = Func("V", 0, phase["q1"])
        first = oracle_function_env(cfg, V)["V"]
        assert oracle_function_env(cfg, V * phase["q2"])["V"] is first
        assert is_zero(V - phase["q2"], cfg).func_env == (("V", first),)
        assert cfg._points[("V", cfg.func_degree)] is first

    def test_a_higher_degree_draws_a_new_instance_on_the_same_stream(
            self, phase):
        cfg = OracleConfig(seed=4)
        first = oracle_function_env(cfg, Func("V", 0, phase["q1"]))["V"]
        # V at three arguments with first derivatives: degree 3 * 2 - 1
        e = parse_expr("V'(q1) + V(q2) + V(q3)", phase)
        higher = oracle_function_env(cfg, e)["V"]
        assert higher is not first and len(higher.coeffs) == 6
        assert higher.coeffs[:cfg.func_degree + 1] == first.coeffs
        assert oracle_function_env(cfg, e)["V"] is higher

    def test_replace_starts_an_empty_table(self, phase):
        cfg = OracleConfig(seed=4)
        V = Func("V", 0, phase["q1"])
        first = oracle_function_env(cfg, V)["V"]
        sample_point(cfg, phase.coords, 0)
        other = replace(cfg, samples=64)
        assert len(cfg._points) == 2 and not other._points
        drawn = oracle_function_env(other, V)["V"]
        assert drawn is not first and drawn.coeffs == first.coeffs

    def test_the_table_takes_no_part_in_equality_or_hashing(self, phase):
        cfg = OracleConfig(seed=4)
        oracle_function_env(cfg, Func("V", 0, phase["q1"]))
        sample_point(cfg, phase.coords, 0)
        fresh = OracleConfig(seed=4)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert replace(cfg) == cfg
        assert cfg != OracleConfig(seed=5)

    def test_threads_sharing_a_config_get_equal_verdicts(self, phase):
        # the threads fill one config's empty table at once: each gets the
        # verdicts of a sequential run on a config of its own, and all
        # share the instances the table keeps
        forms = [parse_form(text, phase) for text in (
            "(V(q1) - V(q1)*1)*dq1 + (V'(q2) + q3)*dp1",
            "V(q1)*dq2 + ((1 + q1)^(1/2)*(1 + q1)^(1/2) - 1 - q1)*dp2",
            "W(p1)*V(q1)*dq1 + W'(q3)*dq3")]

        def verdicts(cfg):
            out = []
            for form in forms:
                out.extend(form_is_zero(form, cfg).children)
            return out

        expected = _projection(verdicts(OracleConfig(seed=9, samples=32)))
        shared = OracleConfig(seed=9, samples=32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(verdicts, shared) for _ in range(8)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [_projection(g) for g in got] == [expected] * 8
        assert all(g == got[0] for g in got)
        assert any(not v.zero for v in got[0])


class TestOracleConfig:
    def test_everywhere_singular_expression_is_inconclusive(self, phase):
        from twistdirac.symexpr import OracleInconclusiveError
        # negative radicand on the whole positive box
        e = Pow(Rat(-1) - phase["q1"] ** 2, Fraction(1, 2))
        with pytest.raises(OracleInconclusiveError):
            is_zero(e, OracleConfig(seed=3, samples=4))

    def test_rational_function_verdict_is_exact(self, phase):
        e = phase["q2"] / (1 + phase["q1"])
        v = is_zero(e, OracleConfig(seed=3))
        assert not v.zero and v.exact
        assert eval_expr(e, v.witness_point) != 0

    def test_chart_dimension_cap(self):
        with pytest.raises(ValueError):
            Chart("big", [f"x{i}" for i in range(17)])

    @pytest.mark.parametrize("setting", [
        {"samples": 0}, {"samples": -5}, {"func_degree": -1},
        {"abs_tol": float("nan")}, {"abs_tol": float("inf")},
        {"rel_tol": float("nan")}, {"rel_tol": float("inf")},
        {"abs_tol": -1e-9}, {"rel_tol": -1e-9}, {"box": {"x": (1, 1)}},
        {"box": {"x": (2, 1)}}, {"samples": MAX_SAMPLES + 1},
        {"func_degree": MAX_FUNC_DEGREE + 1}, {"samples": True},
        {"samples": 2.5}, {"func_degree": 2.5}, {"func_degree": False}])
    def test_settings_that_make_zero_vacuous_are_rejected(self, setting):
        # no samples, function symbols that vanish identically, or a
        # tolerance every total passes would each give a Zero for free;
        # more than MAX_SAMPLES points, or functions of a degree above
        # MAX_FUNC_DEGREE, would make one zero test grind
        with pytest.raises(ValueError):
            OracleConfig(**setting)

    @pytest.mark.parametrize("setting", [
        {"seed": "4"}, {"seed": True}, {"seed": 2.5}, {"seed": None},
        {"abs_tol": True}, {"rel_tol": False}, {"abs_tol": "1e-9"},
        {"rel_tol": None}, {"abs_tol": 10 ** 400},
        {"rel_tol": Fraction(10 ** 400)}, {"box": {"x": (True, 2)}},
        {"box": {"x": (0, True)}}, {"box": {"x": "12"}},
        {"box": {"x": (1, 2, 3)}}])
    def test_settings_of_the_wrong_type_are_rejected(self, setting):
        with pytest.raises(ValueError):
            OracleConfig(**setting)

    @pytest.mark.parametrize("tol", [0, 1, Fraction(1, 10 ** 6), 1e-9])
    def test_tolerances_are_kept_as_floats(self, tol):
        cfg = OracleConfig(abs_tol=tol, rel_tol=tol)
        assert type(cfg.abs_tol) is float and cfg.abs_tol == float(tol)
        assert type(cfg.rel_tol) is float and cfg.rel_tol == float(tol)

    def test_box_controls_sampling(self, phase):
        cfg = OracleConfig(seed=1, box={"q1": (Fraction(3), Fraction(4))})
        point = sample_point(cfg, phase.coords, 0)
        assert Fraction(3) <= point["q1"] <= Fraction(4)
        assert Fraction(1, 4) <= point["q2"] <= Fraction(2)

    def test_identical_seeds_identical_points(self, phase):
        a = sample_point(OracleConfig(seed=5), phase.coords, 3)
        b = sample_point(OracleConfig(seed=5), phase.coords, 3)
        assert a == b
        c = sample_point(OracleConfig(seed=6), phase.coords, 3)
        assert a != c

    def test_points_follow_the_string_seeded_recipe(self, phase):
        def recipe(cfg, coords, index, attempt):
            rng = random.Random(f"{cfg.seed}:pt:{index}:{attempt}")
            point = {}
            for name in coords:
                lo, hi = cfg.interval(name)
                point[name] = lo + (hi - lo) * Fraction(rng.randrange(4097),
                                                        4096)
            return point

        box = {"q2": (Fraction(-3, 2), Fraction(5, 7))}
        cases = [(0, {}, phase.coords, 0, 0), (0, {}, phase.coords, 0, 3),
                 (7, box, phase.coords, 5, 1), (7, box, ("q2",), 5, 1),
                 (7, box, ("p3", "q2"), 5, 1), (-4, {}, ("x",), 127, 9)]
        for seed, box, coords, index, attempt in cases:
            cfg = OracleConfig(seed=seed, box=box)
            expected = recipe(cfg, coords, index, attempt)
            # the first draw, then the point from the config's table
            for _ in range(2):
                assert sample_point(cfg, coords, index, attempt) == expected

    def test_mutating_a_point_leaves_later_draws_alone(self, phase):
        cfg = OracleConfig(seed=11)
        first = sample_point(cfg, phase.coords, 2)
        expected = dict(first)
        first["q1"] = Fraction(99)
        del first["p3"]
        assert sample_point(cfg, phase.coords, 2) == expected

    def test_threads_sharing_a_config_draw_the_same_points(self, phase):
        # the threads fill one config's empty table at once, and each
        # scribbles on the points it gets back
        import sys
        from concurrent.futures import ThreadPoolExecutor
        keys = [(i, a) for i in range(48) for a in (0, 1)]
        fresh = OracleConfig(seed=21)
        expected = [sample_point(fresh, phase.coords, i, a) for i, a in keys]
        shared = OracleConfig(seed=21)

        def draw(_):
            got = []
            for i, a in keys:
                point = sample_point(shared, phase.coords, i, a)
                got.append(dict(point))
                point["q1"] = None
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(draw, t) for t in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8

    def test_concurrent_oracle_calls_agree(self, phase):
        # operations are pure over immutable values; concurrent verdicts
        # must match the sequential ones
        from concurrent.futures import ThreadPoolExecutor
        from twistdirac.randgen import rand_expr, rng_for
        cfg = OracleConfig(seed=44, samples=12)
        exprs = [rand_expr(rng_for(4000 + i, "thread"), phase, depth=3)
                 for i in range(16)]
        residuals = [e * (1 / (e * e + 1)) * (e * e + 1) - e for e in exprs]
        sequential = [is_zero(r, cfg).zero for r in residuals]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda r: is_zero(r, cfg).zero,
                                     residuals))
        assert sequential == parallel
        assert all(sequential)
