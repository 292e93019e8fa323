"""Forms, vector fields, and the operators d, wedge, interior, L_X."""

from fractions import Fraction

import pytest

from twistdirac import exterior
from twistdirac.symexpr import (Chart, ChartMismatchError, Func, OracleConfig,
                                OracleInconclusiveError, Pow, Rat, Sum,
                                SymExprError, eval_expr, is_zero, parse_expr,
                                sample_point, simplify)
from twistdirac.exterior import (FormSyntaxError, KForm, VectorField, ext_d,
                                 form_is_zero, interior, lie_derivative,
                                 parse_form, parse_vector_field, vf_apply,
                                 vf_bracket, vf_is_zero, wedge)
from twistdirac.randgen import (rand_kform, rand_poly, rand_vector_field,
                                rng_for)

from helpers import standard_omega


class TestWedge:
    def test_square_of_covector_vanishes(self, phase):
        dq1 = KForm.covector(phase, "q1")
        assert wedge(dq1, dq1).is_structurally_zero()

    def test_one_forms_anticommute(self, phase, cfg):
        dq1 = KForm.covector(phase, "q1")
        dp1 = KForm.covector(phase, "p1")
        assert form_is_zero(wedge(dp1, dq1) + wedge(dq1, dp1), cfg).zero

    def test_sign_bookkeeping_on_reordered_chart(self):
        # chart ordered (q1, p1, q2): merging dq1 into dp1^dq2 crosses no
        # indices, so the canonical coefficient keeps its sign
        chart = Chart("c3", ["q1", "p1", "q2"])
        a = parse_form("q1*dq1", chart)
        b = parse_form("dp1^dq2", chart)
        w = wedge(a, b).simplified()
        assert w.coeff(0b111) == chart["q1"]

    def test_graded_commutativity(self, phase, cfg):
        for i, (ka, kb) in enumerate([(1, 1), (1, 2), (2, 2), (2, 3)]):
            rng = rng_for(40 + i, "gradedcomm")
            a = rand_kform(rng, phase, ka)
            b = rand_kform(rng, phase, kb)
            sign = Rat((-1) ** (ka * kb))
            residual = wedge(a, b) - wedge(b, a).scale(sign)
            assert form_is_zero(residual, cfg).zero, (ka, kb)

    def test_associativity(self, phase, cfg):
        rng = rng_for(77, "assoc")
        a = rand_kform(rng, phase, 1)
        b = rand_kform(rng, phase, 1)
        c = rand_kform(rng, phase, 2)
        residual = wedge(wedge(a, b), c) - wedge(a, wedge(b, c))
        assert form_is_zero(residual, cfg).zero

    def test_degree_overflow_gives_zero(self, phase):
        a = rand_kform(rng_for(1, "x"), phase, 3)
        b = rand_kform(rng_for(2, "x"), phase, 4)
        out = wedge(a, b)
        assert out.degree == 7 and out.is_structurally_zero()

    def test_chart_mismatch(self, phase):
        other = Chart("other", ["u", "v"])
        with pytest.raises(ChartMismatchError):
            wedge(KForm.covector(phase, "q1"), KForm.covector(other, "u"))


class TestBasis:
    # the phase coordinates q1, q2, q3, p1, p2, p3 are mask bits 0 to 5
    @pytest.mark.parametrize("coords, coeff, degree, coeffs", [
        (["q2", "q1", "q3"], "q1", 3, {0b111: "-q1"}),
        (["q3", "q2", "q1"], None, 3, {0b111: "-1"}),
        (["p1", "q2", "q1", "q3"], "2", 4, {0b1111: "2"}),
        (["q1", "q2", "q1"], "q2", 3, {}),
        ([3, 0], "q2", 2, {0b1001: "-q2"}),
        ([0, "q2"], None, 2, {0b11: "1"}),
        (["q2", "q1"], "0", 2, {}),
        ([], "q1", 0, {0: "q1"})],
        ids=["permuted", "reversed", "even-permutation", "repeated",
             "integer-coordinates", "integer-and-name", "zero-coefficient",
             "no-coordinates"])
    def test_basis_is_the_form_built_by_hand(self, phase, coords, coeff,
                                             degree, coeffs):
        got = KForm.basis(phase, coords) if coeff is None else \
            KForm.basis(phase, coords, parse_expr(coeff, phase))
        expected = KForm(phase, degree, {m: parse_expr(t, phase)
                                         for m, t in coeffs.items()})
        assert got.degree == degree
        assert got.polys == expected.polys


class TestExtD:
    def test_differential_of_product(self, phase, cfg):
        q1, p1 = phase["q1"], phase["p1"]
        d = ext_d(KForm.scalar(phase, q1 * p1))
        expected = parse_form("p1*dq1 + q1*dp1", phase)
        assert form_is_zero(d - expected, cfg).zero

    def test_d_squared_is_zero(self, phase, cfg):
        for degree in (0, 1, 2, 3):
            rng = rng_for(90 + degree, "dsq")
            a = rand_kform(rng, phase, degree)
            assert form_is_zero(ext_d(ext_d(a)), cfg).zero, degree

    def test_radial_hamiltonian_differential(self, phase, cfg):
        # d(phi) for phi = sum p_i^2/2 + V(r): chain rule gives
        # p_i dp_i + V'(r) q_i/r dq_i
        from twistdirac.symexpr import parse_expr
        r = parse_expr("(q1^2+q2^2+q3^2)^(1/2)", phase)
        phi = parse_expr("1/2*(p1^2+p2^2+p3^2) + V(r)", phase, {"r": r})
        d = ext_d(KForm.scalar(phase, phi))
        pieces = []
        for i in (1, 2, 3):
            pieces.append(f"p{i}*dp{i}")
            pieces.append(f"V'(r)*q{i}/r*dq{i}")
        expected = parse_form(" + ".join(pieces), phase, names={"r": r})
        assert form_is_zero(d - expected, cfg).zero

    def test_graded_leibniz(self, phase, cfg):
        rng = rng_for(17, "leibniz")
        a = rand_kform(rng, phase, 1)
        b = rand_kform(rng, phase, 2)
        residual = ext_d(wedge(a, b)) - wedge(ext_d(a), b) \
            - wedge(a.scale(Rat(-1)), ext_d(b))
        assert form_is_zero(residual, cfg).zero

    def test_top_degree_maps_to_zero(self, phase):
        top = rand_kform(rng_for(5, "top"), phase, 6)
        assert ext_d(top).is_structurally_zero()


class TestInterior:
    def test_basis_contraction(self, phase):
        X = VectorField.basis(phase, "p1")
        a = parse_form("dp1^dq1", phase)
        out = interior(X, a).simplified()
        expected = KForm.covector(phase, "q1")
        assert form_is_zero(out - expected).zero

    def test_double_contraction_vanishes(self, phase, cfg):
        for i in range(5):
            rng = rng_for(140 + i, "iixx")
            X = rand_vector_field(rng, phase)
            a = rand_kform(rng, phase, 3)
            assert form_is_zero(interior(X, interior(X, a)), cfg).zero, i

    def test_innermost_first_convention(self, phase):
        # i_{q2} i_{q1} (dq1^dq2^dq3) = dq3
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        out = interior(VectorField.basis(phase, "q2"),
                       interior(VectorField.basis(phase, "q1"), H))
        assert form_is_zero(out - KForm.covector(phase, "q3")).zero

    def test_antiderivation(self, phase, cfg):
        rng = rng_for(23, "antider")
        X = rand_vector_field(rng, phase)
        a = rand_kform(rng, phase, 2)
        b = rand_kform(rng, phase, 1)
        lhs = interior(X, wedge(a, b))
        rhs = wedge(interior(X, a), b) + wedge(a, interior(X, b))
        assert form_is_zero(lhs - rhs, cfg).zero

    def test_degree_zero_contracts_to_zero(self, phase):
        X = VectorField.basis(phase, "q1")
        f = KForm.scalar(phase, phase["q1"])
        assert interior(X, f).is_structurally_zero()


class TestLieDerivative:
    def test_on_coefficient_times_covector(self, phase):
        X = VectorField.basis(phase, "q1")
        a = parse_form("q1*dq2", phase)
        out = lie_derivative(X, a)
        assert form_is_zero(out - KForm.covector(phase, "q2")).zero

    def test_commutes_with_d(self, phase, cfg):
        for i in range(5):
            rng = rng_for(210 + i, "lxd")
            X = rand_vector_field(rng, phase)
            a = rand_kform(rng, phase, 1)
            residual = lie_derivative(X, ext_d(a)) - \
                ext_d(lie_derivative(X, a))
            assert form_is_zero(residual, cfg).zero, i

    def test_symplectic_form_is_invariant_along_basis_fields(self, phase,
                                                             cfg):
        omega = standard_omega(phase)
        X = VectorField.basis(phase, "p1")
        assert form_is_zero(lie_derivative(X, omega), cfg).zero

    def test_acts_as_derivative_on_functions(self, phase, cfg):
        rng = rng_for(33, "lxf")
        X = rand_vector_field(rng, phase)
        f = rand_poly(rng, phase)
        out = lie_derivative(X, KForm.scalar(phase, f)).scalar_value()
        assert is_zero(out - vf_apply(X, f), cfg).zero

    def test_product_rule_over_wedge(self, phase, cfg):
        rng = rng_for(37, "lxwedge")
        X = rand_vector_field(rng, phase)
        a = rand_kform(rng, phase, 1)
        b = rand_kform(rng, phase, 2)
        residual = lie_derivative(X, wedge(a, b)) \
            - wedge(lie_derivative(X, a), b) - wedge(a, lie_derivative(X, b))
        assert form_is_zero(residual, cfg).zero

    def test_contraction_of_bracket(self, phase, cfg):
        # i_{[X,Y]} = L_X o i_Y - i_Y o L_X on forms
        rng = rng_for(41, "ibracket")
        X = rand_vector_field(rng, phase, max_degree=1)
        Y = rand_vector_field(rng, phase, max_degree=1)
        a = rand_kform(rng, phase, 3, max_degree=1)
        lhs = interior(vf_bracket(X, Y), a)
        rhs = lie_derivative(X, interior(Y, a)) - \
            interior(Y, lie_derivative(X, a))
        assert form_is_zero(lhs - rhs, cfg).zero


class TestVectorFields:
    def test_coordinate_fields_commute(self, phase):
        X = VectorField.basis(phase, "q1")
        Y = VectorField.basis(phase, "q2")
        assert vf_is_zero(vf_bracket(X, Y)).zero

    def test_component_formula(self, phase):
        X = parse_vector_field({"q2": "q1"}, phase)
        Y = VectorField.basis(phase, "q1")
        expected = VectorField.basis(phase, "q2").scale(Rat(-1))
        assert vf_is_zero(vf_bracket(X, Y) - expected).zero

    def test_self_bracket_vanishes(self, phase, cfg):
        for i in range(5):
            X = rand_vector_field(rng_for(300 + i, "xx"), phase)
            assert vf_is_zero(vf_bracket(X, X), cfg).zero, i

    def test_jacobi_identity(self, phase, cfg):
        rng = rng_for(55, "vfjacobi")
        X = rand_vector_field(rng, phase, max_degree=1)
        Y = rand_vector_field(rng, phase, max_degree=1)
        Z = rand_vector_field(rng, phase, max_degree=1)
        total = vf_bracket(X, vf_bracket(Y, Z)) \
            + vf_bracket(Y, vf_bracket(Z, X)) \
            + vf_bracket(Z, vf_bracket(X, Y))
        assert vf_is_zero(total, cfg).zero

    def test_application(self, phase):
        q1 = phase["q1"]
        assert simplify(vf_apply(VectorField.basis(phase, "q1"),
                                 q1 ** 2)) == simplify(2 * q1)
        X = rand_vector_field(rng_for(2, "c"), phase)
        assert simplify(vf_apply(X, Rat(5))) == Rat(0)


class TestFormLiterals:
    def test_symplectic_literal(self, phase, cfg):
        omega = parse_form("dp1^dq1 + dp2^dq2 + dp3^dq3", phase)
        assert omega.degree == 2
        assert form_is_zero(omega - standard_omega(phase), cfg).zero

    def test_coefficients_and_scaling(self, phase, cfg):
        a = parse_form("(1 + q1)*dq1^dq2 - 2*q3*dq2^dq3", phase)
        expected = KForm.basis(phase, ["q1", "q2"], 1 + phase["q1"]) + \
            KForm.basis(phase, ["q2", "q3"], Rat(-2) * phase["q3"])
        assert form_is_zero(a - expected, cfg).zero

    def test_named_forms_as_atoms(self, phase, cfg):
        omega = standard_omega(phase)
        scaled = parse_form("(1 + q1)*omega", phase,
                            form_names={"omega": omega})
        assert form_is_zero(scaled - omega.scale(1 + phase["q1"]), cfg).zero

    def test_scalar_literal_is_degree_zero(self, phase):
        f = parse_form("q1^2 + 1", phase)
        assert f.degree == 0

    def test_zero_literal_takes_requested_degree(self, phase):
        z = parse_form("0", phase, degree=3)
        assert z.degree == 3 and z.is_structurally_zero()

    def test_mixed_degrees_rejected(self, phase):
        with pytest.raises(FormSyntaxError):
            parse_form("dq1 + dq1^dq2", phase)

    def test_wedge_requires_caret(self, phase):
        from twistdirac.symexpr import ParseError
        with pytest.raises(ParseError):
            parse_form("dq1*dq2", phase)

    @pytest.mark.parametrize("text", ["dq1^q1", "q1/dq1", "F(dq1)*dq2"])
    def test_a_form_where_a_scalar_belongs_is_a_parse_error(self, phase,
                                                            text):
        from twistdirac.symexpr import ParseError
        with pytest.raises(ParseError):
            parse_form(text, phase)

    def test_a_zero_exponent_denominator_is_a_parse_error(self, phase):
        from twistdirac.symexpr import ParseError
        with pytest.raises(ParseError) as err:
            parse_form("q1^(1/0)*dq1", phase)
        assert err.value.col == 7

    @pytest.mark.parametrize("text, build", [
        ("dp1^dq1 + dp2^dq2 + dp3^dq3", standard_omega),
        ("(1 + q1)*omega",
         lambda c: standard_omega(c).scale(1 + c["q1"])),
        ("-dq1^dq2",
         lambda c: wedge(KForm.basis(c, ["q1"]),
                         KForm.basis(c, ["q2"])).scale(-1)),
        ("q1/q2*dq1", lambda c: KForm.basis(c, ["q1"], c["q1"] / c["q2"])),
        ("dq1^dq2^dq3", lambda c: KForm.basis(c, ["q1", "q2", "q3"])),
        ("2*q3*dq2^dq3 - dq1^dq2",
         lambda c: KForm.basis(c, ["q2", "q3"], 2 * c["q3"])
         - KForm.basis(c, ["q1", "q2"]))])
    def test_literal_is_the_form_built_by_hand(self, phase, text, build):
        got = parse_form(text, phase,
                         form_names={"omega": standard_omega(phase)})
        assert got.polys == build(phase).polys

    @pytest.mark.parametrize("build, text", [
        (lambda c: parse_form("q1^2 + 1", c), "1 + q1^2"),
        (lambda c: parse_form("(q1 + p1)*dq1", c), "(q1 + p1)*dq1"),
        (lambda c: KForm.zero(c, 2), "0")],
        ids=["degree-0", "sum-coefficient", "zero"])
    def test_string_forms(self, phase, build, text):
        assert str(build(phase)) == text

    def test_string_roundtrip(self, phase, cfg):
        for i in range(10):
            rng = rng_for(420 + i, "formrt")
            a = rand_kform(rng, phase, 2).simplified()
            back = parse_form(str(a), phase, degree=2)
            assert form_is_zero(a - back, cfg).zero, (i, str(a))

    def test_vector_field_components(self, phase):
        X = parse_vector_field({"q2": "q3", "p3": "-p2"}, phase)
        assert simplify(X.comps[phase.index("q2")]) == phase["q3"]
        assert simplify(X.comps[phase.index("p3")]) == \
            simplify(Rat(-1) * phase["p2"])


class TestZeroVerdicts:
    def test_each_stored_coefficient_is_tested_by_is_zero_once(
            self, phase, cfg, monkeypatch):
        # the is_zero bound in exterior sees every stored coefficient once,
        # in basis order, and each child is the verdict it returns
        calls = []

        def counting(p, *args):
            verdict = is_zero(p, *args)
            calls.append((p, verdict))
            return verdict

        monkeypatch.setattr(exterior, "is_zero", counting)
        a = parse_form("(F(q1) + q2)*dq1 + ((q1 + 1)^(1/2)*(q1 + 2)^(1/2)"
                       " - ((q1 + 1)*(q1 + 2))^(1/2))*dp2 + q3*dq2", phase)
        X = parse_vector_field({"q2": "V(q3) - V(q3)", "p1": "q1^2"}, phase)
        for test, obj, polys in (
                (form_is_zero, a, [a.polys[m] for m in sorted(a.polys)]),
                (vf_is_zero, X, list(X.polys))):
            calls.clear()
            verdict = test(obj, cfg)
            assert [p for p, _ in calls] == polys
            assert [(c.zero, c.exact, c.witness, c.magnitude, c.func_env)
                    for c in verdict.children] == \
                [(v.zero, v.exact, v.witness, v.magnitude, v.func_env)
                 for _, v in calls]
        assert len(a.polys) == 3 and len(X.polys) == phase.dim
        # the form's coefficients take the sampled, exact and sampled-zero
        # routes
        assert [(c.zero, c.exact) for c in form_is_zero(a, cfg).children] \
            == [(False, False), (False, True), (True, False)]

    def test_composite_takes_witness_and_magnitude_from_failing_children(
            self, phase, cfg):
        # two failing coefficients: a sampled one (function symbol, so it
        # carries a func_env) first, then a larger exact one
        a = parse_form("(F(q1) + q2)*dq1 + 1000*p2*dp1", phase)
        verdict = form_is_zero(a, cfg)
        assert not verdict.zero and not verdict.exact
        assert [label for label, _ in verdict.failures] == ["dq1", "dp1"]
        (_, first), (_, second) = verdict.failures
        assert verdict.witness == first.witness
        assert verdict.func_env == first.func_env is not None
        assert verdict.magnitude == second.magnitude > first.magnitude
        coefficient = dict(a.terms())[1]
        value = eval_expr(coefficient, verdict.witness_point,
                          dict(verdict.func_env))
        assert value != 0
        assert abs(float(value)) == pytest.approx(first.magnitude, rel=1e-9)

    def test_zero_composite_has_no_witness(self, phase, cfg):
        verdict = vf_is_zero(VectorField.basis(phase, "q1")
                             - VectorField.basis(phase, "q1"), cfg)
        assert verdict.zero and verdict.exact and verdict.failures == []
        assert verdict.witness is None and verdict.magnitude is None

    def test_a_singular_point_is_redrawn_only_for_the_coefficient_it_breaks(
            self):
        # 1/(x - x0) is singular at sample point 0 and nowhere else; the
        # radical beside it keeps that point
        chart = Chart("plane", ["x", "y"])
        cfg = OracleConfig(seed=2, samples=8)
        first = sample_point(cfg, chart.coords, 0)
        x = chart["x"]
        form = KForm(chart, 1, {
            0b01: Pow(Sum(x, Rat(-first["x"])), Fraction(-1)),
            0b10: Pow(Sum(x, Rat(1)), Fraction(1, 2))})
        dx, dy = form_is_zero(form, cfg).children
        assert not dx.zero and dx.exact
        assert dx.witness_point == sample_point(cfg, chart.coords, 0, 1)
        assert not dy.zero and not dy.exact
        assert dy.witness_point == first

    @pytest.mark.parametrize("nowhere_first", [True, False])
    def test_the_first_coefficient_that_raises_raises(self, nowhere_first):
        # a negative radicand at every point makes its test inconclusive;
        # F at four arguments to order 100 needs degree 4 * 101 - 1 = 403,
        # above the oracle's limit.  The form's test raises the error of
        # the first coefficient in basis order, as testing it alone does
        chart = Chart("plane", ["x", "y"])
        x = chart["x"]
        nowhere = parse_expr("(-1 - x^2)^(1/2)", chart)
        deep = Sum(*(Func("F", 100 if k == 0 else 0, x + k)
                     for k in range(4)))
        first, second = (nowhere, deep) if nowhere_first else (deep, nowhere)
        with pytest.raises(SymExprError) as form:
            form_is_zero(KForm(chart, 1, {0b01: first, 0b10: second}))
        with pytest.raises(SymExprError) as alone:
            is_zero(first)
        assert type(form.value) is type(alone.value)
        assert str(form.value) == str(alone.value)
        if nowhere_first:
            assert type(alone.value) is OracleInconclusiveError
        else:
            assert "needs degree 403" in str(alone.value)
