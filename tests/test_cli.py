"""Scenario loading, the check registry, report rendering, and the CLI."""

import json
import math
from decimal import Decimal

import pytest

from twistdirac.cli import (BUILTIN_NAMES, ScenarioError, load_scenario_data,
                            main, run_scenario)
from twistdirac.symexpr import eval_expr, parse_expr
from fractions import Fraction


def strip_timing(report_dict):
    for check in report_dict["checks"]:
        check.pop("ms", None)
    return report_dict


MINIMAL = {
    "schema_version": 1,
    "name": "minimal",
    "chart": ["q1", "p1"],
    "oracle": {"seed": 5, "samples": 32},
    "definitions": {"forms": {"omega": "dp1^dq1"}},
    "structure": {"type": "graph", "h": "omega", "H": "0", "sign": "+"},
    "checks": [
        {"name": "canonical", "op": "poisson_bracket",
         "f": "q1", "g": "p1", "expect": "1"}
    ],
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _with(data, key, value):
    """A copy of data with data[key] = value."""
    data = json.loads(json.dumps(data))
    data[key] = value
    return data


def write_scenario(tmp_path, data, name="scen.json"):
    """data as a JSON file; a str is written as it is."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


# h is degenerate, so the H verdict of every function is not determined
DEGENERATE = {
    "schema_version": 1,
    "name": "degenerate",
    "chart": ["q1", "q2", "p1", "p2"],
    "oracle": {"seed": 5, "samples": 16},
    "definitions": {"forms": {"h": "q1*dp1^dq1", "H": "dq1^dq2^dp1"}},
    "structure": {"type": "graph", "h": "h", "H": "H", "sign": "+"},
    "checks": [
        {"name": "undetermined", "op": "h_admissible", "f": "q1"},
        {"name": "closure", "op": "theorem_closure", "f": "q1", "g": "p1"}
    ],
}


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_all_builtins_pass(self, name):
        report = run_scenario(name)
        assert report.exit_code == 0, report.render_text()

    def test_reports_are_deterministic(self):
        for name in BUILTIN_NAMES:
            a = strip_timing(run_scenario(name).to_dict())
            b = strip_timing(run_scenario(name).to_dict())
            assert json.dumps(a, sort_keys=True) == \
                json.dumps(b, sort_keys=True), name

    def test_conformal_verdicts_definite_with_witness(self):
        report = run_scenario("conformal-symplectic")
        verdicts = {c.name: c for c in report.checks}
        for func in ("L1", "L2", "L3"):
            check = verdicts[f"{func} admissibility verdict"]
            assert check.verdict == "PASS"
            assert "zero" in check.detail


class TestScenarioFiles:
    def test_minimal_scenario(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        report = run_scenario(path)
        assert report.exit_code == 0

    def test_empty_check_list_is_a_pass(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"] = []
        path = write_scenario(tmp_path, data)
        report = run_scenario(path)
        assert report.exit_code == 0
        assert report.checks == []
        assert "no checks" in report.render_text()

    def test_failing_check_sets_exit_one(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"][0]["expect"] = "2"
        path = write_scenario(tmp_path, data)
        report = run_scenario(path)
        assert report.exit_code == 1
        assert report.checks[0].verdict == "FAIL"

    def test_failing_check_carries_reevaluable_witness(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"][0]["expect"] = "q1"
        path = write_scenario(tmp_path, data)
        report = run_scenario(path)
        check = report.checks[0]
        assert check.verdict == "FAIL"
        assert check.witness
        chart_names = MINIMAL["chart"]
        from twistdirac.symexpr import Chart
        chart = Chart("minimal", chart_names)
        residual = parse_expr("1 - q1", chart)
        point = {k: Fraction(v) for k, v in check.witness.items()}
        assert eval_expr(residual, point) != 0

    @pytest.mark.parametrize("expect, box, verdict", [
        # q^1100 leaves float range near the top of the default box
        ("(1 + q)^(1/2)*(1 + p)^(1/2)*q^1100"
         " - (1 + q + p + q*p)^(1/2)*q^1100", {}, "PASS"),
        # every term leaves float range everywhere on this box
        ("(q^2 + 1)^(401/2)*(p^2 + 1)^(401/2)"
         " - (q^2 + 2)^(401/2)*(p^2 + 3)^(401/2)",
         {"q": [2, 3], "p": [2, 3]}, "ERROR")])
    def test_values_beyond_float_range_give_a_report_row(self, tmp_path,
                                                         expect, box,
                                                         verdict):
        data = dict(MINIMAL, chart=["q", "p"], definitions={},
                    oracle={"seed": 5, "box": box},
                    structure={"type": "graph", "h": "dp^dq", "H": "0"},
                    checks=[{"name": "huge", "op": "poisson_bracket",
                             "f": "q", "g": "0", "expect": expect}])
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == [verdict]

    def test_numbers_past_the_int_digit_limit_give_a_report_row(self,
                                                                tmp_path):
        # 15000*2^15000 has 4520 digits; str(int) stops at 4300
        data = _with(MINIMAL, "checks", [
            {"name": "long", "op": "poisson_bracket", "f": "(2*q1)^15000",
             "g": "p1", "expect": "15000*2^15000*q1^14999"}])
        report = run_scenario(write_scenario(tmp_path, data))
        check, = report.checks
        assert check.verdict == "PASS"
        coeff, rest = check.detail.removeprefix("{f,g} = ").split("*")
        assert (len(coeff), rest) == (4520, "q1^14999")
        assert Fraction(Decimal(coeff)) == 15000 * 2 ** 15000
        assert json.loads(report.to_json()) == report.to_dict()

    @pytest.mark.parametrize("f, expect, residual, written", [
        # 15000*2^15000*q1^14999 is below 1e-600 for q1 <= 9/20
        ("(2*q1)^15000", "0", math.ulp(0.0), math.ulp(0.0)),
        ("q1", "V" + "'" * 171 + "(q1)", math.inf, "inf")],
        ids=["below-float-range", "beyond-float-range"])
    def test_a_residual_outside_float_range_is_reported(
            self, tmp_path, capsys, f, expect, residual, written):
        data = _with(MINIMAL, "checks", [
            {"name": "far", "op": "poisson_bracket", "f": f, "g": "p1",
             "expect": expect}])
        data["oracle"]["box"] = {"q1": ["1/4", "9/20"]}
        path = write_scenario(tmp_path, data)
        check, = run_scenario(path).checks
        assert (check.verdict, check.residual_max) == ("FAIL", residual)
        assert main(["check", path, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out,
                            parse_constant=_reject_constant)
        assert report["checks"][0]["residual_max"] == written

    def test_numbers_in_definitions_are_read_exactly(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["definitions"].update(
            exprs={"c": 0.5, "n": 2},
            sections={"A": {"X": {"p1": 1e-5}, "alpha": "dq1"}})
        data["checks"] = [
            {"op": "poisson_bracket", "f": "c*q1", "g": "n*p1",
             "expect": 1},
            {"op": "admissible_pair", "section": "A", "expect": True}]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["PASS", "PASS"]

    def test_unknown_op_is_error(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"].append({"op": "nonsense"})
        path = write_scenario(tmp_path, data)
        report = run_scenario(path)
        assert report.exit_code == 2

    def test_bad_definition_aborts(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["definitions"]["exprs"] = {"bad": "q1 +"}
        path = write_scenario(tmp_path, data)
        with pytest.raises(ScenarioError):
            run_scenario(path)

    def test_shadowing_coordinate_rejected(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["definitions"]["exprs"] = {"q1": "p1"}
        path = write_scenario(tmp_path, data)
        with pytest.raises(ScenarioError):
            run_scenario(path)

    def test_unknown_source(self):
        with pytest.raises(ScenarioError):
            load_scenario_data("no-such-scenario")

    def test_wrong_schema_version(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["schema_version"] = 99
        path = write_scenario(tmp_path, data)
        with pytest.raises(ScenarioError):
            load_scenario_data(path)

    def test_seed_override_changes_report_seed(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        assert run_scenario(path, seed=99).seed == 99
        assert run_scenario(path).seed == 5

    def test_env_seed_default(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, MINIMAL)
        monkeypatch.setenv("TWISTDIRAC_SEED", "1234")
        assert run_scenario(path).seed == 1234
        assert run_scenario(path, seed=7).seed == 7

    def test_sign_override_flips_brackets(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"][0]["expect"] = "-1"
        path = write_scenario(tmp_path, data)
        assert run_scenario(path, sign="-").exit_code == 0
        assert run_scenario(path).exit_code == 1

    def test_not_determined_verdict_is_inconclusive(self, tmp_path):
        path = write_scenario(tmp_path, DEGENERATE)
        report = run_scenario(path)
        for check in report.checks:
            assert check.verdict == "INCONCLUSIVE"
            assert check.detail == ("verdict not determined: degenerate "
                                    "structure: Hamiltonian field not "
                                    "unique")
            assert check.witness is None and check.residual_max is None
        assert report.exit_code == 2

    @pytest.mark.parametrize("structure, error", [
        ({"type": "graph", "h": "H"}, "FormSyntaxError"),
        ({"type": "graph", "h": "h", "H": "h"}, "FormSyntaxError"),
        ({"type": "graph", "h": "h", "H": "q1*dq2^dp1^dp2"},
         "not closed")], ids=["h-a-3-form", "H-a-2-form", "H-not-closed"])
    def test_a_named_form_of_the_wrong_degree_is_an_error_row(
            self, tmp_path, capsys, structure, error):
        data = _with(DEGENERATE, "structure", structure)
        path = write_scenario(tmp_path, data)
        report = run_scenario(path)
        assert [c.verdict for c in report.checks] == ["ERROR", "ERROR"]
        assert error in report.checks[0].detail
        assert main(["check", path]) == 2
        assert "[ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize("section, expect, verdict", [
        ("A", True, "PASS"), ("A", False, "FAIL"),
        ("C", True, "FAIL"), ("C", False, "PASS")])
    def test_admissible_pair_follows_expect(self, tmp_path, section, expect,
                                            verdict):
        # A = (p2 d/dp1, dq2) is admissible for H = 0, C = (q2 d/dp1,
        # q1 dq2) is not: d(q1 dq2) = dq1^dq2
        data = load_scenario_data("darboux")
        data["definitions"]["sections"]["C"] = {"X": {"p1": "q2"},
                                                "alpha": "q1*dq2"}
        data["checks"] = [{"name": "pair", "op": "admissible_pair",
                           "section": section, "expect": expect}]
        check = run_scenario(write_scenario(tmp_path, data)).checks[0]
        assert check.verdict == verdict
        assert (check.residual_max is not None) == (section == "C")

    def test_h_admissible_rejects_an_unknown_expect(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"] = [{"name": "typo", "op": "h_admissible", "f": "q1",
                           "expect": "Zero"}]
        report = run_scenario(write_scenario(tmp_path, data))
        check = report.checks[0]
        assert check.verdict == "ERROR"
        assert "'zero'" in check.detail and "'nonzero'" in check.detail
        assert report.exit_code == 2

    def test_image_under_d_without_sections_is_an_error(self, tmp_path):
        data = load_scenario_data("darboux")
        data["checks"] = [
            {"name": "empty image", "op": "image_under_d", "sections": []},
            {"name": "image under d", "op": "image_under_d",
             "sections": ["A", "B"]}]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["ERROR", "PASS"]
        assert "at least one section" in report.checks[0].detail
        assert report.exit_code == 2

    def test_malformed_structure_is_an_error_row(self, tmp_path):
        data = _with(MINIMAL, "structure", "oops")
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["ERROR"]
        assert "JSON object" in report.checks[0].detail
        assert report.exit_code == 2

    def test_a_graph_op_without_a_structure_is_an_error_row(self,
                                                             tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        del data["structure"]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["ERROR"]
        assert "no structure named 'main'" in report.checks[0].detail
        assert report.exit_code == 2

    def test_lie_algebra_from_brackets(self, tmp_path):
        so3 = {"dim": 3, "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               "brackets": [[1, 2, [0, 0, 1]], [2, 3, [1, 0, 0]],
                            [3, 1, [0, 1, 0]]]}
        data = _with(MINIMAL, "structure",
                     {"type": "lie_algebra", "algebra": so3})
        data["checks"] = [
            {"op": "cartan_kernel", "expect_dimension": 0},
            {"op": "cartan_table", "nonzero": [1, 2, 3]}]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["PASS", "PASS"]
        assert "T(1,2,3) = 1/2" in report.checks[1].detail

    def test_form_spec_with_text_and_degree(self, tmp_path):
        data = _with(MINIMAL, "definitions", {
            "forms": {"omega": {"text": "dp1^dq1", "degree": 2}}})
        assert run_scenario(write_scenario(tmp_path, data)).exit_code == 0

    @pytest.mark.parametrize("f, g, expect", [
        ("q1", "p1", 1), (3, "p1", 0), ("1.5*q1", "p1", "3/2"),
        (0.5, "q1", 0), ("q1/100000", "p1", 1e-5), ("q1", "p1", 1.0)])
    def test_numeric_and_decimal_expressions(self, tmp_path, f, g, expect):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"][0].update(f=f, g=g, expect=expect)
        check = run_scenario(write_scenario(tmp_path, data)).checks[0]
        assert check.verdict == "PASS", check.detail

    @pytest.mark.parametrize("check", [
        {"op": "symplectic_graph", "f": "q1", "expect_h_admissible": False},
        {"op": "cartan_table", "structure": "abelian", "nonzero": [1, 2, 3]},
    ], ids=["h-admissibility-contradicted", "vanishing-contraction"])
    def test_contradicted_expectation_fails(self, tmp_path, check):
        data = _with(MINIMAL, "structures", {
            "main": MINIMAL["structure"],
            "abelian": {"type": "lie_algebra", "algebra": "abelian(3)"}})
        data["checks"] = [check]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["FAIL"]
        assert report.exit_code == 1

    @pytest.mark.parametrize("check, algebra", [
        ("poisson_bracket", None),
        ({"op": "poisson_bracket", "f": ["q1"], "g": "p1"}, None),
        ({"op": "nondegenerate", "structure": "L"}, "so3"),
        ({"op": "cartan_kernel", "structure": "main",
          "expect_dimension": 0}, None),
        ({"op": "cartan_table", "structure": "main"}, None),
        ({"op": "cartan_kernel", "structure": "L",
          "expect_dimension": 0}, {}),
        ({"op": "cartan_kernel", "structure": "L",
          "expect_dimension": 0}, {"algebra": "abelian(x)"}),
        ({"op": "cartan_kernel", "structure": "L",
          "expect_dimension": "two"}, "so3"),
        ({"op": "cartan_kernel", "structure": "L",
          "expect_dimension": 0.5}, "so3"),
        ({"op": "cartan_table", "structure": "L", "nonzero": [1, 2, 4]},
         "so3"),
        ({"op": "cartan_table", "structure": "L", "nonzero": [1, 2]},
         "so3"),
        ({"op": "nondegenerate", "structure": "L"},
         {"type": "graph", "h": ["dp1^dq1"]}),
        ({"op": "courant_admissible", "f": "q1", "expect": "false"}, None),
        ({"op": "admissible_pair", "section": "A", "expect": "false"},
         None),
        ({"op": "integrable", "expect": "false"}, None),
        ({"op": "nondegenerate", "expect": "false"}, None),
        ({"op": "symplectic_graph", "f": "q1",
          "expect_h_admissible": "false"}, None),
        ({"op": "integrable", "expect": 0}, None),
        ({"op": "symplectic_graph", "f": "q1",
          "expect_h_admissible": None}, None),
        ({"op": "cartan_kernel", "structure": "L",
          "expect_dimension": 17}, {"algebra": "abelian(17)"}),
        ({"op": "cartan_kernel", "structure": "L",
          "expect_dimension": 17}, {"algebra": f"abelian({'9' * 5000})"}),
        ({"op": "cartan_kernel", "structure": "L",
          "expect_dimension": 17}, {"algebra": {
              "dim": 17, "brackets": [],
              "metric": [[int(i == j) for j in range(17)]
                         for i in range(17)]}}),
        ({"op": "admissible_pair", "section": "A3", "expect": True}, None),
        ({"op": "pairing_zero", "a": "A", "b": "A3"}, None),
        ({"op": "image_under_d", "sections": ["A"], "H": "0"}, None),
        ({"op": ["poisson_bracket"], "f": "q1", "g": "p1"}, None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1",
          "expect": "\u00b2"}, None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1",
          "expect": "q1^(2/0)"}, None),
        ({"op": "poisson_bracket", "structure": ["main"], "f": "q1",
          "g": "p1"}, None),
        ({"op": "nondegenerate", "structure": "L"},
         {"type": "graph", "h": "dp1^dq1", "sign": ["+"]}),
        ({"op": "admissible_pair", "section": ["A"], "expect": True}, None),
        ({"op": "pairing_zero", "a": {"A": 1}, "b": "A"}, None),
        ({"op": "image_under_d", "sections": [["A"]]}, None),
        ({"op": "courant_admissible", "f": "q1^2147483648"}, None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1", "expect": True},
         None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1", "expect": None},
         None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1", "expect": [1]},
         None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1",
          "expect": {"q1": 1}}, None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1",
          "expect": math.inf}, None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1",
          "expect": math.nan}, None),
        ({"op": "poisson_bracket", "f": "q1", "g": "p1",
          "expect": "V" + "'" * 400 + "(q1)"}, None),
        ({"op": "nondegenerate", "structure": "nope"}, None),
        ({"op": "nondegenerate", "structure": "L"},
         {"type": "graph", "h": "dp1^dq1", "sign": "*"}),
        ({"op": "nondegenerate", "structure": "L"}, {"type": "group"}),
        ({"op": "cartan_kernel", "structure": "L", "expect_dimension": 0},
         {"algebra": {"dim": 2, "brackets": [5], "metric": [[1, 0],
                                                          [0, 1]]}}),
    ], ids=["check-not-an-object", "expression-is-a-list",
            "graph-op-on-an-algebra", "cartan-kernel-on-a-graph",
            "cartan-table-on-a-graph", "algebra-missing",
            "abelian-of-a-name", "expect-dimension-a-word",
            "expect-dimension-a-fraction", "nonzero-out-of-range",
            "nonzero-of-two-indices", "form-is-a-list",
            "courant-admissible-expect-a-string",
            "admissible-pair-expect-a-string", "integrable-expect-a-string",
            "nondegenerate-expect-a-string",
            "symplectic-graph-expect-a-string", "integrable-expect-zero",
            "symplectic-graph-expect-null", "abelian-over-the-bound",
            "abelian-past-the-int-digit-limit",
            "dim-over-the-bound", "admissible-pair-level-3-on-a-3-form",
            "pairing-zero-of-levels-2-and-3", "image-under-d-with-H-0",
            "op-a-list", "expect-a-superscript-digit",
            "expect-a-zero-exponent-denominator", "structure-a-list",
            "sign-a-list", "section-a-list", "pairing-name-an-object",
            "sections-entry-a-list", "degree-past-the-engine-limit",
            "expect-true", "expect-null", "expect-an-array",
            "expect-an-object", "expect-infinity", "expect-nan",
            "derivative-past-the-drawn-degree-limit", "unknown-structure",
            "bad-sign", "unknown-structure-type", "bracket-not-a-list"])
    def test_malformed_check_is_an_error_row(self, tmp_path, check,
                                             algebra):
        # L is so3, a lie_algebra structure with the given fields, or a
        # whole structure; A is an admissible section of main and A3 a
        # level-3 section; the canonical check after the bad one still runs
        structures = {"main": MINIMAL["structure"]}
        if algebra == "so3":
            algebra = {"algebra": "so3"}
        if algebra is not None:
            structures["L"] = {"type": "lie_algebra", **algebra}
        data = _with(MINIMAL, "structures", structures)
        data["definitions"]["sections"] = {
            "A": {"X": {"p1": "q1"}, "alpha": "dq1"},
            "A3": {"X": {"p1": "q1"}, "alpha": "dq1^dp1"}}
        data["checks"] = [check] + MINIMAL["checks"]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["ERROR", "PASS"]
        assert report.exit_code == 2

    def test_unnamed_structure_among_several_is_an_error_row(self,
                                                              tmp_path):
        data = _with(MINIMAL, "structures", {"a": MINIMAL["structure"],
                                             "b": MINIMAL["structure"]})
        data["checks"] = MINIMAL["checks"] + [
            dict(MINIMAL["checks"][0], structure="b")]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == ["ERROR", "PASS"]
        detail = report.checks[0].detail
        assert "a, b" in detail and "'structure' field" in detail

    @pytest.mark.parametrize("field, value", [
        ("expect", "false"), ("expect", 0), ("expect", None),
        ("expect_h_admissible", "false")])
    def test_non_boolean_flag_names_the_field(self, tmp_path, field, value):
        data = json.loads(json.dumps(MINIMAL))
        op = "nondegenerate" if field == "expect" else "symplectic_graph"
        data["checks"] = [{"op": op, "f": "q1", field: value}]
        check = run_scenario(write_scenario(tmp_path, data)).checks[0]
        assert check.verdict == "ERROR"
        assert f"{field} must be true or false" in check.detail

    @pytest.mark.parametrize("expect, verdict", [(True, "PASS"),
                                                 (False, "FAIL")])
    def test_boolean_expect_is_read_as_given(self, tmp_path, expect,
                                             verdict):
        data = json.loads(json.dumps(MINIMAL))
        data["checks"] = [{"op": "nondegenerate", "expect": expect},
                          {"op": "integrable"}]
        report = run_scenario(write_scenario(tmp_path, data))
        assert [c.verdict for c in report.checks] == [verdict, "PASS"]


# {F(q), p} = -F'(q) on dp^dq: FAIL, unless the oracle settings make a
# Zero verdict vacuous
FUNCTION_BRACKET = {
    "schema_version": 1,
    "name": "function-bracket",
    "chart": ["q", "p"],
    "oracle": {"seed": 5, "samples": 32},
    "structure": {"type": "graph", "h": "dp^dq", "H": "0"},
    "checks": [{"name": "{F(q), p} = 0", "op": "poisson_bracket",
                "f": "F(q)", "g": "p", "expect": "0"}],
}


class TestRejectedInput:
    def test_function_bracket_fails_by_default(self, tmp_path, capsys):
        assert main(["check", write_scenario(tmp_path, FUNCTION_BRACKET)]) \
            == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--samples", "0"],
                                       ["--samples", "-5"],
                                       ["--tol", "nan"], ["--tol", "inf"],
                                       ["--samples", "100000000"]])
    def test_vacuous_oracle_flags_are_errors(self, tmp_path, capsys, flags):
        path = write_scenario(tmp_path, FUNCTION_BRACKET)
        assert main(["check", path] + flags) == 2
        assert capsys.readouterr().err.startswith("error: invalid oracle")

    @pytest.mark.parametrize("oracle", [{"func_degree": -1},
                                        {"samples": 0},
                                        {"abs_tol": "nan"},
                                        {"abs_tol": True},
                                        {"box": {"q": [1, 1]}},
                                        {"box": {"q": [2, 1]}},
                                        {"abs_tol": 10 ** 400},
                                        {"samples": 100000000}])
    def test_vacuous_oracle_settings_are_errors(self, tmp_path, capsys,
                                                oracle):
        data = _with(FUNCTION_BRACKET, "oracle", oracle)
        assert main(["check", write_scenario(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid oracle")

    @pytest.mark.parametrize("oracle", [{"seed": True}, {"seed": 2.5},
                                        {"seed": "4"}, {"abs_tol": False},
                                        {"rel_tol": [1e-9]},
                                        {"box": {"q": [1, False]}}])
    def test_mistyped_oracle_settings_are_errors(self, tmp_path, capsys,
                                                 oracle):
        data = _with(FUNCTION_BRACKET, "oracle", oracle)
        assert main(["check", write_scenario(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid oracle settings")

    def test_an_integer_tolerance_is_reported_as_a_float(self, tmp_path):
        data = _with(FUNCTION_BRACKET, "oracle", {"abs_tol": 0,
                                                  "rel_tol": 1})
        report = run_scenario(write_scenario(tmp_path, data))
        assert type(report.cfg.abs_tol) is float and report.cfg.abs_tol == 0
        assert type(report.cfg.rel_tol) is float and report.cfg.rel_tol == 1

    @pytest.mark.parametrize("data", [
        _with(MINIMAL, "chart", ["q1", "q1"]),
        _with(MINIMAL, "chart", [f"x{i}" for i in range(17)]),
        [MINIMAL],
        _with(MINIMAL, "oracle", {"samples": "many"}),
        _with(MINIMAL, "oracle", {"box": {"q1": [1]}}),
        dict(MINIMAL, chart="qp", definitions={},
             structure={"type": "graph", "h": "dp^dq"},
             checks=[{"op": "poisson_bracket", "f": "q", "g": "p",
                      "expect": "1"}]),
        _with(MINIMAL, "checks", MINIMAL["checks"][0]),
        _with(MINIMAL, "definitions", ["omega"]),
        _with(MINIMAL, "definitions", {"forms": [["omega", "dp1^dq1"]]}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "exprs": "f = q1"}),
        _with(MINIMAL, "definitions", {"forms": {"omega": {
            "degree": 2}}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "sections": {"A": {"X": "q1", "alpha": "dq1"}}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "sections": {"A": ["q1", "dq1"]}}),
        _with(MINIMAL, "structures", [MINIMAL["structure"]]),
        _with(MINIMAL, "oracle", {"samples": True}),
        _with(MINIMAL, "oracle", {"seed": "4"}),
        _with(MINIMAL, "oracle", {"func_degree": 2.9}),
        _with(MINIMAL, "oracle", {"rel_tol": "1e-9"}),
        _with(MINIMAL, "oracle", {"box": {"q1": [True, 2]}}),
        _with(MINIMAL, "oracle", {"box": {"x": [1, 2]}}),
        _with(MINIMAL, "oracle", {"box": {"q1": "12"}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "exprs": {"a": "\u00b2"}}),
        _with(MINIMAL, "definitions", {"forms": {"omega": "dp1^dq1",
                                                 "dq1": "2*dq1"}}),
        json.dumps(MINIMAL).replace('"seed": 5', '"seed": ' + "9" * 5000),
        {k: v for k, v in MINIMAL.items() if k != "chart"},
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "sections": {"A": {"alpha": "dq1"}}}),
        _with(MINIMAL, "definitions", {"exprs": {"omega": "q1"},
                                       "forms": {"omega": "dp1^dq1"}}),
        _with(MINIMAL, "definitions", {"forms": {"omega": "dp1^"}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "exprs": {"a": True}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "exprs": {"a": None}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "exprs": {"a": [2]}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "exprs": {"a": {"q1": 2}}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "exprs": {"a": math.inf}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "sections": {"A": {"X": {"p1": False},
                                         "alpha": "dq1"}}}),
        _with(MINIMAL, "definitions", {"forms": MINIMAL["definitions"][
            "forms"], "sections": {"A": {"X": {"p1": math.nan},
                                         "alpha": "dq1"}}}),
        _with(MINIMAL, "oracle", {"func_degree": True}),
    ], ids=["repeated-coordinates", "17-coordinates", "top-level-array",
            "non-numeric-samples", "one-ended-box", "chart-a-string",
            "checks-an-object", "definitions-an-array", "forms-an-array",
            "exprs-a-string", "form-without-text", "section-X-a-string",
            "section-an-array", "structures-an-array", "boolean-samples",
            "seed-a-string", "fractional-func-degree", "rel-tol-a-string",
            "boolean-box-endpoint", "box-of-a-non-coordinate",
            "box-a-string", "expr-a-superscript-digit",
            "form-named-like-a-covector", "seed-past-the-int-digit-limit",
            "no-chart", "section-without-X", "duplicate-definition",
            "form-parse-error", "expr-a-boolean", "expr-null",
            "expr-an-array", "expr-an-object", "expr-infinity",
            "section-X-a-boolean", "section-X-nan", "boolean-func-degree"])
    def test_malformed_scenario_file_is_an_error(self, tmp_path, capsys,
                                                  data):
        with pytest.raises(ScenarioError):
            run_scenario(write_scenario(tmp_path, data))
        assert main(["check", write_scenario(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("content", [None, b'{"name": "\xff"}'],
                             ids=["a-directory", "not-utf-8"])
    def test_unreadable_scenario_file_is_an_error(self, tmp_path, capsys,
                                                  content):
        path = tmp_path / "scen.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ScenarioError):
            load_scenario_data(str(path))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")


class TestCommands:
    def test_check_exit_codes(self, capsys):
        assert main(["check", "darboux"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["check", "angular-momentum", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "angular-momentum"
        assert all(c["verdict"] == "PASS" for c in data["checks"])

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "so3-cartan", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["scenario"] == "so3-cartan"

    def test_bracket_command(self, capsys):
        assert main(["bracket", "angular-momentum", "L1", "L2"]) == 0
        out = capsys.readouterr().out
        assert "q1*p2 - q2*p1" in out
        assert "(= L3)" in out

    def test_admissible_command(self, capsys):
        assert main(["admissible", "angular-momentum", "L1"]) == 0
        out = capsys.readouterr().out
        assert "H-admissible: True" in out

    def test_admissible_command_prints_the_witness(self, capsys):
        assert main(["admissible", "conformal-symplectic", "L1",
                     "--structure", "hamiltonian"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(
            "  H-admissible: False\n"
            "  witness: p1=5905/8192, p2=6679/16384, p3=11295/8192, "
            "q1=28505/16384, q2=20077/16384, q3=20889/16384 "
            "(|residual| = 0.815)\n")

    def test_builtins_command(self, capsys):
        assert main(["builtins"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_NAMES:
            assert name in out

    def test_missing_scenario_is_exit_two(self, capsys):
        assert main(["check", "missing.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unnamed_structure_among_several_is_exit_two(self, capsys):
        # conformal-symplectic has the structures property and hamiltonian
        assert main(["admissible", "conformal-symplectic", "L1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--structure" in err
        assert "hamiltonian" in err and "property" in err

    def test_seed_flag(self, capsys):
        assert main(["check", "darboux", "--seed", "42",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 42
