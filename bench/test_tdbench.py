"""Each benchmark checker accepts a right answer and rejects a corrupted
one.  Fast enough for the repository-wide pytest run."""

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from twistdirac import cli, dirac  # noqa: E402
from twistdirac.dirac import AdmissibilityReport  # noqa: E402
from twistdirac.symexpr import (Chart, OracleConfig, ZeroVerdict,  # noqa: E402
                                is_zero, parse_expr)

from tdbench import brackets, checks, exact, hamiltonian, oracle  # noqa: E402
from tdbench import scenarios, trace  # noqa: E402

BOX = Chart("tbox", ["x", "y", "z"])


def test_exact_evaluator():
    e = parse_expr("(x^2)^(1/2) - x + F(x)^2 + F''(y)", BOX)
    value = exact.evaluate(e, {"x": Fraction(-3, 2), "y": Fraction(2)},
                           {"F": (Fraction(1), Fraction(2), Fraction(3))})
    assert value == Fraction(505, 16)
    root = parse_expr("(x+1)^(1/2)*(x+2)^(1/2) - ((x+1)*(x+2))^(1/2)", BOX)
    assert exact.is_tiny(exact.evaluate(root, {"x": Fraction(1, 3)}))
    M = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert exact.solve(M, [Fraction(5), Fraction(6)]) == [-4, Fraction(9, 2)]


def test_witness_check_rejects_wrong_witness_and_magnitude():
    e = parse_expr("F(x)*x + 1/7*x", BOX)
    verdict = is_zero(e, OracleConfig(seed=3))
    assert checks.witness_reevaluates(e, verdict) is None
    zero_point = tuple(sorted({"x": Fraction(0), "y": Fraction(1),
                               "z": Fraction(1)}.items()))
    moved = ZeroVerdict(False, verdict.exact, zero_point,
                        verdict.magnitude, verdict.func_env)
    assert checks.witness_reevaluates(e, moved) is not None
    scaled = ZeroVerdict(False, verdict.exact, verdict.witness,
                         verdict.magnitude * 1.01, verdict.func_env)
    assert checks.witness_reevaluates(e, scaled) is not None


def test_zero_check_rejects_false_zero():
    rng = random.Random(1)
    e = parse_expr("(x^2)^(1/2) - x", BOX)
    negative = checks.own_points(rng, ["x"], 2,
                                 box=(("x", (Fraction(-2), Fraction(-1))),))
    claimed = ZeroVerdict(True, True)
    assert checks.verdict_zero(e, claimed, negative, rng) is not None
    assert checks.verdict_consistent(e, claimed, negative, rng) is not None
    ident = oracle.radical_identity(rng, BOX)
    points = checks.own_points(rng, BOX.coords, 2)
    assert checks.verdict_zero(ident, ZeroVerdict(True, False), points,
                               rng) is None


def test_chain_rule_identities_hold_and_perturbations_do_not():
    rng = random.Random(2)
    x = BOX.vars()[0]
    points = checks.own_points(rng, BOX.coords, 2)
    for order in (1, 2):
        G, rhs = oracle.chain_rule(rng, BOX, order)
        res = oracle.chain_residual(G, rhs, x, order)
        funcs = checks.own_functions(rng, {"F"})
        assert checks.zero_at_points(res, points, funcs) is None
        wrong = oracle.chain_residual(G, rhs * Fraction(10, 9), x, order)
        assert checks.zero_at_points(wrong, points, funcs) is not None


def test_bracket_identity_checks_reject_corruption():
    from twistdirac import courant, exterior
    from twistdirac.randgen import rand_kform, rand_section
    rng = random.Random(3)
    chart = Chart("phase", brackets.COORDS)
    cfg = OracleConfig(seed=1, samples=16)
    A, B, C = (rand_section(rng, chart) for _ in range(3))
    H = rand_kform(rng, chart, 3, max_degree=1)
    zero3 = exterior.KForm.zero(chart, 3)
    points = checks.own_points(rng, chart.coords, 1)
    res = brackets.tensor_residual(A, B, C, H, zero3, courant, exterior)
    assert brackets.check_zero_identity(res, is_zero(res, cfg), points) \
        is None
    bumped = res + brackets._perturbation(rng, chart)
    assert brackets.check_zero_identity(bumped, ZeroVerdict(True, True),
                                        points) is not None
    vec, form = brackets.dorfman_residual(A, B, chart, courant, exterior)
    form = form + exterior.KForm.covector(chart, 0)
    verdict = exterior.form_is_zero(form, cfg)
    assert brackets.check_form_negative(form, verdict) is None
    zero_verdict = exterior.form_is_zero(exterior.KForm.zero(chart, 1), cfg)
    assert brackets.check_form_negative(form, zero_verdict) is not None


def _conformal4(seed=4):
    rng = random.Random(seed)
    spec = hamiltonian.conformal_spec(rng, 4, 2, False, 1)
    chart = Chart("ph4", hamiltonian.coords(4))
    cfg = OracleConfig(seed=1, samples=16)
    D = dirac.TwistedGraph(chart, spec.form(chart), "dh", 1, cfg)
    fs = [exact.poly_expr(f, chart) for f in spec.funcs]
    return spec, chart, D, fs, checks.own_points(rng, chart.coords, 2)


def test_hamiltonian_checks_reject_perturbed_field_and_bracket():
    spec, chart, D, fs, points = _conformal4()
    names = chart.coords
    X = dirac.hamiltonian_vf(D, fs[0])
    assert hamiltonian.check_residual(spec, names, spec.funcs[0], X,
                                      points) is None
    bad = X + X.basis(chart, "q1").scale(Fraction(1, 1000))
    assert hamiltonian.check_residual(spec, names, spec.funcs[0], bad,
                                      points) is not None
    b = dirac.poisson_bracket(D, fs[0], fs[1])
    f, g = spec.funcs
    assert hamiltonian.check_bracket(spec, names, f, g, b, points) is None
    assert hamiltonian.check_bracket(spec, names, f, g, b + 1,
                                     points) is not None
    report = dirac.is_H_admissible(D, fs[0])
    assert hamiltonian.check_admissibility(spec, names, f, report,
                                           points) is None
    flipped = AdmissibilityReport("f", True, X, not report.h_admissible,
                                  None, None)
    assert hamiltonian.check_admissibility(spec, names, f, flipped,
                                           points) is not None


def test_degenerate_check_follows_the_construction():
    rng = random.Random(5)
    spec = hamiltonian.degenerate_spec(rng, 2, 1)
    chart = Chart("ph6", hamiltonian.coords(6))
    D = dirac.TwistedGraph(chart, spec.form(chart), "dh", 1,
                           OracleConfig(seed=1, samples=16))
    points = checks.own_points(rng, chart.coords, 1)
    for f in spec.funcs:
        out = dirac.is_courant_admissible(D, exact.poly_expr(f, chart))
        assert hamiltonian.check_degenerate(spec, chart.coords, f, None,
                                            out + (None,), points) is None
        flipped = (not out[0], out[1], None)
        assert hamiltonian.check_degenerate(spec, chart.coords, f, None,
                                            flipped, points) is not None


def test_jacobi_check_rejects_a_wrong_contraction():
    rng = random.Random(6)
    spec = hamiltonian.conformal_spec(rng, 4, 3, True, 1)
    chart = Chart("ph4", hamiltonian.coords(4))
    D = dirac.TwistedGraph(chart, spec.form(chart), "dh", 1,
                           OracleConfig(seed=1, samples=16))
    fs = [exact.poly_expr(f, chart) for f in spec.funcs]
    points = checks.own_points(rng, chart.coords, 1)
    cyclic, contraction = dirac.jacobi_defect(D, *fs)
    assert hamiltonian.check_jacobi(spec, chart.coords, spec.funcs,
                                    (cyclic, contraction), points) is None
    assert hamiltonian.check_jacobi(spec, chart.coords, spec.funcs,
                                    (cyclic, contraction + 1),
                                    points) is not None


def test_scenario_checks_reject_wrong_brackets(tmp_path):
    rng = random.Random(7)
    data, expected = scenarios.generate_file(rng, 1)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(data))
    report = cli.run_scenario(str(path))
    assert scenarios.check_generated(report, expected) is None
    wrong = next(c for c in report.checks if c.name in expected)
    wrong.residual_max *= 2
    assert scenarios.check_generated(report, expected) is not None
    wrong.verdict = "PASS"
    assert scenarios.check_generated(report, expected) is not None
    data["checks"][2]["expect"] += " + 1"
    path.write_text(json.dumps(data))
    assert scenarios.check_generated(cli.run_scenario(str(path)),
                                     expected) is not None


def test_builtin_check_rejects_a_differing_report():
    first = {}
    report = cli.run_scenario("so3-cartan", seed=5)
    assert scenarios.check_builtin(report, first) is None
    again = cli.run_scenario("so3-cartan", seed=5)
    assert scenarios.check_builtin(again, first) is None
    again.checks[0].detail += " changed"
    assert scenarios.check_builtin(again, first) is not None


def test_trace_metrics_and_benchmark_json_agree():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in trace.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [unit for _, unit in trace.PER_LAYER]


def test_tracer_counts_routes_and_restores_functions():
    from twistdirac import symexpr
    original = symexpr.is_zero
    tracer = trace.Tracer()
    tracer.install()
    try:
        symexpr.is_zero(parse_expr("x - x", BOX))
        symexpr.is_zero(parse_expr("x - y", BOX))
        symexpr.is_zero(parse_expr("F(x) - F(x)*1", BOX) +
                        parse_expr("(x+1)^(1/2)*(x+2)^(1/2) - "
                                   "((x+1)*(x+2))^(1/2)", BOX))
    finally:
        tracer.uninstall()
    assert symexpr.is_zero is original
    m = {k: v["value"] for k, v in tracer.metrics().items()}
    assert m["symexpr.is_zero.calls"] == 3
    assert m["symexpr.is_zero.normal_form"] == 1
    assert m["symexpr.is_zero.rational_witness"] == 1
    assert m["symexpr.is_zero.sampled"] == 1
    assert m["symexpr.sample_points"] >= 1
    assert m["normal.to_poly.calls"] > 0
