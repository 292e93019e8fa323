"""Sampled-route verdicts against stored copies.

``sampled_verdicts.json`` maps a case name to what ``is_zero`` answered
on a residual that its evaluator decides: ``zero``, ``exact``, the
witness, ``repr`` of the magnitude and the function instantiation.  The
residuals come from a fixed seed: radical identities times F(E), first-
and second-order chain rules, perturbed copies that must be NonZero, an
even power under a root on a negative box and an F(x)^12 sum that is
exact at every point, and a rational function whose witness is found by
exact evaluation.  It also holds ``nondegenerate`` and ``det`` of the
two conformal-symplectic graphs, whose determinants are sampled.  A
change to the evaluator that moves any total, witness or magnitude shows
here.  A change that alters verdicts on purpose rewrites the file from
``recorded()``, with ``json.dump(..., indent=1, sort_keys=True)``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from twistdirac.dirac import TwistedGraph
from twistdirac.exterior import parse_form
from twistdirac.randgen import rand_expr, rng_for
from twistdirac.symexpr import (Chart, Func, OracleConfig, Pow, Prod, Rat,
                                Sum, diff, is_zero, parse_expr)

PINNED = json.loads(
    (Path(__file__).with_name("sampled_verdicts.json")).read_text())

BOX = Chart("box", ["x", "y", "z"])
CFG = OracleConfig(seed=424242, samples=32)
HALF = Fraction(1, 2)


def _positive(rng, chart, coords):
    """1/2 + sum of c*v^2 over coords, c in {1/4..1}: positive on the
    default box."""
    terms = [Rat(HALF)]
    for name in coords:
        v = chart[name]
        terms.append(Prod(Rat(Fraction(rng.randint(1, 4), 4)), v, v))
    return Sum(*terms)


def _radical_identity(rng):
    """(sqrt(a)*sqrt(b) - sqrt(a*b)) * F(E): identically zero."""
    a = _positive(rng, BOX, ("x", "y"))
    b = _positive(rng, BOX, ("y", "z"))
    lhs = Prod(Pow(a, HALF), Pow(b, HALF))
    return Prod(Func("F", 0, rand_expr(rng, BOX, depth=2)),
                Sum(lhs, Prod(Rat(-1), Pow(Prod(a, b), HALF))))


def _chain_rule(rng, order, scale=Rat(1)):
    """d^order/dx^order F(G) minus its value written over G2, the same
    function as G with sqrt(a)*sqrt(b) spelled sqrt(a*b); scale != 1
    makes the residual nonzero."""
    x, y = BOX["x"], BOX["y"]
    c = Rat(Fraction(rng.randint(1, 5), 3))
    if order == 1:
        a, b = _positive(rng, BOX, ("x",)), _positive(rng, BOX, ("y",))
        G = Sum(Prod(Pow(a, HALF), Pow(b, HALF)), Prod(c, y))
        G2 = Sum(Pow(Prod(a, b), HALF), Prod(c, y))
        rhs = Prod(Func("F", 1, G2), Rat(HALF), diff(Prod(a, b), x),
                   Pow(Prod(a, b), -HALF))
    else:
        a, b = _positive(rng, BOX, ("y",)), _positive(rng, BOX, ("z",))
        G = Sum(Prod(c, x), Prod(Pow(a, HALF), Pow(b, HALF)))
        G2 = Sum(Prod(c, x), Pow(Prod(a, b), HALF))
        rhs = Prod(c, c, Func("F", 2, G2))
    e = Func("F", 0, G)
    for _ in range(order):
        e = diff(e, x)
    return e - Prod(scale, rhs)


def residuals():
    """(name, expression, config) for every pinned zero test."""
    rng = rng_for(2012, "sampled-verdicts")
    cases = []
    for i in range(3):
        cases.append((f"radical {i}", _radical_identity(rng), CFG))
    for i in range(4):
        order = 1 + i % 2
        cases.append((f"chain rule order {order} #{i}",
                      _chain_rule(rng, order), CFG))
    for i in range(2):
        ident = _radical_identity(rng)
        bump = Prod(Rat(Fraction(rng.randint(1, 6), 7)), BOX["x"],
                    ident.args[0])
        cases.append((f"negative radical {i}", ident + bump, CFG))
        cases.append((f"negative chain rule {i}",
                      _chain_rule(rng, 1, Rat(Fraction(10, 9))), CFG))
    cases.append(("rational witness",
                  parse_expr("x/(1 + y) - y/(1 + x) + z^2", BOX), CFG))
    line = Chart("line", ["x"])
    cases.append(("(x^2)^(1/2) - x on [-2,-1]",
                  parse_expr("(x^2)^(1/2) - x", line),
                  OracleConfig(box={"x": (-2, -1)})))
    cases.append(("F(x)^12 sum with rel_tol=0",
                  parse_expr("F(x)^12*(x^2+2*x+1)^(1/2) - F(x)^12*x"
                             " - F(x)^12", line),
                  OracleConfig(rel_tol=0)))
    return cases


def graphs():
    """(name, TwistedGraph) for the conformal-symplectic structures."""
    phase = Chart("phase", ["q1", "q2", "q3", "p1", "p2", "p3"])
    r = parse_expr("(q1^2 + q2^2 + q3^2)^(1/2)", phase)
    phi = parse_expr("1/2*(p1^2 + p2^2 + p3^2) + V(r)", phase, {"r": r})
    omega = parse_form("dp1^dq1 + dp2^dq2 + dp3^dq3", phase)
    cfg = OracleConfig(seed=161803, samples=128)
    return [("conformal (1 + q1)*omega",
             TwistedGraph(phase, omega.scale(1 + phase["q1"]), "dh",
                          cfg=cfg)),
            ("conformal phi*omega",
             TwistedGraph(phase, omega.scale(phi), "dh", cfg=cfg))]


def _verdict_record(v):
    return {
        "zero": v.zero,
        "exact": v.exact,
        "witness": None if v.witness is None else
        [[name, str(value)] for name, value in v.witness],
        "magnitude": repr(v.magnitude),
        "func_env": None if v.func_env is None else
        [[name, [str(c) for c in f.coeffs]] for name, f in v.func_env]}


def recorded():
    """Every pinned record, computed afresh."""
    out = {name: _verdict_record(is_zero(e, cfg))
           for name, e, cfg in residuals()}
    for name, D in graphs():
        out[name] = {"nondegenerate": D.nondegenerate, "det": str(D.det)}
    return out


CASES = residuals()


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(
        [name for name, _, _ in CASES] + [name for name, _ in graphs()])


@pytest.mark.parametrize("name,e,cfg", CASES,
                         ids=[name for name, _, _ in CASES])
def test_sampled_verdict_is_unchanged(name, e, cfg):
    assert _verdict_record(is_zero(e, cfg)) == PINNED[name]


def test_conformal_determinants_are_unchanged():
    for name, D in graphs():
        assert {"nondegenerate": D.nondegenerate,
                "det": str(D.det)} == PINNED[name], name
