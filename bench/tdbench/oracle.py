"""Workload ``oracle-sampled``: zero tests the normal form cannot close.

Radical products (sqrt(a)*sqrt(b) - sqrt(a*b)) times F(E) for a random
expression E, and second-order chain rules for F(G) where the expected
side spells G differently, reach the sampling route of ``is_zero``.
Perturbed copies are negative controls that must come back NonZero with a
witness.  Two fixed inputs trip known faults.  Item = one zero test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .checks import (own_points, verdict_consistent, verdict_zero,
                     witness_reevaluates)
from .exact import padd, pconst, pdiff, pmul, poly_expr, pvar

RADICALS = 5
CHAINS = 4
NEGATIVES = 3
POOL_ROUNDS = 40
COORDS = ("x", "y", "z")

FAULT_NEGATIVE_BOX = "(x^2)^(1/2) - x on x in [-2,-1] reported Zero(exact)"
FAULT_FLOAT_SUM = "exact-at-the-point sum reported NonZero with rel_tol=0"


def _positive_poly(rng, n):
    """1/2 + sum of c_i * x_i^2 (c_i > 0) plus a positive linear term:
    positive on the sampling box."""
    p = pconst(n, Fraction(1, 2))
    for i in range(n):
        if rng.random() < 0.7:
            sq = pmul(pvar(n, i), pvar(n, i))
            p = padd(p, sq, Fraction(rng.randint(1, 4), 4))
    return padd(p, pvar(n, rng.randrange(n), Fraction(rng.randint(1, 4), 4)))


def radical_identity(rng, chart):
    """(sqrt(a)*sqrt(b) - sqrt(a*b)) * F(E): identically zero."""
    from twistdirac.randgen import rand_expr
    from twistdirac.symexpr import Func, Pow, Prod, Rat, Sum
    n = chart.dim
    a, b = _positive_poly(rng, n), _positive_poly(rng, n)
    ea, eb = poly_expr(a, chart), poly_expr(b, chart)
    half = Fraction(1, 2)
    lhs = Prod(Pow(ea, half), Pow(eb, half))
    rhs = Pow(Prod(ea, eb), half)
    return Prod(Func("F", 0, rand_expr(rng, chart, depth=2)),
                Sum(lhs, Prod(Rat(-1), rhs)))


def _square_plus_half(rng, n, i):
    """1/2 + c * x_i^2 with c > 0."""
    return padd(pconst(n, Fraction(1, 2)),
                pmul(pvar(n, i, Fraction(rng.randint(1, 4), 4)), pvar(n, i)))


def chain_rule(rng, chart, order):
    """(G, rhs): d^order/dx^order F(G) equals rhs, with rhs written over
    G2, the same function as G with sqrt(a)*sqrt(b) spelled sqrt(a*b).

    order 1: G = sqrt(a)*sqrt(b) + c*y with a = a(x), b = b(y), and
    rhs = F'(G2) * (ab)_x / (2 sqrt(ab)).
    order 2: G = c*x + sqrt(a)*sqrt(b) with a = a(y), b = b(z), and
    rhs = c^2 * F''(G2)."""
    from twistdirac.symexpr import Func, Pow, Prod, Rat, Sum
    n = chart.dim
    x, y = chart.vars()[0], chart.vars()[1]
    c = Rat(Fraction(rng.randint(1, 5), 3))
    half = Fraction(1, 2)
    first = 0 if order == 1 else 1
    a = _square_plus_half(rng, n, first)
    b = _square_plus_half(rng, n, first + 1)
    ab = pmul(a, b)
    radicals = Prod(Pow(poly_expr(a, chart), half),
                    Pow(poly_expr(b, chart), half))
    e_ab = poly_expr(ab, chart)
    if order == 1:
        G = Sum(radicals, Prod(c, y))
        G2 = Sum(Pow(e_ab, half), Prod(c, y))
        rhs = Prod(Func("F", 1, G2), Rat(half),
                   poly_expr(pdiff(ab, 0), chart), Pow(e_ab, -half))
    else:
        G = Sum(Prod(c, x), radicals)
        G2 = Sum(Prod(c, x), Pow(e_ab, half))
        rhs = Prod(c, c, Func("F", 2, G2))
    return G, rhs


def chain_residual(G, rhs, x, order):
    from twistdirac import symexpr
    e = symexpr.Func("F", 0, G)
    for _ in range(order):
        e = symexpr.diff(e, x)
    return e - rhs


class Workload:
    name = "oracle-sampled"
    trace_rounds = 4

    def __init__(self, seed, workdir):
        from twistdirac.symexpr import (Chart, OracleConfig, Prod, Rat,
                                        parse_expr)
        self.chart = Chart("box", COORDS)
        rng = random.Random(f"{seed}:oracle")
        self.cfg = OracleConfig(seed=rng.randrange(10 ** 6))
        self.pool = []
        x = self.chart.vars()[0]
        for _ in range(POOL_ROUNDS):
            radicals = [radical_identity(rng, self.chart)
                        for _ in range(RADICALS)]
            chains = [(1 + i % 2, chain_rule(rng, self.chart, 1 + i % 2))
                      for i in range(CHAINS)]
            # negative controls: radical identity + c*x*F(E), and a chain
            # rule whose expected side is scaled by 10/9
            negatives = []
            for i in range(NEGATIVES):
                if i % 2 == 0:
                    ident = radical_identity(rng, self.chart)
                    bump = Prod(Rat(Fraction(rng.randint(1, 6), 7)), x,
                                ident.args[0])
                    negatives.append(("radical", ident + bump))
                else:
                    G, rhs = chain_rule(rng, self.chart, 1)
                    negatives.append(("chain", (G, Prod(Rat(Fraction(10, 9)),
                                                        rhs), 1)))
            points = own_points(rng, COORDS, 2)
            self.pool.append((radicals, chains, negatives, points))
        fault_chart = Chart("fault", ["x"])
        self.fault_box = (
            parse_expr("(x^2)^(1/2) - x", fault_chart),
            OracleConfig(box=(("x", (-2, -1)),)),
            own_points(random.Random("fault-box"), ["x"], 3,
                       box=(("x", (Fraction(-2), Fraction(-1))),)))
        self.fault_float = (
            parse_expr("F(x)^12*(x^2+2*x+1)^(1/2) - F(x)^12*x - F(x)^12",
                       fault_chart),
            OracleConfig(rel_tol=0))
        self.fault_points = own_points(random.Random("fault-float"), ["x"], 3)
        self.check_rng = random.Random(f"{seed}:oracle-check")

    def run_round(self, r, log):
        from twistdirac import symexpr
        radicals, chains, negatives, points = self.pool[r % POOL_ROUNDS]
        cfg, x = self.cfg, self.chart.vars()[0]
        rng = self.check_rng

        for i, e in enumerate(radicals):
            log.item(f"radical {i}", lambda: symexpr.is_zero(e, cfg),
                     lambda v: verdict_zero(e, v, points, rng))
        for i, (order, (G, rhs)) in enumerate(chains):
            def call():
                res = chain_residual(G, rhs, x, order)
                return res, symexpr.is_zero(res, cfg)
            log.item(f"chain rule {i}", call,
                     lambda out: verdict_zero(out[0], out[1], points, rng))
        for i, (kind, payload) in enumerate(negatives):
            if kind == "radical":
                def call():
                    return payload, symexpr.is_zero(payload, cfg)
            else:
                def call():
                    G, rhs, order = payload
                    res = chain_residual(G, rhs, x, order)
                    return res, symexpr.is_zero(res, cfg)
            log.item(f"negative {kind} {i}", call,
                     lambda out: witness_reevaluates(*out))
        e, box_cfg, box_points = self.fault_box
        log.item("(x^2)^(1/2) - x on [-2,-1]",
                 lambda: symexpr.is_zero(e, box_cfg),
                 lambda v: verdict_consistent(e, v, box_points, rng),
                 fault=FAULT_NEGATIVE_BOX)
        e, float_cfg = self.fault_float
        log.item("F(x)^12 sum with rel_tol=0",
                 lambda: symexpr.is_zero(e, float_cfg),
                 lambda v: verdict_consistent(e, v, self.fault_points, rng),
                 fault=FAULT_FLOAT_SUM)
