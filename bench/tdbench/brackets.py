"""Workload ``brackets``: bracket identities on random level-2 sections.

All coefficients are polynomials on the 6-dimensional phase chart, so the
zero tests close on the exact normal form.  A round checks six Courant
tensor twist defects (T_H - T_0 = -H(X_A, X_B, X_C)), six relations
Dorfman - Courant = d(pairing), and two perturbed negative controls of
each kind.  Item = one identity.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .checks import own_points, witness_reevaluates, zero_at_points

TENSORS = 6
DORFMAN = 6
NEGATIVES = 2
POOL_ROUNDS = 40
COORDS = ("q1", "q2", "q3", "p1", "p2", "p3")


def _perturbation(rng, chart):
    """A nonzero monomial c * x_i * x_j."""
    from twistdirac.symexpr import Prod, Rat
    xs = chart.vars()
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), 3)
    return Prod(Rat(c), xs[rng.randrange(6)], xs[rng.randrange(6)])


def tensor_residual(A, B, C, H, zero3, courant, exterior):
    """T_H(A,B,C) - T_0(A,B,C) + H(X_A, X_B, X_C), zero for every H."""
    contraction = exterior.interior(
        C.X, exterior.interior(B.X, exterior.interior(A.X, H)))
    return (courant.courant_tensor(A, B, C, H)
            - courant.courant_tensor(A, B, C, zero3)
            + contraction.scalar_value())


def dorfman_residual(A, B, chart, courant, exterior):
    """(vector part, form part) of Dorfman - Courant - d(pairing)."""
    dorf = courant.dorfman_bracket(A, B)
    cour = courant.courant_bracket(A, B)
    exact = exterior.ext_d(exterior.KForm.scalar(chart,
                                                 courant.pairing(A, B)))
    return dorf.X - cour.X, dorf.alpha - cour.alpha - exact


def check_zero_identity(residual, verdict, points):
    if not verdict.zero:
        return f"identity reported {verdict}"
    return zero_at_points(residual, points)


def check_form_identity(parts, verdicts, points):
    """Both the vector and the form residual are Zero, and every
    component vanishes at independent points."""
    (vec, form), (vv, fv) = parts, verdicts
    if not (vv.zero and fv.zero):
        return f"identity reported vector {vv}, form {fv}"
    for c in list(vec.comps) + [c for _, c in form.terms()]:
        problem = zero_at_points(c, points)
        if problem:
            return problem
    return None


def check_form_negative(form, verdict):
    """The perturbed form residual is NonZero, and the first failing
    coefficient's witness re-evaluates to the reported magnitude."""
    if verdict.zero or not verdict.failures:
        return f"perturbed identity reported {verdict}"
    label, zv = verdict.failures[0]
    for mask, c in form.terms():
        basis = "^".join(f"d{form.chart.coords[i]}" for i in range(6)
                         if mask >> i & 1) or "1"
        if basis == label:
            return witness_reevaluates(c, zv)
    return f"no coefficient labelled {label}"


class Workload:
    name = "brackets"
    trace_rounds = 3

    def __init__(self, seed, workdir):
        from twistdirac.symexpr import Chart, OracleConfig
        from twistdirac.exterior import KForm
        from twistdirac.randgen import rand_kform, rand_section
        self.chart = Chart("phase", COORDS)
        rng = random.Random(f"{seed}:brackets")
        self.cfg = OracleConfig(seed=rng.randrange(10 ** 6), samples=128,
                                abs_tol=1e-9, rel_tol=0.0)
        self.zero3 = KForm.zero(self.chart, 3)
        self.pool = []
        for _ in range(POOL_ROUNDS):
            tensors = [(rand_section(rng, self.chart),
                        rand_section(rng, self.chart),
                        rand_section(rng, self.chart),
                        rand_kform(rng, self.chart, 3, max_degree=2))
                       for _ in range(TENSORS + NEGATIVES)]
            pairs = [(rand_section(rng, self.chart),
                      rand_section(rng, self.chart))
                     for _ in range(DORFMAN + NEGATIVES)]
            perturb = [_perturbation(rng, self.chart)
                       for _ in range(2 * NEGATIVES)]
            points = own_points(rng, COORDS, 2)
            self.pool.append((tensors, pairs, perturb, points))

    def run_round(self, r, log):
        from twistdirac import courant, exterior, symexpr
        tensors, pairs, perturb, points = self.pool[r % POOL_ROUNDS]
        cfg, chart = self.cfg, self.chart
        for i, (A, B, C, H) in enumerate(tensors):
            if i < TENSORS:
                def call():
                    res = tensor_residual(A, B, C, H, self.zero3, courant,
                                          exterior)
                    return res, symexpr.is_zero(res, cfg)
                log.item(f"tensor {i}", call,
                         lambda out: check_zero_identity(*out, points))
            else:
                delta = perturb[i - TENSORS]

                def call():
                    res = tensor_residual(A, B, C, H, self.zero3, courant,
                                          exterior) + delta
                    return res, symexpr.is_zero(res, cfg)
                log.item(f"tensor negative {i}", call,
                         lambda out: witness_reevaluates(*out))
        for i, (A, B) in enumerate(pairs):
            if i < DORFMAN:
                def call():
                    vec, form = dorfman_residual(A, B, chart, courant,
                                                 exterior)
                    return (vec, form), (exterior.vf_is_zero(vec, cfg),
                                         exterior.form_is_zero(form, cfg))
                log.item(f"dorfman {i}", call,
                         lambda out: check_form_identity(*out, points))
            else:
                delta = exterior.KForm.covector(chart, i % 6).scale(
                    perturb[NEGATIVES + i - DORFMAN])

                def call():
                    _, form = dorfman_residual(A, B, chart, courant,
                                               exterior)
                    form = form + delta
                    return form, exterior.form_is_zero(form, cfg)
                log.item(f"dorfman negative {i}", call,
                         lambda out: check_form_negative(*out))
