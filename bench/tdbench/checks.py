"""Checks shared by the workloads.

Each check returns None when the program's output is right and a short
description of the problem otherwise.  Expected values come from
``tdbench.exact``, never from the package's own evaluator or normaliser.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Singular, evaluate, function_names, is_tiny

DEFAULT_BOX = (Fraction(1, 4), Fraction(2))


def own_points(rng, coords, n, box=None):
    """n seeded rational points; denominators are primes, so they avoid
    the package's dyadic sampling grid."""
    box = dict(box or ())
    out = []
    for _ in range(n):
        point = {}
        for name in coords:
            lo, hi = box.get(name, DEFAULT_BOX)
            den = rng.choice((97, 101, 103))
            point[name] = lo + (hi - lo) * Fraction(rng.randrange(1, den),
                                                    den)
        out.append(point)
    return out


def own_functions(rng, names, degree=3):
    """Random instantiations of function symbols (coefficient tuples)."""
    return {name: tuple(Fraction(rng.randrange(1, 9), 4)
                        for _ in range(degree + 1))
            for name in sorted(names)}


def zero_at_points(expr, points, funcs=None):
    """The expression vanishes at every point where it is defined."""
    defined = 0
    for point in points:
        try:
            v = evaluate(expr, point, funcs)
        except Singular:
            continue
        defined += 1
        if not is_tiny(v):
            return f"value {float(v):.6g} at {point}, expected 0"
    if not defined:
        return "no evaluation point was regular"
    return None


def verdict_zero(expr, verdict, points, rng):
    """A Zero verdict must hold at independent points, with independent
    instantiations of any function symbols."""
    if not verdict.zero:
        return f"expected Zero, got {verdict}"
    funcs = own_functions(rng, function_names(expr))
    return zero_at_points(expr, points, funcs)


def witness_reevaluates(expr, verdict, rel=1e-6):
    """A NonZero verdict's witness (with the verdict's function
    instantiations) gives a nonzero value of the reported magnitude."""
    if verdict.zero:
        return f"expected NonZero, got {verdict}"
    if verdict.witness is None or verdict.magnitude is None:
        return "NonZero verdict without witness or magnitude"
    funcs = {name: pf.coeffs for name, pf in (verdict.func_env or ())}
    try:
        v = evaluate(expr, dict(verdict.witness), funcs)
    except Singular:
        return f"witness {dict(verdict.witness)} is a singular point"
    if is_tiny(v):
        return (f"witness re-evaluates to 0, verdict reports "
                f"{verdict.magnitude:.3g}")
    mag = abs(float(v))
    if abs(mag - verdict.magnitude) > rel * max(mag, verdict.magnitude):
        return (f"witness re-evaluates to {mag:.9g}, verdict reports "
                f"{verdict.magnitude:.9g}")
    return None


def verdict_consistent(expr, verdict, points, rng):
    """Whichever way the verdict went, it must survive its own check."""
    if verdict.zero:
        return verdict_zero(expr, verdict, points, rng)
    return witness_reevaluates(expr, verdict)
