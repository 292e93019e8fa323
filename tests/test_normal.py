"""The normal-form engine: it keeps no module-level state, and a rational
power is a constant when exact and an atom otherwise."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from twistdirac import _normal
from twistdirac._normal import p_const, rational_pow
from twistdirac.symexpr import (Chart, EvaluationSingularityError,
                                OracleConfig, Pow, Rat, eval_expr, is_zero,
                                parse_expr)

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
        assert got == {((Rat(c), e),): 1}
    else:
        assert got == p_const(root)


# the rows with a positive radicand
@pytest.mark.parametrize("c, e, root", RADICALS[:4], ids=IDS[:4])
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
