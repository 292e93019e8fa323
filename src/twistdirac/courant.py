"""Brackets and pairings on sections of TM + Lambda^(n-1) T*M.

A generalized section pairs a vector field with a form of degree n-1; the
classical generalized tangent bundle is the level n = 2 case.  The twisted
bracket at general level acts on pairs (X, alpha) as
([X, Y], L_X beta - i_Y d alpha - i_Y i_X H) with a twisting (n+1)-form H;
level 2 with H = 0 recovers the Dorfman bracket and its antisymmetrization
recovers the classical skew bracket.
"""

from __future__ import annotations

from fractions import Fraction

from .symexpr import OracleConfig, Rat, SymExprError, _merge_charts, is_zero
from .exterior import (KForm, ext_d, form_is_zero, interior, lie_derivative,
                       vf_bracket)

__all__ = [
    "LevelError", "GenSection", "pairing", "pairing_is_zero",
    "courant_bracket", "dorfman_bracket", "twisted_courant_bracket",
    "derived_bracket", "derived_bracket_skew", "courant_tensor",
]


class LevelError(SymExprError, ValueError):
    """Sections of different levels, a twisting form of the wrong degree
    for their level, or a level-2 operation on another level."""


class GenSection:
    """Pair (X, alpha) with X a vector field and alpha a (level-1)-form."""

    __slots__ = ("X", "alpha")

    def __init__(self, X, alpha):
        _merge_charts(X.chart, alpha.chart)
        self.X = X
        self.alpha = alpha

    @property
    def chart(self):
        return self.X.chart

    @property
    def level(self):
        return self.alpha.degree + 1

    def simplified(self):
        return GenSection(self.X.simplified(), self.alpha.simplified())

    def __str__(self):
        return f"({self.X}, {self.alpha})"

    def __repr__(self):
        return f"<GenSection level={self.level} {self}>"


def _check_levels(A, B):
    _merge_charts(A.X.chart, B.X.chart)
    if A.level != B.level:
        raise LevelError(f"section levels differ: {A.level} vs {B.level}")
    return A.level


def _level_two(op, A, *others):
    """The level checks of A against each of others; LevelError naming
    op unless that level is 2."""
    for B in others:
        _check_levels(A, B)
    if A.level != 2:
        raise LevelError(f"{op} is a level-2 operation, got level {A.level}")


def _check_twist(A, H):
    if H.degree != A.level + 1:
        raise LevelError(
            f"twisting form must have degree {A.level + 1} "
            f"for level-{A.level} sections, got {H.degree}")
    _merge_charts(A.X.chart, H.chart)


def pairing(A, B):
    """Symmetric pairing (i_X beta + i_Y alpha)/2.

    A degree-(n-2) form in general; a scalar expression at level 2; zero at
    level 1 (contraction of a function vanishes).
    """
    n = _check_levels(A, B)
    if n == 1:
        return Rat(0)
    half = Rat(Fraction(1, 2))
    form = (interior(A.X, B.alpha) + interior(B.X, A.alpha)).scale(half)
    if n == 2:
        return form.scalar_value()
    return form.simplified()


def pairing_is_zero(A, B, cfg=OracleConfig()):
    """Zero verdict of pairing(A, B), per coefficient when it is a form."""
    p = pairing(A, B)
    return form_is_zero(p, cfg) if isinstance(p, KForm) else is_zero(p, cfg)


def courant_bracket(A, B):
    """Skew bracket at level 2:
    ([X, Y], L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2)."""
    _level_two("the skew bracket", A, B)
    X, xi = A.X, A.alpha
    Y, eta = B.X, B.alpha
    half = Rat(Fraction(1, 2))
    exact = ext_d((interior(X, eta) - interior(Y, xi)).scale(half))
    form = lie_derivative(X, eta) - lie_derivative(Y, xi) - exact
    return GenSection(vf_bracket(X, Y), form).simplified()


def dorfman_bracket(A, B):
    """Non-skew bracket at level 2: ([X, Y], L_X eta - i_Y d xi)."""
    _level_two("the Dorfman bracket", A, B)
    form = lie_derivative(A.X, B.alpha) - interior(B.X, ext_d(A.alpha))
    return GenSection(vf_bracket(A.X, B.X), form).simplified()


def twisted_courant_bracket(A, B, H):
    """Level-2 skew bracket with the twist term -i_Y i_X H added to the
    form part; H need not be closed here (structure constructors enforce
    closedness where it matters)."""
    _level_two("the twisted bracket", A, B)
    _check_twist(A, H)
    plain = courant_bracket(A, B)
    twist = interior(B.X, interior(A.X, H))
    return GenSection(plain.X, (plain.alpha - twist).simplified())


def derived_bracket(A, B, H):
    """Twisted non-skew bracket at any level:
    ([X, Y], L_X beta - i_Y d alpha - i_Y i_X H)."""
    _check_levels(A, B)
    _check_twist(A, H)
    form = (lie_derivative(A.X, B.alpha)
            - interior(B.X, ext_d(A.alpha))
            - interior(B.X, interior(A.X, H)))
    return GenSection(vf_bracket(A.X, B.X), form).simplified()


def derived_bracket_skew(A, B, H):
    """Antisymmetrization of the derived bracket; coincides with the
    twisted skew bracket at level 2."""
    ab = derived_bracket(A, B, H)
    ba = derived_bracket(B, A, H)
    half = Rat(Fraction(1, 2))
    return GenSection(
        (ab.X - ba.X).scale(half),
        (ab.alpha - ba.alpha).scale(half)).simplified()


def courant_tensor(A, B, C, H):
    """T(A, B, C) = i_{X_C}(form part of [A, B]_H) + i_{[X_A, X_B]} alpha_C.

    Uses the unnormalized pairing (twice the symmetric pairing), which is
    the normalization under which the twist defect is exactly
    -i_{X_C} i_{X_B} i_{X_A} H and the cyclic Poisson sums match the
    contraction of the twisting form.
    """
    _level_two("the tensor", A, B, C)
    _check_twist(A, H)
    br = twisted_courant_bracket(A, B, H)
    return (interior(C.X, br.alpha) + interior(br.X, C.alpha)).scalar_value()
