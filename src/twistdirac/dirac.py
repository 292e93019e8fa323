"""Twisted symplectic-graph Dirac structures.

A TwistedGraph couples a 2-form h with a closed twisting 3-form H.  Sections
of the structure are the pairs (X, sign * i_X h); a function f is admissible
when df = sign * i_{X_f} h is solvable for a vector field X_f, and
H-admissible when additionally i_{X_f} H vanishes identically.

Each TwistedGraph prepares its solves once, when it is built, on one
route.  It writes h = u * B: when every coefficient of h is a constant
multiple of one non-constant polynomial, u is that polynomial and B is
constant; otherwise u = 1 and B = h.  It takes the wedge powers of B
until one vanishes.  The rank is 2r for the largest power B^r with a
nonzero coefficient; the first such mask is the support S, and
T = [B^r]_S = r! * Pf(B_SS).  On S, {f, g} h^r = r df ^ dg ^ h^(r-1)
(Cannas da Silva, LNM 1764) gives

    X_f^k = -r/(u * T) * sum_{j in S} [dx_j ^ dx_k ^ B^(r-1)]_S
            * sign * d_j f,

and X_f is zero off S.  Below full rank f is admissible exactly when
df ^ h^r = 0, which the solve tests first.  Taking u out before the
powers prints the fields of a conformal form u * C over u.  At full rank
the determinant is Pf(h)^2 = u^(2n) * T^2/(n!)^2, kept unexpanded, and
Rat(0) below it; simplify(D.det) expands it.  A constant determinant
decides nondegeneracy exactly, without sampling; otherwise its one
non-constant factor, u or T, is sampled.  Every solve is verified by a
residual zero-test.

The arithmetic runs on ints where it can (the primitive-part lift,
Knuth, TAOCP vol. 2, 4.6.1).  A structure keeps h and H lifted, each as
(L, L * form) with L the lcm of the form's coefficient denominators.
The wedge powers are those of L * B, and every contraction of a field
into H, or into h for the solve residual, runs against the lifted
form and is divided by L once at the end.  Each
result is exactly the one the rational forms give: the coefficients are
the same numbers, and a zero test sees the same values.

Each structure solves a function once.  A table on the instance, keyed
by the function's tree (as_expr(f)), keeps X_f and its residual verdict;
hamiltonian_vf, the admissibility tests, poisson_bracket, jacobi_defect
and the checks all read it.  The table has no size limit and dies with
its structure.  A solve that raises stores nothing, and what is stored
is never mutated: the engine builds new polynomials and ZeroVerdict is
frozen.

Every check answers with one ``ZeroVerdict``: the proposition checks
(check_theorem, check_image_under_d, check_poiss_brak_adm) return a
labelled composite whose children are the residuals they test, and
check_symplgraph returns the pair (identity, L_X h) of verdicts.
AdmissibilityReport remains the record of one function: its Courant flag,
its Hamiltonian field and its H verdict.

The sign convention flag defaults to +1 (df = i_{X_f} h), which reproduces
the angular-momentum bracket table verbatim; -1 gives df = -i_{X_f} h.
Flipping the flag negates Poisson brackets and Hamiltonian fields but
preserves admissibility verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, lcm

from ._normal import (ONE_M, combined_fraction, from_poly,
                      is_rational_function, normal, normalize_sum,
                      p_add_inplace, p_const, p_mul, p_pow, recompose,
                      to_poly)
from .symexpr import (OracleConfig, OracleInconclusiveError, Prod, Rat, Sum,
                      SymExprError, ZeroVerdict, _merge_charts,
                      _witness_str, as_expr, is_zero, oracle_function_env,
                      sampled_sums)
from .exterior import (KForm, VectorField, _merge_sign, apply_poly, ext_d,
                       form_is_zero, interior, lie_derivative, vf_apply,
                       vf_bracket, vf_is_zero, wedge)
from .courant import (GenSection, _check_twist, derived_bracket,
                      pairing_is_zero, twisted_courant_bracket)

__all__ = [
    "TwistedGraph", "AdmissibilityReport", "NondegeneracyError", "SolveError",
    "TwistNotClosedError", "VerdictNotDeterminedError", "graph_section",
    "hamiltonian_vf", "poisson_bracket", "is_courant_admissible",
    "is_H_admissible", "is_admissible_pair", "jacobi_defect", "check_theorem",
    "check_symplgraph", "check_image_under_d", "check_poiss_brak_adm",
]


class NondegeneracyError(SymExprError):
    pass


class SolveError(SymExprError):
    pass


class TwistNotClosedError(SymExprError):
    pass


class VerdictNotDeterminedError(SymExprError):
    """The structure does not determine whether i_{X_f} H vanishes: f is
    not admissible, or the structure is degenerate and X_f is not unique."""


@dataclass
class AdmissibilityReport:
    """Admissibility of a named function on a twisted graph.

    h_admissible is None when the structure does not determine it (see
    VerdictNotDeterminedError); detail then says why.
    """

    name: str
    courant_admissible: bool
    hamiltonian_field: VectorField = None
    h_admissible: bool = None
    witness: dict = None
    magnitude: float = None
    detail: str = ""

    def __str__(self):
        lines = [f"function {self.name}:"]
        lines.append(f"  admissible (Courant): {self.courant_admissible}")
        if self.hamiltonian_field is not None:
            lines.append(f"  hamiltonian field: {self.hamiltonian_field}")
        if self.h_admissible is None:
            lines.append(f"  H-admissible: not determined ({self.detail})")
        else:
            lines.append(f"  H-admissible: {self.h_admissible}")
            if self.witness:
                lines.append(f"  witness: {_witness_str(self.witness)} "
                             f"(|residual| = {self.magnitude:.3g})")
        return "\n".join(lines)


class TwistedGraph:
    """Graph-type Dirac structure of a 2-form h twisted by a closed 3-form.

    The twist may be given as a 3-form, as the string "dh" (use the exterior
    derivative of h), or omitted (zero twist).  Construction verifies that
    the twist is closed, prepares the solves from the principal Pfaffians
    of h on a support (see _prepare), samples a factor of the determinant
    for nondegeneracy, and records the integrability verdict (dh - H = 0).
    """

    def __init__(self, chart, h, twist=None, sign=1, cfg=OracleConfig()):
        if h.degree != 2:
            raise ValueError("h must be a 2-form")
        if sign not in (1, -1):
            raise ValueError("sign convention must be +1 or -1")
        self.chart = chart
        self.cfg = cfg
        self.sign = sign
        self.h = h.simplified()
        if twist is None:
            twist = KForm.zero(chart, 3)
        elif twist == "dh":
            twist = ext_d(self.h)
        if twist.degree != 3:
            raise ValueError("the twisting form must be a 3-form")
        _merge_charts(chart, h.chart, twist.chart)
        self.H = twist.simplified()
        # (L, L * form) over ints, for the wedge powers and contractions
        self._h_lift = _lift(self.h)
        self._H_lift = _lift(self.H)
        closed = form_is_zero(ext_d(self.H), cfg)
        if not closed.zero:
            raise TwistNotClosedError(
                f"the twisting 3-form is not closed: {closed}")
        self.nondegenerate = self._det_nonvanishing(self._prepare())
        # as_expr(f) -> (X_f, residual verdict), as _solve_verified returns
        self._solved = {}
        self.integrable = form_is_zero(ext_d(self.h) - self.H, cfg).zero

    def _prepare(self):
        """Split h = u * B, take the wedge powers of B over ints, and
        keep what the solves need: the support S (`_support`, a mask),
        the coefficients of (L * B)^(r-1) (`_minors`), the form B^r below
        full rank (`_top`, None at full rank) and -r * L/(u * T_int)
        (`_scale`).

        u is the common polynomial when every coefficient of h is a
        constant multiple of one non-constant polynomial that is not zero
        (one with atoms goes through is_zero), and B is then constant;
        otherwise u = 1 and B = h.  L is the lcm of the denominators of
        B's coefficients, so L * B has int coefficients; when u = 1 it is
        the structure's lifted h.  The powers of L * B stop at the first
        that vanishes structurally.  r is the largest power with a
        nonzero coefficient, S its mask (see _pivot), T_int = [(L * B)^r]_S
        and T = T_int/L^r = [B^r]_S = r! * Pf(B_SS); the rank is 2r = |S|.
        Since (L * B)^(r-1) = L^(r-1) * B^(r-1), the scale
        -r * L/(u * T_int) = -r/(u * T * L^(r-1)) gives the same fields as
        -r/(u * T) with the minors of B.  The determinant is
        Pf(h)^2 = u^(2n) * T^2/(n!)^2 at full rank, unexpanded: a Rat when
        u = 1 and T is constant, else a Prod of one Rat, 2n copies of u
        and T twice when T is not constant; Rat(0) below full rank.
        Returns u or T, whichever is not constant, at full rank.
        """
        chart, dim = self.chart, self.chart.dim
        parts = [normalize_sum(c) for c in self.h.polys.values()]
        u = parts[0][1] if parts else p_const(1)
        # a u with atoms may still be zero: _pivot tests it as a pivot
        if not _is_constant(u) and all(n == u for _, n in parts) \
                and _pivot({0: u}, self.cfg, chart):
            L, B = _lift(KForm(chart, 2, {
                mask: p_const(unit)
                for mask, (unit, _) in zip(self.h.polys, parts)}))
        else:
            u, (L, B) = p_const(1), self._h_lift
        powers = [KForm.scalar(chart, 1)]
        while not powers[-1].is_structurally_zero():
            powers.append(wedge(powers[-1], B))
        r = len(powers) - 2
        # B^0 = 1 always has a pivot
        while not (pivot := _pivot(powers[r].polys, self.cfg, chart,
                                   L ** r)):
            r -= 1
        S, T = pivot
        unlift = p_const(Fraction(1, L ** r))
        self._support = S
        self._minors = powers[r - 1].polys if r else {}
        self._scale = p_mul(p_const(-r * L), p_pow(p_mul(u, T), -1, chart))
        if 2 * r < dim:
            # the below-rank test zero-tests df ^ B^r: B^r itself
            self._top = powers[r].scale(unlift)
            self.det = Rat(0)
            return
        self._top = None
        T = p_mul(T, unlift)
        square = factorial(r) ** 2
        if _is_constant(T):
            lead, trees = Rat(T[ONE_M] ** 2, square), []
        else:
            tree = from_poly(T, chart)
            lead, trees = Rat(1, square), [tree, tree]
        if not _is_constant(u):
            trees = [from_poly(u, chart)] * dim + trees
        self.det = Prod(lead, *trees) if trees else lead
        return u if _is_constant(T) else T   # T varies only when u = 1

    def _component(self, k, vec, sign):
        """Component k of a solve of M^T X = sign * vec on the support S:
        -r/(u * T) times the sum over j in S of [dx_j ^ dx_k ^ B^(r-1)]_S
        * sign * vec_j, normalised once, and zero off S; the sum runs over
        the int minors of L * B and _scale carries the powers of L.  The
        bracket is the coefficient of B^(r-1) on S minus {j, k}, signed to
        sort dx_j ^ dx_k before it.  B^(r-1) has none when j == k or j is
        off S: the mask would have 2r bits, not 2r - 2."""
        S = self._support
        if not S >> k & 1:
            return {}
        acc = {}
        for j, v in enumerate(vec):
            rest = S ^ (1 << j) ^ (1 << k)
            minor = self._minors.get(rest)
            if v and minor:
                s = sign * _merge_sign(1 << j, 1 << k) * \
                    _merge_sign(S ^ rest, rest)
                p_mul(minor, v, acc, None if s > 0 else -1)
        return normal(p_mul(acc, self._scale)) if acc else {}

    def _det_nonvanishing(self, factor):
        """True when det = lead * factor^k, with lead a nonzero constant,
        has no zero on the box: a Rat det is decided exactly, and
        otherwise the primitive part of factor must clear the tolerance
        at every sample point, whatever the scale of h."""
        if isinstance(self.det, Rat):
            return self.det.value != 0
        env = oracle_function_env(self.cfg, self.det)
        try:
            return all(abs(total) > tol for _, total, tol in sampled_sums(
                normalize_sum(factor)[1], self.cfg, env, self.chart))
        except OracleInconclusiveError:
            return False

    def inverse_matrix(self):
        """Exact inverse of the coefficient matrix M, each entry built
        from the minors when called: (M^-1)_ij = -n/(u * T) times the top
        coefficient of dx_i ^ dx_j ^ B^(n-1)."""
        if not self.nondegenerate:
            raise NondegeneracyError("h is degenerate on the sampling box")
        dim = self.chart.dim
        # row i of M^-1 is column i of (M^T)^-1, its image of e_i
        units = [[p_const(1 if k == i else 0) for k in range(dim)]
                 for i in range(dim)]
        return [[from_poly(self._component(j, e, 1), self.chart)
                 for j in range(dim)]
                for e in units]


def _pivot(coeffs, cfg, chart, lift=1):
    """(mask, normal form) of the first nonzero coefficient in mask
    order, or None when every coefficient is zero.  A rational normal
    form decides, anything else goes through is_zero, which tests the
    coefficient divided by lift: the values of B^r when coeffs are those
    of (L * B)^r and lift = L^r.  On a power B^r of the rank, the first
    mask is the set of pivot columns that elimination of the coefficient
    matrix would choose, column by column: the lexicographically first
    basis of its columns."""
    for mask in sorted(coeffs):
        num, dens = combined_fraction(coeffs[mask])
        if num:
            T = recompose(num, dens)
            if is_rational_function(num, dens) or not is_zero(
                    T if lift == 1 else p_mul(T, p_const(Fraction(1, lift))),
                    cfg, chart).zero:
                return mask, T
    return None


def _lift(form):
    """(L, L * form), with L the lcm of the denominators of the form's
    coefficients: the form over ints (Knuth, TAOCP vol. 2, 4.6.1)."""
    L = lcm(*(c.denominator for p in form.polys.values()
              for c in p.values()))
    return L, form if L == 1 else form.scale(p_const(L))


def _contract(X, lifted, scale=1):
    """i_X a times scale, for a lifted form (L, L * a): X is contracted
    into L * a and the result divided by L once, so its coefficients are
    those of interior(X, a) times scale."""
    L, form = lifted
    out = interior(X, form)
    factor = Fraction(scale, L)
    return out if factor == 1 else out.scale(p_const(factor))


def _is_constant(p):
    return all(m == ONE_M for m in p)


def graph_section(D, X):
    """The section (X, sign * i_X h) of the graph."""
    return GenSection(X, _contract(X, D._h_lift, D.sign).simplified())


def hamiltonian_vf(D, f):
    """Solve df = sign * i_{X_f} h for X_f and verify the residual.

    Raises NondegeneracyError when the system is inconsistent and
    SolveError when the residual does not vanish.
    """
    X, residual = _solve_verified(D, f)
    if X is None:
        raise NondegeneracyError(
            "no Hamiltonian field: the linear system for f is inconsistent")
    if not residual.zero:
        raise SolveError(f"solver residual is nonzero: {residual}")
    return X


def _solve_verified(D, f):
    """(X_f, verdict on df - sign * i_{X_f} h), or (None, None) when the
    system is inconsistent; solved once per function per structure and
    kept in the structure's table."""
    f = as_expr(f)
    _merge_charts(f.chart, D.chart)
    entry = D._solved.get(f)
    if entry is None:
        # threads racing here compute equal entries; the first is kept
        entry = D._solved.setdefault(f, _solve(D, f))
    return entry


def _solve(D, f):
    """The solve behind _solve_verified, from sign * grad f: X_f^k is
    -r/(u * T) times the sum over j in the support S of the minor
    [dx_j ^ dx_k ^ B^(r-1)]_S times sign * d_j f, normalised once per
    component, and zero off S.  Below full rank f is admissible exactly
    when df ^ h^r = 0; each coefficient of df ^ B^r is tested in turn,
    and the first nonzero one makes the system inconsistent."""
    df = ext_d(KForm.scalar(D.chart, f))
    dim = D.chart.dim
    if D._support.bit_count() < dim and any(
            not is_zero(c, D.cfg, D.chart).zero
            for c in wedge(df, D._top).polys.values()):
        return None, None
    grad = [normal(df.polys.get(1 << i, {})) for i in range(dim)]
    X = VectorField(D.chart, [D._component(k, grad, D.sign)
                              for k in range(dim)])
    return X, form_is_zero(df - graph_section(D, X).alpha, D.cfg)


def poisson_bracket(D, f, g):
    """{f, g} = X_f(g)."""
    return vf_apply(hamiltonian_vf(D, f), g)


def is_courant_admissible(D, f):
    """Whether some vector field X_f solves df = sign * i_{X_f} h.

    Returns (flag, X_f or None).
    """
    X, residual = _solve_verified(D, f)
    if X is None or not residual.zero:
        return False, None
    return True, X


def is_H_admissible(D, f, name="f"):
    """Full admissibility report: Courant admissibility, the solved
    Hamiltonian field, and the verdict on i_{X_f} H = 0."""
    try:
        X, verdict = _h_verdict(D, f)
    except VerdictNotDeterminedError as exc:
        ok, X = is_courant_admissible(D, f)
        return AdmissibilityReport(name, ok, hamiltonian_field=X,
                                   detail=str(exc))
    return AdmissibilityReport(
        name, True, hamiltonian_field=X, h_admissible=verdict.zero,
        witness=verdict.witness_point, magnitude=verdict.magnitude)


def _h_verdict(D, f):
    """(X_f, the verdict on i_{X_f} H = 0); VerdictNotDeterminedError when
    f is not admissible or the structure is degenerate."""
    ok, X = is_courant_admissible(D, f)
    if not ok:
        raise VerdictNotDeterminedError("not admissible (Courant)")
    if not D.nondegenerate:
        raise VerdictNotDeterminedError(
            "degenerate structure: Hamiltonian field not unique")
    return X, form_is_zero(_contract(X, D._H_lift), D.cfg)


def is_admissible_pair(X, alpha, H, cfg=OracleConfig()):
    """Zero-verdict of d alpha + i_X H for a pair at any level;
    LevelError when H is not of degree level + 1."""
    _check_twist(GenSection(X, alpha), H)
    residual = ext_d(alpha) + interior(X, H)
    return form_is_zero(residual, cfg)


def jacobi_defect(D, f, g, k):
    """Cyclic bracket sum and the matching contraction of the twist.

    Returns ({f,{g,k}} + {g,{k,f}} + {k,{f,g}},  H(X_f, X_g, X_k)); the two
    are identical on integrable twisted graphs.
    """
    Xf = hamiltonian_vf(D, f)
    Xg = hamiltonian_vf(D, g)
    Xk = hamiltonian_vf(D, k)
    fp, gp, kp = (to_poly(as_expr(h)) for h in (f, g, k))
    cyclic = {}
    for X, Y, h in ((Xf, Xg, kp), (Xg, Xk, fp), (Xk, Xf, gp)):
        p_add_inplace(cyclic, apply_poly(X, normal(apply_poly(Y, h))))
    cyclic = from_poly(normal(cyclic), D.chart)
    # the contraction is pinned to the (X, +i_X h) normalization,
    # whatever the structure's sign flag: negating the three fields
    # negates it once
    contraction = interior(Xk, interior(Xg, _contract(Xf, D._H_lift,
                                                      D.sign))).scalar_value()
    return cyclic, contraction


def check_theorem(D, f, g, k=None):
    """Closure of the H-admissible algebra: products and brackets stay
    H-admissible with the expected Hamiltonian fields, plus antisymmetry
    and the Leibniz rule against a third function k (f*g when omitted)."""
    if k is None:
        k = Prod(as_expr(f), as_expr(g))
    Xf, adm_f = _h_verdict(D, f)
    Xg, adm_g = _h_verdict(D, g)
    checks = [("f is H-admissible", adm_f), ("g is H-admissible", adm_g)]
    if not (adm_f.zero and adm_g.zero):
        return ZeroVerdict.combine(checks, "poisson_algebra_closure")
    f, g, k = as_expr(f), as_expr(g), as_expr(k)
    cfg = D.cfg

    X_prod = hamiltonian_vf(D, Prod(f, g))
    expected = (Xf.scale(g) + Xg.scale(f)).simplified()
    checks.append(("X_{fg} = g*X_f + f*X_g",
                   vf_is_zero(X_prod - expected, cfg)))
    checks.append(("fg is H-admissible",
                   form_is_zero(_contract(X_prod, D._H_lift), cfg)))

    fg_bracket = vf_apply(Xf, g)
    X_bracket = hamiltonian_vf(D, fg_bracket)
    commutator = vf_bracket(Xf, Xg)
    checks.append(("X_{{f,g}} = [X_f, X_g]",
                   vf_is_zero(X_bracket - commutator, cfg)))
    checks.append(("{f,g} is H-admissible",
                   form_is_zero(_contract(commutator, D._H_lift), cfg)))

    gf_bracket = vf_apply(Xg, f)
    checks.append(("antisymmetry {f,g} + {g,f} = 0",
                   is_zero(Sum(fg_bracket, gf_bracket), cfg)))

    lhs = vf_apply(X_prod, k)
    rhs = Sum(Prod(g, vf_apply(Xf, k)), Prod(f, vf_apply(Xg, k)))
    checks.append(("Leibniz {fg,k} = g{f,k} + f{g,k}",
                   is_zero(Sum(lhs, Prod(Rat(-1), rhs)), cfg)))
    return ZeroVerdict.combine(checks, "poisson_algebra_closure")


def check_symplgraph(D, f, name="f"):
    """The graph characterization: L_{X_f} h - i_{X_f} H vanishes on
    integrable structures, and H-admissibility of f is equivalent to
    L_{X_f} h = 0.  Returns the pair (identity, L_X h) of verdicts."""
    X = hamiltonian_vf(D, f)
    lxh = lie_derivative(X, D.h)
    identity = form_is_zero(lxh - _contract(X, D._H_lift), D.cfg)
    return (replace(identity, label=f"L_X h - i_X H = 0 for {name}"),
            replace(form_is_zero(lxh, D.cfg), label=f"L_X h = 0 for {name}"))


def check_image_under_d(pairs, H, cfg=OracleConfig()):
    """Push admissible pairs through the de Rham differential and verify
    the image is isotropic with the expected untwisted brackets
    ([X, Y], -i_{[X,Y]} H)."""
    checks = [(f"pair {idx} admissible",
               is_admissible_pair(sec.X, sec.alpha, H, cfg))
              for idx, sec in enumerate(pairs)]
    checks += [(f"pairing({i},{j}) = 0", pairing_is_zero(A, B, cfg))
               for i, A in enumerate(pairs) for j, B in enumerate(pairs)
               if i < j]
    if not all(v.zero for _, v in checks):
        return ZeroVerdict.combine(checks, "image_under_d")
    chart = pairs[0].chart
    images = [GenSection(s.X, ext_d(s.alpha).simplified()) for s in pairs]
    zero_twist = KForm.zero(chart, images[0].level + 1)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            A, B = images[i], images[j]
            checks.append((f"image pairing({i},{j}) = 0",
                           pairing_is_zero(A, B, cfg)))
            br = derived_bracket(A, B, zero_twist)
            expected_vf = vf_bracket(A.X, B.X)
            expected_form = interior(expected_vf, H).scale(Rat(-1))
            checks.append((f"image bracket({i},{j}) vector part",
                           vf_is_zero(br.X - expected_vf, cfg)))
            checks.append((f"image bracket({i},{j}) form part",
                           form_is_zero(br.alpha - expected_form, cfg)))
    return ZeroVerdict.combine(checks, "image_under_d")


def check_poiss_brak_adm(D, f, g):
    """Twisted bracket of the graph sections of two H-admissible functions
    against ([X_f, X_g], d{f,g})."""
    Xf = hamiltonian_vf(D, f)
    Xg = hamiltonian_vf(D, g)
    chart = D.chart
    A = GenSection(Xf, ext_d(KForm.scalar(chart, f)))
    B = GenSection(Xg, ext_d(KForm.scalar(chart, g)))
    lhs = twisted_courant_bracket(A, B, D.H)
    fg = vf_apply(Xf, g)
    expected_vf = vf_bracket(Xf, Xg)
    expected_form = ext_d(KForm.scalar(chart, fg))
    return ZeroVerdict.combine(
        [("vector part", vf_is_zero(lhs.X - expected_vf, D.cfg)),
         ("form part", form_is_zero(lhs.alpha - expected_form, D.cfg))],
        "bracket_of_admissible_pairs")
