"""Twisted symplectic-graph Dirac structures.

A TwistedGraph couples a 2-form h with a closed twisting 3-form H.  Sections
of the structure are the pairs (X, sign * i_X h); a function f is admissible
when df = sign * i_{X_f} h is solvable for a vector field X_f, and
H-admissible when additionally i_{X_f} H vanishes identically.

Each TwistedGraph prepares its solves once, when it is built, on one of
two routes.  A structure on a chart of even dimension 2n whose h is not
one polynomial times a constant form, and whose power h^n does not
vanish, takes the Pfaffian route: it keeps the coefficients of h^(n-1)
(the Pfaffian minors) and -n/T, T = [h^n] the top coefficient, and
solves by {f, g} h^n = n df ^ dg ^ h^(n-1) (Cannas da Silva, LNM 1764):

    X_f^k = -n/T * sum_j [dx_j ^ dx_k ^ h^(n-1)] * sign * d_j f.

Its determinant is Pf^2 = T^2/(n!)^2, kept as Prod(Rat(1/(n!)^2), T, T),
and its rank is the dimension.  Every other structure (odd dimension, a
vanishing power of h, or a conformally constant form phi * C) runs one
exact Gauss-Jordan elimination of the coefficient matrix instead.  It
yields the rank, the determinant (the signed product of the pivots,
unexpanded) and a transform that turns every solve, on degenerate
structures too, into one matrix-vector product.  Conformally constant
forms keep elimination because it prints their fields in lowest terms
(over phi), where the Pfaffian formula would print them over phi^n
until the normal form can cancel by a polynomial gcd.  On both routes
simplify(D.det) expands the determinant, a constant determinant decides
nondegeneracy exactly, without sampling, and every solve is verified by
a residual zero-test.

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
from math import factorial, prod

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
    the twist is closed, prepares the solves on the Pfaffian route (see
    _pfaffian) or else by eliminating the coefficient matrix of h (see
    _eliminate), samples the determinant for nondegeneracy, and records
    the integrability verdict (dh - H = 0).
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
        closed = form_is_zero(ext_d(self.H), cfg)
        if not closed.zero:
            raise TwistNotClosedError(
                f"the twisting 3-form is not closed: {closed}")
        # the coefficients of h^(n-1) on the Pfaffian route, else None
        self._minors = None
        if not self._pfaffian():
            self._eliminate()
        self.nondegenerate = self._det_nonvanishing()
        # as_expr(f) -> (X_f, residual verdict), as _solve_verified returns
        self._solved = {}
        self.integrable = form_is_zero(ext_d(self.h) - self.H, cfg).zero

    def _pfaffian(self):
        """Prepare the Pfaffian route, or return False and set nothing.

        The route needs an even dimension 2n, coefficients that are not
        all constant multiples of one polynomial, and T = [h^n] not
        identically zero; the wedge powers stop at the first that
        vanishes.  It keeps the coefficients of h^(n-1), which are not
        normalised here, and -n/T, sets the rank to 2n and the
        determinant to Pf^2 = T^2/(n!)^2: a Rat when T is constant,
        otherwise Prod(Rat(1/(n!)^2), T, T).
        """
        dim = self.chart.dim
        units = [normalize_sum(c)[1] for c in self.h.polys.values()]
        if dim % 2 or all(u == units[0] for u in units):
            return False
        n = dim // 2
        low = KForm.scalar(self.chart, 1)
        for _ in range(n - 1):
            low = wedge(low, self.h)
            if low.is_structurally_zero():
                return False
        num, dens = combined_fraction(
            wedge(low, self.h).polys.get((1 << dim) - 1, {}))
        if not num:
            return False
        T = recompose(num, dens)
        if not is_rational_function(num, dens) and \
                is_zero(T, self.cfg, self.chart).zero:
            return False
        self._minors = low.polys
        self._scale = p_mul(p_const(-n), p_pow(T, -1, self.chart))
        self._pivot_cols = list(range(dim))
        square = factorial(n) ** 2
        if _is_constant(T):
            self.det = Rat(T[ONE_M] ** 2, square)
        else:
            tree = from_poly(T, self.chart)
            self.det = Prod(Rat(1, square), tree, tree)
        return True

    def _pfaffian_component(self, k, vec, sign):
        """Component k of sign * (M^T)^-1 vec on the Pfaffian route: -n/T
        times the sum over j of [dx_j ^ dx_k ^ h^(n-1)] * sign * vec_j,
        normalised once.  The bracket is the coefficient of h^(n-1) on the
        complement of {j, k}, signed to sort dx_j ^ dx_k before it (none
        when j == k: h^(n-1) has no coefficient on the full mask)."""
        full = (1 << self.chart.dim) - 1
        acc = {}
        for j, v in enumerate(vec):
            rest = full ^ (1 << j) ^ (1 << k)
            minor = self._minors.get(rest)
            if v and minor:
                s = sign * _merge_sign(1 << j, 1 << k) * \
                    _merge_sign(full ^ rest, rest)
                p_add_inplace(acc, p_mul(minor, v), None if s > 0 else -1)
        return normal(p_mul(acc, self._scale)) if acc else {}

    def _eliminate(self):
        """Gauss-Jordan elimination on (M^T | I), once per structure, for
        the structures the Pfaffian route does not take: an odd dimension,
        a vanishing power of h (below full rank), or a conformally
        constant h = phi * C, whose fields come out over phi in lowest
        terms here.

        Pivots are taken column by column, rational entries first, then
        the first entry the zero-test oracle finds nonzero.  Records the
        pivot columns (their count is the rank), the transform E with
        E M^T in reduced row echelon form (pivot rows first, in column
        order) and the determinant: the signed product of the pivots,
        unexpanded, as a Prod of one Rat (the sign times the constant
        pivots) and the non-constant pivots, a bare Rat when every pivot
        is constant, Rat(0) below full rank; simplify(D.det) expands it.
        """
        dim = self.chart.dim
        rows = [[{}] * dim + [p_const(1 if k == i else 0) for k in range(dim)]
                for i in range(dim)]
        for mask, c in self.h.polys.items():
            # M[lo][hi] = h(d/dx_lo, d/dx_hi) = c, so M^T[hi][lo] = c
            lo = (mask & -mask).bit_length() - 1
            hi = mask.bit_length() - 1
            rows[hi][lo] = c
            rows[lo][hi] = {m: -v for m, v in c.items()}
        pivot_rows = {}
        pivots = []
        for col in range(dim):
            candidates = sorted(
                (not _is_constant(rows[r][col]), r) for r in range(dim)
                if r not in pivot_rows.values() and rows[r][col])
            chosen = next((r for symbolic, r in candidates
                           if not symbolic
                           or not is_zero(rows[r][col], self.cfg,
                                          self.chart).zero),
                          None)
            if chosen is None:
                continue
            pivot = rows[chosen][col]
            pivots.append(pivot)
            pivot_rows[col] = chosen
            inv_p = p_pow(pivot, -1, self.chart)
            rows[chosen] = [normal(p_mul(e, inv_p)) if e else e
                            for e in rows[chosen]]
            for r in range(dim):
                factor = rows[r][col]
                if r == chosen or not factor:
                    continue
                rows[r] = [normal(p_add_inplace(dict(a), p_mul(factor, b), -1))
                           if b else a
                           for a, b in zip(rows[r], rows[chosen])]
        order = list(pivot_rows.values())
        if len(order) < dim:
            self.det = Rat(0)
        else:
            swaps = sum(a > b for i, a in enumerate(order)
                        for b in order[i + 1:])
            lead = prod((p[ONE_M] for p in pivots if _is_constant(p)),
                        start=-1 if swaps & 1 else 1)
            trees = [from_poly(p, self.chart) for p in pivots
                     if not _is_constant(p)]
            self.det = Prod(Rat(lead), *trees) if trees else Rat(lead)
        order += [r for r in range(dim) if r not in order]
        self._pivot_cols = list(pivot_rows)
        self._transform = [rows[r][dim:] for r in order]

    def _det_nonvanishing(self):
        """True when |det| clears the tolerance at every sample point; a
        constant det (a Rat on either route) is decided exactly, as
        sampling would with tolerance 0, and draws no point.  On the
        Pfaffian route the sampled tree is Prod(Rat(1/(n!)^2), T, T), and T
        is evaluated once per point."""
        if isinstance(self.det, Rat):
            return self.det.value != 0
        env = oracle_function_env(self.cfg, self.det)
        try:
            return all(abs(total) > tol for _, total, tol in sampled_sums(
                self.det, self.cfg, env, self.chart))
        except OracleInconclusiveError:
            return False

    def inverse_matrix(self):
        """Exact inverse of the coefficient matrix M.  On the Pfaffian
        route each entry is built on demand, (M^-1)_ij = -n/T times the
        top coefficient of dx_i ^ dx_j ^ h^(n-1); after elimination it is
        the transpose of the transform E, since E = (M^T)^-1 at full
        rank."""
        if not self.nondegenerate:
            raise NondegeneracyError("h is degenerate on the sampling box")
        dim = self.chart.dim
        if self._minors is not None:
            # row i of M^-1 is column i of (M^T)^-1, its image of e_i
            units = [[p_const(1 if k == i else 0) for k in range(dim)]
                     for i in range(dim)]
            return [[from_poly(self._pfaffian_component(j, e, 1),
                               self.chart) for j in range(dim)]
                    for e in units]
        return [[from_poly(self._transform[j][i], self.chart)
                 for j in range(dim)]
                for i in range(dim)]


def _is_constant(p):
    return all(m == ONE_M for m in p)


def graph_section(D, X):
    """The section (X, sign * i_X h) of the graph."""
    alpha = interior(X, D.h)
    if D.sign < 0:
        alpha = alpha.scale(Rat(-1))
    return GenSection(X, alpha.simplified())


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
    """The solve behind _solve_verified, from sign * grad f.  On the
    Pfaffian route X_f^k is -n/T times the sum over j of the minor
    [dx_j ^ dx_k ^ h^(n-1)] times sign * d_j f, normalised once per
    component.  Otherwise X_f is the elimination transform applied to
    sign * grad f: rows past the rank must vanish, pivot rows give the
    pivot components, and free components are zero."""
    df = ext_d(KForm.scalar(D.chart, f))
    dim = D.chart.dim
    grad = [normal(df.polys.get(1 << i, {})) for i in range(dim)]
    if D._minors is not None:
        comps = [D._pfaffian_component(k, grad, D.sign) for k in range(dim)]
    else:
        sign = -1 if D.sign < 0 else None
        b = []
        for row in D._transform:
            acc = {}
            for e, g in zip(row, grad):
                if e and g:
                    p_add_inplace(acc, p_mul(e, g), sign)
            b.append(normal(acc))
        rank = len(D._pivot_cols)
        if any(not is_zero(x, D.cfg, D.chart).zero for x in b[rank:]):
            return None, None
        comps = [{}] * dim
        for col, x in zip(D._pivot_cols, b):
            comps[col] = x
    X = VectorField(D.chart, comps)
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
    return X, form_is_zero(interior(X, D.H), D.cfg)


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
    # whatever the structure's sign flag
    if D.sign < 0:
        Xf, Xg, Xk = -Xf, -Xg, -Xk
    contraction = interior(Xk, interior(Xg, interior(Xf, D.H))).scalar_value()
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
                   form_is_zero(interior(X_prod, D.H), cfg)))

    fg_bracket = vf_apply(Xf, g)
    X_bracket = hamiltonian_vf(D, fg_bracket)
    commutator = vf_bracket(Xf, Xg)
    checks.append(("X_{{f,g}} = [X_f, X_g]",
                   vf_is_zero(X_bracket - commutator, cfg)))
    checks.append(("{f,g} is H-admissible",
                   form_is_zero(interior(commutator, D.H), cfg)))

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
    identity = form_is_zero(lxh - interior(X, D.H), D.cfg)
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
