"""Twisted symplectic-graph Dirac structures.

A TwistedGraph couples a 2-form h with a closed twisting 3-form H.  Sections
of the structure are the pairs (X, sign * i_X h); a function f is admissible
when df = sign * i_{X_f} h is solvable for a vector field X_f, and
H-admissible when additionally i_{X_f} H vanishes identically.

Each TwistedGraph runs one exact Gauss-Jordan elimination of the
coefficient matrix when it is built.  It yields the rank, the determinant,
the inverse and a transform that turns every Hamiltonian solve, on
degenerate structures too, into one matrix-vector product; every solve is
then verified by a residual zero-test.

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

from ._normal import (ONE_M, from_poly, normal, p_add_inplace, p_const,
                      p_diff, p_mul, p_pow, to_poly)
from .symexpr import (OracleConfig, OracleInconclusiveError, Prod, Rat, Sum,
                      SymExprError, ZeroVerdict, as_expr, is_zero,
                      oracle_function_env, sampled_sums)
from .exterior import (KForm, VectorField, ext_d, form_is_zero, interior,
                       lie_derivative, vf_apply, vf_bracket, vf_is_zero,
                       apply_poly, _require_same_chart)
from .courant import (GenSection, derived_bracket, pairing_is_zero,
                      twisted_courant_bracket)

__all__ = [
    "TwistedGraph", "AdmissibilityReport", "NondegeneracyError", "SolveError",
    "TwistNotClosedError", "graph_section", "hamiltonian_vf",
    "poisson_bracket", "is_courant_admissible", "is_H_admissible",
    "is_admissible_pair", "jacobi_defect", "check_theorem",
    "check_symplgraph", "check_image_under_d", "check_poiss_brak_adm",
]


class NondegeneracyError(SymExprError):
    pass


class SolveError(SymExprError):
    pass


class TwistNotClosedError(SymExprError):
    pass


@dataclass
class AdmissibilityReport:
    """Admissibility of a named function on a twisted graph.

    h_admissible is None when the structure is degenerate and the
    Hamiltonian field is not unique (the verdict is not determined).
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
                pt = ", ".join(f"{k}={v}" for k, v in
                               sorted(self.witness.items()))
                lines.append(f"  witness: {pt} "
                             f"(|residual| = {self.magnitude:.3g})")
        return "\n".join(lines)


class TwistedGraph:
    """Graph-type Dirac structure of a 2-form h twisted by a closed 3-form.

    The twist may be given as a 3-form, as the string "dh" (use the exterior
    derivative of h), or omitted (zero twist).  Construction verifies that
    the twist is closed, eliminates the coefficient matrix of h (see
    _eliminate), samples its determinant for nondegeneracy, and records
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
        _require_same_chart(h, twist)
        self.H = twist.simplified()
        closed = form_is_zero(ext_d(self.H), cfg)
        if not closed.zero:
            raise TwistNotClosedError(
                f"the twisting 3-form is not closed: {closed}")
        self._eliminate()
        self.nondegenerate = self._det_nonvanishing()
        self.integrable = form_is_zero(ext_d(self.h) - self.H, cfg).zero

    def _eliminate(self):
        """Gauss-Jordan elimination on (M^T | I), once per structure.

        Pivots are taken column by column, rational entries first, then
        the first entry the zero-test oracle finds nonzero.  Records the
        pivot columns (their count is the rank), the determinant (the
        product of the pivots, signed by the row permutation) and the
        transform E with E M^T in reduced row echelon form: pivot rows
        first, in column order.
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
        det = p_const(1)
        for col in range(dim):
            candidates = sorted(
                (not _is_constant(rows[r][col]), r) for r in range(dim)
                if r not in pivot_rows.values() and rows[r][col])
            chosen = next((r for symbolic, r in candidates
                           if not symbolic
                           or not is_zero(rows[r][col], self.cfg).zero),
                          None)
            if chosen is None:
                continue
            pivot = rows[chosen][col]
            # one pivot at a time: the running product is, up to sign, the
            # minor on the pivot rows and columns so far, so each product
            # cancels back to a polynomial (for polynomial h) instead of
            # one large cancellation at the end
            det = normal(p_mul(det, pivot))
            pivot_rows[col] = chosen
            inv_p = p_pow(pivot, -1)
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
            self.det = from_poly(p_mul(p_const(-1 if swaps & 1 else 1), det))
        order += [r for r in range(dim) if r not in order]
        self._pivot_cols = list(pivot_rows)
        self._transform = [rows[r][dim:] for r in order]

    def _det_nonvanishing(self):
        """True when |det| clears the tolerance at every sample point."""
        env = oracle_function_env(self.cfg, self.det)
        try:
            return all(abs(total) > tol for _, total, tol in sampled_sums(
                self.det, self.cfg, self.chart.coords, env))
        except OracleInconclusiveError:
            return False

    def inverse_matrix(self):
        """Exact inverse of the coefficient matrix M: the transpose of the
        elimination transform E, since E = (M^T)^-1 at full rank."""
        if not self.nondegenerate:
            raise NondegeneracyError("h is degenerate on the sampling box")
        dim = self.chart.dim
        return [[from_poly(self._transform[j][i]) for j in range(dim)]
                for i in range(dim)]


def _is_constant(p):
    return all(m == ONE_M for m in p)


def graph_section(D, X):
    """The section (X, sign * i_X h) of the graph."""
    _require_same_chart(X, D.h)
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
    system is inconsistent."""
    f = as_expr(f)
    X = _try_hamiltonian_vf(D, f)
    if X is None:
        return None, None
    residual = ext_d(KForm.scalar(D.chart, f)) - graph_section(D, X).alpha
    return X, form_is_zero(residual, D.cfg)


def _try_hamiltonian_vf(D, f):
    """Apply the elimination transform to sign * grad f: rows past the
    rank must vanish, pivot rows give the pivot components, and free
    components are zero.  None when the system is inconsistent."""
    if f.chart is not None and f.chart != D.chart:
        raise SymExprError("function lives on a different chart")
    fp = to_poly(f)
    grad = [normal(p_diff(fp, v)) for v in D.chart.vars()]
    sign = -1 if D.sign < 0 else None
    b = []
    for row in D._transform:
        acc = {}
        for e, g in zip(row, grad):
            if e and g:
                p_add_inplace(acc, p_mul(e, g), sign)
        b.append(normal(acc))
    rank = len(D._pivot_cols)
    if any(not is_zero(x, D.cfg).zero for x in b[rank:]):
        return None
    comps = [{}] * D.chart.dim
    for col, x in zip(D._pivot_cols, b):
        comps[col] = x
    return VectorField(D.chart, comps)


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
    X, verdict = _h_verdict(D, f)
    if X is None:
        return AdmissibilityReport(name, False,
                                   detail="not admissible (Courant)")
    if not D.nondegenerate:
        return AdmissibilityReport(
            name, True, hamiltonian_field=X,
            detail="degenerate structure: Hamiltonian field not unique")
    return AdmissibilityReport(
        name, True, hamiltonian_field=X, h_admissible=verdict.zero,
        witness=verdict.witness_point, magnitude=verdict.magnitude)


# fails without a witness: f is not admissible, or its field is not unique
_NOT_DETERMINED = ZeroVerdict(zero=False, exact=True)


def _h_verdict(D, f):
    """(X_f or None, the verdict on i_{X_f} H = 0); _NOT_DETERMINED when
    f is not admissible or the structure is degenerate."""
    ok, X = is_courant_admissible(D, f)
    if not ok or not D.nondegenerate:
        return X, _NOT_DETERMINED
    return X, form_is_zero(interior(X, D.H), D.cfg)


def is_admissible_pair(X, alpha, H, cfg=OracleConfig()):
    """Zero-verdict of d alpha + i_X H for a pair at any level."""
    if H.degree != alpha.degree + 2:
        raise ValueError(
            f"twist degree {H.degree} does not match pair level "
            f"{alpha.degree + 1}")
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
    cyclic = from_poly(normal(cyclic))
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
