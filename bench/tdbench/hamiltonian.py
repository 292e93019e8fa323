"""Workload ``hamiltonian``: TwistedGraph structures and their solves.

Per round: conformally scaled dense graphs (1 + a*q1)*omega + C (C a
constant 2-form on every pair), eight at dim 4, one at dim 6 and one at
dim 8; one fully non-constant dense graph (a linear coefficient on every
pair) at dim 4; six degenerate rank-4 graphs at dim 6.  Building a
structure is one item; each function's solve with its checks is one item;
a Jacobi-defect triple is one item; on degenerate graphs a pair of
functions (one admissible, one not) is one item.

Checks use the 2-form's coefficient matrix M, held here as polynomials:
at seeded rational points the solved field X must satisfy
sum_i X^i M_ij = sign * df/dx_j, brackets must equal the directional
derivative along a field solved here by Gaussian elimination over
Fractions (and so be antisymmetric), H = dh is differentiated here, and
degenerate admissibility must follow the construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .checks import own_points
from .exact import (Singular, depends_on, evaluate, padd, pconst, pdiff,
                    peval, pmul, poly_expr, pvar, solve, transpose)

POOL_ROUNDS = 6
# (dim, structures per round, functions per structure, Jacobi triples).
# The heavy items (the Jacobi triple, the first solves at dim 6 and 8, the
# dense graph) are 5 of 71 items a round, so item_p90_ms falls inside the
# bulk of dim-4 solves and item_p50_ms inside the degenerate pairs, not in
# a gap between clusters of items.
CONFORMAL = ((4, 8, 3, 1), (6, 1, 2, 0), (8, 1, 1, 0))
DENSE = (4, 1, 2)
DEGENERATE = (6, 6, 8)
KERNEL = (2, 5)                   # q3, p3 at dim 6


def coords(dim):
    half = dim // 2
    return tuple(f"q{i + 1}" for i in range(half)) + \
        tuple(f"p{i + 1}" for i in range(half))


def _frac(rng, choices, den):
    return Fraction(rng.choice(choices), den)


class Spec:
    """One structure: its matrix M as polynomials, its functions, and
    what the construction says about it."""

    def __init__(self, kind, dim, M, funcs, sign, full=True, jacobi=False,
                 kernel=()):
        self.kind, self.dim, self.M = kind, dim, M
        self.funcs, self.sign = funcs, sign
        self.full, self.jacobi, self.kernel = full, jacobi, kernel
        self.H = dh(M, dim)

    def form(self, chart):
        from twistdirac.exterior import KForm
        coeffs = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                if self.M[a][b]:
                    coeffs[(1 << a) | (1 << b)] = poly_expr(self.M[a][b],
                                                            chart)
        return KForm(chart, 2, coeffs)


def _empty(dim):
    return [[{} for _ in range(dim)] for _ in range(dim)]


def _add_pair(M, a, b, p):
    """Add p * dx_a ^ dx_b (a < b) to the matrix of h(d/dx_i, d/dx_j)."""
    M[a][b] = padd(M[a][b], p)
    M[b][a] = padd(M[b][a], p, -1)


def _scaled_omega(M, dim, phi, pairs):
    half = dim // 2
    for i in pairs:
        # dp_i ^ dq_i = -dq_i ^ dp_i
        _add_pair(M, i, half + i, pmul(phi, pconst(dim, -1)))


def dh(M, dim):
    """(dh)_{abc} = d_a M_bc - d_b M_ac + d_c M_ab for a < b < c."""
    H = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                p = padd(padd(pdiff(M[b][c], a), pdiff(M[a][c], b), -1),
                         pdiff(M[a][b], c))
                if p:
                    H[(a, b, c)] = p
    return H


def rand_function(rng, dim, degree, terms, allowed=None):
    """terms monomials, each a product of exactly degree coordinates drawn
    from allowed, with coefficients in +-{1/2, 1, 3/2}; a fixed shape keeps
    the cost of an item from depending much on the seed."""
    allowed = list(allowed if allowed is not None else range(dim))
    p = {}
    while len(p) < terms:
        mono = pconst(dim, _frac(rng, (-3, -2, -1, 1, 2, 3), 2))
        for _ in range(degree):
            mono = pmul(mono, pvar(dim, rng.choice(allowed)))
        p = padd(p, mono)
    return p


def conformal_spec(rng, dim, nfuncs, jacobi, sign):
    """(1 + a*q1)*omega + C with a constant 2-form C on every pair.

    The entries of C are +-1/16 or +-1/8, so its Frobenius norm is below 1
    up to dim 8; as 1 + a*q1 >= 1 on the box, the matrix stays invertible
    there (with entries up to 3/4 the Pfaffian has roots inside the box
    for some draws, and the structure is rightly reported degenerate).
    The dim-8 structure is the one heavy structure of a round, and its
    cost swings by a fifth between random draws, so it is fixed (a = 1,
    C = (-1)^(i+j)/16 on dx_i^dx_j) and only its linear function comes
    from the seed."""
    M = _empty(dim)
    heavy = dim >= 8
    a = Fraction(1) if heavy else _frac(rng, (1, 2, 3), 2)
    _scaled_omega(M, dim, padd(pconst(dim, 1), pvar(dim, 0, a)),
                  range(dim // 2))
    for i in range(dim):
        for j in range(i + 1, dim):
            c = Fraction((-1) ** (i + j), 16) if heavy else \
                _frac(rng, (-2, -1, 1, 2), 16)
            _add_pair(M, i, j, pconst(dim, c))
    degree, terms = (1, 2) if heavy else (2, 2)
    funcs = [rand_function(rng, dim, degree, terms) for _ in range(nfuncs)]
    return Spec("conformal", dim, M, funcs, sign, full=dim < 8,
                jacobi=jacobi)


def dense_spec(rng, dim, nfuncs):
    """omega + (2 + (-1)^(i+j) x_k/4) dx_i^dx_j on every pair, with
    k = (i + j + 1) mod dim.  Fixed for the same reason as the dim-8
    conformal structure (its cost swings by a quarter between random
    draws); the functions come from the seed."""
    M = _empty(dim)
    _scaled_omega(M, dim, pconst(dim, 1), range(dim // 2))
    for i in range(dim):
        for j in range(i + 1, dim):
            lin = pvar(dim, (i + j + 1) % dim, Fraction((-1) ** (i + j), 4))
            _add_pair(M, i, j, padd(pconst(dim, 2), lin))
    funcs = [rand_function(rng, dim, 1, 1) for _ in range(nfuncs)]
    return Spec("dense", dim, M, funcs, 1)


def degenerate_spec(rng, nfuncs, sign):
    """(1 + a*q1)*(dp1^dq1 + dp2^dq2) + a constant 2-form on the block
    (q1, q2, p1, p2); the kernel is (q3, p3).  Even-numbered functions live
    on the block, odd-numbered ones also carry a kernel coordinate."""
    dim = DEGENERATE[0]
    block = [i for i in range(dim) if i not in KERNEL]
    M = _empty(dim)
    phi = padd(pconst(dim, 1), pvar(dim, 0, _frac(rng, (1, 2, 3), 2)))
    _scaled_omega(M, dim, phi, (0, 1))
    for i, a in enumerate(block):
        for b in block[i + 1:]:
            _add_pair(M, a, b, pconst(dim, _frac(rng, (-3, -2, -1, 1, 2, 3),
                                                 4)))
    funcs = []
    for i in range(nfuncs):
        if i % 2 == 0:
            funcs.append(rand_function(rng, dim, 2, 2, allowed=block))
        else:
            f = rand_function(rng, dim, 2, 2)
            funcs.append(padd(f, pvar(dim, KERNEL[(i // 2) % 2],
                                      _frac(rng, (1, 2, 3), 2))))
    return Spec("degenerate", dim, M, funcs, sign, kernel=KERNEL)


# ---------------------------------------------------------------------------
# checks


def _matrix_at(M, values):
    return [[peval(p, values) for p in row] for row in M]


def _grad_at(f, dim, values):
    return [peval(pdiff(f, j), values) for j in range(dim)]


def own_field(spec, f, values, sign=None):
    """X at a point from M(pt)^T X = sign * grad f, over Fractions; on
    degenerate structures only the block components (others zero)."""
    sign = spec.sign if sign is None else sign
    M = _matrix_at(spec.M, values)
    grad = [sign * g for g in _grad_at(f, spec.dim, values)]
    idx = [i for i in range(spec.dim) if i not in spec.kernel]
    sub = transpose([[M[i][j] for j in idx] for i in idx])
    x = solve(sub, [grad[j] for j in idx])
    if x is None:
        return None
    out = [Fraction(0)] * spec.dim
    for i, v in zip(idx, x):
        out[i] = v
    return out


def _values(point, names):
    return [point[n] for n in names]


def _field_values(X, point):
    return [evaluate(c, point) for c in X.comps]


def check_residual(spec, names, f, X, points):
    """sum_i X^i M_ij = sign * df/dx_j at every regular point."""
    regular = 0
    for point in points:
        vals = _values(point, names)
        try:
            xv = _field_values(X, point)
        except Singular:
            continue
        regular += 1
        M = _matrix_at(spec.M, vals)
        grad = _grad_at(f, spec.dim, vals)
        for j in range(spec.dim):
            lhs = sum(xv[i] * M[i][j] for i in range(spec.dim))
            if lhs != spec.sign * grad[j]:
                return f"residual component {names[j]} is " \
                    f"{float(lhs - spec.sign * grad[j]):.6g} at {point}"
    return None if regular else "no regular point for the residual"


def _contract_H(spec, X, vals):
    """Components (b, c) of i_X H at a point, from H = dh held here."""
    H = {k: peval(p, vals) for k, p in spec.H.items()}
    out = {}
    for (a, b, c), h in H.items():
        for (i, j, k, s) in ((a, b, c, 1), (b, a, c, -1), (c, a, b, 1)):
            out[(j, k)] = out.get((j, k), 0) + s * X[i] * h
    return out


def check_admissibility(spec, names, f, report, points):
    """Courant-admissible; the H-admissibility verdict holds at points,
    or, when negative, its witness has a nonzero i_X H component whose
    size the reported magnitude covers."""
    if not report.courant_admissible:
        return "nondegenerate structure reported f not admissible"
    if report.h_admissible:
        for point in points:
            vals = _values(point, names)
            X = own_field(spec, f, vals, sign=1)
            if X is None:
                continue
            if any(_contract_H(spec, X, vals).values()):
                return f"H-admissible reported, i_X H != 0 at {point}"
        return None
    if report.witness is None:
        return "not H-admissible reported without a witness"
    w = {n: Fraction(v) for n, v in report.witness.items()}
    vals = _values(w, names)
    X = own_field(spec, f, vals, sign=1)
    if X is None:
        return f"witness {w} is a singular point"
    sizes = [abs(v) for v in _contract_H(spec, X, vals).values() if v]
    if not sizes:
        return f"witness {w}: i_X H vanishes there"
    if report.magnitude < float(min(sizes)) * (1 - 1e-9):
        return f"witness {w}: magnitude {report.magnitude} below " \
            f"|i_X H| = {float(min(sizes))}"
    return None


def check_bracket(spec, names, f, g, bracket, points):
    """{f,g} = X_f(g) = -X_g(f) with fields solved here."""
    regular = 0
    for point in points:
        vals = _values(point, names)
        Xf, Xg = own_field(spec, f, vals), own_field(spec, g, vals)
        try:
            b = evaluate(bracket, point)
        except Singular:
            continue
        if Xf is None or Xg is None:
            continue
        regular += 1
        fg = sum(x * d for x, d in zip(Xf, _grad_at(g, spec.dim, vals)))
        gf = sum(x * d for x, d in zip(Xg, _grad_at(f, spec.dim, vals)))
        if b != fg:
            return f"{{f,g}} = {b} at {point}, expected X_f(g) = {fg}"
        if fg != -gf:
            return f"X_f(g) = {fg} but X_g(f) = {gf} at {point}"
    return None if regular else "no regular point for the bracket"


def check_jacobi(spec, names, fs, out, points):
    """cyclic sum = contraction = H(X_f, X_g, X_k) at every point, with
    fields normalized to df = +i_X h."""
    cyclic, contraction = out
    regular = 0
    for point in points:
        vals = _values(point, names)
        Xs = [own_field(spec, f, vals, sign=1) for f in fs]
        try:
            cv, tv = evaluate(cyclic, point), evaluate(contraction, point)
        except Singular:
            continue
        if None in Xs:
            continue
        regular += 1
        iH = _contract_H(spec, Xs[0], vals)
        Y, Z = Xs[1], Xs[2]
        expected = sum(v * (Y[j] * Z[k] - Y[k] * Z[j])
                       for (j, k), v in iH.items())
        if not cv == tv == expected:
            return f"cyclic {cv}, contraction {tv}, H(X_f,X_g,X_k) " \
                f"{expected} at {point}"
    return None if regular else "no regular point for the Jacobi check"


def check_degenerate(spec, names, f, prev, out, points):
    """(ok, X, bracket or None) from a degenerate structure: f is
    admissible exactly when it does not depend on the kernel coordinates,
    and an admissible f's field and bracket with prev (f, expr) hold."""
    ok, X, b = out
    admissible = not any(depends_on(f, k) for k in spec.kernel)
    if ok != admissible:
        return f"admissible={ok}, construction says {admissible}"
    if not ok:
        return None
    problem = check_residual(spec, names, f, X, points)
    if problem is None and b is not None:
        problem = check_bracket(spec, names, f, prev[0], b, points)
    return problem


# ---------------------------------------------------------------------------


class Workload:
    name = "hamiltonian"
    trace_rounds = 1

    def __init__(self, seed, workdir):
        from twistdirac.symexpr import Chart, OracleConfig
        rng = random.Random(f"{seed}:hamiltonian")
        self.cfg = OracleConfig(seed=rng.randrange(10 ** 6), samples=64)
        self.charts = {d: Chart(f"ph{d}", coords(d)) for d in (4, 6, 8)}
        self.pool = []
        for _ in range(POOL_ROUNDS):
            specs = []
            for dim, count, nf, jacobi in CONFORMAL:
                for i in range(count):
                    specs.append(conformal_spec(rng, dim, nf, i < jacobi,
                                                -1 if i % 2 else 1))
            for _ in range(DENSE[1]):
                specs.append(dense_spec(rng, DENSE[0], DENSE[2]))
            for i in range(DEGENERATE[1]):
                specs.append(degenerate_spec(rng, DEGENERATE[2],
                                             -1 if i % 2 else 1))
            round_inputs = []
            for spec in specs:
                chart = self.charts[spec.dim]
                fexprs = [poly_expr(f, chart) for f in spec.funcs]
                points = own_points(rng, chart.coords, 2)
                round_inputs.append((spec, spec.form(chart), fexprs, points))
            self.pool.append(round_inputs)

    def run_round(self, r, log):
        for spec, h, fexprs, points in self.pool[r % POOL_ROUNDS]:
            self._structure(spec, h, fexprs, points, log)

    def _structure(self, spec, h, fexprs, points, log):
        from twistdirac import dirac
        chart = self.charts[spec.dim]
        names = chart.coords
        degenerate = spec.kind == "degenerate"

        def check_built(D):
            if D.nondegenerate == degenerate or not D.integrable:
                return f"nondegenerate={D.nondegenerate}, " \
                    f"integrable={D.integrable}"
            return None
        D = log.item(f"{spec.kind}{spec.dim} build",
                     lambda: dirac.TwistedGraph(chart, h, "dh", spec.sign,
                                                self.cfg), check_built)
        if D is None:
            return
        fs, n = spec.funcs, len(spec.funcs)
        if degenerate:
            self._degenerate_items(D, spec, names, fexprs, points, log)
            return
        for i in range(n):
            f, fe = fs[i], fexprs[i]
            g, ge = fs[(i + 1) % n], fexprs[(i + 1) % n]
            if not spec.full:
                def call():
                    return dirac.hamiltonian_vf(D, fe)

                def check(X):
                    return check_residual(spec, names, f, X, points)
            elif i % 2 == 0:
                def call():
                    return (dirac.hamiltonian_vf(D, fe),
                            dirac.is_H_admissible(D, fe))

                def check(out):
                    X, adm = out
                    return (check_residual(spec, names, f, X, points)
                            or check_admissibility(spec, names, f, adm,
                                                   points))
            else:
                def call():
                    return dirac.poisson_bracket(D, fe, ge)

                def check(b):
                    return check_bracket(spec, names, f, g, b, points)
            log.item(f"{spec.kind}{spec.dim} f{i}", call, check)
        if spec.jacobi:
            log.item(f"{spec.kind}{spec.dim} jacobi",
                     lambda: dirac.jacobi_defect(D, *fexprs[:3]),
                     lambda out: check_jacobi(spec, names, fs[:3], out,
                                              points))

    def _degenerate_items(self, D, spec, names, fexprs, points, log):
        """One item per pair (admissible f, inadmissible f'): both
        admissibility tests, and the bracket of f with the previous
        admissible function."""
        from twistdirac import dirac
        fs = spec.funcs
        for k in range(0, len(fs), 2):
            prev = (fs[k - 2], fexprs[k - 2]) if k else None
            fa, fb = fexprs[k], fexprs[k + 1]

            def call():
                ok, X = dirac.is_courant_admissible(D, fa)
                b = dirac.poisson_bracket(D, fa, prev[1]) \
                    if ok and prev is not None else None
                return (ok, X, b), dirac.is_courant_admissible(D, fb) + (None,)

            log.item(f"degenerate pair {k // 2}", call,
                     lambda out: check_degenerate(spec, names, fs[k], prev,
                                                  out[0], points)
                     or check_degenerate(spec, names, fs[k + 1], None,
                                         out[1], points))
