"""Constructions shared by the unit and acceptance tests.

The admissible-pair builders solve d(alpha) = -i_X H by hand: the twist
is a constant-coefficient form, the X components coupling to it are
constants, and the primitive of a constant 3-form c*dxa^dxb^dxc is
c*xa*dxb^dxc.  Random closed additions (exact forms) keep the families
nontrivial.
"""

from fractions import Fraction

from twistdirac.symexpr import Prod, Rat
from twistdirac.exterior import KForm, VectorField, ext_d, interior
from twistdirac.courant import GenSection
from twistdirac.dirac import TwistedGraph, hamiltonian_vf
from twistdirac.randgen import rand_kform, rand_poly


def standard_omega(chart):
    """dp_i ^ dq_i summed over the (q_i, p_i) pairs of the chart."""
    n = chart.dim // 2
    acc = KForm.zero(chart, 2)
    for i in range(n):
        acc = acc + KForm.basis(chart, [chart.coords[n + i],
                                        chart.coords[i]])
    return acc


def constant_primitive(form):
    """A 1-form/2-form primitive of a constant-coefficient (k+1)-form:
    d(primitive) equals the form exactly."""
    chart = form.chart
    out = KForm.zero(chart, form.degree - 1)
    xs = chart.vars()
    for mask, c in form.coeffs.items():
        lowest = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << lowest)
        out = out + KForm(chart, form.degree - 1,
                          {rest: Prod(c, xs[lowest])})
    return out


def admissible_pair(rng, chart, level, twist, graph=None):
    """A section (X, alpha) with d(alpha) + i_X twist = 0.

    The twist must have constant coefficients.  For level 1 a graph must
    be supplied and the pair is (X_f, f) for a random polynomial f; for
    higher levels X couples to the twist through constant components and
    alpha = -primitive(i_X twist) + d(random form).
    """
    if level == 1:
        f = rand_poly(rng, chart, max_degree=2, terms=2)
        X = hamiltonian_vf(graph, f)
        if graph.sign > 0:
            X = X.scale(Rat(-1)).simplified()
        return GenSection(X, KForm.scalar(chart, f))
    support = {i for m in twist.coeffs for i in _mask_indices(m)}
    comps = [Rat(0)] * chart.dim
    for i in range(chart.dim):
        if i in support:
            comps[i] = Rat(Fraction(rng.randint(-2, 2)))
        else:
            comps[i] = rand_poly(rng, chart, max_degree=2, terms=1)
    X = VectorField(chart, comps)
    contraction = interior(X, twist).simplified()
    alpha = constant_primitive(contraction).scale(Rat(-1))
    closed = ext_d(rand_kform(rng, chart, level - 2, max_degree=2, terms=1,
                              components=2)) if level >= 2 else None
    if closed is not None:
        alpha = alpha + closed
    return GenSection(X, alpha.simplified())


def fraction_solve(A, b):
    """One solution x of A x = b over Fractions, or None when the system
    is inconsistent.  Gauss-Jordan elimination takes its pivots column by
    column, the first nonzero entry in each, and sets every unknown
    without a pivot to zero."""
    rows = [[Fraction(v) for v in row] + [Fraction(c)]
            for row, c in zip(A, b)]
    n = len(rows[0]) - 1
    pivots = []
    for col in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [a - row[col] * c for a, c in zip(row, rows[r])]
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        x[col] = row[-1]
    return x


def _mask_indices(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def level1_graph(chart, cfg):
    """Constant symplectic structure used to manufacture level-1 pairs."""
    return TwistedGraph(chart, standard_omega(chart), cfg=cfg)


def coupled_image_pairs(rng, chart):
    """Two level-2 admissible pairs for H = dq1^dq2^dq3 with vanishing
    mutual pairing and a nontrivial twist coupling.

    With W = W(q1) and u = W': the pair (u d/dq2, W dq3) satisfies
    d(W dq3) = -i_X H, and (u d/dq3, -W dq2 + dh(q1)) likewise; their
    pairing cancels exactly.  Polynomial components along the p-directions
    ride along freely (they meet neither the twist nor the dq-only forms).
    """
    from twistdirac.symexpr import diff
    q1 = chart["q1"]
    W = rand_poly(rng, chart, max_degree=3, terms=2, coords=("q1",))
    u = diff(W, q1)
    h = rand_poly(rng, chart, max_degree=2, terms=1, coords=("q1",))
    free = chart.coords[3:]

    def with_p_parts(direction, scale):
        comps = [Rat(0)] * chart.dim
        comps[chart.index(direction)] = scale
        for name in free:
            comps[chart.index(name)] = rand_poly(rng, chart, max_degree=2,
                                                 terms=1)
        return VectorField(chart, comps)

    X = with_p_parts("q2", u)
    alpha = KForm(chart, 1, {1 << chart.index("q3"): W})
    Y = with_p_parts("q3", u)
    beta = KForm(chart, 1, {1 << chart.index("q2"): Prod(Rat(-1), W),
                            1 << chart.index("q1"): diff(h, q1)})
    return GenSection(X, alpha.simplified()), GenSection(Y, beta.simplified())
