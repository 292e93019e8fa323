"""Internal canonical-form engine: the coefficient representation.

Form coefficients, vector-field components and the entries of every
elimination are sparse sum-of-monomials polynomials over "atoms":
coordinates, function applications, and irreducible power bases (sums
raised to negative or fractional exponents, non-perfect rational radicals,
and even powers under a root, which keep their sign).  Expression trees
are converted once on the way in (``to_poly``) and rebuilt (``from_poly``)
only where a caller asks for a tree; the zero test compiles a polynomial's
terms for evaluation directly, in ``sorted_terms`` order.  Arithmetic
(``p_mul``, ``p_add_inplace``, ``p_pow``) and differentiation (``p_diff``)
act on polynomials directly.
The polynomial/Laurent subclass over coordinates gets an exact canonical
form (``normal``): sum denominators are recombined into a single fraction
and cancelled by exact multivariate division when the division is exact.

A monomial is a tuple of (atom, exponent) pairs sorted by the atom's
``_key``; exponents are nonzero ints or Fractions (coordinates carry ints;
an integral Fraction compares and hashes equal to its int).  A polynomial is
a dict mapping monomials to nonzero Fraction coefficients; polynomials
are shared, so no operation mutates an argument.

An atom keeps its own expansion: ``_atom_poly`` stores ``to_poly(atom)``
on the node the first time it is asked for, so the expansion lives as
long as the node does.  The module itself holds no state.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# a cycle: symexpr imports this module first, and its node classes are
# looked up when a polynomial is built, after both modules are loaded
from . import symexpr

ONE_M = ()
_ONE = Fraction(1)


def p_const(c):
    c = Fraction(c)
    return {ONE_M: c} if c else {}


def p_add_inplace(acc, p, scale=None):
    """acc += scale * p (scale 1 when None); scale must be nonzero."""
    for m, c in p.items():
        if scale is not None:
            c = c * scale
        old = acc.get(m)
        if old is not None:
            c = old + c
            if not c:
                del acc[m]
                continue
        acc[m] = c
    return acc


def iroot(n, k):
    """Exact integer k-th root of n >= 0, or None."""
    if n in (0, 1):
        return n
    if k == 2:
        r = isqrt(n)
        return r if r * r == n else None
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid + 1
        else:
            hi = mid
    r = lo - 1
    return r if r ** k == n else None


def rational_pow(c, e):
    """c**e for Fraction c and e, as a polynomial: a constant when exact,
    otherwise the atom c^e (0**negative is kept, singular at eval)."""
    c = Fraction(c)
    if c and e.denominator == 1:
        return p_const(c ** int(e))
    if c == 0:
        return {} if e > 0 else {((symexpr.Rat(c), e),): _ONE}
    if c > 0:
        rn = iroot(c.numerator, e.denominator)
        rd = iroot(c.denominator, e.denominator)
        if rn is not None and rd is not None:
            return p_const(Fraction(rn, rd) ** e.numerator)
    return {((symexpr.Rat(c), e),): _ONE}


def _mono_key(m):
    return tuple((a._key, e) for a, e in m)


def _atom_poly(atom):
    """Expansion of an atom as a polynomial, stored on the atom."""
    try:
        return atom._poly
    except AttributeError:
        atom._poly = p = to_poly(atom)
        return p


def term_mul(m1, c1, m2, c2):
    """Product of two monomial terms as a polynomial.

    Usually a single term; exponent merges that produce a positive integer
    power of a sum atom (or an integer power of a rational atom) are folded
    back into polynomial form.
    """
    coeff = c1 * c2
    if not coeff:
        return {}
    i, j = 0, 0
    merged = []
    folds = []
    k1, k2 = len(m1), len(m2)
    while i < k1 and j < k2:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 == a2:
            e = e1 + e2
            if e:
                merged.append((a1, e))
            i += 1
            j += 1
        elif a1._key <= a2._key:
            merged.append((a1, e1))
            i += 1
        else:
            merged.append((a2, e2))
            j += 1
    merged.extend(m1[i:])
    merged.extend(m2[j:])
    out = []
    for a, e in merged:
        if e.denominator == 1 and (a.kind == "rat"
                                   or (a.kind == "sum" and e > 0)):
            folds.append((a, int(e)))
        else:
            out.append((a, e))
    base = {tuple(out): coeff}
    for a, n in folds:
        if a.kind == "rat":
            base = p_mul(base, rational_pow(a.value, n))
        else:
            base = p_mul(base, p_pow_int(_atom_poly(a), n))
    return base


def p_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            p_add_inplace(out, term_mul(m1, c1, m2, c2))
    return out


def p_pow_int(p, n):
    if n == 0:
        return p_const(1)
    if n == 1:
        return dict(p)
    half = p_pow_int(p, n // 2)
    out = p_mul(half, half)
    if n % 2:
        out = p_mul(out, p)
    return out


def _atom_universe(*polys):
    atoms = set()
    for p in polys:
        for m in p:
            for a, _ in m:
                atoms.add(a)
    return sorted(atoms, key=lambda a: a._key)


def _vectorizer(*polys):
    """Graded-lexicographic monomial order over the atoms of the given
    polynomials (a genuine monomial order: total, multiplicative)."""
    universe = _atom_universe(*polys)
    pos = {a: i for i, a in enumerate(universe)}
    zero = (0,) * len(universe)

    def vec(m):
        v = list(zero)
        for a, e in m:
            v[pos[a]] = e
        return (sum(v),) + tuple(v)

    return vec


def normalize_sum(p):
    """Split p into (unit, normalized) with p == unit * normalized, where
    normalized has coefficient content 1 and positive leading coefficient."""
    if not p:
        return Fraction(1), p
    vec = _vectorizer(p)
    lead = max(p, key=vec)
    sign = 1 if p[lead] > 0 else -1
    num_gcd = 0
    den_lcm = 1
    for c in p.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    unit = Fraction(sign * num_gcd, den_lcm)
    if unit == 1:
        return Fraction(1), p
    return unit, {m: c / unit for m, c in p.items()}


def _atom_pow(a, k, e):
    """(a^k)^e for an atom a, folded into a^(k*e) unless k is even and
    k*e is not: a^k is nonnegative where a^(k*e) may be negative, as in
    (x^2)^(1/2) = |x|, so a^k stays an opaque power atom (a positive
    constant base is safe)."""
    ne = k * e
    if k % 2 == 0 and ne % 2 != 0 and not (a.kind == "rat" and a.value > 0):
        return {((symexpr.Pow(a, k), e),): _ONE}
    if ne.denominator == 1 and a.kind in ("sum", "rat"):
        return p_pow(_atom_poly(a), ne)
    return {((a, ne),): _ONE}


def p_pow(p, e):
    """p**e with full expansion for positive integer exponents and atom
    formation otherwise."""
    Rat, Pow = symexpr.Rat, symexpr.Pow
    if e == 0:
        return p_const(1)
    if e == 1:
        return p
    if e.denominator == 1:
        e = int(e)
    if not p:
        if e > 0:
            return {}
        # 0**negative kept symbolically; evaluation reports the singularity
        return {((Pow(Rat(0), e), 1),): _ONE}
    if len(p) == 1:
        (m, c), = p.items()
        out = rational_pow(c, e)
        for a, ae in m:
            out = p_mul(out, _atom_pow(a, ae, e))
        return out
    if e.denominator == 1 and e > 0:
        return p_pow_int(p, e)
    # negative or fractional power of a sum: clear any internal fractions
    # first so atom bases are always polynomial numerators (keeps repeated
    # normalization confluent), then form the atom
    num, dmap = combined_fraction(p)
    if dmap:
        out = p_pow(num, e)
        for a, k in dmap.items():
            out = p_mul(out, _atom_pow(a, -k, e))
        return out
    if e.denominator == 1:
        unit, norm = normalize_sum(p)
        return {((from_poly(norm), e),): unit ** e}
    # fractional power: opaque atom, base kept as written
    atom = from_poly(p)
    return {((atom, e),): _ONE}


def to_poly(e):
    kind = e.kind
    if kind == "rat":
        return p_const(e.value)
    if kind == "var":
        return {((e, 1),): _ONE}
    if kind == "sum":
        out = {}
        for a in e.args:
            p_add_inplace(out, to_poly(a))
        return out
    if kind == "prod":
        # a monomial: multiply the constants, count the coordinates
        c, exps = _ONE, {}
        for a in e.args:
            if a.kind == "var":
                exps[a] = exps.get(a, 0) + 1
            elif a.kind == "rat":
                c = a.value if c is _ONE else c * a.value
            else:
                break
        else:
            m = tuple(sorted(exps.items(), key=lambda t: t[0]._key))
            return {m: c} if c else {}
        out = p_const(1)
        for a in e.args:
            out = p_mul(out, to_poly(a))
            if not out:
                return out
        return out
    if kind == "pow":
        return p_pow(to_poly(e.base), e.exp)
    if kind == "func":
        arg = canon_expr(e.arg)
        atom = symexpr.Func(e.name, e.order, arg)
        return {((atom, 1),): _ONE}
    raise TypeError(f"unknown node kind {kind!r}")


def p_diff(p, v):
    """Partial derivative of p by the coordinate v, with the chain rule on
    function, sum and power atoms."""
    out = {}
    for m, c in p.items():
        for i, (a, e) in enumerate(m):
            kind = a.kind
            if a.chart is None:
                continue        # a constant atom
            if kind == "var":
                if a != v:
                    continue
                da = None
            elif kind == "func":
                darg = p_diff(_atom_poly(a.arg), v)
                if not darg:
                    continue
                da = p_mul({((symexpr.Func(a.name, a.order + 1, a.arg),
                              1),): _ONE}, darg)
            else:
                da = p_diff(_atom_poly(a), v)
                if not da:
                    continue
            ne = e - 1
            rest = m[:i] + ((a, ne),) + m[i + 1:] if ne else m[:i] + m[i + 1:]
            term = {rest: c * e}
            p_add_inplace(out, term if da is None else p_mul(term, da))
    return out


def mono_div(m, d):
    got = dict(m)
    for a, e in d:
        ne = got[a] - e
        if ne:
            got[a] = ne
        else:
            del got[a]
    return tuple(sorted(got.items(), key=lambda t: t[0]._key))


def _pure_nonneg(p):
    for m in p:
        for _, e in m:
            if e < 0:
                return False
    return True


def try_divide(num, den):
    """Exact multivariate division num/den, or None.

    Both operands must have nonnegative exponents (rational exponents are
    fine: they live on a well-ordered lattice); the monomial order is
    graded lexicographic over atom keys.
    """
    if not den:
        return None
    if not num:
        return {}
    if not (_pure_nonneg(num) and _pure_nonneg(den)):
        return None
    raw_vec = _vectorizer(num, den)
    cache = {}

    def vec(m):
        v = cache.get(m)
        if v is None:
            v = raw_vec(m)
            cache[m] = v
        return v

    lead_den = max(den, key=vec)
    c_den = den[lead_den]
    den_tail = {m: c for m, c in den.items() if m != lead_den}
    v_lead = vec(lead_den)[1:]
    work = dict(num)
    quotient = {}
    steps = 0
    # exact quotients in this codebase are small; cap the effort so a
    # non-exact division on large operands fails fast instead of grinding
    step_limit = 4 * (len(num) + len(den)) + 512
    size_limit = 8 * (len(num) + len(den)) + 1024
    while work:
        steps += 1
        if steps > step_limit or len(work) > size_limit:
            return None
        lt = max(work, key=vec)
        v_lt = vec(lt)[1:]
        if any(a < b for a, b in zip(v_lt, v_lead)):
            return None
        qm = mono_div(lt, lead_den)
        qc = work[lt] / c_den
        p_add_inplace(quotient, {qm: qc})
        del work[lt]
        if den_tail:
            p_add_inplace(work, p_mul({qm: qc}, den_tail), -1)
    return quotient


def combined_fraction(p):
    """Clear sum-atom denominators: returns (numerator, denominators) with
    denominators a dict {atom: positive int exponent}, after cancelling exact
    divisors."""
    dens = {}
    for m in p:
        for a, e in m:
            if a.kind == "sum" and e < 0 and e.denominator == 1:
                k = -int(e)
                if k > dens.get(a, 0):
                    dens[a] = k
    if not dens:
        return p, {}
    num = {}
    for m, c in p.items():
        term = {ONE_M: c}
        rest = []
        seen = set()
        for a, e in m:
            k = dens.get(a)
            if k is not None and e.denominator == 1:
                seen.add(a)
                ne = e + k   # >= 0: k is the largest -e of a
                if ne > 0:
                    term = p_mul(term, p_pow_int(_atom_poly(a), int(ne)))
            else:
                rest.append((a, e))
        for a, k in dens.items():
            if a not in seen:
                term = p_mul(term, p_pow_int(_atom_poly(a), k))
        if rest:
            term = p_mul(term, {tuple(rest): _ONE})
        p_add_inplace(num, term)
    if not num:
        return {}, {}
    for a in sorted(dens, key=lambda x: x._key):
        dp = _atom_poly(a)
        while dens[a] > 0:
            q = try_divide(num, dp)
            if q is None:
                break
            num = q
            dens[a] -= 1
        if dens[a] == 0:
            del dens[a]
    if len(dens) == 1:
        # reverse cancellation: num may exactly divide the denominator
        (a, k), = dens.items()
        if k == 1 and len(num) > 1:
            q = try_divide(_atom_poly(a), num)
            if q is not None:
                unit, norm = normalize_sum(q)
                if len(norm) == 1:
                    (m, c), = norm.items()
                    inv = tuple((ia, -ie) for ia, ie in m)
                    return {inv: 1 / (unit * c)}, {}
                atom = from_poly(norm)
                return p_const(1 / unit), {atom: 1}
    return num, dens


def _poly_over_vars(p):
    for m in p:
        for a, e in m:
            if a.kind != "var" or e.denominator != 1:
                return False
    return True


def is_rational_function(num, dens):
    """True when the fraction (num, dens) of combined_fraction is a
    rational function of the coordinates alone."""
    return _poly_over_vars(num) and \
        all(_poly_over_vars(_atom_poly(a)) for a in dens)


def recompose(num, dens):
    if not dens:
        return num
    inv = {ONE_M: _ONE}
    for a, k in dens.items():
        inv = p_mul(inv, {((a, -k),): _ONE})
    return p_mul(num, inv)


def sorted_terms(p):
    """The (monomial, coefficient) pairs of p in printing order."""
    return sorted(p.items(), key=lambda t: _mono_key(t[0]))


def from_poly(p):
    Rat, Prod, Pow, Sum = symexpr.Rat, symexpr.Prod, symexpr.Pow, symexpr.Sum
    if not p:
        return Rat(0)
    terms = []
    for m, c in sorted_terms(p):
        factors = []
        for a, e in m:
            factors.append(a if e == 1 else Pow(a, e))
        if not factors:
            terms.append(Rat(c))
        elif c == 1:
            terms.append(factors[0] if len(factors) == 1 else Prod(*factors))
        else:
            terms.append(Prod(Rat(c), *factors))
    return terms[0] if len(terms) == 1 else Sum(*terms)


def normal(p):
    """Canonical form of a polynomial: sum denominators recombined into
    one fraction and cancelled where the division is exact."""
    return recompose(*combined_fraction(p))


def canon_expr(e):
    """Full normalization: expand/collect, recombine fractions, cancel."""
    return from_poly(normal(to_poly(e)))
