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

A monomial packs the nonnegative integer exponents of the chart's
coordinates into one int (Monagan & Pearce 2007, packed exponent
vectors): one field per coordinate, coordinate 0 in the most significant
one, and the total degree in a field above them all.  Multiplying such
monomials is an int addition, the graded-lexicographic order is int
comparison, and hashing runs in C.  A monomial of total degree up to
``_NARROW_CAP`` uses narrow fields; a larger one uses the wide layout,
which sits above every narrow int, so the order still holds, and a
field overflow is detected instead of carried.  Every other factor lives
in a tail of (atom, exponent) pairs sorted by the atom's ``_key``:
function applications, power and radical atoms, and coordinates whose
exponent is negative or fractional.  A monomial is the packed int when
its tail is empty and the pair (packed int, tail) otherwise, so each
monomial has one key; ``ONE_M`` (0) is the constant monomial.  Tail
exponents are nonzero ints or Fractions (an integral Fraction compares and
hashes equal to its int).  A packed int does not know its chart, so
``from_poly``, ``sorted_terms`` and ``p_pow`` take the chart from the
caller.  A polynomial is a dict mapping monomials to nonzero rational
coefficients; polynomials are shared, so no operation mutates an
argument.

A coefficient is an int when its value is integral and a Fraction only
when it is a proper fraction, so most of the engine's arithmetic is int
arithmetic, which runs in C.  Every operation that stores a coefficient
keeps this rule (``_coeff``), and every coefficient division goes through
one exact helper (``_div``), so int / int never gives a float.  A
polynomial built elsewhere may still hold integral Fractions: they have
the same values and hashes, so results are the same.

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

MAX_COORDS = 16         # coordinate fields in a packed monomial
_W = 12                 # narrow field width in bits; the top bit is a guard
_DEG = 1 << (MAX_COORDS * _W)
_NARROW_CAP = (1 << (_W - 1)) - 1
_NARROW_LIMIT = (_NARROW_CAP + 1) * _DEG     # every narrow monomial is below
_GUARDS = sum(1 << (i * _W + _W - 1) for i in range(MAX_COORDS))
_FIELD = (1 << _W) - 1
_COORD = tuple(_DEG + (1 << ((MAX_COORDS - 1 - i) * _W))
               for i in range(MAX_COORDS))
_WW = 64                # wide field width in bits
_WIDE_DEG = 1 << (MAX_COORDS * _WW)
_WIDE_CAP = (1 << (_WW - 1)) - 1
_WIDE = 1 << ((MAX_COORDS + 1) * _WW)        # marks the wide layout

ONE_M = 0
_ONE = 1


def _exponents(P):
    """The (index, exponent) pairs of a packed monomial, by index."""
    if P >= _WIDE:
        P, w, deg = P - _WIDE, _WW, _WIDE_DEG
    else:
        w, deg = _W, _DEG
    rest = P % deg
    out = []
    shift = (MAX_COORDS - 1) * w
    i = 0
    while rest:
        e = rest >> shift
        if e:
            out.append((i, e))
            rest -= e << shift
        i += 1
        shift -= w
    return out


def _pack(pairs):
    """The packed monomial of (index, exponent) pairs with distinct
    indices and exponents that are ints >= 0."""
    deg = sum(e for _, e in pairs)
    if deg <= _NARROW_CAP:
        return sum(e * _COORD[i] for i, e in pairs)
    if deg > _WIDE_CAP:
        raise symexpr.SymExprError(
            f"coordinate degree {deg} exceeds the engine's limit {_WIDE_CAP}")
    m = _WIDE + deg * _WIDE_DEG
    for i, e in pairs:
        m += e << ((MAX_COORDS - 1 - i) * _WW)
    return m


def _degree(P):
    return (P - _WIDE) // _WIDE_DEG if P >= _WIDE else P // _DEG


def _exponent_of(P, i):
    if P >= _WIDE:
        return ((P - _WIDE) >> ((MAX_COORDS - 1 - i) * _WW)) % (1 << _WW)
    return (P >> ((MAX_COORDS - 1 - i) * _W)) & _FIELD


def _packed_mul(P1, P2):
    m = P1 + P2
    if m < _NARROW_LIMIT:
        return m
    exps = dict(_exponents(P1))
    for i, e in _exponents(P2):
        exps[i] = exps.get(i, 0) + e
    return _pack(list(exps.items()))


def _packed_quo(M, D):
    """M / D for packed monomials, or None when D does not divide M."""
    if M < _NARROW_LIMIT and D < _NARROW_LIMIT:
        # a guard bit survives the subtraction exactly where M's field is
        # at least D's
        if ((M | _GUARDS) - D) & _GUARDS != _GUARDS:
            return None
        return M - D
    exps = dict(_exponents(M))
    for i, e in _exponents(D):
        k = exps.get(i, 0) - e
        if k < 0:
            return None
        exps[i] = k
    return _pack([(i, e) for i, e in exps.items() if e])


def _split(m):
    """(packed part, tail) of a monomial."""
    return (m, ()) if type(m) is int else m


def _mono(P, tail):
    return (P, tuple(tail)) if tail else P


def _mono_of(pairs):
    """The monomial of (atom, exponent) pairs with distinct atoms, sorted
    by atom key."""
    packed, tail = [], []
    for a, e in pairs:
        if a.kind == "var" and e > 0 and e.denominator == 1:
            packed.append((a.index, int(e)))
        else:
            tail.append((a, e))
    return _mono(_pack(packed), tail)


def _atom_term(a, e, c=_ONE):
    """The polynomial c * a^e of one atom that is not a coordinate."""
    return {(0, ((a, e),)): c}


def _factors(m, chart):
    """The (atom, exponent) pairs of a monomial, sorted by atom key."""
    P, tail = _split(m)
    if not P:
        return tail
    if chart is None:
        raise ValueError("a polynomial over coordinates needs its chart")
    xs = chart.vars()
    packed = tuple((xs[i], e) for i, e in _exponents(P))
    j = 0
    while j < len(tail) and tail[j][0].kind != "var":
        j += 1
    if j == len(tail):
        return tail + packed
    return tail[:j] + tuple(sorted(tail[j:] + packed,
                                   key=lambda t: t[0].index))


def tail_atoms(p):
    """The atoms of p's monomials outside their packed parts, repeated
    as often as they occur."""
    return [a for m in p if type(m) is not int for a, _ in m[1]]


def has_packed(p):
    """True when some monomial of p has a coordinate in its packed part."""
    return any(m if type(m) is int else m[0] for m in p)


def _coeff(c):
    """A rational coefficient in its one type: the int when c is
    integral, c itself (a Fraction) otherwise.  The loops that store
    coefficients test ``type(c) is int`` first, which is the common case,
    and call this only for the rest."""
    return c.numerator if type(c) is not int and c.denominator == 1 else c


def _div(a, b):
    """The exact quotient a / b of coefficients, b nonzero: every
    coefficient division goes through here, so int / int never gives a
    float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(a / b)


def _cpow(c, n):
    """c**n for a coefficient c and an int n (c nonzero when n < 0)."""
    return _coeff(c ** n) if n >= 0 else _div(1, c ** -n)


def p_const(c):
    """The constant polynomial of an int or Fraction c."""
    c = _coeff(c)
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
        acc[m] = c if type(c) is int else _coeff(c)
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
    """c**e for a rational c and a Fraction e, as a polynomial: a constant
    when exact, otherwise the atom c^e (0**negative is kept, singular at
    eval)."""
    if c and e.denominator == 1:
        return p_const(_cpow(c, int(e)))
    if c == 0:
        return {} if e > 0 else _atom_term(symexpr.Rat(c), e)
    if c > 0:
        rn = iroot(c.numerator, e.denominator)
        rd = iroot(c.denominator, e.denominator)
        if rn is not None and rd is not None:
            return p_const(Fraction(rn, rd) ** e.numerator)
    return _atom_term(symexpr.Rat(c), e)


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
    power of a sum atom, or an integer power of a rational atom or of an
    even power under a root, are folded back into polynomial form.
    """
    coeff = c1 * c2
    if not coeff:
        return {}
    P1, t1 = _split(m1)
    P2, t2 = _split(m2)
    P = _packed_mul(P1, P2)
    i, j = 0, 0
    merged = []
    folds = []
    k1, k2 = len(t1), len(t2)
    while i < k1 and j < k2:
        a1, e1 = t1[i]
        a2, e2 = t2[j]
        if a1 is a2 or a1 == a2:
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
    merged.extend(t1[i:])
    merged.extend(t2[j:])
    out = []
    for a, e in merged:
        kind = a.kind
        if kind == "var":
            # the other factor may hold this coordinate in its packed part
            k = _exponent_of(P, a.index)
            if k:
                P = _packed_quo(P, _pack([(a.index, k)]))
                e = e + k
            if e > 0 and e.denominator == 1:
                P = _packed_mul(P, _pack([(a.index, int(e))]))
            elif e:
                out.append((a, e))
        elif e.denominator == 1 and (kind == "rat"
                                     or (kind == "sum" and e > 0)
                                     or _even_root(a)):
            folds.append((a, int(e)))
        else:
            out.append((a, e))
    base = {_mono(P, out): coeff if type(coeff) is int else _coeff(coeff)}
    for a, n in folds:
        if a.kind == "rat":
            base = p_mul(base, rational_pow(a.value, n))
        else:
            base = p_mul(base, p_pow(_atom_poly(a), n, a.chart))
    return base


def _even_root(a):
    """True for the opaque base b^k of an even power under a root (see
    _atom_pow), which folds into the polynomial at an integer exponent.
    The other power atom, the symbolic 0^negative, must not fold: its
    expansion is itself, so the fold would recurse."""
    return a.kind == "pow" and a.base.kind != "rat"


def p_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    if not all(type(m) is int for m in b):
        if not all(type(m) is int for m in a):
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    p_add_inplace(out, term_mul(m1, c1, m2, c2))
            return out
        a, b = b, a
    # every monomial of b is packed: a product keeps the tail of a's
    # monomial unless that tail holds a coordinate
    get = out.get
    for m1, c1 in a.items():
        if type(m1) is int:
            P1, t1 = m1, ()
        else:
            P1, t1 = m1
            if t1[-1][0].kind == "var":
                for m2, c2 in b.items():
                    p_add_inplace(out, term_mul(m1, c1, m2, c2))
                continue
        for m2, c2 in b.items():
            m = P1 + m2
            if m >= _NARROW_LIMIT:
                m = _packed_mul(P1, m2)
            if t1:
                m = (m, t1)
            c = c2 if c1 is _ONE else c1 if c2 is _ONE else c1 * c2
            old = get(m)
            if old is not None:
                c = old + c
                if not c:
                    del out[m]
                    continue
            out[m] = c if type(c) is int else _coeff(c)
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


def _vectorizer(*polys):
    """Graded-lexicographic monomial order over the atoms of the given
    polynomials (a genuine monomial order: total, multiplicative): a key
    function, or None when every monomial is packed, since packed ints
    compare in that order themselves."""
    tails = {a for p in polys for a in tail_atoms(p)}
    if not tails:
        return None
    others = sorted((a for a in tails if a.kind != "var"),
                    key=lambda a: a._key)
    pos = {a: i for i, a in enumerate(others)}
    zero = (0,) * len(others)
    if len(others) == len(tails):
        # the packed parts of monomials equal so far have equal degrees,
        # so they compare lexicographically as ints
        def vec(m):
            P, tail = _split(m)
            v = list(zero)
            for a, e in tail:
                v[pos[a]] = e
            return (sum(v) + _degree(P), *v, P)
        return vec

    def vec(m):
        P, tail = _split(m)
        v = list(zero)
        xs = [0] * MAX_COORDS
        for i, e in _exponents(P):
            xs[i] = e
        for a, e in tail:
            if a.kind == "var":
                xs[a.index] = e
            else:
                v[pos[a]] = e
        return (sum(v) + sum(xs), *v, *xs)
    return vec


def normalize_sum(p):
    """Split p into (unit, normalized) with p == unit * normalized, where
    normalized has coefficient content 1 and positive leading coefficient."""
    if not p:
        return 1, p
    lead = max(p, key=_vectorizer(p))
    sign = 1 if p[lead] > 0 else -1
    num_gcd = 0
    den_lcm = 1
    for c in p.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    unit = _div(sign * num_gcd, den_lcm)
    if unit == 1:
        return 1, p
    return unit, {m: _div(c, unit) for m, c in p.items()}


def _atom_pow(a, k, e):
    """(a^k)^e for an atom a, folded into a^(k*e) unless k is even and
    k*e is not: a^k is nonnegative where a^(k*e) may be negative, as in
    (x^2)^(1/2) = |x|, so a^k stays an opaque power atom (a positive
    constant base is safe).  Such an atom raised back to an integer
    exponent folds into the polynomial."""
    ne = k * e
    if k % 2 == 0 and ne % 2 != 0 and not (a.kind == "rat" and a.value > 0):
        return _atom_term(symexpr.Pow(a, k), e)
    if ne.denominator == 1 and (a.kind in ("sum", "rat") or _even_root(a)):
        return p_pow(_atom_poly(a), ne, a.chart)
    return {_mono_of([(a, ne)]): _ONE}


def p_pow(p, e, chart):
    """p**e with full expansion for positive integer exponents and atom
    formation otherwise; chart is the chart of p's coordinates."""
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
        return _atom_term(Pow(Rat(0), e), 1)
    if len(p) == 1:
        (m, c), = p.items()
        if type(m) is int and e.denominator == 1 and e > 0:
            # a narrow product of degree below the cap has no carries
            power = m * e
            if power >= _NARROW_LIMIT:
                power = _pack([(i, k * e) for i, k in _exponents(m)])
            return {power: _coeff(c ** e)}
        out = rational_pow(c, e)
        for a, ae in _factors(m, chart):
            out = p_mul(out, _atom_pow(a, ae, e))
        return out
    if e.denominator == 1 and e > 0:
        return p_pow_int(p, e)
    # negative or fractional power of a sum: clear any internal fractions
    # first so atom bases are always polynomial numerators (keeps repeated
    # normalization confluent), then form the atom
    num, dmap = combined_fraction(p)
    if dmap:
        out = p_pow(num, e, chart)
        for a, k in dmap.items():
            out = p_mul(out, _atom_pow(a, -k, e))
        return out
    if e.denominator == 1:
        # coordinates with negative exponents leave the base too:
        # 1/x + 1 = (1 + x)/x, so 1/(1/x + 1) and x/(x + 1) share the atom
        # (1 + x)^-1 (a fractional power keeps its base: the sign of
        # 1/x + 1 is not that of 1 + x)
        lows = {}
        for m in p:
            if type(m) is not int:
                for a, ae in m[1]:
                    if a.kind == "var" and ae < 0 and ae.denominator == 1 \
                            and -ae > lows.get(a.index, 0):
                        lows[a.index] = -int(ae)
        if lows:
            p = p_mul(p, {_pack(list(lows.items())): _ONE})
        unit, norm = normalize_sum(p)
        out = _atom_term(from_poly(norm, chart), e, _cpow(unit, e))
        if lows:
            out = p_mul(out, {_pack([(i, -k * e) for i, k in lows.items()]):
                              _ONE})
        return out
    # fractional power: opaque atom, base kept as written
    atom = from_poly(p, chart)
    return _atom_term(atom, e)


def to_poly(e):
    kind = e.kind
    if kind == "rat":
        return p_const(e.value)
    if kind == "var":
        return {_COORD[e.index]: _ONE}
    if kind == "sum":
        out = {}
        for a in e.args:
            p_add_inplace(out, to_poly(a))
        return out
    if kind == "prod":
        # a monomial: multiply the constants, count the coordinates
        c, m = _ONE, 0
        for a in e.args:
            if a.kind == "var":
                m += _COORD[a.index]
            elif a.kind == "rat":
                c = a.value if c is _ONE else c * a.value
            else:
                break
        else:
            if m < _NARROW_LIMIT:
                return {m: _coeff(c)} if c else {}
        out = p_const(1)
        for a in e.args:
            out = p_mul(out, to_poly(a))
            if not out:
                return out
        return out
    if kind == "pow":
        return p_pow(to_poly(e.base), e.exp, e.chart)
    if kind == "func":
        arg = canon_expr(e.arg)
        atom = symexpr.Func(e.name, e.order, arg)
        return _atom_term(atom, 1)
    raise TypeError(f"unknown node kind {kind!r}")


def p_diff(p, v):
    """Partial derivative of p by the coordinate v, with the chain rule on
    function, sum and power atoms."""
    out = {}
    vi = v.index
    unit = _COORD[vi]
    shift = (MAX_COORDS - 1 - vi) * _W
    for m, c in p.items():
        if type(m) is int and m < _NARROW_LIMIT:
            k = (m >> shift) & _FIELD
            if k:
                m -= unit
                c = c if k == 1 else c * k
                old = out.get(m)
                if old is not None:
                    c = old + c
                    if not c:
                        del out[m]
                        continue
                out[m] = c if type(c) is int else _coeff(c)
            continue
        P, tail = _split(m)
        k = _exponent_of(P, vi)
        if k:
            p_add_inplace(out, {_mono(_packed_quo(P, unit), tail):
                                c if k == 1 else c * k})
        for i, (a, e) in enumerate(tail):
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
                da = p_mul(_atom_term(symexpr.Func(a.name, a.order + 1,
                                                   a.arg), 1), darg)
            else:
                da = p_diff(_atom_poly(a), v)
                if not da:
                    continue
            # a coordinate in the tail has a negative or fractional
            # exponent, so lowering it keeps it there
            ne = e - 1
            rest = tail[:i] + ((a, ne),) + tail[i + 1:] if ne \
                else tail[:i] + tail[i + 1:]
            term = {_mono(P, rest): c * e}
            p_add_inplace(out, term if da is None else p_mul(term, da))
    return out


def _mono_quo(m, d):
    """m / d for monomials, or None when some exponent of d exceeds m's."""
    if type(m) is int and type(d) is int:
        return _packed_quo(m, d)
    coords, xs, others = {}, {}, {}
    for mono, sign in ((m, 1), (d, -1)):
        P, tail = _split(mono)
        for i, e in _exponents(P):
            coords[i] = coords.get(i, 0) + sign * e
        for a, e in tail:
            if a.kind == "var":
                xs[a.index] = a
                coords[a.index] = coords.get(a.index, 0) + sign * e
            else:
                others[a] = others.get(a, 0) + sign * e
    if any(e < 0 for e in coords.values()) or \
            any(e < 0 for e in others.values()):
        return None
    # nonnegative now: integral coordinate exponents are packed
    tail = sorted(((a, e) for a, e in others.items() if e),
                  key=lambda t: t[0]._key)
    tail += [(xs[i], e) for i, e in sorted(coords.items())
             if e.denominator != 1]
    return _mono(_pack([(i, int(e)) for i, e in coords.items()
                        if e and e.denominator == 1]), tail)


def _pure_nonneg(p):
    for m in p:
        if type(m) is not int:
            for _, e in m[1]:
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
    vec = raw_vec = _vectorizer(num, den)
    if raw_vec is not None:
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
        qm = _mono_quo(lt, lead_den)
        if qm is None:
            return None
        qc = _div(work[lt], c_den)
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
        if type(m) is int:
            continue
        for a, e in m[1]:
            if a.kind == "sum" and e < 0 and e.denominator == 1:
                k = -int(e)
                if k > dens.get(a, 0):
                    dens[a] = k
    if not dens:
        return p, {}
    num = {}
    for m, c in p.items():
        P, tail = _split(m)
        term = {ONE_M: c}
        rest = []
        seen = set()
        for a, e in tail:
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
        if P or rest:
            term = p_mul(term, {_mono(P, rest): _ONE})
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
                    inv = _mono_of([(ia, -ie)
                                    for ia, ie in _factors(m, a.chart)])
                    return {inv: _div(1, unit * c)}, {}
                atom = from_poly(norm, a.chart)
                return p_const(_div(1, unit)), {atom: 1}
    return num, dens


def _poly_over_vars(p):
    for m in p:
        if type(m) is not int:
            for a, e in m[1]:
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
        inv = p_mul(inv, _atom_term(a, -k))
    return p_mul(num, inv)


def sorted_terms(p, chart):
    """The (factors, coefficient) pairs of p in printing order, where
    factors are the monomial's (atom, exponent) pairs sorted by atom key;
    chart is the chart of p's coordinates."""
    terms = [(_factors(m, chart), c) for m, c in p.items()]
    terms.sort(key=lambda t: tuple((a._key, e) for a, e in t[0]))
    return terms


def from_poly(p, chart):
    Rat, Prod, Pow, Sum = symexpr.Rat, symexpr.Prod, symexpr.Pow, symexpr.Sum
    if not p:
        return Rat(0)
    terms = []
    for m, c in sorted_terms(p, chart):
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
    return from_poly(normal(to_poly(e)), e.chart)
