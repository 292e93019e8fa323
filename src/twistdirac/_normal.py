"""Internal canonical-form engine: the coefficient representation.

Form coefficients, vector-field components and the minors of every
Hamiltonian solve are sparse sum-of-monomials polynomials over "atoms":
coordinates, function applications, and irreducible power bases (sums
raised to negative or fractional exponents, non-perfect rational radicals,
and even powers under a root, which keep their sign).  Expression trees
are converted once on the way in (``to_poly``) and rebuilt (``from_poly``)
only where a caller asks for a tree; the zero test compiles a polynomial's
terms for evaluation directly, in ``sorted_terms`` order.  Arithmetic
(``p_mul``, ``p_add_inplace``, ``p_pow``) and differentiation (``p_diff``)
act on polynomials directly.  ``p_mul`` is the one multiplication
kernel: given an accumulator it adds the signed product into it in
place, so a sum of products (a wedge, a contraction, a directional
derivative, a division step) builds no intermediate product.
The polynomial/Laurent subclass over coordinates gets an exact canonical
form (``normal``): sum denominators are recombined into a single fraction
and cancelled by exact multivariate division when the division is exact.
``combined_fraction`` clears the denominators group by group: monomials
that need the same powers of the denominators are multiplied by those
powers once.

A monomial packs the nonnegative integer exponents of the chart's
coordinates into one int (Monagan & Pearce 2007, packed exponent
vectors): one 32-bit field per coordinate, coordinate 0 in the most
significant one, and the total degree in a field above them all.
Multiplying such monomials is an int addition, the graded-lexicographic
order is int comparison, and hashing runs in C.  The total coordinate
degree is capped at ``_CAP`` (2^31 - 1), so no field reaches its top
bit: sums of fields never carry, and that bit is a guard that makes
exact division one subtraction.  A product, power or pack past the cap
raises ``SymExprError`` instead of carrying.  Every other factor lives
in a tail of (atom, exponent) pairs sorted by the atom's ``_key``:
function applications, power and radical atoms, and coordinates whose
exponent is negative or fractional, which sort after the other atoms.
A monomial is the packed int when its tail is empty and the pair (packed
int, tail) otherwise, so each monomial has one key; ``ONE_M`` (0) is the
constant monomial.  One reader (``_spell``) gives a monomial's coordinate
exponents by index wherever they sit (``_factors`` reads a packed int's
chart fields itself: a fast path below), and one writer (``_mono_of``) is
the only code that chooses the packed part or the tail.  Tail exponents
are nonzero ints or Fractions (an integral Fraction compares and hashes
equal to its int).  A packed int does not know its chart, so
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

Exact division (``try_divide``) and ``normalize_sum`` need the
graded-lexicographic order over every atom.  Packed ints compare in it
themselves; once a tail appears, one key function (``_vectorizer``)
spells a monomial out as its total degree, its other atoms' exponents
and its exponents of every coordinate field.

A fast path stays only where it is measured to pay.  Each line gives the
median ratio of CPU time without it to CPU time with it, over alternating
in-process pairs of bench/run.py rounds, and the pairs it won without it:

- ``to_poly``'s constant-and-coordinate product: brackets 1.031 (0/10)
- ``p_mul``'s products by ``_ONE``: brackets 1.059 (1/10)
- ``p_diff``'s loop over packed monomials: brackets 1.054 (1/10)
- ``p_pow``'s power of one packed monomial: scenarios 1.018 (2/10)
- ``_factors``' read of the chart's fields: oracle-sampled 1.034 (2/10)
- ``try_divide``'s packed leading-term test: hamiltonian 1.019 (2/10)

An atom keeps its own expansion: ``_atom_poly`` stores ``to_poly(atom)``
on the node the first time it is asked for, so the expansion lives as
long as the node does.  The module itself holds no state.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd, isqrt

# a cycle: symexpr imports this module first, and its node classes are
# looked up when a polynomial is built, after both modules are loaded
from . import symexpr

MAX_COORDS = 16         # coordinate fields in a packed monomial
_W = 32                 # field width in bits; the top bit is a guard
_DEG = 1 << (MAX_COORDS * _W)
_CAP = (1 << (_W - 1)) - 1                   # the largest total degree
_LIMIT = (_CAP + 1) * _DEG                   # every monomial is below
_GUARDS = sum(1 << (i * _W + _W - 1) for i in range(MAX_COORDS))
_FIELD = (1 << _W) - 1
_COORD = tuple(_DEG + (1 << ((MAX_COORDS - 1 - i) * _W))
               for i in range(MAX_COORDS))
# the coordinate fields of a packed int, _W = 32, below its degree field
_FIELDS = struct.Struct(f">4x{MAX_COORDS}I")
# the first n coordinate fields, read from the low n fields of an int
_PREFIX = tuple(struct.Struct(f">{n}I") for n in range(MAX_COORDS + 1))
_LOW = tuple((1 << (n * _W)) - 1 for n in range(MAX_COORDS + 1))

ONE_M = 0
_ONE = 1


def _too_high(deg):
    """The error for a monomial of total coordinate degree deg > _CAP."""
    return symexpr.SymExprError(
        f"coordinate degree {deg} exceeds the engine's limit {_CAP}")


def _fields(P):
    """The coordinate exponents of a packed monomial, by index."""
    return _FIELDS.unpack(P.to_bytes(_FIELDS.size, "big"))


def _pack(pairs):
    """The packed monomial of (index, exponent) pairs with distinct
    indices and exponents that are ints >= 0."""
    deg = sum(e for _, e in pairs)
    if deg > _CAP:
        raise _too_high(deg)
    return sum(e * _COORD[i] for i, e in pairs)


def _packed_mul(P1, P2):
    # two fields below 2^31 add without a carry, so the total degree
    # field holds the sum of the degrees
    m = P1 + P2
    if m >= _LIMIT:
        raise _too_high(m // _DEG)
    return m


def _packed_quo(M, D):
    """M / D for packed monomials, or None when D does not divide M."""
    # a guard bit survives the subtraction exactly where M's field is at
    # least D's
    if ((M | _GUARDS) - D) & _GUARDS != _GUARDS:
        return None
    return M - D


def _split(m):
    """(packed part, tail) of a monomial."""
    return (m, ()) if type(m) is int else m


def _mono(P, tail):
    return (P, tuple(tail)) if tail else P


def _spell(m):
    """A monomial read as (its MAX_COORDS coordinate exponents by index,
    packed and tail alike; the {index: atom} of its tail coordinates; its
    other (atom, exponent) pairs in key order).  m may also pair a packed
    int with a tail that repeats a coordinate of it: the exponents add."""
    if type(m) is int:
        return _fields(m), {}, ()
    P, tail = m
    j = len(tail)
    while j and tail[j - 1][0].kind == "var":
        j -= 1
    if j == len(tail):
        return _fields(P), {}, tail
    coords = list(_fields(P))
    xs = {}
    for a, e in tail[j:]:
        i = a.index
        xs[i] = a
        coords[i] += e
    return coords, xs, tail[:j]


def _mono_of(coords, xs, others):
    """The monomial of the parts _spell reads; xs needs the atoms only of
    the coordinates that go to the tail: those whose exponent is not a
    positive integer."""
    packed, tail = [], list(others)
    for i, e in enumerate(coords):
        if e:
            if e > 0 and e.denominator == 1:
                packed.append((i, int(e)))
            else:
                tail.append((xs[i], e))
    return _mono(_pack(packed), tail)


def _atom_term(a, e, c=_ONE):
    """The polynomial c * a^e of one atom that is not a coordinate."""
    return {(0, ((a, e),)): c}


def _factors(m, chart):
    """The (atom, exponent) pairs of a monomial, sorted by atom key;
    chart names its packed coordinates, whose fields are the only ones
    read."""
    P, tail = _split(m)
    if not P:
        return tail
    if chart is None:
        raise ValueError("a polynomial over coordinates needs its chart")
    xs = chart.vars()
    n = len(xs)
    # the chart's fields are the top n; shift the rest and the degree out
    coords = _PREFIX[n].unpack(
        (P >> (MAX_COORDS - n) * _W & _LOW[n]).to_bytes(4 * n, "big"))
    j = len(tail)
    while j and tail[j - 1][0].kind == "var":
        j -= 1
    if j < len(tail):
        coords = list(coords)
        for a, e in tail[j:]:
            coords[a.index] += e
    return tail[:j] + tuple([(x, e) for x, e in zip(xs, coords) if e])


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
    coords = None
    if merged and merged[-1][0].kind == "var":
        # the other factor may hold a tail coordinate in its packed part
        coords, xs, merged = _spell((P, merged))
    out = []
    for a, e in merged:
        kind = a.kind
        if e.denominator == 1 and (kind == "rat"
                                   or (kind == "sum" and e > 0)
                                   or _even_root(a)):
            folds.append((a, int(e)))
        else:
            out.append((a, e))
    m = _mono(P, out) if coords is None else _mono_of(coords, xs, out)
    base = {m: coeff if type(coeff) is int else _coeff(coeff)}
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


def p_mul(a, b, acc=None, scale=None):
    """The product a * b; with acc, acc += scale * a * b in place (scale
    1 when None, else nonzero) and acc returned, with no product built
    on the way.  acc must be neither a nor b."""
    out = {} if acc is None else acc
    if not a or not b:
        return out
    if not all(type(m) is int for m in b):
        if not all(type(m) is int for m in a):
            for m1, c1 in a.items():
                if scale is not None:
                    c1 = c1 * scale
                for m2, c2 in b.items():
                    p_add_inplace(out, term_mul(m1, c1, m2, c2))
            return out
        a, b = b, a
    # every monomial of b is packed: a product keeps the tail of a's
    # monomial unless that tail holds a coordinate
    get = out.get
    for m1, c1 in a.items():
        if scale is not None:
            c1 = c1 * scale
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
            if m >= _LIMIT:
                raise _too_high(m // _DEG)
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

    def vec(m):
        coords, _, rest = _spell(m)
        v = list(zero)
        for a, e in rest:
            v[pos[a]] = e
        return (sum(v) + sum(coords), *v, *coords)
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
    return {_mono_of(*_spell((ONE_M, ((a, ne),)))): _ONE}


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
            # a power of degree up to the cap has no carries; past it, the
            # total degree field is at least the degree
            power = m * e
            if power >= _LIMIT:
                raise _too_high(m // _DEG * e)
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
        if type(m) is int:
            k = (m >> shift) & _FIELD
            if k:
                m -= unit
                c = c if k == 1 else c * k
                # a tail can cancel into this key, as F(x)/F'(x) does
                old = out.get(m)
                if old is not None:
                    c = old + c
                    if not c:
                        del out[m]
                        continue
                out[m] = c if type(c) is int else _coeff(c)
            continue
        P, tail = m
        k = (P >> shift) & _FIELD
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
            if da is None:
                p_add_inplace(out, term)
            else:
                p_mul(term, da, out)
    return out


def _mono_quo(m, d):
    """m / d for monomials, or None when some exponent of d exceeds m's."""
    if type(m) is int and type(d) is int:
        return _packed_quo(m, d)
    mcoords, xs, rest = _spell(m)
    dcoords, dxs, drest = _spell(d)
    coords = [a - b for a, b in zip(mcoords, dcoords)]
    others = dict(rest)
    for a, e in drest:
        others[a] = others.get(a, 0) - e
    if any(e < 0 for e in coords) or any(e < 0 for e in others.values()):
        return None
    return _mono_of(coords, {**dxs, **xs},
                    sorted(((a, e) for a, e in others.items() if e),
                           key=lambda t: t[0]._key))


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
    if all(type(m) is int for m in num) and \
            all(type(m) is int for m in den):
        # packed ints compare in the order themselves, and a division
        # whose first step fails needs no set-up
        vec = None
        lead_den = max(den)
        if _packed_quo(max(num), lead_den) is None:
            return None
    else:
        if not (_pure_nonneg(num) and _pure_nonneg(den)):
            return None
        vec = _vectorizer(num, den)
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
            p_mul({qm: qc}, den_tail, work, -1)
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
    # group the monomials by the powers of the denominators they need,
    # and multiply each group by its powers once
    groups = {}
    for m, c in p.items():
        P, tail = _split(m)
        need = dict(dens)
        rest = []
        for a, e in tail:
            k = dens.get(a)
            if k is not None and e.denominator == 1:
                need[a] = int(e) + k   # >= 0: k is the largest -e of a
            else:
                rest.append((a, e))
        groups.setdefault(tuple(need.values()), {})[_mono(P, rest)] = c
    num = {}
    for ks, group in groups.items():
        factor = None
        for a, k in zip(dens, ks):
            if k:
                power = p_pow_int(_atom_poly(a), k)
                factor = power if factor is None else p_mul(factor, power)
        if factor is None:
            p_add_inplace(num, group)
        else:
            p_mul(group, factor, num)
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
                    coords, _, others = _spell(m)
                    inv = _mono_of([-e for e in coords],
                                   a.chart and a.chart.vars(),
                                   [(b, -e) for b, e in others])
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
