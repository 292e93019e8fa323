"""Cartan 3-forms on Lie algebras with exact rational arithmetic.

Structure constants C^k_{ij} (with [X_i, X_j] = sum_k C^k_{ij} X_k) and an
ad-invariant nondegenerate symmetric bilinear form g define the alternating
trilinear form T(X_i, X_j, X_k) = (1/2) sum_m C^m_{ij} g_{mk}.  The kernel
of v -> T(v, ., .) decides whether the associated admissible-function
algebra is trivial; for ad-invariant nondegenerate g it equals the center.

Everything here is decided exactly; no sampling oracle is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "LieAlgebraError", "LieAlgebraData", "CartanThreeForm", "cartan_3form",
    "triple_contraction", "contraction_kernel", "center", "so3", "abelian",
]


class LieAlgebraError(Exception):
    pass


def _as_fraction_table(dim, entries, what):
    table = []
    for row in entries:
        row = tuple(Fraction(x) for x in row)
        if len(row) != dim:
            raise LieAlgebraError(f"{what} row has length {len(row)}, "
                                  f"expected {dim}")
        table.append(row)
    if len(table) != dim:
        raise LieAlgebraError(f"{what} has {len(table)} rows, expected {dim}")
    return tuple(table)


@dataclass(frozen=True)
class LieAlgebraData:
    """Structure constants and bilinear form, validated on construction."""

    dim: int
    structure: tuple   # structure[i][j][k] = C^k_{ij}
    metric: tuple      # metric[i][j]

    def __init__(self, dim, structure, metric):
        structure = tuple(
            _as_fraction_table(dim, plane, f"structure[{i}]")
            for i, plane in enumerate(structure))
        if len(structure) != dim:
            raise LieAlgebraError("structure constant tensor has wrong size")
        metric = _as_fraction_table(dim, metric, "metric")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "metric", metric)
        self._validate()

    @classmethod
    def from_brackets(cls, dim, brackets, metric):
        """Build from sparse 1-based bracket data: entries (i, j, coeffs)
        meaning [X_i, X_j] = sum_k coeffs[k-1] X_k."""
        C = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, coeffs in brackets:
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise LieAlgebraError(f"bracket indices ({i},{j}) out of "
                                      f"range for dimension {dim}")
            for k, c in enumerate(coeffs):
                C[i - 1][j - 1][k] = Fraction(c)
                C[j - 1][i - 1][k] = -Fraction(c)
        return cls(dim, C, metric)

    def _validate(self):
        d = self.dim
        C = self.structure
        g = self.metric
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if C[i][j][k] != -C[j][i][k]:
                        raise LieAlgebraError(
                            f"structure constants not antisymmetric at "
                            f"({i + 1},{j + 1},{k + 1})")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        total = Fraction(0)
                        for m in range(d):
                            total += (C[i][j][m] * C[m][k][l]
                                      + C[j][k][m] * C[m][i][l]
                                      + C[k][i][m] * C[m][j][l])
                        if total:
                            raise LieAlgebraError(
                                f"Jacobi identity fails at indices "
                                f"({i + 1},{j + 1},{k + 1})")
        for i in range(d):
            for j in range(d):
                if g[i][j] != g[j][i]:
                    raise LieAlgebraError("bilinear form is not symmetric")
        if _det([list(row) for row in g]) == 0:
            raise LieAlgebraError("bilinear form is degenerate")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    total = Fraction(0)
                    for m in range(d):
                        total += C[i][j][m] * g[m][k] + C[i][k][m] * g[j][m]
                    if total:
                        raise LieAlgebraError(
                            f"bilinear form is not ad-invariant at "
                            f"({i + 1},{j + 1},{k + 1})")


def _det(M):
    n = len(M)
    M = [row[:] for row in M]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if M[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                factor = M[r][col] * inv
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
    return det


def _rref_nullspace(rows, n):
    """Exact nullspace basis of the linear map given by rows (each of
    length n); basis vectors are deterministic and normalized."""
    M = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = None
        for rr in range(r, len(M)):
            if M[rr][col]:
                pivot = rr
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][col]
        M[r] = [x * inv for x in M[r]]
        for rr in range(len(M)):
            if rr != r and M[rr][col]:
                factor = M[rr][col]
                M[rr] = [a - factor * b for a, b in zip(M[rr], M[r])]
        pivots.append(col)
        r += 1
        if r == len(M):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -M[ri][fc]
        basis.append(tuple(vec))
    return basis


class CartanThreeForm:
    """Alternating trilinear tensor with exact rational components."""

    def __init__(self, algebra, components):
        self.algebra = algebra
        self.components = components  # components[i][j][k]

    def value(self, i, j, k):
        """Component on basis vectors, 1-based indices."""
        d = self.algebra.dim
        for idx in (i, j, k):
            if not 1 <= idx <= d:
                raise LieAlgebraError(f"index {idx} out of range 1..{d}")
        return self.components[i - 1][j - 1][k - 1]

    def table(self):
        """All strictly increasing index triples with their values."""
        d = self.algebra.dim
        return [((i + 1, j + 1, k + 1), self.components[i][j][k])
                for i in range(d) for j in range(i + 1, d)
                for k in range(j + 1, d)]


def cartan_3form(L):
    """T(X_i, X_j, X_k) = (1/2) sum_m C^m_{ij} g_{mk}, verified
    alternating in all three slots."""
    d = L.dim
    half = Fraction(1, 2)
    comp = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                total = Fraction(0)
                for m in range(d):
                    total += L.structure[i][j][m] * L.metric[m][k]
                comp[i][j][k] = half * total
    for i in range(d):
        for j in range(d):
            for k in range(d):
                v = comp[i][j][k]
                if comp[j][i][k] != -v or comp[i][k][j] != -v \
                        or comp[k][j][i] != -v:
                    raise LieAlgebraError(
                        f"tensor is not alternating at "
                        f"({i + 1},{j + 1},{k + 1})")
    return CartanThreeForm(L, comp)


def triple_contraction(L, l, m, n):
    """i_{X_l} i_{X_m} i_{X_n} of the Cartan 3-form, innermost first:
    equals T(X_n, X_m, X_l).  Indices are 1-based."""
    T = cartan_3form(L)
    return T.value(n, m, l)


def contraction_kernel(L):
    """Exact basis of {v : T(v, ., .) = 0} for the Cartan 3-form."""
    T = cartan_3form(L)
    d = L.dim
    rows = []
    for j in range(d):
        for k in range(j + 1, d):
            rows.append([T.components[i][j][k] for i in range(d)])
    return _rref_nullspace(rows, d)


def center(L):
    """Exact basis of {v : [v, X_i] = 0 for all i}."""
    d = L.dim
    rows = []
    for j in range(d):
        for k in range(d):
            rows.append([L.structure[i][j][k] for i in range(d)])
    return _rref_nullspace(rows, d)


def so3():
    """so(3) in the orthonormal epsilon basis: [X_i, X_j] = eps_ijk X_k."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    C = [[[Fraction(eps.get((i, j, k), 0)) for k in range(3)]
          for j in range(3)] for i in range(3)]
    g = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    return LieAlgebraData(3, C, g)


def abelian(dim):
    """Abelian algebra of a given dimension with the identity form."""
    C = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    g = [[Fraction(1 if i == j else 0) for j in range(dim)]
         for i in range(dim)]
    return LieAlgebraData(dim, C, g)
