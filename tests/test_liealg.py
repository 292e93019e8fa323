"""Cartan 3-forms, contractions, and kernels over exact rationals."""

from fractions import Fraction
from itertools import permutations

import pytest

from twistdirac.liealg import (LieAlgebraData, LieAlgebraError, abelian,
                               cartan_3form, center, contraction_kernel,
                               so3, triple_contraction)


def so3_plus_abelian(extra):
    dim = 3 + extra
    C = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    for (i, j, k), v in eps.items():
        C[i][j][k] = Fraction(v)
    g = [[Fraction(1 if i == j else 0) for j in range(dim)]
         for i in range(dim)]
    return LieAlgebraData(dim, C, g)


def so_n(n):
    """so(n) on E_ab (a < b) with the identity form: [E_ab, E_cd] =
    d_bc E_ad - d_ac E_bd - d_bd E_ac + d_ad E_bc, E_ba = -E_ab."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    dim = len(pairs)

    def basis(a, b):
        vec = [0] * dim
        if a != b:
            vec[pairs.index((min(a, b), max(a, b)))] = 1 if a < b else -1
        return vec

    brackets = []
    for x, (a, b) in enumerate(pairs):
        for y, (c, d) in enumerate(pairs):
            terms = [(b == c, 1, a, d), (a == c, -1, b, d),
                     (b == d, -1, a, c), (a == d, 1, b, c)]
            coeffs = [0] * dim
            for hit, sign, p, q in terms:
                if hit:
                    coeffs = [u + sign * v
                              for u, v in zip(coeffs, basis(p, q))]
            brackets.append((x + 1, y + 1, coeffs))
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return LieAlgebraData.from_brackets(dim, brackets, identity)


class TestConstruction:
    def test_so3_is_accepted(self):
        assert so3().dim == 3

    def test_from_brackets(self):
        L = LieAlgebraData.from_brackets(
            3, [(1, 2, [0, 0, 1]), (2, 3, [1, 0, 0]), (3, 1, [0, 1, 0])],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert L.structure == so3().structure

    def test_antisymmetry_enforced(self):
        C = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        C[0][1][0] = Fraction(1)  # [X1,X2] = X1 but [X2,X1] not set
        with pytest.raises(LieAlgebraError, match="antisymmetric"):
            LieAlgebraData(2, C, [[1, 0], [0, 1]])

    def test_jacobi_enforced(self):
        with pytest.raises(LieAlgebraError, match="Jacobi"):
            LieAlgebraData.from_brackets(
                3,
                [(1, 2, [0, 0, 1]), (2, 3, [1, 0, 0]), (3, 1, [0, 1, 0]),
                 (1, 3, [1, 0, 0])],
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_heisenberg_identity_metric_fails_ad_invariance(self):
        with pytest.raises(LieAlgebraError, match="ad-invariant"):
            LieAlgebraData.from_brackets(
                3, [(1, 2, [0, 0, 1])],
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_heisenberg_compatible_metric_is_degenerate(self):
        # ad-invariance forces the X3 row of the form to vanish, so any
        # ad-invariant candidate is degenerate
        with pytest.raises(LieAlgebraError, match="degenerate"):
            LieAlgebraData.from_brackets(
                3, [(1, 2, [0, 0, 1])],
                [[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_asymmetric_metric_rejected(self):
        with pytest.raises(LieAlgebraError, match="symmetric"):
            LieAlgebraData.from_brackets(
                2, [], [[1, 1], [0, 1]])

    @pytest.mark.parametrize("dim, brackets, message", [
        (3, [(1, 2, [0, 0, 1]), (1, 3, [1, 0, 0])],
         "Jacobi identity fails at indices (1,2,3)"),
        (4, [(1, 2, [0, 0, 1, 0]), (2, 3, [0, 0, 0, 1]),
             (3, 4, [1, 0, 0, 0])],
         "Jacobi identity fails at indices (1,2,4)"),
        (3, [(1, 2, [0, 0, 1])],
         "bilinear form is not ad-invariant at (1,2,3)"),
    ], ids=["jacobi-123", "jacobi-chain-124", "heisenberg-ad-invariance"])
    def test_first_failing_triple_is_named(self, dim, brackets, message):
        metric = [[int(i == j) for j in range(dim)] for i in range(dim)]
        with pytest.raises(LieAlgebraError) as info:
            LieAlgebraData.from_brackets(dim, brackets, metric)
        assert str(info.value) == message

    @pytest.mark.parametrize("make", [
        lambda: abelian(17),
        lambda: LieAlgebraData(17, [], []),
        lambda: LieAlgebraData.from_brackets(17, [], [])],
        ids=["abelian", "constructor", "from-brackets"])
    def test_dimension_over_the_bound_is_rejected(self, make):
        # raised before any tensor of the given size is read or built
        with pytest.raises(LieAlgebraError, match="exceeds limit 16"):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: LieAlgebraData(2, [], [[1, 0], [0, 1]]),
         "structure constant tensor has wrong size"),
        (lambda: LieAlgebraData.from_brackets(2, [], [[1], [0, 1]]),
         "metric row has length 1, expected 2"),
        (lambda: LieAlgebraData.from_brackets(2, [], [[1, 0]]),
         "metric has 1 rows, expected 2"),
        (lambda: LieAlgebraData.from_brackets(2, [(1, 3, [0, 0])],
                                              [[1, 0], [0, 1]]),
         "bracket indices (1,3) out of range for dimension 2")],
        ids=["structure-planes", "metric-row-length", "metric-rows",
             "bracket-index"])
    def test_tables_of_the_wrong_shape_are_rejected(self, make, message):
        with pytest.raises(LieAlgebraError) as info:
            make()
        assert str(info.value) == message

    def test_scaled_metric_accepted(self):
        g = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        L = LieAlgebraData(3, so3().structure, g)
        assert cartan_3form(L).value(1, 2, 3) == 1


class TestCartanForm:
    def test_abelian_is_zero(self):
        T = cartan_3form(abelian(5))
        assert all(v == 0 for _, v in T.table())

    @pytest.mark.parametrize("make", [
        so3, lambda: LieAlgebraData(3, so3().structure,
                                    [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
        lambda: so3_plus_abelian(2), lambda: so_n(4)],
        ids=["so3", "so3-metric-2I", "so3-plus-abelian-2", "so4"])
    def test_components_match_the_definition(self, make):
        L = make()
        T = cartan_3form(L)
        d = L.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    total = sum(L.structure[i][j][m] * L.metric[m][k]
                                for m in range(d))
                    assert T.components[i][j][k] == total / 2

    def test_so3_normalization(self):
        T = cartan_3form(so3())
        assert T.value(1, 2, 3) == Fraction(1, 2)

    def test_alternating_under_all_permutations(self):
        T = cartan_3form(so3())
        base = T.value(1, 2, 3)
        signs = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                 (2, 1, 3): -1, (1, 3, 2): -1, (3, 2, 1): -1}
        for perm, sign in signs.items():
            assert T.value(*perm) == sign * base

    def test_repeated_index_vanishes(self):
        T = cartan_3form(so3())
        assert T.value(1, 1, 3) == 0

    def test_block_algebra_table(self):
        T = cartan_3form(so3_plus_abelian(2))
        assert T.value(1, 2, 3) == Fraction(1, 2)
        assert T.value(1, 2, 4) == 0


class TestTripleContraction:
    def test_abelian_all_zero(self):
        L = abelian(3)
        for l, m, n in permutations((1, 2, 3)):
            assert triple_contraction(L, l, m, n) == 0

    def test_so3_innermost_first(self):
        # i_1 i_2 i_3 applies i_3 first: T(X3, X2, X1) = -T(X1, X2, X3)
        assert triple_contraction(so3(), 1, 2, 3) == -Fraction(1, 2)

    def test_transposition_flips_sign(self):
        L = so3()
        assert triple_contraction(L, 2, 1, 3) == \
            -triple_contraction(L, 1, 2, 3)

    def test_repeated_index(self):
        assert triple_contraction(so3(), 1, 1, 3) == 0

    def test_out_of_range(self):
        with pytest.raises(LieAlgebraError):
            triple_contraction(so3(), 0, 1, 2)


class TestKernel:
    def test_abelian_kernel_is_everything(self):
        basis = contraction_kernel(abelian(4))
        assert len(basis) == 4

    def test_so3_kernel_trivial(self):
        assert contraction_kernel(so3()) == []

    def test_kernel_equals_center(self):
        for L in (so3(), abelian(4), so3_plus_abelian(2),
                  so3_plus_abelian(3)):
            assert contraction_kernel(L) == center(L)

    def test_block_kernel_is_abelian_part(self):
        basis = contraction_kernel(so3_plus_abelian(2))
        assert len(basis) == 2
        for vec in basis:
            assert vec[0] == vec[1] == vec[2] == 0

    def test_abelian_16_is_its_own_kernel(self):
        L = abelian(16)
        assert len(contraction_kernel(L)) == 16
        assert all(v == 0 for _, v in cartan_3form(L).table())

    def test_so4_kernel_is_trivial(self):
        assert contraction_kernel(so_n(4)) == center(so_n(4)) == []

    def test_center_of_so3_trivial(self):
        assert center(so3()) == []
