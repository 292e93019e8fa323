"""Pairings, the bracket family, and the Courant tensor."""

import pytest

from twistdirac.symexpr import Rat, is_zero, simplify
from twistdirac.exterior import (KForm, VectorField, ext_d, form_is_zero,
                                 interior, lie_derivative, vf_apply,
                                 vf_bracket, vf_is_zero)
from twistdirac.courant import (GenSection, LevelError, courant_bracket,
                                courant_tensor, derived_bracket,
                                derived_bracket_skew, dorfman_bracket,
                                pairing, twisted_courant_bracket)
from twistdirac.randgen import (rand_kform, rand_poly, rand_section,
                                rand_vector_field, rng_for)

from helpers import admissible_pair, standard_omega


def section_pair(seed, phase):
    rng = rng_for(seed, "sections")
    return rand_section(rng, phase), rand_section(rng, phase)


class TestPairing:
    def test_vanishes_without_forms(self, phase):
        X = rand_vector_field(rng_for(1, "p"), phase)
        A = GenSection(X, KForm.zero(phase, 1))
        assert simplify(pairing(A, A)) == Rat(0)

    def test_unit_pairing(self, phase):
        A = GenSection(VectorField.basis(phase, "q1"),
                       KForm.covector(phase, "q1"))
        assert simplify(pairing(A, A)) == Rat(1)

    def test_graph_sections_are_isotropic(self, phase, cfg):
        h = rand_kform(rng_for(3, "iso"), phase, 2)
        for i in range(5):
            rng = rng_for(100 + i, "isofields")
            X = rand_vector_field(rng, phase)
            Y = rand_vector_field(rng, phase)
            A = GenSection(X, interior(X, h))
            B = GenSection(Y, interior(Y, h))
            assert is_zero(pairing(A, B), cfg).zero, i

    def test_symmetry(self, phase, cfg):
        A, B = section_pair(7, phase)
        assert is_zero(pairing(A, B) - pairing(B, A), cfg).zero

    def test_level_one_pairs_to_zero(self, phase):
        A = GenSection(VectorField.basis(phase, "q1"),
                       KForm.scalar(phase, rand_poly(rng_for(5, "f"), phase)))
        assert simplify(pairing(A, A)) == Rat(0)

    def test_level_mismatch_rejected(self, phase):
        A = GenSection(VectorField.basis(phase, "q1"),
                       KForm.zero(phase, 1))
        B = GenSection(VectorField.basis(phase, "q1"),
                       KForm.zero(phase, 2))
        with pytest.raises(ValueError):
            pairing(A, B)

    def test_higher_level_pairing_is_a_form(self, phase, cfg):
        rng = rng_for(91, "hl")
        A = rand_section(rng, phase, level=3)
        B = rand_section(rng, phase, level=3)
        p = pairing(A, B)
        assert isinstance(p, KForm) and p.degree == 1
        sym = pairing(B, A)
        assert form_is_zero(p - sym, cfg).zero


class TestClassicalBrackets:
    def test_pure_vector_sections(self, phase, cfg):
        X = rand_vector_field(rng_for(11, "v"), phase)
        Y = rand_vector_field(rng_for(12, "v"), phase)
        A = GenSection(X, KForm.zero(phase, 1))
        B = GenSection(Y, KForm.zero(phase, 1))
        out = courant_bracket(A, B)
        assert vf_is_zero(out.X - vf_bracket(X, Y), cfg).zero
        assert form_is_zero(out.alpha, cfg).zero

    def test_pure_form_sections_bracket_to_zero(self, phase, cfg):
        Z = VectorField.zero(phase)
        A = GenSection(Z, rand_kform(rng_for(13, "f"), phase, 1))
        B = GenSection(Z, rand_kform(rng_for(14, "f"), phase, 1))
        out = courant_bracket(A, B)
        assert vf_is_zero(out.X, cfg).zero
        assert form_is_zero(out.alpha, cfg).zero

    def test_mixed_example(self, phase, cfg):
        from twistdirac.exterior import parse_form
        A = GenSection(VectorField.basis(phase, "q1"), KForm.zero(phase, 1))
        B = GenSection(VectorField.zero(phase), parse_form("q1*dq2", phase))
        for bracket in (courant_bracket, dorfman_bracket):
            out = bracket(A, B)
            assert vf_is_zero(out.X, cfg).zero
            assert form_is_zero(
                out.alpha - KForm.covector(phase, "q2"), cfg).zero

    def test_dorfman_minus_courant_is_exact_pairing_term(self, phase, cfg):
        for i in range(20):
            A, B = section_pair(900 + i, phase)
            d = dorfman_bracket(A, B)
            c = courant_bracket(A, B)
            exact = ext_d(KForm.scalar(phase, pairing(A, B)))
            assert vf_is_zero(d.X - c.X, cfg).zero, i
            assert form_is_zero(d.alpha - c.alpha - exact, cfg).zero, i

    @pytest.mark.parametrize("op, name", [
        (lambda A, B, H: courant_bracket(A, B), "the skew bracket"),
        (lambda A, B, H: dorfman_bracket(A, B), "the Dorfman bracket"),
        (twisted_courant_bracket, "the twisted bracket"),
        (lambda A, B, H: courant_tensor(A, B, A, H), "the tensor"),
    ], ids=["courant", "dorfman", "twisted", "tensor"])
    def test_level_3_sections_are_rejected(self, phase, op, name):
        rng = rng_for(95, "level3")
        A = rand_section(rng, phase, level=3)
        B = rand_section(rng, phase, level=3)
        with pytest.raises(LevelError) as err:
            op(A, B, KForm.zero(phase, 4))
        assert str(err.value) == \
            f"{name} is a level-2 operation, got level 3"



class TestTwistedBracket:
    def test_zero_twist_reduces_to_classical(self, phase, cfg):
        A, B = section_pair(21, phase)
        t = twisted_courant_bracket(A, B, KForm.zero(phase, 3))
        c = courant_bracket(A, B)
        assert vf_is_zero(t.X - c.X, cfg).zero
        assert form_is_zero(t.alpha - c.alpha, cfg).zero

    def test_coordinate_twist_example(self, phase, cfg):
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        A = GenSection(VectorField.basis(phase, "q1"), KForm.zero(phase, 1))
        B = GenSection(VectorField.basis(phase, "q2"), KForm.zero(phase, 1))
        out = twisted_courant_bracket(A, B, H)
        expected = KForm.covector(phase, "q3").scale(Rat(-1))
        assert vf_is_zero(out.X, cfg).zero
        assert form_is_zero(out.alpha - expected, cfg).zero

    def test_antisymmetry(self, phase, cfg):
        H = rand_kform(rng_for(31, "H"), phase, 3)
        for i in range(5):
            A, B = section_pair(1100 + i, phase)
            ab = twisted_courant_bracket(A, B, H)
            ba = twisted_courant_bracket(B, A, H)
            assert vf_is_zero(ab.X + ba.X, cfg).zero, i
            assert form_is_zero(ab.alpha + ba.alpha, cfg).zero, i

    def test_wrong_twist_degree_rejected(self, phase):
        A, B = section_pair(41, phase)
        with pytest.raises(ValueError):
            twisted_courant_bracket(A, B, KForm.zero(phase, 2))


class TestDerivedBracket:
    def test_level_two_untwisted_is_dorfman(self, phase, cfg):
        A, B = section_pair(51, phase)
        d1 = derived_bracket(A, B, KForm.zero(phase, 3))
        d2 = dorfman_bracket(A, B)
        assert vf_is_zero(d1.X - d2.X, cfg).zero
        assert form_is_zero(d1.alpha - d2.alpha, cfg).zero

    def test_reduction_on_admissible_pairs(self, phase, cfg):
        # with d(alpha) + i_X H = 0 the bracket collapses to ([X,Y], L_X beta)
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        for i in range(5):
            rng = rng_for(1300 + i, "adm")
            A = admissible_pair(rng, phase, 2, H)
            B = admissible_pair(rng, phase, 2, H)
            out = derived_bracket(A, B, H)
            expected = lie_derivative(A.X, B.alpha)
            assert vf_is_zero(out.X - vf_bracket(A.X, B.X), cfg).zero, i
            assert form_is_zero(out.alpha - expected, cfg).zero, i

    def test_level_one_specialization(self, phase, cfg):
        rng = rng_for(61, "lvl1")
        X = rand_vector_field(rng, phase)
        Y = rand_vector_field(rng, phase)
        f = rand_poly(rng, phase)
        g = rand_poly(rng, phase)
        H2 = rand_kform(rng, phase, 2)
        A = GenSection(X, KForm.scalar(phase, f))
        B = GenSection(Y, KForm.scalar(phase, g))
        out = derived_bracket(A, B, H2)
        expected = simplify(vf_apply(X, g) - vf_apply(Y, f)
                            - interior(Y, interior(X, H2)).scalar_value())
        assert is_zero(out.alpha.scalar_value() - expected, cfg).zero

    def test_skew_part_equals_twisted_bracket(self, phase, cfg):
        H = rand_kform(rng_for(71, "H"), phase, 3)
        for i in range(5):
            A, B = section_pair(1500 + i, phase)
            sk = derived_bracket_skew(A, B, H)
            tw = twisted_courant_bracket(A, B, H)
            assert vf_is_zero(sk.X - tw.X, cfg).zero, i
            assert form_is_zero(sk.alpha - tw.alpha, cfg).zero, i

    def test_skew_part_is_antisymmetric_at_higher_level(self, phase, cfg):
        rng = rng_for(73, "hlskew")
        A = rand_section(rng, phase, level=3)
        B = rand_section(rng, phase, level=3)
        H = rand_kform(rng, phase, 4)
        ab = derived_bracket_skew(A, B, H)
        ba = derived_bracket_skew(B, A, H)
        assert vf_is_zero(ab.X + ba.X, cfg).zero
        assert form_is_zero(ab.alpha + ba.alpha, cfg).zero


class TestCourantTensor:
    def test_vanishes_on_graph_of_closed_form(self, phase, cfg):
        omega = standard_omega(phase)
        H0 = KForm.zero(phase, 3)
        for i in range(5):
            rng = rng_for(1700 + i, "graph")
            Xs = [rand_vector_field(rng, phase) for _ in range(3)]
            A, B, C = (GenSection(X, interior(X, omega)) for X in Xs)
            assert is_zero(courant_tensor(A, B, C, H0), cfg).zero, i

    def test_twist_defect_identity(self, phase, cfg):
        H0 = KForm.zero(phase, 3)
        for i in range(10):
            rng = rng_for(1900 + i, "tlh")
            A = rand_section(rng, phase)
            B = rand_section(rng, phase)
            C = rand_section(rng, phase)
            H = rand_kform(rng, phase, 3)
            twisted = courant_tensor(A, B, C, H)
            plain = courant_tensor(A, B, C, H0)
            triple = interior(C.X, interior(B.X, interior(A.X, H)))
            residual = twisted - plain + triple.scalar_value()
            assert is_zero(residual, cfg).zero, i

    def test_zero_section_annihilates(self, phase, cfg):
        A, B = section_pair(81, phase)
        Z = GenSection(VectorField.zero(phase), KForm.zero(phase, 1))
        value = courant_tensor(A, B, Z, KForm.zero(phase, 3))
        assert is_zero(value, cfg).zero
