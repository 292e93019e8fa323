"""Twisted graphs: solving, admissibility, and the proposition checks."""

from fractions import Fraction

import pytest

from twistdirac.symexpr import (Chart, Pow, Prod, Rat, Sum, is_zero,
                                parse_expr, simplify)
from twistdirac.exterior import (KForm, VectorField, ext_d, form_is_zero,
                                 interior, parse_form, vf_bracket,
                                 vf_is_zero)
from twistdirac.courant import GenSection
from twistdirac.dirac import (NondegeneracyError, SolveError,
                              TwistNotClosedError, TwistedGraph,
                              check_image_under_d, check_poiss_brak_adm,
                              check_symplgraph, check_theorem, graph_section,
                              hamiltonian_vf, is_H_admissible,
                              is_admissible_pair, is_courant_admissible,
                              jacobi_defect, poisson_bracket)
from twistdirac.randgen import rand_poly, rand_vector_field, rng_for

from helpers import admissible_pair, standard_omega


@pytest.fixture
def omega(phase):
    return standard_omega(phase)


@pytest.fixture
def darboux(phase, omega, cfg):
    return TwistedGraph(phase, omega, cfg=cfg)


@pytest.fixture
def conformal(phase, omega, cfg):
    return TwistedGraph(phase, omega.scale(1 + phase["q1"]), "dh", cfg=cfg)


@pytest.fixture
def coordinate_twisted(phase, omega, cfg):
    H = KForm.basis(phase, ["q1", "q2", "q3"])
    return TwistedGraph(phase, omega, H, cfg=cfg)


def angular_momenta(phase):
    return (parse_expr("q2*p3 - q3*p2", phase),
            parse_expr("q3*p1 - q1*p3", phase),
            parse_expr("q1*p2 - q2*p1", phase))


class TestTwistedGraph:
    def test_standard_structure_flags(self, darboux):
        assert darboux.nondegenerate
        assert darboux.integrable
        assert simplify(darboux.det) == Rat(1)

    def test_conformal_structure_flags(self, conformal):
        assert conformal.nondegenerate
        assert conformal.integrable

    def test_twist_must_be_closed(self, phase, omega, cfg):
        bad = KForm.basis(phase, ["q1", "q2", "p1"], phase["p2"])
        with pytest.raises(TwistNotClosedError):
            TwistedGraph(phase, omega, bad, cfg=cfg)

    def test_non_integrable_when_twist_disagrees(self, coordinate_twisted):
        assert not coordinate_twisted.integrable

    def test_graph_section(self, phase, darboux, cfg):
        X = VectorField.basis(phase, "p1")
        sec = graph_section(darboux, X)
        assert form_is_zero(sec.alpha - KForm.covector(phase, "q1"),
                            cfg).zero
        zero = graph_section(darboux, VectorField.zero(phase))
        assert zero.alpha.is_structurally_zero() or \
            form_is_zero(zero.alpha, cfg).zero

    def test_graph_sections_isotropic(self, phase, darboux, cfg):
        from twistdirac.courant import pairing
        rng = rng_for(5, "iso")
        A = graph_section(darboux, rand_vector_field(rng, phase))
        B = graph_section(darboux, rand_vector_field(rng, phase))
        assert is_zero(pairing(A, B), cfg).zero


class TestHamiltonianSolve:
    def test_coordinate_function(self, phase, darboux, cfg):
        X = hamiltonian_vf(darboux, phase["q1"])
        assert vf_is_zero(X - VectorField.basis(phase, "p1"), cfg).zero

    def test_angular_momentum_field(self, phase, darboux, cfg):
        L1, _, _ = angular_momenta(phase)
        X = hamiltonian_vf(darboux, L1)
        expected = parse_form("0", phase)  # placeholder; build by hand
        q2, q3, p2, p3 = (phase[c] for c in ("q2", "q3", "p2", "p3"))
        comps = [Rat(0)] * 6
        comps[phase.index("q2")] = q3
        comps[phase.index("q3")] = Rat(-1) * q2
        comps[phase.index("p2")] = p3
        comps[phase.index("p3")] = Rat(-1) * p2
        assert vf_is_zero(X - VectorField(phase, comps), cfg).zero

    def test_conformal_scaling(self, phase, darboux, conformal, cfg):
        f = rand_poly(rng_for(7, "f"), phase)
        Xo = hamiltonian_vf(darboux, f)
        Xc = hamiltonian_vf(conformal, f)
        scale = Pow(1 + phase["q1"], Fraction(-1))
        assert vf_is_zero(Xc - Xo.scale(scale), cfg).zero

    def test_residual_contract(self, phase, conformal, cfg):
        for i in range(5):
            f = rand_poly(rng_for(1000 + i, "resid"), phase)
            X = hamiltonian_vf(conformal, f)
            residual = ext_d(KForm.scalar(phase, f)) - \
                graph_section(conformal, X).alpha
            assert form_is_zero(residual, cfg).zero, i

    def test_degenerate_structure(self, phase, cfg):
        # h = q1 * dp1^dq1 alone: functions of p2 are obstructed, while
        # f = q1 solves with a division by q1
        h = KForm.basis(phase, ["p1", "q1"], phase["q1"])
        D = TwistedGraph(phase, h, cfg=cfg)
        assert not D.nondegenerate
        ok, X = is_courant_admissible(D, phase["p2"])
        assert not ok and X is None
        ok, X = is_courant_admissible(D, phase["q1"])
        assert ok
        residual = ext_d(KForm.scalar(phase, phase["q1"])) - \
            graph_section(D, X).alpha
        assert form_is_zero(residual, cfg).zero
        with pytest.raises((NondegeneracyError, SolveError)):
            hamiltonian_vf(D, phase["p2"])


def coefficient_matrix(h):
    """M[i][j] = h(d/dx_i, d/dx_j), built from contractions."""
    basis = [VectorField.basis(h.chart, c) for c in h.chart.coords]
    return [[interior(Y, interior(X, h)).scalar_value() for Y in basis]
            for X in basis]


def dense_graph(chart):
    """omega + (2 + (-1)^(i+j) x_k/4) dx_i^dx_j on every pair, with
    k = (i + j + 1) mod dim: no coefficient is constant."""
    dim = chart.dim
    h = standard_omega(chart)
    for i in range(dim):
        for j in range(i + 1, dim):
            xk = chart.vars()[(i + j + 1) % dim]
            c = 2 + Rat((-1) ** (i + j), 4) * xk
            h = h + KForm.basis(chart, [i, j], c)
    return h


def rank_four_graph(chart):
    """(1 + q1)(dp1^dq1 + dp2^dq2) plus a constant form on the block
    (q1, q2, p1, p2); the kernel is spanned by d/dq3 and d/dp3."""
    h = (KForm.basis(chart, ["p1", "q1"])
         + KForm.basis(chart, ["p2", "q2"])).scale(1 + chart["q1"])
    for pair, c in ((("q1", "q2"), Rat(1, 4)), (("p1", "p2"), Rat(-1, 2)),
                    (("q1", "p2"), Rat(3, 4))):
        h = h + KForm.basis(chart, pair, c)
    return h


class TestElimination:
    @pytest.mark.parametrize("which", ["dense4", "conformal6"])
    def test_inverse_times_matrix_is_identity(self, phase, cfg, which):
        if which == "dense4":
            chart = Chart("dense", ["q1", "q2", "p1", "p2"])
            h = dense_graph(chart)
        else:
            chart = phase
            h = standard_omega(phase).scale(1 + phase["q1"])
            for i in range(6):
                for j in range(i + 1, 6):
                    h = h + KForm.basis(phase, [i, j],
                                        Rat((-1) ** (i + j), 16))
        D = TwistedGraph(chart, h, "dh", cfg=cfg)
        assert D.nondegenerate
        inv, M = D.inverse_matrix(), coefficient_matrix(D.h)
        dim = chart.dim
        for i in range(dim):
            for j in range(dim):
                entry = Sum(*[Prod(inv[i][k], M[k][j]) for k in range(dim)])
                assert is_zero(entry - Rat(1 if i == j else 0), cfg).zero, \
                    (i, j)

    def test_rank_four_graph(self, phase, cfg):
        D = TwistedGraph(phase, rank_four_graph(phase), "dh", cfg=cfg)
        assert not D.nondegenerate
        assert D.det == Rat(0)
        f = parse_expr("q1*p2 + q2^2 - 3*q1*p1", phase)
        ok, X = is_courant_admissible(D, f)
        assert ok
        residual = ext_d(KForm.scalar(phase, f)) - \
            graph_section(D, X).alpha
        assert form_is_zero(residual, cfg).zero
        assert vf_is_zero(hamiltonian_vf(D, f) - X, cfg).zero
        kernel_touching = parse_expr("q1*p2 + q3", phase)
        assert is_courant_admissible(D, kernel_touching) == (False, None)
        with pytest.raises(NondegeneracyError):
            hamiltonian_vf(D, kernel_touching)
        with pytest.raises(NondegeneracyError):
            D.inverse_matrix()


class TestPoissonBracket:
    def test_self_bracket_vanishes(self, phase, darboux, cfg):
        f = rand_poly(rng_for(11, "f"), phase)
        assert is_zero(poisson_bracket(darboux, f, f), cfg).zero

    def test_canonical_pair(self, phase, darboux):
        assert simplify(poisson_bracket(darboux, phase["q1"],
                                        phase["p1"])) == Rat(1)

    def test_angular_momentum_algebra(self, phase, darboux, cfg):
        L1, L2, L3 = angular_momenta(phase)
        assert is_zero(poisson_bracket(darboux, L1, L2) - L3, cfg).zero
        assert is_zero(poisson_bracket(darboux, L2, L3) - L1, cfg).zero
        assert is_zero(poisson_bracket(darboux, L3, L1) - L2, cfg).zero

    def test_convention_flip_negates(self, phase, omega, cfg):
        plus = TwistedGraph(phase, omega, sign=1, cfg=cfg)
        minus = TwistedGraph(phase, omega, sign=-1, cfg=cfg)
        f = rand_poly(rng_for(13, "flip"), phase)
        g = rand_poly(rng_for(14, "flip"), phase)
        assert is_zero(poisson_bracket(plus, f, g)
                       + poisson_bracket(minus, f, g), cfg).zero


class TestAdmissibility:
    def test_everything_admissible_on_nondegenerate(self, phase, darboux):
        for i in range(5):
            f = rand_poly(rng_for(1100 + i, "adm"), phase)
            ok, X = is_courant_admissible(darboux, f)
            assert ok and X is not None

    def test_constant_function(self, phase, coordinate_twisted, cfg):
        report = is_H_admissible(coordinate_twisted, Rat(3), "c")
        assert report.courant_admissible
        assert report.h_admissible
        assert vf_is_zero(report.hamiltonian_field, cfg).zero

    def test_momentum_obstructed_by_coordinate_twist(
            self, phase, coordinate_twisted, cfg):
        # X_{p1} = -d/dq1, so i_{X_{p1}} (dq1^dq2^dq3) = -dq2^dq3
        report = is_H_admissible(coordinate_twisted, phase["p1"], "p1")
        assert report.courant_admissible
        assert report.h_admissible is False
        X = report.hamiltonian_field
        expected = VectorField.basis(phase, "q1").scale(Rat(-1))
        assert vf_is_zero(X - expected, cfg).zero
        contraction = interior(X, coordinate_twisted.H)
        expected_form = KForm.basis(phase, ["q2", "q3"], Rat(-1))
        assert form_is_zero(contraction - expected_form, cfg).zero

    def test_untwisted_admissibility_is_unconditional(self, phase, darboux):
        for i in range(3):
            f = rand_poly(rng_for(1200 + i, "un"), phase)
            report = is_H_admissible(darboux, f, "f")
            assert report.h_admissible

    def test_functions_of_twisted_coordinates(self, phase,
                                              coordinate_twisted):
        f = parse_expr("q1*q2 + q3^2", phase)
        report = is_H_admissible(coordinate_twisted, f, "f")
        assert report.h_admissible

    def test_degenerate_reports_not_determined(self, phase, cfg):
        h = KForm.basis(phase, ["p1", "q1"], phase["q1"])
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        D = TwistedGraph(phase, h, H, cfg=cfg)
        report = is_H_admissible(D, phase["q1"], "q1")
        assert report.courant_admissible
        assert report.h_admissible is None

    def test_flip_preserves_verdicts(self, phase, omega, cfg):
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        for sign in (1, -1):
            D = TwistedGraph(phase, omega, H, sign=sign, cfg=cfg)
            assert is_H_admissible(D, phase["p1"], "p1").h_admissible \
                is False
            assert is_H_admissible(D, parse_expr("q1*q3", phase),
                                   "f").h_admissible is True


class TestAdmissiblePairs:
    def test_level_one_symplectic_pairs(self, phase, omega, darboux, cfg):
        for i in range(3):
            rng = rng_for(1300 + i, "lvl1")
            sec = admissible_pair(rng, phase, 1, omega, graph=darboux)
            verdict = is_admissible_pair(sec.X, sec.alpha, omega, cfg)
            assert verdict.zero, i

    def test_closed_form_with_zero_field(self, phase, cfg):
        alpha = ext_d(KForm.scalar(phase, parse_expr("q1*q2 + p1^2", phase)))
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        verdict = is_admissible_pair(VectorField.zero(phase), alpha, H, cfg)
        assert verdict.zero

    def test_disjoint_support(self, phase, cfg):
        # X along p-directions never meets a q-coordinate twist
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        X = VectorField.basis(phase, "p1")
        alpha = ext_d(KForm.scalar(phase, rand_poly(rng_for(9, "a"), phase)))
        verdict = is_admissible_pair(X, alpha, H, cfg)
        assert verdict.zero

    def test_violating_pair_detected(self, phase, cfg):
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        X = VectorField.basis(phase, "q1")
        alpha = KForm.zero(phase, 1)
        verdict = is_admissible_pair(X, alpha, H, cfg)
        assert not verdict.zero

    def test_degree_mismatch_rejected(self, phase, cfg):
        with pytest.raises(ValueError):
            is_admissible_pair(VectorField.zero(phase),
                               KForm.zero(phase, 1),
                               KForm.zero(phase, 4), cfg)

    def test_constructed_families(self, phase, cfg):
        H3 = KForm.basis(phase, ["q1", "q2", "q3"])
        H4 = KForm.basis(phase, ["q1", "q2", "q3", "p1"])
        for level, twist in ((2, H3), (3, H4)):
            for i in range(3):
                rng = rng_for(1400 + 10 * level + i, "fam")
                sec = admissible_pair(rng, phase, level, twist)
                assert is_admissible_pair(sec.X, sec.alpha, twist,
                                          cfg).zero, (level, i)


class TestJacobiDefect:
    def test_untwisted_components_vanish(self, phase, darboux, cfg):
        f, g, k = (rand_poly(rng_for(1500 + i, "j"), phase)
                   for i in range(3))
        cyclic, contraction = jacobi_defect(darboux, f, g, k)
        assert is_zero(cyclic, cfg).zero
        assert is_zero(contraction, cfg).zero

    def test_twisted_components_agree(self, phase, conformal, cfg):
        cyclic, contraction = jacobi_defect(
            conformal, phase["p1"], phase["q2"], phase["p2"])
        assert is_zero(cyclic - contraction, cfg).zero

    def test_on_admissible_triple_both_vanish(self, phase, cfg):
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        omega = standard_omega(phase)
        D = TwistedGraph(phase, omega, H, cfg=cfg)
        f = parse_expr("q1*q2", phase)
        g = parse_expr("q3", phase)
        k = parse_expr("q1 + q2*q3", phase)
        cyclic, contraction = jacobi_defect(D, f, g, k)
        assert is_zero(cyclic, cfg).zero
        assert is_zero(contraction, cfg).zero

    def test_flip_invariance_of_equality(self, phase, omega, cfg):
        for sign in (1, -1):
            D = TwistedGraph(phase, omega.scale(1 + phase["q1"]), "dh",
                             sign=sign, cfg=cfg)
            cyclic, contraction = jacobi_defect(
                D, phase["p1"], phase["q2"], phase["p2"])
            assert is_zero(cyclic - contraction, cfg).zero, sign


class TestTheorem:
    def test_constants(self, phase, coordinate_twisted):
        report = check_theorem(coordinate_twisted, Rat(2), Rat(5), Rat(7))
        assert report.passed

    def test_canonical_pair_untwisted(self, phase, darboux):
        report = check_theorem(darboux, phase["q1"], phase["p1"],
                               parse_expr("q1*p2", phase))
        assert report.passed

    def test_angular_momenta_untwisted(self, phase, darboux):
        L1, L2, L3 = angular_momenta(phase)
        report = check_theorem(darboux, L1, L2, L3)
        assert report.passed

    def test_twisted_closure_on_good_functions(self, phase,
                                               coordinate_twisted):
        f = parse_expr("q1*q3", phase)
        g = parse_expr("q2 + q1^2", phase)
        k = parse_expr("p1*q2", phase)
        report = check_theorem(coordinate_twisted, f, g, k)
        assert report.passed

    def test_leibniz_probe_defaults_to_product(self, phase, darboux):
        report = check_theorem(darboux, phase["q1"], phase["p2"])
        assert report.passed

    def test_reports_non_admissible_inputs(self, phase, coordinate_twisted):
        report = check_theorem(coordinate_twisted, phase["p1"], phase["q2"],
                               phase["q3"])
        assert not report.passed


class TestSymplGraph:
    def test_closed_untwisted_always_admissible(self, phase, darboux):
        f = rand_poly(rng_for(31, "s"), phase)
        report = check_symplgraph(darboux, f)
        assert report.passed and report.h_admissible

    def test_identity_on_conformal(self, phase, conformal):
        for i in range(3):
            f = rand_poly(rng_for(1600 + i, "s"), phase)
            report = check_symplgraph(conformal, f)
            assert report.passed, i

    def test_constant_is_admissible(self, phase, conformal):
        report = check_symplgraph(conformal, Rat(4))
        assert report.passed and report.h_admissible

    def test_momentum_not_admissible_on_conformal(self, phase, conformal):
        report = check_symplgraph(conformal, phase["p1"])
        assert report.passed and not report.h_admissible


class TestImageUnderD:
    def test_trivial_family(self, phase, cfg):
        H = KForm.zero(phase, 3)
        A = GenSection(VectorField.basis(phase, "p1"),
                       KForm.covector(phase, "q2"))
        B = GenSection(VectorField.basis(phase, "p2"),
                       KForm.covector(phase, "q1"))
        report = check_image_under_d([A, B], H, cfg)
        assert report.passed

    def test_coupled_level_two_family(self, phase, cfg):
        from helpers import coupled_image_pairs
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        for i in range(3):
            A, B = coupled_image_pairs(rng_for(1800 + i, "img"), phase)
            report = check_image_under_d([A, B], H, cfg)
            assert report.passed, (i, str(report))

    def test_level_one_family_has_nonzero_bracket_side(self, phase, omega,
                                                       cfg):
        from helpers import level1_graph
        D = level1_graph(phase, cfg)
        rng = rng_for(57, "img1")
        secs = [admissible_pair(rng, phase, 1, omega, graph=D)
                for _ in range(2)]
        report = check_image_under_d(secs, omega, cfg)
        assert report.passed
        # the right-hand side i_{[X,Y]} H is genuinely nonzero here
        commutator = vf_bracket(secs[0].X, secs[1].X)
        assert not form_is_zero(interior(commutator, omega), cfg).zero

    def test_disjoint_support_family(self, phase, cfg):
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        rng = rng_for(53, "imgd")
        secs = []
        for i in range(2):
            X = VectorField(phase, (
                Rat(0), Rat(0), Rat(0),
                rand_poly(rng, phase, coords=("q1", "q2", "q3")),
                rand_poly(rng, phase, coords=("q1", "q2", "q3")),
                Rat(0)))
            alpha = ext_d(KForm.scalar(
                phase, rand_poly(rng, phase, coords=("q1", "q2", "q3"))))
            secs.append(GenSection(X, alpha))
        report = check_image_under_d(secs, H, cfg)
        assert report.passed


class TestPoissBrakAdm:
    def test_canonical_untwisted(self, phase, darboux):
        report = check_poiss_brak_adm(darboux, phase["q1"], phase["p1"])
        assert report.passed

    def test_same_function(self, phase, coordinate_twisted):
        f = parse_expr("q1*q2", phase)
        report = check_poiss_brak_adm(coordinate_twisted, f, f)
        assert report.passed

    def test_angular_momenta(self, phase, darboux):
        L1, L2, _ = angular_momenta(phase)
        report = check_poiss_brak_adm(darboux, L1, L2)
        assert report.passed

    def test_twisted_admissible_functions(self, phase, coordinate_twisted):
        f = parse_expr("q1^2*q3", phase)
        g = parse_expr("q2*q3", phase)
        report = check_poiss_brak_adm(coordinate_twisted, f, g)
        assert report.passed
