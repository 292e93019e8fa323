"""Twisted graphs: solving, admissibility, and the proposition checks."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations

import pytest

from twistdirac import dirac
from twistdirac.symexpr import (Chart, ChartMismatchError, OracleConfig, Pow,
                                Prod, Rat, Sum, diff, eval_expr, is_zero,
                                parse_expr, simplify)
from twistdirac.exterior import (KForm, VectorField, ext_d, form_is_zero,
                                 interior, parse_form, vf_bracket,
                                 vf_is_zero, wedge)
from twistdirac.courant import GenSection
from twistdirac.dirac import (NondegeneracyError, SolveError,
                              TwistNotClosedError, TwistedGraph,
                              VerdictNotDeterminedError,
                              check_image_under_d, check_poiss_brak_adm,
                              check_symplgraph, check_theorem, graph_section,
                              hamiltonian_vf, is_H_admissible,
                              is_admissible_pair, is_courant_admissible,
                              jacobi_defect, poisson_bracket)
from twistdirac.randgen import rand_poly, rand_vector_field, rng_for

from helpers import admissible_pair, fraction_solve, standard_omega


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
        assert darboux.det == Rat(1)

    def test_conformal_structure_flags(self, conformal):
        assert conformal.nondegenerate
        assert conformal.integrable

    def test_twist_must_be_closed(self, phase, omega, cfg):
        bad = KForm.basis(phase, ["q1", "q2", "p1"], phase["p2"])
        with pytest.raises(TwistNotClosedError):
            TwistedGraph(phase, omega, bad, cfg=cfg)

    @pytest.mark.parametrize("twist", [None, "dh"])
    def test_h_from_another_chart_is_rejected(self, twist):
        a, b = Chart("A", ["x", "y"]), Chart("B", ["x", "y"])
        with pytest.raises(ChartMismatchError):
            TwistedGraph(a, parse_form("dy^dx", b), twist)

    @pytest.mark.parametrize("h, twist, sign, message", [
        ("dq1", None, 1, "h must be a 2-form"),
        ("dp1^dq1", None, 0, "sign convention must be +1 or -1"),
        ("dp1^dq1", "dq1^dp1", 1, "the twisting form must be a 3-form")],
        ids=["h-a-1-form", "sign-0", "twist-a-2-form"])
    def test_malformed_arguments_are_rejected(self, phase, h, twist, sign,
                                              message):
        if twist is not None:
            twist = parse_form(twist, phase)
        with pytest.raises(ValueError) as info:
            TwistedGraph(phase, parse_form(h, phase), twist, sign)
        assert str(info.value) == message

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

    def test_function_from_another_chart_is_rejected(self, darboux):
        other = Chart("other", ["q1", "q2"])
        with pytest.raises(ChartMismatchError):
            hamiltonian_vf(darboux, other["q1"])

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


def leibniz_det(h):
    """det M as the signed sum over permutations, where M[i][j] is
    h.coeff of dx_i^dx_j for i < j, and M is antisymmetric."""
    dim = h.chart.dim

    def entry(i, j):
        c = h.coeff((1 << i) | (1 << j))
        return c if i < j else Prod(Rat(-1), c)
    terms = []
    for perm in permutations(range(dim)):
        if any(perm[i] == i for i in range(dim)):
            continue        # the diagonal of M is zero
        inversions = sum(perm[i] > perm[j] for i in range(dim)
                         for j in range(i + 1, dim))
        terms.append(Prod(Rat((-1) ** inversions),
                          *(entry(i, perm[i]) for i in range(dim))))
    return Sum(*terms)


def rank_four_graph(chart):
    """(1 + q1)(dp1^dq1 + dp2^dq2) plus a constant form on the block
    (q1, q2, p1, p2); the kernel is spanned by d/dq3 and d/dp3."""
    h = (KForm.basis(chart, ["p1", "q1"])
         + KForm.basis(chart, ["p2", "q2"])).scale(1 + chart["q1"])
    for pair, c in ((("q1", "q2"), Rat(1, 4)), (("p1", "p2"), Rat(-1, 2)),
                    (("q1", "p2"), Rat(3, 4))):
        h = h + KForm.basis(chart, pair, c)
    return h


class TestInverseAndRank:
    @pytest.mark.parametrize("which", ["dense4", "conformal6",
                                       "pure-conformal6"])
    def test_inverse_times_matrix_is_identity(self, phase, cfg, which):
        if which == "dense4":
            chart = Chart("dense", ["q1", "q2", "p1", "p2"])
            h = dense_graph(chart)
        else:
            chart = phase
            h = standard_omega(phase).scale(1 + phase["q1"])
            for i in range(6 if which == "conformal6" else 0):
                for j in range(i + 1, 6):
                    h = h + KForm.basis(phase, [i, j],
                                        Rat((-1) ** (i + j), 16))
        D = TwistedGraph(chart, h, "dh", cfg=cfg)
        assert D.nondegenerate
        # h = u * B: the determinant is a Prod of one Rat, 2n copies of u
        # (pure-conformal6) and T twice when T = [B^n] is not constant
        assert D.det.kind == "prod" and D.det.args[0].kind == "rat"
        verdict = is_zero(D.det - leibniz_det(D.h), cfg)
        assert verdict.zero and verdict.exact
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


# rank-deficient forms with what the construction says of their functions:
# (coordinates, h, admissible functions, one inadmissible function)
DEFICIENT_FORMS = [
    # dim 3: h = dx ^ d(y + 2z + yz), kernel (2 + y) d/dy - (1 + z) d/dz
    (("x", "y", "z"), "(1 + z)*dx^dy + (2 + y)*dx^dz",
     ["x^2", "x*(y + 2*z + y*z)", "(y + 2*z + y*z)^2"], "y"),
    # dim 5: a linear coefficient on every pair of x1..x4, kernel d/dx5
    (("x1", "x2", "x3", "x4", "x5"),
     "(1 + x5/2)*dx1^dx2 + (2 - x3/4)*dx1^dx3 + (3/2 + x1/4)*dx1^dx4"
     " + (1/2 - x4/2)*dx2^dx3 + (1 + x2/4)*dx2^dx4 + (2 + x5/4)*dx3^dx4",
     ["x1", "x2*x3 - x4^2", "x1*x4 + x3"], "x1*x5"),
    # dim 4: conformal, rank 2, kernel d/dq2 and d/dp2
    (("q1", "q2", "p1", "p2"), "(1 + q1)*dq1^dp1",
     ["q1*p1", "p1^2 + q1"], "q1 + p2"),
]


class TestRankDeficientSolves:
    """Odd and rank-deficient forms against an exact Gaussian solve of
    M^T X = sign * grad f at seeded rational points: admissibility is its
    consistency there, and X_f is its solution, free unknowns zero."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("coords, text, good, bad", DEFICIENT_FORMS,
                             ids=["linear3", "linear5", "conformal4"])
    def test_fields_and_verdicts_match_a_fraction_solve(
            self, cfg, coords, text, good, bad, sign):
        chart = Chart("deficient", list(coords))
        D = TwistedGraph(chart, parse_form(text, chart), "dh", sign=sign,
                         cfg=cfg)
        assert not D.nondegenerate and D.det == Rat(0)
        M = coefficient_matrix(D.h)
        rng = random.Random(f"deficient:{text}")
        points = [{c: Fraction(rng.randint(1, 40), rng.randint(1, 9))
                   for c in coords} for _ in range(3)]
        for f_text in good + [bad]:
            f = parse_expr(f_text, chart)
            ok, X = is_courant_admissible(D, f)
            assert ok == (f_text != bad), f_text
            for point in points:
                A = [[eval_expr(M[i][j], point) for i in range(chart.dim)]
                     for j in range(chart.dim)]
                grad = [sign * eval_expr(diff(f, v), point)
                        for v in chart.vars()]
                x = fraction_solve(A, grad)
                if not ok:
                    assert x is None, (f_text, point)
                    continue
                assert [eval_expr(c, point) for c in X.comps] == x, \
                    (f_text, point)
        assert X is None
        with pytest.raises(NondegeneracyError):
            hamiltonian_vf(D, parse_expr(bad, chart))

    def test_a_factor_that_vanishes_on_the_box_is_not_taken_out(self, cfg):
        # (q1^2)^(1/2) - q1 is zero for q1 > 0, so h is zero there: taken
        # out as u, it would leave a constant B of rank 2 and X_q1 over u
        chart = Chart("c", ["q1", "p1"])
        D = TwistedGraph(chart, parse_form("((q1^2)^(1/2) - q1)*dp1^dq1",
                                           chart), cfg=cfg)
        assert not D.nondegenerate and D.det == Rat(0)
        assert is_courant_admissible(D, chart["q1"]) == (False, None)
        assert is_courant_admissible(D, Rat(2))[0]


# non-conformal forms with a non-constant Pfaffian: polynomial, function
# atom and 1/(...) coefficients at dim 4 and 6
PFAFFIAN_FORMS = [
    (("q1", "q2", "p1", "p2"),
     "dp1^dq1 + dp2^dq2 + q2*dq1^dq2 + V(q1)*dp2^dp1"),
    (("q1", "q2", "p1", "p2"),
     "dp1^dq1 + dp2^dq2 + 1/(1 + q1)*dq1^dq2 + p1*dp2^dp1"),
    (("q1", "q2", "q3", "p1", "p2", "p3"),
     "dp1^dq1 + dp2^dq2 + dp3^dq3 + q3*dq1^dq2 + 1/(2 + p1)*dp2^dp3"
     " + p2/2*dq3^dp1"),
    (("q1", "q2", "q3", "p1", "p2", "p3"),
     "dp1^dq1 + dp2^dq2 + dp3^dq3 + V(q2)*dq1^dq3 - q1/4*dp1^dp2"
     " + 1/2*dq2^dp3"),
]


class TestPfaffianRoute:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("coords, text", PFAFFIAN_FORMS,
                             ids=["poly-V4", "inverse-sum4", "inverse-sum6",
                                  "V6"])
    def test_inverse_det_and_solves_are_exact(self, cfg, coords, text,
                                              sign):
        chart = Chart("pf", list(coords))
        D = TwistedGraph(chart, parse_form(text, chart), "dh", sign=sign,
                         cfg=cfg)
        assert D._minors is not None
        assert D.nondegenerate and D.integrable
        assert D.det.kind == "prod" and D.det.args[1] is D.det.args[2]
        verdict = is_zero(D.det - leibniz_det(D.h), cfg)
        assert verdict.zero and verdict.exact
        inv, M = D.inverse_matrix(), coefficient_matrix(D.h)
        dim = chart.dim
        for i in range(dim):
            for j in range(dim):
                entry = Sum(*[Prod(inv[i][k], M[k][j]) for k in range(dim)])
                verdict = is_zero(entry - Rat(1 if i == j else 0), cfg)
                assert verdict.zero and verdict.exact, (i, j)
        for text in ("q1", "p2", "q1*p2 + q2^2", "V(p1)*q2"):
            X, residual = dirac._solve_verified(D, parse_expr(text, chart))
            assert residual.zero and residual.exact, text

    def test_dense_dim8_solve(self, cfg):
        chart = Chart("dense8",
                      [f"{c}{i}" for c in "qp" for i in range(1, 5)])
        D = TwistedGraph(chart, dense_graph(chart), "dh", cfg=cfg)
        assert D._minors is not None and D.nondegenerate
        X, residual = dirac._solve_verified(D, chart["q1"])
        assert residual.zero and residual.exact


def _omega_plus(chart, coeffs):
    """standard_omega plus c dx_i^dx_j for each ((i, j), c)."""
    h = standard_omega(chart)
    for pair, c in coeffs:
        h = h + KForm.basis(chart, pair, c)
    return h


class TestRouteSelection:
    def test_constant_forms_draw_no_point(self, phase):
        # omega plus a constant on every pair is a constant form (u = 1);
        # dim-4 omega plus q2 dq1^dq2 is not conformal, but its Pfaffian
        # is the constant 1: both det are Rat
        cfg = OracleConfig(seed=3)
        pairs = [((i, j), Rat((-1) ** (i + j), 8))
                 for i in range(6) for j in range(i + 1, 6)]
        constant = TwistedGraph(phase, _omega_plus(phase, pairs), cfg=cfg)
        chart = Chart("pf", ["q1", "q2", "p1", "p2"])
        flat = TwistedGraph(chart, _omega_plus(chart, [((0, 1),
                                                        chart["q2"])]),
                            "dh", cfg=cfg)
        for D in (constant, flat):
            assert D.det.kind == "rat" and D.det.value != 0
            assert D.nondegenerate
        assert flat.det == Rat(1)
        assert not cfg._points

    @pytest.mark.parametrize("which", ["square-vanishes4", "rank-four6"])
    def test_rank_deficient_forms_are_eliminated(self, phase, cfg, which):
        if which == "square-vanishes4":
            # dq1 ^ (q1 dq2 + dp1): not conformal, h^2 = 0, rank 2
            chart = Chart("pf", ["q1", "q2", "p1", "p2"])
            h = parse_form("q1*dq1^dq2 + dq1^dp1", chart)
            rank, good, bad = 2, "q1*q2 + p1", "p2"
        else:
            chart = phase
            h = rank_four_graph(phase)
            rank, good, bad = 4, "q1*p2 + q2^2", "q1*p2 + q3"
        D = TwistedGraph(chart, h, "dh", cfg=cfg)
        assert D._support.bit_count() == rank
        assert not D.nondegenerate and D.det == Rat(0)
        good, bad = parse_expr(good, chart), parse_expr(bad, chart)
        assert is_courant_admissible(D, good)[0]
        assert is_courant_admissible(D, bad) == (False, None)
        with pytest.raises(VerdictNotDeterminedError,
                           match="Hamiltonian field not unique"):
            check_theorem(D, good, good)
        with pytest.raises(VerdictNotDeterminedError,
                           match="not admissible"):
            check_theorem(D, bad, good)

    def test_conformal_fields_print_over_the_factor(self, phase, conformal):
        X = hamiltonian_vf(conformal, parse_expr("q1*p2 + p1", phase))
        assert str(X) == ("(-1/(1 + q1))*d/dq1 + (-q1/(1 + q1))*d/dq2"
                          " + (p2/(1 + q1))*d/dp1")


@pytest.fixture
def solves(monkeypatch):
    """The (structure, function) pairs the Hamiltonian solver runs on."""
    calls = []
    solve = dirac._solve

    def counting(D, f):
        calls.append((D, f))
        return solve(D, f)
    monkeypatch.setattr(dirac, "_solve", counting)
    return calls


def _answers(D, fs):
    """Fields, H verdicts and brackets of fs on D, as comparable values."""
    out = []
    for f in fs:
        report = is_H_admissible(D, f)
        out.append((hamiltonian_vf(D, f).polys, report.h_admissible,
                    report.witness, report.magnitude))
    out += [poisson_bracket(D, f, g) for f, g in permutations(fs, 2)]
    return out


class TestSolveTable:
    def test_later_queries_reuse_the_solves(self, phase, conformal, solves):
        L = angular_momenta(phase)
        fields = [hamiltonian_vf(conformal, f) for f in L]
        assert len(solves) == 3
        reports = [is_H_admissible(conformal, f) for f in L]
        for f, g in permutations(L, 2):
            poisson_bracket(conformal, f, g)
        jacobi_defect(conformal, *L)
        assert len(solves) == 3
        assert [r.hamiltonian_field for r in reports] == fields
        # equal trees are one key
        again = [is_H_admissible(conformal, f)
                 for f in angular_momenta(phase)]
        assert again == reports and len(solves) == 3

    def test_an_inconsistent_system_is_solved_once(self, phase, cfg, solves):
        D = TwistedGraph(phase, rank_four_graph(phase), "dh", cfg=cfg)
        f = parse_expr("q1*p2 + q3", phase)
        for _ in range(2):
            with pytest.raises(NondegeneracyError):
                hamiltonian_vf(D, f)
            assert is_courant_admissible(D, f) == (False, None)
            assert is_H_admissible(D, f).h_admissible is None
        assert len(solves) == 1

    def test_structures_keep_their_own_solves(self, phase, omega, cfg,
                                              solves):
        f = parse_expr("q1*p2 - q3^2", phase)
        structures = [TwistedGraph(phase, omega, cfg=cfg),
                      TwistedGraph(phase, omega, sign=-1, cfg=cfg),
                      TwistedGraph(phase, omega,
                                   cfg=OracleConfig(seed=1, samples=8)),
                      TwistedGraph(phase, omega, cfg=cfg)]
        fields = [hamiltonian_vf(D, f) for D in structures]
        assert [D for D, _ in solves] == structures
        assert vf_is_zero(fields[0] + fields[1], cfg).zero
        assert [hamiltonian_vf(D, f) for D in structures] == fields
        assert len(solves) == 4

    def test_threads_querying_one_structure_agree(self, phase, omega, cfg):
        # the threads fill one structure's empty table at once; each must
        # see the answers of a sequential run on a structure of its own
        h = omega.scale(1 + phase["q1"])
        fs = list(angular_momenta(phase)) + [phase["p1"],
                                             parse_expr("q1*q2", phase)]
        expected = _answers(TwistedGraph(phase, h, "dh", cfg=cfg), fs)
        shared = TwistedGraph(phase, h, "dh", cfg=cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_answers, shared, fs)
                           for _ in range(8)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected] * 8
        assert any(h_adm is False for _, h_adm, _, _ in expected[:5])

    @pytest.mark.parametrize("scale, nondegenerate", [
        (Rat(1), True), (Rat(1, 10 ** 6), True), (None, False)])
    def test_a_constant_determinant_draws_no_point(self, phase, omega,
                                                   scale, nondegenerate):
        # 10^-18 is below the sampling tolerance of a float, but an exact
        # value meets tolerance 0; dp1^dq1 alone has det Rat(0)
        cfg = OracleConfig(seed=3)
        h = KForm.basis(phase, ["p1", "q1"]) if scale is None \
            else omega.scale(scale)
        D = TwistedGraph(phase, h, cfg=cfg)
        assert D.det.kind == "rat"
        assert D.nondegenerate == nondegenerate
        assert D.nondegenerate == (D.det.value != 0)
        assert not cfg._points

    def test_a_varying_determinant_is_sampled(self, phase, omega):
        cfg = OracleConfig(seed=3)
        D = TwistedGraph(phase, omega.scale(1 + phase["q1"]), "dh", cfg=cfg)
        assert D.nondegenerate and D.det.kind != "rat" and cfg._points

    @pytest.mark.parametrize("cfg", [OracleConfig(),
                                     OracleConfig(seed=1, samples=16)])
    @pytest.mark.parametrize("scale", ["1/100", "10^60"])
    def test_the_scale_of_h_does_not_make_it_degenerate(self, phase, cfg,
                                                        scale):
        # det = scale^6/36 * u^6 with u = (1 + q1)^(1/2): at 1/100 the
        # product is below the float tolerance, at 10^60 it overflows;
        # the factor u alone decides
        h = parse_form(f"({scale})*(1 + q1)^(1/2)"
                       f"*(dp1^dq1 + dp2^dq2 + dp3^dq3)", phase)
        D = TwistedGraph(phase, h, "dh", cfg=cfg)
        assert D.nondegenerate
        report = is_H_admissible(D, phase["q2"], "q2")
        assert report.courant_admissible and report.h_admissible is False
        assert len(D.inverse_matrix()) == 6


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
        assert report.detail == \
            "degenerate structure: Hamiltonian field not unique"
        report = is_H_admissible(D, phase["p2"], "p2")
        assert not report.courant_admissible
        assert report.hamiltonian_field is None
        assert report.detail == "not admissible (Courant)"
        with pytest.raises(VerdictNotDeterminedError,
                           match="Hamiltonian field not unique"):
            check_theorem(D, phase["q1"], phase["p1"])

    def test_an_undetermined_report_says_why(self):
        # dp1^dq1 on three coordinates has rank 2: X_q1 is not unique
        chart = Chart("odd", ["q1", "p1", "z"])
        D = TwistedGraph(chart, parse_form("dp1^dq1", chart),
                         cfg=OracleConfig(seed=5, samples=16))
        assert str(is_H_admissible(D, chart["q1"], "q1")) == (
            "function q1:\n"
            "  admissible (Courant): True\n"
            "  hamiltonian field: (1)*d/dp1\n"
            "  H-admissible: not determined "
            "(degenerate structure: Hamiltonian field not unique)")

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

    def test_degree_mismatch_names_the_needed_degree(self, phase, cfg):
        with pytest.raises(ValueError, match="twisting form must have "
                           "degree 4 for level-3 sections, got 3"):
            is_admissible_pair(VectorField.zero(phase),
                               KForm.zero(phase, 2),
                               KForm.zero(phase, 3), cfg)

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
        assert report.zero

    def test_canonical_pair_untwisted(self, phase, darboux):
        report = check_theorem(darboux, phase["q1"], phase["p1"],
                               parse_expr("q1*p2", phase))
        assert report.zero

    def test_angular_momenta_untwisted(self, phase, darboux):
        L1, L2, L3 = angular_momenta(phase)
        report = check_theorem(darboux, L1, L2, L3)
        assert report.zero

    def test_twisted_closure_on_good_functions(self, phase,
                                               coordinate_twisted):
        f = parse_expr("q1*q3", phase)
        g = parse_expr("q2 + q1^2", phase)
        k = parse_expr("p1*q2", phase)
        report = check_theorem(coordinate_twisted, f, g, k)
        assert report.zero

    def test_leibniz_probe_defaults_to_product(self, phase, darboux):
        report = check_theorem(darboux, phase["q1"], phase["p2"])
        assert report.zero

    def test_reports_non_admissible_inputs(self, phase, coordinate_twisted):
        report = check_theorem(coordinate_twisted, phase["p1"], phase["q2"],
                               phase["q3"])
        assert not report.zero


class TestSymplGraph:
    def test_closed_untwisted_always_admissible(self, phase, darboux):
        f = rand_poly(rng_for(31, "s"), phase)
        identity, lie = check_symplgraph(darboux, f)
        assert identity.zero and lie.zero

    def test_identity_on_conformal(self, phase, conformal):
        for i in range(3):
            f = rand_poly(rng_for(1600 + i, "s"), phase)
            identity, _ = check_symplgraph(conformal, f)
            assert identity.zero, i

    def test_constant_is_admissible(self, phase, conformal):
        identity, lie = check_symplgraph(conformal, Rat(4))
        assert identity.zero and lie.zero

    def test_momentum_not_admissible_on_conformal(self, phase, conformal):
        identity, lie = check_symplgraph(conformal, phase["p1"])
        assert identity.zero and not lie.zero


class TestImageUnderD:
    def test_an_inadmissible_pair_stops_before_the_images(self, phase, cfg):
        # i_X H = dq2^dq3 for X = d/dq1, so (X, 0) is not admissible
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        A = GenSection(VectorField.basis(phase, "q1"), KForm.zero(phase, 1))
        B = GenSection(VectorField.basis(phase, "p1"), KForm.zero(phase, 1))
        report = check_image_under_d([A, B], H, cfg)
        assert not report.zero and report.label == "image_under_d"
        assert [c.label for c in report.children] == [
            "pair 0 admissible", "pair 1 admissible", "pairing(0,1) = 0"]
        assert [label for label, _ in report.failures] == \
            ["pair 0 admissible"]

    def test_trivial_family(self, phase, cfg):
        H = KForm.zero(phase, 3)
        A = GenSection(VectorField.basis(phase, "p1"),
                       KForm.covector(phase, "q2"))
        B = GenSection(VectorField.basis(phase, "p2"),
                       KForm.covector(phase, "q1"))
        report = check_image_under_d([A, B], H, cfg)
        assert report.zero

    def test_coupled_level_two_family(self, phase, cfg):
        from helpers import coupled_image_pairs
        H = KForm.basis(phase, ["q1", "q2", "q3"])
        for i in range(3):
            A, B = coupled_image_pairs(rng_for(1800 + i, "img"), phase)
            report = check_image_under_d([A, B], H, cfg)
            assert report.zero, (i, str(report))

    def test_level_one_family_has_nonzero_bracket_side(self, phase, omega,
                                                       cfg):
        from helpers import level1_graph
        D = level1_graph(phase, cfg)
        rng = rng_for(57, "img1")
        secs = [admissible_pair(rng, phase, 1, omega, graph=D)
                for _ in range(2)]
        report = check_image_under_d(secs, omega, cfg)
        assert report.zero
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
        assert report.zero


class TestPoissBrakAdm:
    def test_canonical_untwisted(self, phase, darboux):
        report = check_poiss_brak_adm(darboux, phase["q1"], phase["p1"])
        assert report.zero

    def test_same_function(self, phase, coordinate_twisted):
        f = parse_expr("q1*q2", phase)
        report = check_poiss_brak_adm(coordinate_twisted, f, f)
        assert report.zero

    def test_angular_momenta(self, phase, darboux):
        L1, L2, _ = angular_momenta(phase)
        report = check_poiss_brak_adm(darboux, L1, L2)
        assert report.zero

    def test_twisted_admissible_functions(self, phase, coordinate_twisted):
        f = parse_expr("q1^2*q3", phase)
        g = parse_expr("q2*q3", phase)
        report = check_poiss_brak_adm(coordinate_twisted, f, g)
        assert report.zero


def _scaling_case(which, phase):
    """(chart, h, {function: admissible}) of one form the scaling test
    covers; below full rank only functions off the kernel are
    admissible."""
    if which == "constant6":
        pairs = [((i, j), Rat((-1) ** (i + j), 8))
                 for i in range(6) for j in range(i + 1, 6)]
        return (phase, _omega_plus(phase, pairs),
                {"q1": True, "q1*p2 + q2^2": True})
    if which == "dense4":
        chart = Chart("dense", ["q1", "q2", "p1", "p2"])
        return chart, dense_graph(chart), {"q1": True, "q1*p2 + q2^2": True}
    if which == "conformal6":
        return (phase, standard_omega(phase).scale(1 + phase["q1"]),
                {"p1": True, "q2*p3 - q3*p2": True})
    return (phase, rank_four_graph(phase),
            {"q1*p2 + q2^2": True, "q1*p2 + q3": False})


class TestScalingByAConstant:
    """TwistedGraph(c * h) against TwistedGraph(h): the same support and
    verdicts, X_f / c, det * c^dim and M^-1 / c.  The factors c change
    the lcm of the coefficient denominators that the wedge powers and
    contractions are lifted by."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("c", [Fraction(3, 7), Fraction(-5, 2)])
    @pytest.mark.parametrize("which", ["constant6", "dense4", "conformal6",
                                       "rank-four6"])
    def test_scaled_structure(self, phase, cfg, which, c, sign):
        chart, h, functions = _scaling_case(which, phase)
        D = TwistedGraph(chart, h, "dh", sign=sign, cfg=cfg)
        E = TwistedGraph(chart, h.scale(Rat(c)), "dh", sign=sign, cfg=cfg)
        assert E._h_lift[0] != D._h_lift[0]
        assert E._support == D._support
        assert (E.nondegenerate, E.integrable) == \
            (D.nondegenerate, D.integrable)
        dim = chart.dim
        assert is_zero(E.det - Rat(c ** dim) * D.det, cfg).zero
        for text, admissible in functions.items():
            f = parse_expr(text, chart)
            ok, X = is_courant_admissible(D, f)
            assert ok == admissible, text
            assert is_courant_admissible(E, f)[0] == ok, text
            if not ok:
                continue
            Y = hamiltonian_vf(E, f)
            assert vf_is_zero(Y - X.scale(Rat(1 / c)), cfg).zero, text
            if D.nondegenerate:
                assert is_H_admissible(E, f).h_admissible == \
                    is_H_admissible(D, f).h_admissible, text
        if not D.nondegenerate:
            return
        inv, scaled = D.inverse_matrix(), E.inverse_matrix()
        for i in range(dim):
            for j in range(dim):
                assert is_zero(scaled[i][j] - Prod(Rat(1 / c), inv[i][j]),
                               cfg).zero, (i, j)


def _exact_dict(form):
    """A form's coefficients with their types: equal only when the
    numbers and their int or Fraction types agree."""
    return {mask: {m: (type(c), c) for m, c in p.items()}
            for mask, p in form.polys.items()}


class TestLiftedContractions:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("c", [1, Fraction(3, 7)])
    @pytest.mark.parametrize("coords, text", PFAFFIAN_FORMS,
                             ids=["poly-V4", "inverse-sum4", "inverse-sum6",
                                  "V6"])
    def test_they_equal_the_rational_contractions(self, cfg, coords, text, c,
                                                  sign):
        chart = Chart("pf", list(coords))
        D = TwistedGraph(chart, parse_form(text, chart).scale(Rat(c)), "dh",
                         sign=sign, cfg=cfg)
        for f in ("q1", "q1*p2 + q2^2", "V(p1)*q2"):
            X = hamiltonian_vf(D, parse_expr(f, chart))
            assert _exact_dict(dirac._contract(X, D._h_lift)) == \
                _exact_dict(interior(X, D.h)), f
            assert _exact_dict(dirac._contract(X, D._H_lift)) == \
                _exact_dict(interior(X, D.H)), f
            assert _exact_dict(graph_section(D, X).alpha) == \
                _exact_dict(interior(X, D.h).scale(Rat(sign)).simplified())

    @pytest.mark.parametrize("c", [1, Fraction(3, 7)])
    def test_the_below_rank_test_sees_the_rational_power(self, phase, cfg,
                                                         c):
        # rank 4 of 6, not conformal: B = h and r = 2
        D = TwistedGraph(phase, rank_four_graph(phase).scale(Rat(c)), "dh",
                         cfg=cfg)
        assert D._support.bit_count() == 4
        assert _exact_dict(D._top) == _exact_dict(wedge(D.h, D.h))
