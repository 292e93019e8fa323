"""Acceptance criteria, one test per criterion.

Each criterion prints its own pass/fail line (run with -s to see them all
in order); tolerances are pinned here and nowhere else.
"""

import functools
import json
import time

import pytest

from twistdirac.symexpr import (Chart, OracleConfig, Rat, eval_expr,
                                is_zero, parse_expr, simplify)
from twistdirac.exterior import (KForm, ext_d, form_is_zero, interior,
                                 lie_derivative, vf_bracket, vf_is_zero)
from twistdirac.courant import (courant_bracket, courant_tensor,
                                derived_bracket, dorfman_bracket, pairing)
from twistdirac.dirac import (TwistedGraph, check_image_under_d,
                              check_theorem, hamiltonian_vf, is_H_admissible,
                              poisson_bracket)
from twistdirac.liealg import (abelian, cartan_3form, contraction_kernel,
                               so3, triple_contraction)
from twistdirac.randgen import rand_kform, rand_poly, rand_section, rng_for
from twistdirac.cli import run_scenario

from helpers import (admissible_pair, coupled_image_pairs, level1_graph,
                     standard_omega)

PHASE = Chart("phase", ["q1", "q2", "q3", "p1", "p2", "p3"])


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:>2}] FAIL: {description}")
                raise
            print(f"[criterion {num:>2}] PASS: {description}")
        return wrapper
    return decorate


def angular_momenta(chart):
    return (parse_expr("q2*p3 - q3*p2", chart),
            parse_expr("q3*p1 - q1*p3", chart),
            parse_expr("q1*p2 - q2*p1", chart))


@criterion(1, "angular momentum bracket table, exact, under 1 second")
def test_angular_momentum_table():
    start = time.monotonic()
    omega = standard_omega(PHASE)
    D = TwistedGraph(PHASE, omega, cfg=OracleConfig(seed=1, samples=8))
    L1, L2, L3 = angular_momenta(PHASE)
    for f, g, target in ((L1, L2, L3), (L2, L3, L1), (L3, L1, L2)):
        residual = simplify(poisson_bracket(D, f, g) - target)
        assert residual == Rat(0)  # tolerance 0: exact normal form
    assert time.monotonic() - start < 1.0


@criterion(2, "jacobi defect equals the twist contraction on the scaled "
              "graph, 25 random triples, |residual| <= 1e-8, under 30 s")
def test_jacobi_defect_identity():
    start = time.monotonic()
    cfg = OracleConfig(seed=20110202, samples=128, abs_tol=1e-8, rel_tol=0.0)
    omega = standard_omega(PHASE)
    D = TwistedGraph(PHASE, omega.scale(1 + PHASE["q1"]), "dh", cfg=cfg)
    from twistdirac.dirac import jacobi_defect
    for i in range(25):
        rng = rng_for(9200 + i, "jacobi")
        f = rand_poly(rng, PHASE, max_degree=2, terms=2)
        g = rand_poly(rng, PHASE, max_degree=2, terms=2)
        k = rand_poly(rng, PHASE, max_degree=2, terms=2)
        cyclic, contraction = jacobi_defect(D, f, g, k)
        assert is_zero(cyclic - contraction, cfg).zero, i
    assert time.monotonic() - start < 30.0


@criterion(3, "twist defect of the Courant tensor on 200 random section "
              "triples, |residual| <= 1e-9")
def test_courant_tensor_twist_defect():
    cfg = OracleConfig(seed=20110203, samples=128, abs_tol=1e-9, rel_tol=0.0)
    zero3 = KForm.zero(PHASE, 3)
    for i in range(200):
        rng = rng_for(9300 + i, "tlh")
        A = rand_section(rng, PHASE)
        B = rand_section(rng, PHASE)
        C = rand_section(rng, PHASE)
        H = rand_kform(rng, PHASE, 3, max_degree=2)
        residual = (courant_tensor(A, B, C, H)
                    - courant_tensor(A, B, C, zero3)
                    + interior(C.X, interior(B.X, interior(A.X, H)))
                    .scalar_value())
        assert is_zero(residual, cfg).zero, i


@criterion(4, "Dorfman minus skew bracket is the exact pairing term on "
              "200 random section pairs")
def test_dorfman_courant_relation():
    cfg = OracleConfig(seed=20110204, samples=128)
    for i in range(200):
        rng = rng_for(9400 + i, "dc")
        A = rand_section(rng, PHASE)
        B = rand_section(rng, PHASE)
        dorf = dorfman_bracket(A, B)
        cour = courant_bracket(A, B)
        exact = ext_d(KForm.scalar(PHASE, pairing(A, B)))
        assert vf_is_zero(dorf.X - cour.X, cfg).zero, i
        assert form_is_zero(dorf.alpha - cour.alpha - exact, cfg).zero, i


@criterion(5, "Poisson algebra closure on 50 constructed admissible pairs "
              "under the coordinate twist")
def test_theorem_closure():
    cfg = OracleConfig(seed=20110205, samples=128)
    omega = standard_omega(PHASE)
    H = KForm.basis(PHASE, ["q1", "q2", "q3"])
    D = TwistedGraph(PHASE, omega, H, cfg=cfg)
    twisted_coords = ("q1", "q2", "q3")
    for i in range(50):
        rng = rng_for(9500 + i, "closure")
        f = rand_poly(rng, PHASE, max_degree=2, terms=2,
                      coords=twisted_coords)
        g = rand_poly(rng, PHASE, max_degree=2, terms=2,
                      coords=twisted_coords)
        k = rand_poly(rng, PHASE, max_degree=2, terms=2)
        report = check_theorem(D, f, g, k)
        assert report.zero, (i, str(report))


@criterion(6, "graph characterization identity for 50 random functions on "
              "the flat and on the scaled structure")
def test_symplectic_graph_identity():
    cfg = OracleConfig(seed=20110206, samples=128)
    omega = standard_omega(PHASE)
    flat = TwistedGraph(PHASE, omega, cfg=cfg)
    scaled = TwistedGraph(PHASE, omega.scale(1 + PHASE["q1"]), "dh", cfg=cfg)
    for i in range(50):
        rng = rng_for(9600 + i, "graphchar")
        f = rand_poly(rng, PHASE, max_degree=2, terms=2)
        for D in (flat, scaled):
            X = hamiltonian_vf(D, f)
            residual = lie_derivative(X, D.h) - interior(X, D.H)
            assert form_is_zero(residual, cfg).zero, i


@criterion(7, "derived bracket collapses to ([X,Y], L_X beta) on 50 "
              "admissible pairs at levels 1, 2 and 3")
def test_reduced_bracket_on_admissible_pairs():
    cfg = OracleConfig(seed=20110207, samples=128)
    omega = standard_omega(PHASE)
    graph = level1_graph(PHASE, cfg)
    twists = {
        1: omega,
        2: KForm.basis(PHASE, ["q1", "q2", "q3"]),
        3: KForm.basis(PHASE, ["q1", "q2", "q3", "p1"]),
    }
    for level, twist in twists.items():
        pairs = [admissible_pair(rng_for(9700 + 100 * level + i, "red"),
                                 PHASE, level, twist,
                                 graph=graph if level == 1 else None)
                 for i in range(50)]
        for i in range(0, 50, 2):
            A, B = pairs[i], pairs[i + 1]
            out = derived_bracket(A, B, twist)
            assert vf_is_zero(out.X - vf_bracket(A.X, B.X), cfg).zero, \
                (level, i)
            expected = lie_derivative(A.X, B.alpha)
            assert form_is_zero(out.alpha - expected, cfg).zero, (level, i)


@criterion(8, "image of admissible pairs under d: isotropy and the "
              "untwisted bracket formula")
def test_image_under_d():
    cfg = OracleConfig(seed=20110208, samples=128)
    omega = standard_omega(PHASE)
    graph = level1_graph(PHASE, cfg)
    lvl1 = [admissible_pair(rng_for(9800 + i, "img"), PHASE, 1, omega,
                            graph=graph) for i in range(4)]
    report = check_image_under_d(lvl1, omega, cfg)
    assert report.zero, str(report)
    H = KForm.basis(PHASE, ["q1", "q2", "q3"])
    for i in range(5):
        A, B = coupled_image_pairs(rng_for(9850 + i, "img2"), PHASE)
        report = check_image_under_d([A, B], H, cfg)
        assert report.zero, (i, str(report))


@criterion(9, "Cartan structure: so(3) kernel trivial, abelian kernel "
              "full, alternating nonvanishing table (computed value 1/2 "
              "reported, not asserted against the quoted 1)")
def test_cartan_structures():
    L = so3()
    assert contraction_kernel(L) == []
    A = abelian(4)
    assert len(contraction_kernel(A)) == 4
    T = cartan_3form(L)
    base = T.value(1, 2, 3)
    assert base != 0
    assert T.value(2, 1, 3) == -base and T.value(1, 3, 2) == -base
    value = triple_contraction(L, 1, 2, 3)
    assert value != 0
    print(f"    so(3) contraction (1,2,3) computes to {value} "
          f"(magnitude 1/2; the quoted value 1 is reported, not asserted)")


@criterion(10, "conformal scenario reports definite, deterministic "
               "admissibility verdicts whose witnesses re-evaluate")
def test_conformal_verdict_reporting():
    cfg = OracleConfig(seed=20110210, samples=128)
    omega = standard_omega(PHASE)
    r = parse_expr("(q1^2+q2^2+q3^2)^(1/2)", PHASE)
    phi = parse_expr("1/2*(p1^2+p2^2+p3^2) + V(r)", PHASE, {"r": r})
    D = TwistedGraph(PHASE, omega.scale(phi), "dh", cfg=cfg)
    assert D.nondegenerate and D.integrable
    for name, f in zip(("L1", "L2", "L3"), angular_momenta(PHASE)):
        first = is_H_admissible(D, f, name)
        second = is_H_admissible(D, f, name)
        assert first.h_admissible is not None
        assert first.h_admissible == second.h_admissible
        assert first.witness == second.witness
        if not first.h_admissible:
            # the witness must reproduce the nonzero residual coefficient
            X = first.hamiltonian_field
            contraction = interior(X, D.H)
            verdict = form_is_zero(contraction, cfg)
            assert not verdict.zero
            label, zv = verdict.failures[0]
            coefficient = None
            for mask, c in contraction.terms():
                basis = "^".join(f"d{PHASE.coords[b]}"
                                 for b in _mask_bits(mask))
                if basis == label:
                    coefficient = c
                    break
            assert coefficient is not None
            value = eval_expr(coefficient, zv.witness_point,
                              dict(zv.func_env))
            assert abs(float(value)) == pytest.approx(zv.magnitude,
                                                      rel=1e-9)
        print(f"    {name}: H-admissible = {first.h_admissible}")


def _mask_bits(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


@criterion(11, "identical seeds give byte-identical reports for every "
               "builtin (timing excluded)")
def test_builtin_determinism():
    for name in ("darboux", "angular-momentum", "conformal-symplectic",
                 "so3-cartan", "abelian-cartan"):
        first = run_scenario(name).to_dict(include_timing=False)
        second = run_scenario(name).to_dict(include_timing=False)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True), name
        assert run_scenario(name).exit_code == 0, name
