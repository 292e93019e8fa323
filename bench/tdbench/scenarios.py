"""Workload ``scenarios``: scenario files to reports through the CLI layer.

A round runs the five builtin scenarios under one of three oracle seeds,
eight scenario files generated from the workload seed, and a fixed pair of
unnamed files that trips a known fault.  Item = one scenario report.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from .exact import padd, pconst, pdiff, peval, pmul, pvar, poly_text

BUILTINS = ("darboux", "angular-momentum", "conformal-symplectic",
            "so3-cartan", "abelian-cartan")
GENERATED_PER_ROUND = 8
POOL_ROUNDS = 24
ORACLE_SEEDS = 3

# Two unnamed scenarios: both charts are called "unnamed" but their
# coordinates differ, and both hold a 1/(a+b) coefficient.  The second
# report of a process comes back ERROR: ChartMismatchError, because
# coordinate keys carry only the chart name and the normaliser's atom
# caches are process-global.
FAULT_UNNAMED_CHARTS = "second unnamed scenario: ChartMismatchError"


def _unnamed(a, b):
    return {
        "schema_version": 1,
        "chart": [a, b],
        "oracle": {"seed": 1, "samples": 16},
        "structure": {"type": "graph", "h": f"1/({a} + {b})*d{a}^d{b}",
                      "H": "dh"},
        "checks": [{"name": f"{{{a},{b}}} = -({a} + {b})",
                    "op": "poisson_bracket", "f": a, "g": b,
                    "expect": f"-({a} + {b})"}],
    }


def rand_poly(rng, n, terms=3, max_degree=2):
    p = {}
    for _ in range(terms):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), 2)
        mono = pconst(n, c)
        for _ in range(rng.randint(1, max_degree)):
            mono = pmul(mono, pvar(n, rng.randrange(n)))
        p = padd(p, mono)
    return p or pvar(n, 0)


def omega_bracket(f, g, half):
    """{f, g} for h = sum dp_i ^ dq_i under df = i_{X_f} h:
    sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i)."""
    out = {}
    for i in range(half):
        out = padd(out, pmul(pdiff(f, i), pdiff(g, half + i)))
        out = padd(out, pmul(pdiff(f, half + i), pdiff(g, i)), -1)
    return out


def generate_file(rng, index):
    """A Darboux-type (index even) or conformally scaled (index odd)
    scenario with polynomial functions, and the expected outcome of each
    of its checks."""
    conformal = index % 2 == 1
    dim = 6 if index % 4 == 2 else 4
    half = dim // 2
    names = [f"q{i + 1}" for i in range(half)] + \
        [f"p{i + 1}" for i in range(half)]
    f, g, k = (rand_poly(rng, dim) for _ in range(3))
    one = pconst(dim, 1)
    if conformal:
        phi = padd(padd(one, pvar(dim, 0, Fraction(
            rng.randint(1, 4), 4))), pvar(dim, dim - 1, Fraction(
                rng.randint(1, 4), 4)))
    else:
        phi = one
    phi_text = poly_text(phi, names)
    omega = " + ".join(f"dp{i + 1}^dq{i + 1}" for i in range(half))
    fg, gk, fk = (omega_bracket(a, b, half) for a, b in ((f, g), (g, k),
                                                         (f, k)))
    offset = pvar(dim, 0)

    def quotient(p):
        return f"({poly_text(p, names)})/({phi_text})"

    data = {
        "schema_version": 1,
        "name": f"gen{index}",
        "chart": names,
        "oracle": {"seed": rng.randrange(10 ** 6), "samples": 64},
        "definitions": {
            "exprs": {"f": poly_text(f, names), "g": poly_text(g, names),
                      "k": poly_text(k, names)},
            "forms": {"omega": omega},
        },
        "structure": {"type": "graph",
                      "h": f"({phi_text})*omega" if conformal else "omega",
                      "H": "dh" if conformal else "0"},
        "checks": [
            {"name": "nondegenerate", "op": "nondegenerate", "expect": True},
            {"name": "integrable", "op": "integrable", "expect": True},
            {"name": "{f,g}", "op": "poisson_bracket", "f": "f", "g": "g",
             "expect": quotient(fg)},
            {"name": "{g,k}", "op": "poisson_bracket", "f": "g", "g": "k",
             "expect": quotient(gk)},
            {"name": "{f,k} against a wrong value", "op": "poisson_bracket",
             "f": "f", "g": "k", "expect": quotient(padd(fk, pmul(offset,
                                                                  phi)))},
            {"name": "jacobi", "op": "jacobi_defect", "f": "f", "g": "g",
             "k": "k"},
        ],
    }
    # the wrong check must FAIL with a witness where |residual| = |q1|
    expected = {"{f,k} against a wrong value": (offset, names)}
    return data, expected


def check_generated(report, expected):
    """Every check PASSes except the deliberately wrong ones, which FAIL
    with a witness at which the residual has the reported magnitude."""
    for c in report.checks:
        wrong = expected.get(c.name)
        if wrong is None:
            if c.verdict != "PASS":
                return f"check {c.name!r}: {c.verdict} {c.detail}"
            continue
        if c.verdict != "FAIL" or not c.witness:
            return f"check {c.name!r}: expected FAIL with witness, got " \
                f"{c.verdict}"
        offset, names = wrong
        value = abs(peval(offset, [Fraction(c.witness[n])
                                   for n in names]))
        if value == 0 or abs(float(value) - c.residual_max) > \
                1e-9 * float(value):
            return f"check {c.name!r}: witness residual {float(value)} " \
                f"!= reported {c.residual_max}"
    return None


def check_builtin(report, first_json):
    """All PASS, and byte-identical (timing excluded) to the first report
    of the same builtin under the same seed in this run."""
    bad = [f"{c.name}: {c.verdict}" for c in report.checks
           if c.verdict != "PASS"]
    if bad:
        return "; ".join(bad)
    text = report.to_json(include_timing=False)
    key = (report.scenario, report.seed)
    if first_json.setdefault(key, text) != text:
        return f"report differs from the first one for {key}"
    return None


def check_all_pass(report):
    bad = [f"{c.name}: {c.verdict} {c.detail}" for c in report.checks
           if c.verdict != "PASS"]
    return "; ".join(bad) or None


class Workload:
    name = "scenarios"
    trace_rounds = 2

    def __init__(self, seed, workdir):
        rng = random.Random(f"{seed}:scenarios")
        self.seeds = [rng.randrange(1, 10 ** 6) for _ in range(ORACLE_SEEDS)]
        self.pool = []
        for r in range(POOL_ROUNDS):
            files = []
            for i in range(GENERATED_PER_ROUND):
                data, expected = generate_file(rng, i)
                path = os.path.join(workdir, f"gen-{r}-{i}.json")
                with open(path, "w") as fh:
                    json.dump(data, fh)
                files.append((path, expected))
            self.pool.append(files)
        self.unnamed = []
        for a, b in (("x", "y"), ("u", "v")):
            path = os.path.join(workdir, f"unnamed-{a}{b}.json")
            with open(path, "w") as fh:
                json.dump(_unnamed(a, b), fh)
            self.unnamed.append(path)
        self.first_json = {}

    def run_round(self, r, log):
        from twistdirac import cli
        seed = self.seeds[r % ORACLE_SEEDS]
        for name in BUILTINS:
            log.item(f"{name} seed={seed}",
                     lambda: cli.run_scenario(name, seed=seed),
                     lambda rep: check_builtin(rep, self.first_json))
        for path, expected in self.pool[r % POOL_ROUNDS]:
            log.item(os.path.basename(path), lambda: cli.run_scenario(path),
                     lambda rep: check_generated(rep, expected))
        first, second = self.unnamed
        log.item("unnamed x,y", lambda: cli.run_scenario(first),
                 check_all_pass)
        log.item("unnamed u,v", lambda: cli.run_scenario(second),
                 check_all_pass, fault=FAULT_UNNAMED_CHARTS)
