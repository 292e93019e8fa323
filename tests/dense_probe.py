"""Dense twisted-graph probe: build a dense non-constant 2-form and solve.

Usage (from the repository root, with the package importable):

    python tests/dense_probe.py DIM [SEED]

The form puts (r + s*x_k) dx_i^dx_j on every pair i < j of a DIM-coordinate
chart, with r, s and k drawn from random.Random(SEED) (SEED 1 by default).
At an even DIM the structure has full rank and is integrable, and the
Hamiltonian field of x0 must have an exact zero residual.  It is not
nondegenerate on the default sampling box: its Pfaffian, a polynomial in
the coordinates, takes both signs at the exact sample points, so it has a
zero in the box (at DIMs 8, 10 and 12 with SEED 1).  At an odd DIM it has
rank DIM - 1, so it is degenerate and the system for x0 is inconsistent.  Prints the build and the x0 solve times (CPU seconds) and
exits nonzero when an assertion fails.  pytest does not collect this file.
"""

import random
import sys
import time
from fractions import Fraction

from twistdirac.dirac import (TwistedGraph, graph_section, hamiltonian_vf,
                              is_courant_admissible)
from twistdirac.exterior import KForm, ext_d, form_is_zero
from twistdirac.symexpr import Chart, Rat


def dense_form(dim, seed):
    """The chart and the (r + s*x_k) dx_i^dx_j form of the recipe."""
    rng = random.Random(seed)
    chart = Chart(f"dense{dim}", [f"x{i}" for i in range(dim)])
    coeffs = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            r = Fraction(rng.choice((1, 2, 3, 4)), 2)
            s = Fraction(rng.choice((-2, -1, 1, 2)), 4)
            k = rng.randrange(dim)
            coeffs[(1 << i) | (1 << j)] = Rat(r) + Rat(s) * chart[f"x{k}"]
    return chart, KForm(chart, 2, coeffs)


def main(argv):
    dim = int(argv[0])
    seed = int(argv[1]) if len(argv) > 1 else 1
    chart, h = dense_form(dim, seed)
    start = time.process_time()
    D = TwistedGraph(chart, h, "dh")
    build = time.process_time() - start
    f = chart["x0"]
    start = time.process_time()
    if dim % 2 == 0:
        assert D._support.bit_count() == dim
        assert not D.nondegenerate and D.integrable
        X = hamiltonian_vf(D, f)
        residual = form_is_zero(
            ext_d(KForm.scalar(chart, f)) - graph_section(D, X).alpha)
        assert residual.zero and residual.exact, residual
    else:
        assert not D.nondegenerate
        assert D._support.bit_count() == dim - 1
        assert is_courant_admissible(D, f) == (False, None)
    solve = time.process_time() - start
    print(f"dim {dim} seed {seed}: build {build:.2f} s, x0 solve {solve:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
