"""Symbolic exterior calculus for twisted Dirac structures.

Exact expression trees with a seeded randomized zero-test oracle, forms
and vector fields on a chart, the twisted bracket family on generalized
sections, graph-type Dirac structures with Poisson algebras of admissible
functions, Cartan 3-forms on Lie algebras, and a scenario-checking CLI.
"""

__version__ = "0.1.0"

from .symexpr import (Chart, ChartMismatchError, EvaluationSingularityError,
                      Expr, Func, OracleConfig, OracleInconclusiveError,
                      ParseError, PolyFunc, Pow, Prod, Rat, Sum, SymExprError,
                      Var, ZeroVerdict, diff, eval_expr, is_zero, parse_expr,
                      simplify)
from .exterior import (KForm, VectorField, ext_d, form_is_zero, interior,
                       lie_derivative, parse_form, parse_vector_field,
                       vf_apply, vf_bracket, vf_is_zero, wedge)
from .courant import (GenSection, LevelError, courant_bracket,
                      courant_tensor, derived_bracket, derived_bracket_skew,
                      dorfman_bracket, pairing, pairing_is_zero,
                      twisted_courant_bracket)
from .dirac import (AdmissibilityReport, NondegeneracyError, SolveError,
                    TwistNotClosedError, TwistedGraph,
                    VerdictNotDeterminedError,
                    check_image_under_d, check_poiss_brak_adm,
                    check_symplgraph, check_theorem, graph_section,
                    hamiltonian_vf, is_H_admissible, is_admissible_pair,
                    is_courant_admissible, jacobi_defect, poisson_bracket)
from .liealg import (CartanThreeForm, LieAlgebraData, LieAlgebraError,
                     abelian, cartan_3form, center, contraction_kernel, so3,
                     triple_contraction)

__all__ = [name for name in dir() if not name.startswith("_")]
