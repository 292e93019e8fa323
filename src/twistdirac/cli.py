"""Scenario runner and command-line front end.

Scenario files are JSON: a chart, oracle settings, named definitions
(expressions, forms, sections), one or more structures (2-form graphs or
Lie algebras), and a list of named checks.  Built-in scenarios ship as
embedded JSON and double as documentation and golden tests.

Verdicts: PASS/FAIL report mathematical outcomes (a FAIL carries a witness
point), ERROR reports infrastructure problems, INCONCLUSIVE reports an
oracle that could not evaluate.  Exit codes: 0 all PASS, 1 any FAIL,
2 any ERROR or INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .symexpr import (Chart, OracleConfig, ParseError, SymExprError,
                      is_zero, parse_expr, simplify)
from .exterior import parse_form, parse_vector_field, vf_apply
from .courant import GenSection, pairing_is_zero
from . import dirac
from . import liealg

SEED_ENV_VAR = "TWISTDIRAC_SEED"
SCHEMA_VERSION = 1

BUILTIN_NAMES = (
    "darboux",
    "angular-momentum",
    "conformal-symplectic",
    "so3-cartan",
    "abelian-cartan",
)


class ScenarioError(SymExprError):
    pass


@dataclass
class CheckResult:
    name: str
    verdict: str                 # PASS | FAIL | ERROR | INCONCLUSIVE
    witness: dict = None
    residual_max: float = None
    ms: float = 0.0
    detail: str = ""

    def to_dict(self, include_timing=True):
        out = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = {k: str(v) for k, v in sorted(
                self.witness.items())}
        if self.residual_max is not None:
            out["residual_max"] = self.residual_max
        if self.detail:
            out["detail"] = self.detail
        if include_timing:
            out["ms"] = round(self.ms, 3)
        return out


@dataclass
class Report:
    scenario: str
    cfg: OracleConfig
    sign: str
    checks: list = field(default_factory=list)

    @property
    def seed(self):
        return self.cfg.seed

    @property
    def exit_code(self):
        verdicts = {c.verdict for c in self.checks}
        if "ERROR" in verdicts or "INCONCLUSIVE" in verdicts:
            return 2
        if "FAIL" in verdicts:
            return 1
        return 0

    def to_dict(self, include_timing=True):
        return {
            "version": __version__,
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.cfg.seed,
            "samples": self.cfg.samples,
            "sign": self.sign,
            "abs_tol": self.cfg.abs_tol,
            "rel_tol": self.cfg.rel_tol,
            "func_degree": self.cfg.func_degree,
            "checks": [c.to_dict(include_timing) for c in self.checks],
        }

    def to_json(self, include_timing=True):
        return json.dumps(self.to_dict(include_timing), sort_keys=True,
                          indent=2)

    def render_text(self):
        lines = [f"scenario: {self.scenario}   "
                 f"(seed={self.cfg.seed}, samples={self.cfg.samples}, "
                 f"sign={self.sign})"]
        for c in self.checks:
            line = f"  [{c.verdict:<12}] {c.name}"
            if c.residual_max is not None:
                line += f"  |residual| = {c.residual_max:.3g}"
            lines.append(line)
            if c.witness:
                pt = ", ".join(f"{k}={v}" for k, v in
                               sorted(c.witness.items()))
                lines.append(f"                 witness: {pt}")
            if c.detail:
                lines.append(f"                 {c.detail}")
        counts = {}
        for c in self.checks:
            counts[c.verdict] = counts.get(c.verdict, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"result: {summary or 'no checks'}")
        return "\n".join(lines)


def _builtin_path(name):
    from importlib.resources import files
    return files("twistdirac").joinpath("scenarios", f"{name}.json")


def load_scenario_data(source):
    """Scenario dict from a builtin name or a JSON file path."""
    if source in BUILTIN_NAMES:
        text = _builtin_path(source).read_text()
    else:
        if not os.path.exists(source):
            known = ", ".join(BUILTIN_NAMES)
            raise ScenarioError(
                f"{source!r} is neither a builtin ({known}) nor a file")
        with open(source) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {source!r}: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError(f"{source!r} must hold a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {data.get('schema_version')!r}")
    return data


def _oracle_config(oracle, seed, samples, tol):
    """OracleConfig from a scenario's oracle block and the overrides; a
    setting that neither gives keeps OracleConfig's default.  TypeError or
    ValueError for a malformed block or setting."""
    oracle = dict(oracle)
    given = {"seed": int, "samples": int, "func_degree": int, "box": dict}
    if tol is None:
        given.update(abs_tol=float, rel_tol=float)
    settings = {name: convert(oracle[name])
                for name, convert in given.items() if name in oracle}
    if seed is None:
        seed = os.environ.get(SEED_ENV_VAR)
    if seed is not None:
        settings["seed"] = int(seed)
    if samples is not None:
        settings["samples"] = int(samples)
    if tol is not None:
        settings["abs_tol"] = settings["rel_tol"] = float(tol)
    return OracleConfig(**settings)


class ScenarioRun:
    """A loaded scenario with resolved definitions and structures."""

    def __init__(self, data, seed=None, samples=None, tol=None, sign=None):
        self.name = data.get("name", "unnamed")
        try:
            self.chart = Chart(self.name, data["chart"])
        except KeyError:
            raise ScenarioError("scenario must declare a chart")
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid chart: {exc}")
        try:
            self.cfg = _oracle_config(data.get("oracle", {}), seed, samples,
                                      tol)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid oracle settings: {exc}")
        self.sign_override = sign
        self.exprs = {}
        self.forms = {}
        self.sections = {}
        self._load_definitions(data.get("definitions", {}))
        self._structure_specs = self._collect_structures(data)
        self._structures = {}
        self.checks = data.get("checks", [])

    # -- definitions -------------------------------------------------------

    def _load_definitions(self, defs):
        for name, text in defs.get("exprs", {}).items():
            self._check_name(name)
            try:
                self.exprs[name] = parse_expr(text, self.chart, self.exprs)
            except ParseError as exc:
                raise ScenarioError(f"in expression {name!r}: {exc}")
        for name, spec in defs.get("forms", {}).items():
            self._check_name(name)
            self.forms[name] = self._parse_form_spec(spec, label=name)
        for name, spec in defs.get("sections", {}).items():
            self._check_name(name)
            try:
                X = parse_vector_field(spec["X"], self.chart, self.exprs)
                alpha = self._parse_form_spec(spec["alpha"],
                                              label=f"{name}.alpha")
            except KeyError as exc:
                raise ScenarioError(
                    f"section {name!r} needs 'X' and 'alpha' ({exc})")
            self.sections[name] = GenSection(X, alpha)

    def _check_name(self, name):
        if name in self.chart.coords:
            raise ScenarioError(
                f"definition {name!r} shadows a chart coordinate")
        if name in self.exprs or name in self.forms or name in self.sections:
            raise ScenarioError(f"duplicate definition {name!r}")

    def _parse_form_spec(self, spec, degree=None, label="form"):
        if isinstance(spec, dict):
            degree = spec.get("degree", degree)
            spec = spec["text"]
        if spec in self.forms:
            return self.forms[spec]
        try:
            return parse_form(spec, self.chart, degree=degree,
                              names=self.exprs, form_names=self.forms)
        except ParseError as exc:
            raise ScenarioError(f"in {label}: {exc}")

    def expr(self, spec, label="expression"):
        if isinstance(spec, (int, float)):
            return parse_expr(str(spec), self.chart)
        if spec in self.exprs:
            return self.exprs[spec]
        try:
            return parse_expr(spec, self.chart, self.exprs)
        except ParseError as exc:
            raise ScenarioError(f"in {label}: {exc}")

    # -- structures --------------------------------------------------------

    def _collect_structures(self, data):
        if "structures" in data:
            specs = dict(data["structures"])
        elif "structure" in data:
            specs = {"main": data["structure"]}
        else:
            specs = {}
        return specs

    def structure(self, name=None):
        if name is None:
            if len(self._structure_specs) == 1:
                name = next(iter(self._structure_specs))
            else:
                name = "main"
        if name in self._structures:
            return self._structures[name]
        try:
            spec = self._structure_specs[name]
        except KeyError:
            raise ScenarioError(f"no structure named {name!r}")
        built = self._build_structure(spec)
        self._structures[name] = built
        return built

    def _build_structure(self, spec):
        if not isinstance(spec, dict):
            raise ScenarioError(
                f"a structure must be a JSON object, got {spec!r}")
        kind = spec.get("type")
        if kind == "graph":
            h = self._parse_form_spec(spec["h"], degree=2, label="h")
            twist_spec = spec.get("H", "0")
            if twist_spec == "dh":
                twist = "dh"
            elif twist_spec in ("0", 0, None):
                twist = None
            else:
                twist = self._parse_form_spec(twist_spec, degree=3,
                                              label="H")
            sign_text = self.sign_override or spec.get("sign", "+")
            sign = {"+": 1, "-": -1}.get(sign_text)
            if sign is None:
                raise ScenarioError(f"invalid sign {sign_text!r}")
            try:
                return dirac.TwistedGraph(self.chart, h, twist, sign,
                                          self.cfg)
            except dirac.TwistNotClosedError as exc:
                raise ScenarioError(str(exc))
        if kind == "lie_algebra":
            return self._build_algebra(spec.get("algebra"))
        raise ScenarioError(f"unknown structure type {kind!r}")

    def _build_algebra(self, spec):
        try:
            if isinstance(spec, str):
                if spec == "so3":
                    return liealg.so3()
                if spec.startswith("abelian(") and spec.endswith(")"):
                    return liealg.abelian(int(spec[8:-1]))
                raise ScenarioError(f"unknown builtin algebra {spec!r}")
            return liealg.LieAlgebraData.from_brackets(
                spec["dim"], [tuple(b[:2]) + (b[2],)
                              for b in spec["brackets"]], spec["metric"])
        except liealg.LieAlgebraError as exc:
            raise ScenarioError(f"bad Lie algebra: {exc}")


# ---------------------------------------------------------------------------
# check operations


def _outcome(verdict):
    """(PASS/FAIL, witness, residual, detail naming the failing children)
    of a ZeroVerdict."""
    if verdict.zero:
        return "PASS", None, None, ""
    failing = "; ".join(label for label, _ in verdict.failures)
    return ("FAIL", verdict.witness_point, verdict.magnitude,
            failing and f"failing: {failing}")


def _op_poisson_bracket(run, spec):
    D = run.structure(spec.get("structure"))
    f = run.expr(spec["f"], "f")
    g = run.expr(spec["g"], "g")
    bracket = dirac.poisson_bracket(D, f, g)
    expect = run.expr(spec.get("expect", "0"), "expect")
    v, w, r, _ = _outcome(is_zero(bracket - expect, run.cfg))
    return v, w, r, f"{{f,g}} = {bracket}"


def _op_courant_admissible(run, spec):
    D = run.structure(spec.get("structure"))
    f = run.expr(spec["f"], "f")
    expect = bool(spec.get("expect", True))
    ok, X = dirac.is_courant_admissible(D, f)
    verdict = "PASS" if ok == expect else "FAIL"
    detail = f"admissible={ok}" + (f", X_f = {X}" if X is not None else "")
    return verdict, None, None, detail


def _op_h_admissible(run, spec):
    D = run.structure(spec.get("structure"))
    f = run.expr(spec["f"], "f")
    expect = spec.get("expect")
    if expect not in (None, "zero", "nonzero"):
        raise ScenarioError(
            f"h_admissible expect must be 'zero' or 'nonzero', "
            f"got {expect!r}")
    report = dirac.is_H_admissible(D, f, spec.get("f", "f"))
    if report.h_admissible is None:
        return ("INCONCLUSIVE", None, None,
                f"verdict not determined: {report.detail}")
    verdict_word = "zero" if report.h_admissible else "nonzero"
    detail = (f"i_X H {verdict_word}"
              + (f"; X_f = {report.hamiltonian_field}"
                 if report.hamiltonian_field else ""))
    if expect is None:
        return "PASS", report.witness, report.magnitude, detail
    ok = (expect == verdict_word)
    return ("PASS" if ok else "FAIL", report.witness, report.magnitude,
            detail)


def _op_theorem_closure(run, spec):
    D = run.structure(spec.get("structure"))
    f = run.expr(spec["f"], "f")
    g = run.expr(spec["g"], "g")
    k = run.expr(spec["k"], "k") if "k" in spec else None
    return _outcome(dirac.check_theorem(D, f, g, k))


def _op_jacobi_defect(run, spec):
    D = run.structure(spec.get("structure"))
    f = run.expr(spec["f"], "f")
    g = run.expr(spec["g"], "g")
    k = run.expr(spec["k"], "k")
    cyclic, contraction = dirac.jacobi_defect(D, f, g, k)
    v, w, r, _ = _outcome(is_zero(cyclic - contraction, run.cfg))
    return v, w, r, f"cyclic sum = {cyclic}"


def _op_symplectic_graph(run, spec):
    D = run.structure(spec.get("structure"))
    f = run.expr(spec["f"], "f")
    identity, lie = dirac.check_symplgraph(D, f, spec.get("f", "f"))
    v, w, r, _ = _outcome(identity)
    detail = f"H-admissible (L_X h = 0): {lie.zero}"
    expect = spec.get("expect_h_admissible")
    if expect is not None and bool(expect) != lie.zero:
        v = "FAIL"
    return v, w, r, detail


def _op_poisson_pair(run, spec):
    D = run.structure(spec.get("structure"))
    f = run.expr(spec["f"], "f")
    g = run.expr(spec["g"], "g")
    return _outcome(dirac.check_poiss_brak_adm(D, f, g))


def _op_admissible_pair(run, spec):
    sec = run.sections[spec["section"]]
    H = run._parse_form_spec(spec["H"], degree=sec.level + 1, label="H") \
        if "H" in spec else run.structure(spec.get("structure")).H
    verdict = dirac.is_admissible_pair(sec.X, sec.alpha, H, run.cfg)
    expect = bool(spec.get("expect", True))
    _, w, r, _ = _outcome(verdict)
    return "PASS" if verdict.zero == expect else "FAIL", w, r, ""


def _op_pairing_zero(run, spec):
    A = run.sections[spec["a"]]
    B = run.sections[spec["b"]]
    v, w, r, _ = _outcome(pairing_is_zero(A, B, run.cfg))
    return v, w, r, ""


def _op_image_under_d(run, spec):
    secs = [run.sections[name] for name in spec["sections"]]
    if not secs:
        raise ScenarioError("image_under_d needs at least one section")
    H = run._parse_form_spec(spec["H"], label="H") if "H" in spec \
        else run.structure(spec.get("structure")).H
    return _outcome(dirac.check_image_under_d(secs, H, run.cfg))


def _op_integrable(run, spec):
    D = run.structure(spec.get("structure"))
    expect = bool(spec.get("expect", True))
    ok = D.integrable == expect
    return ("PASS" if ok else "FAIL", None, None,
            f"integrable={D.integrable}")


def _op_nondegenerate(run, spec):
    D = run.structure(spec.get("structure"))
    expect = bool(spec.get("expect", True))
    ok = D.nondegenerate == expect
    return ("PASS" if ok else "FAIL", None, None,
            f"nondegenerate={D.nondegenerate}")


def _op_cartan_kernel(run, spec):
    L = run.structure(spec.get("structure"))
    kernel = liealg.contraction_kernel(L)
    expect = int(spec["expect_dimension"])
    ok = len(kernel) == expect
    detail = f"kernel dimension = {len(kernel)}"
    if kernel:
        detail += "; basis: " + "; ".join(
            "(" + ", ".join(str(x) for x in vec) + ")" for vec in kernel)
    return ("PASS" if ok else "FAIL", None, None, detail)


def _op_cartan_table(run, spec):
    L = run.structure(spec.get("structure"))
    try:
        T = liealg.cartan_3form(L)
    except liealg.LieAlgebraError as exc:
        return "FAIL", None, None, str(exc)
    rows = [f"T({i},{j},{k}) = {v}" for (i, j, k), v in T.table()]
    detail = "; ".join(rows) if rows else "no triples"
    nonzero = spec.get("nonzero")
    if nonzero is not None:
        l, m, n = nonzero
        value = liealg.triple_contraction(L, l, m, n)
        detail += f"; contraction({l},{m},{n}) = {value}"
        if value == 0:
            return "FAIL", None, None, detail
    return "PASS", None, None, detail


CHECK_OPS = {
    "poisson_bracket": _op_poisson_bracket,
    "courant_admissible": _op_courant_admissible,
    "h_admissible": _op_h_admissible,
    "theorem_closure": _op_theorem_closure,
    "jacobi_defect": _op_jacobi_defect,
    "symplectic_graph": _op_symplectic_graph,
    "poisson_pair_bracket": _op_poisson_pair,
    "admissible_pair": _op_admissible_pair,
    "pairing_zero": _op_pairing_zero,
    "image_under_d": _op_image_under_d,
    "integrable": _op_integrable,
    "nondegenerate": _op_nondegenerate,
    "cartan_kernel": _op_cartan_kernel,
    "cartan_table": _op_cartan_table,
}


def _default_check_name(spec):
    args = ",".join(f"{k}={v}" for k, v in sorted(spec.items())
                    if k not in ("op", "name") and not isinstance(v, (dict,
                                                                      list)))
    return f"{spec.get('op', '?')}({args})"


def run_scenario(source, seed=None, samples=None, tol=None, sign=None):
    """Execute every check of a scenario; FAIL results never abort the
    run, definition and structure errors do."""
    data = load_scenario_data(source)
    run = ScenarioRun(data, seed=seed, samples=samples, tol=tol, sign=sign)
    report = Report(scenario=run.name, cfg=run.cfg, sign=sign or "+")
    for spec in run.checks:
        name = spec.get("name") or _default_check_name(spec)
        op = spec.get("op")
        handler = CHECK_OPS.get(op)
        start = time.perf_counter()
        if handler is None:
            result = CheckResult(name, "ERROR",
                                 detail=f"unknown check op {op!r}")
        else:
            try:
                verdict, witness, residual, detail = handler(run, spec)
                result = CheckResult(name, verdict, witness, residual,
                                     detail=detail)
            except (dirac.SolveError, dirac.NondegeneracyError,
                    ScenarioError, SymExprError, KeyError) as exc:
                result = CheckResult(name, "ERROR",
                                     detail=f"{type(exc).__name__}: {exc}")
        result.ms = (time.perf_counter() - start) * 1000.0
        report.checks.append(result)
    return report


def cmd_bracket(source, f_name, g_name, structure=None, seed=None,
                samples=None, tol=None, sign=None, out=None):
    """Print X_f, X_g and the simplified bracket {f, g}."""
    data = load_scenario_data(source)
    run = ScenarioRun(data, seed=seed, samples=samples, tol=tol, sign=sign)
    D = run.structure(structure)
    f = run.expr(f_name, "f")
    g = run.expr(g_name, "g")
    out = out or sys.stdout
    Xf = dirac.hamiltonian_vf(D, f)
    Xg = dirac.hamiltonian_vf(D, g)
    bracket = vf_apply(Xf, g)
    label = ""
    for name, e in run.exprs.items():
        if simplify(e) == bracket:
            label = f"  (= {name})"
            break
    print(f"X_{f_name} = {Xf}", file=out)
    print(f"X_{g_name} = {Xg}", file=out)
    print(f"{{{f_name}, {g_name}}} = {bracket}{label}", file=out)
    return bracket


def cmd_admissible(source, f_name, structure=None, seed=None, samples=None,
                   tol=None, sign=None, out=None):
    """Print the admissibility report for a named function."""
    data = load_scenario_data(source)
    run = ScenarioRun(data, seed=seed, samples=samples, tol=tol, sign=sign)
    D = run.structure(structure)
    f = run.expr(f_name, "f")
    out = out or sys.stdout
    report = dirac.is_H_admissible(D, f, f_name)
    print(report, file=out)
    return report


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p):
    p.add_argument("--seed", type=int, default=None,
                   help="oracle seed (overrides scenario and "
                        f"${SEED_ENV_VAR})")
    p.add_argument("--samples", type=int, default=None,
                   help="oracle sample count")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute and relative oracle tolerance")
    p.add_argument("--sign-convention", choices=["+", "-"], default=None,
                   dest="sign", help="graph sign convention override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistdirac",
        description="Check identities of twisted Dirac structures and "
                    "their Poisson algebras of admissible functions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario's checks")
    p_check.add_argument("scenario",
                         help="builtin name or scenario JSON path")
    p_check.add_argument("--format", choices=["text", "json"],
                         default="text")
    _add_common(p_check)

    p_report = sub.add_parser(
        "report", help="run a scenario and write the report")
    p_report.add_argument("scenario")
    p_report.add_argument("--format", choices=["text", "json"],
                          default="json")
    p_report.add_argument("-o", "--output", default=None,
                          help="write to a file instead of stdout")
    _add_common(p_report)

    p_bracket = sub.add_parser(
        "bracket", help="Poisson bracket of two defined functions")
    p_bracket.add_argument("scenario")
    p_bracket.add_argument("f")
    p_bracket.add_argument("g")
    p_bracket.add_argument("--structure", default=None)
    _add_common(p_bracket)

    p_adm = sub.add_parser(
        "admissible", help="admissibility report for a defined function")
    p_adm.add_argument("scenario")
    p_adm.add_argument("f")
    p_adm.add_argument("--structure", default=None)
    _add_common(p_adm)

    sub.add_parser("builtins", help="list builtin scenarios")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "builtins":
            for name in BUILTIN_NAMES:
                print(name)
            return 0
        if args.command in ("check", "report"):
            report = run_scenario(args.scenario, seed=args.seed,
                                  samples=args.samples, tol=args.tol,
                                  sign=args.sign)
            if args.format == "json":
                text = report.to_json()
            else:
                text = report.render_text()
            output = getattr(args, "output", None)
            if output:
                with open(output, "w") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            return report.exit_code
        if args.command == "bracket":
            cmd_bracket(args.scenario, args.f, args.g,
                        structure=args.structure, seed=args.seed,
                        samples=args.samples, tol=args.tol, sign=args.sign)
            return 0
        if args.command == "admissible":
            cmd_admissible(args.scenario, args.f,
                           structure=args.structure, seed=args.seed,
                           samples=args.samples, tol=args.tol,
                           sign=args.sign)
            return 0
    except (ScenarioError, SymExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
