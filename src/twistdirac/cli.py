"""Scenario runner and command-line front end.

Scenario files are JSON: a chart, oracle settings, named definitions
(expressions, forms, sections), one or more structures (2-form graphs or
Lie algebras), and a list of named checks.  Built-in scenarios ship as
embedded JSON and double as documentation and golden tests.

Verdicts: PASS/FAIL report mathematical outcomes (a FAIL carries a witness
point), INCONCLUSIVE a verdict the structure does not determine (the H
verdict of a function that is not admissible, or on a degenerate
structure), and ERROR every other problem, an oracle that could not
evaluate included.  Exit codes: 0 all PASS, 1 any FAIL, 2 any ERROR or
INCONCLUSIVE.

Each check op in CHECK_OPS takes the run and the check object and returns
(verdict word, evidence, detail).  The evidence is the ZeroVerdict whose
witness and magnitude the report row carries, or None for the flag and
Lie algebra ops; _run_check copies them into the row when the evidence is
not zero.  Every command loads its scenario with ScenarioRun.load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from math import isfinite

from . import __version__
from .symexpr import (Chart, OracleConfig, ParseError, Rat, SymExprError,
                      _number, _rat_str, _witness_str, parse_expr,
                      simplify)
from .exterior import parse_form, parse_vector_field
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


_JSON_TYPES = {list: "array", dict: "object", str: "string"}


def _json(value, kind, what):
    """value, when it has the JSON type kind (list, dict, or str for a
    name); ScenarioError naming what otherwise."""
    if not isinstance(value, kind):
        raise ScenarioError(
            f"{what} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _expr(value, what, chart, names):
    """The expression of a JSON value: a string is parsed, a finite number
    read exactly; ScenarioError naming what for any other value."""
    if isinstance(value, str):
        try:
            return parse_expr(value, chart, names)
        except ParseError as exc:
            raise ScenarioError(f"in {what}: {exc}")
    if type(value) is int or type(value) is float and isfinite(value):
        # a float by its shortest repr, so 1e-05 is 1/100000
        return Rat(value if type(value) is int else _number(repr(value)))
    raise ScenarioError(
        f"{what} must be a string or a finite number, got {value!r}")


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
            out["witness"] = {k: _rat_str(v) for k, v in sorted(
                self.witness.items())}
        if self.residual_max is not None:
            # JSON has no infinity: a residual beyond float range is "inf"
            out["residual_max"] = self.residual_max \
                if isfinite(self.residual_max) else "inf"
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
                          indent=2, allow_nan=False)

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
                lines.append(f"                 witness: "
                             f"{_witness_str(c.witness)}")
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
        text = _builtin_path(source).read_text(encoding="utf-8")
    else:
        if not os.path.exists(source):
            known = ", ".join(BUILTIN_NAMES)
            raise ScenarioError(
                f"{source!r} is neither a builtin ({known}) nor a file")
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read {source!r}: {exc}")
    try:
        data = json.loads(text)
    except ValueError as exc:   # malformed, or an int past the digit limit
        raise ScenarioError(f"invalid JSON in {source!r}: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError(f"{source!r} must hold a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {data.get('schema_version')!r}")
    return data


def _oracle_config(oracle, coords, seed, samples, tol):
    """OracleConfig from a scenario's oracle block and the overrides; a
    setting that neither gives keeps OracleConfig's default.  The block
    must be an object whose box names chart coordinates; OracleConfig
    checks every setting's type and range.  TypeError or ValueError for
    a malformed block or setting."""
    oracle = _json(oracle, dict, "oracle")
    settings = {name: oracle[name] for name in
                ("seed", "samples", "func_degree", "abs_tol", "rel_tol")
                if name in oracle}
    settings["box"] = box = _json(oracle.get("box", {}), dict, "oracle box")
    for name in box:
        if name not in coords:
            raise ValueError(f"box entry {name!r} is not a chart coordinate")
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

    @classmethod
    def load(cls, source, seed=None, samples=None, tol=None, sign=None):
        """The run of a builtin name or a JSON file path; seed, samples,
        tol and sign override the scenario's own settings."""
        return cls(load_scenario_data(source), seed, samples, tol, sign)

    def __init__(self, data, seed=None, samples=None, tol=None, sign=None):
        self.name = data.get("name", "unnamed")
        try:
            self.chart = Chart(self.name,
                               _json(data["chart"], list, "chart"))
        except KeyError:
            raise ScenarioError("scenario must declare a chart")
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid chart: {exc}")
        try:
            self.cfg = _oracle_config(data.get("oracle", {}),
                                      self.chart.coords, seed, samples, tol)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"invalid oracle settings: {exc}")
        self.sign_override = sign
        self.exprs = {}
        self.forms = {}
        self.sections = {}
        self._load_definitions(
            _json(data.get("definitions", {}), dict, "definitions"))
        self._structure_specs = self._collect_structures(data)
        self._structures = {}
        self.checks = _json(data.get("checks", []), list, "checks")

    def report(self):
        """Run every check in order; a check that is not an object makes
        an ERROR row."""
        report = Report(self.name, self.cfg, self.sign_override or "+")
        for spec in self.checks:
            start = time.perf_counter()
            if isinstance(spec, dict):
                result = _run_check(self, spec)
            else:
                result = CheckResult(json.dumps(spec), "ERROR",
                                     detail="a check must be a JSON object")
            result.ms = (time.perf_counter() - start) * 1000.0
            report.checks.append(result)
        return report

    # -- definitions -------------------------------------------------------

    def _load_definitions(self, defs):
        exprs, forms, sections = (
            _json(defs.get(key, {}), dict, f"definitions.{key}")
            for key in ("exprs", "forms", "sections"))
        for name, text in exprs.items():
            self._check_name(name)
            self.exprs[name] = _expr(text, f"expression {name!r}",
                                     self.chart, self.exprs)
        for name, spec in forms.items():
            self._check_name(name)
            # a form literal reads d<coord> as the covector, so a form of
            # that name could never be used
            if name[:1] == "d" and name[1:] in self.chart.coords:
                raise ScenarioError(f"form {name!r} shadows a covector")
            self.forms[name] = self._parse_form_spec(spec, label=name)
        for name, spec in sections.items():
            self._check_name(name)
            spec = _json(spec, dict, f"section {name!r}")
            try:
                X = parse_vector_field(
                    {coord: _expr(text, f"section {name!r} X {coord!r}",
                                  self.chart, self.exprs) for coord, text in
                     _json(spec["X"], dict, f"section {name!r} X").items()},
                    self.chart)
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
            spec = spec.get("text")
        if not isinstance(spec, str):
            raise ScenarioError(f"{label} must be a string, got {spec!r}")
        try:
            return parse_form(spec, self.chart, degree=degree,
                              names=self.exprs, form_names=self.forms)
        except ParseError as exc:
            raise ScenarioError(f"in {label}: {exc}")

    def expr(self, spec, label="expression"):
        """A defined expression by name, or the expression of spec."""
        if isinstance(spec, str) and spec in self.exprs:
            return self.exprs[spec]
        return _expr(spec, label, self.chart, self.exprs)

    # -- structures --------------------------------------------------------

    def _collect_structures(self, data):
        if "structures" in data:
            specs = dict(_json(data["structures"], dict, "structures"))
        elif "structure" in data:
            specs = {"main": data["structure"]}
        else:
            specs = {}
        return specs

    def structure(self, name=None, kind="graph"):
        """The named structure (the only one, else "main", when unnamed);
        ScenarioError unless its type is kind ("graph" or "lie_algebra"),
        and when unnamed among several of which none is "main"."""
        if name is None:
            names = list(self._structure_specs)
            if len(names) > 1 and "main" not in names:
                raise ScenarioError(
                    f"the scenario has structures {', '.join(names)}: "
                    f"name one with --structure or the check's "
                    f"'structure' field")
            name = names[0] if len(names) == 1 else "main"
        if _json(name, str, "structure") not in self._structures:
            try:
                spec = self._structure_specs[name]
            except KeyError:
                raise ScenarioError(f"no structure named {name!r}")
            self._structures[name] = self._build_structure(spec)
        built = self._structures[name]
        if isinstance(built, dirac.TwistedGraph) != (kind == "graph"):
            raise ScenarioError(f"structure {name!r} is not a {kind}")
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
            sign = {"+": 1, "-": -1}.get(_json(sign_text, str, "sign"))
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
        if isinstance(spec, str):
            if spec == "so3":
                return liealg.so3()
            if spec.startswith("abelian(") and spec.endswith(")") \
                    and spec[8:-1].isdecimal():
                return liealg.abelian(int(_number(spec[8:-1])))
            raise ScenarioError(f"unknown builtin algebra {spec!r}")
        spec = _json(spec, dict, "algebra")
        try:
            return liealg.LieAlgebraData.from_brackets(
                spec["dim"], [tuple(b[:2]) + (b[2],)
                              for b in spec["brackets"]], spec["metric"])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad Lie algebra: {exc}")


# ---------------------------------------------------------------------------
# check operations


def _word(ok):
    return "PASS" if ok else "FAIL"


def _composite(verdict):
    """The result of a composite verdict, its detail naming the failing
    children."""
    failing = "; ".join(label for label, _ in verdict.failures)
    return _word(verdict.zero), verdict, failing and f"failing: {failing}"


def _graph_args(run, spec, *names):
    """The check's graph structure, then its expressions spec[name]."""
    return (run.structure(spec.get("structure")),
            *(run.expr(spec[name], name) for name in names))


def _flag(spec, name, default=True):
    """spec[name] when it is true or false, default when it is absent;
    ScenarioError for any other value."""
    value = spec.get(name, default)
    if name in spec and not isinstance(value, bool):
        raise ScenarioError(f"{name} must be true or false, got {value!r}")
    return value


def _op_poisson_bracket(run, spec):
    D, f, g = _graph_args(run, spec, "f", "g")
    expect = run.expr(spec.get("expect", "0"), "expect")
    bracket, verdict = dirac._bracket_verdict(D, f, g, expect)
    return _word(verdict.zero), verdict, f"{{f,g}} = {bracket}"


def _op_courant_admissible(run, spec):
    D, f = _graph_args(run, spec, "f")
    expect = _flag(spec, "expect")
    ok, X = dirac.is_courant_admissible(D, f)
    detail = f"admissible={ok}" + (f", X_f = {X}" if X is not None else "")
    return _word(ok == expect), None, detail


def _op_h_admissible(run, spec):
    D, f = _graph_args(run, spec, "f")
    expect = spec.get("expect")
    if expect not in (None, "zero", "nonzero"):
        raise ScenarioError(
            f"h_admissible expect must be 'zero' or 'nonzero', "
            f"got {expect!r}")
    X, verdict = dirac._h_verdict(D, f)
    found = "zero" if verdict.zero else "nonzero"
    return (_word(expect in (None, found)), verdict,
            f"i_X H {found}; X_f = {X}")


def _op_theorem_closure(run, spec):
    D, f, g = _graph_args(run, spec, "f", "g")
    k = run.expr(spec["k"], "k") if "k" in spec else None
    return _composite(dirac.check_theorem(D, f, g, k))


def _op_jacobi_defect(run, spec):
    cyclic, verdict = dirac._jacobi_verdict(
        *_graph_args(run, spec, "f", "g", "k"))
    return _word(verdict.zero), verdict, f"cyclic sum = {cyclic}"


def _op_symplectic_graph(run, spec):
    D, f = _graph_args(run, spec, "f")
    expect = _flag(spec, "expect_h_admissible", None)
    identity, lie = dirac.check_symplgraph(D, f, spec["f"])
    return (_word(identity.zero and expect in (None, lie.zero)), identity,
            f"H-admissible (L_X h = 0): {lie.zero}")


def _op_poisson_pair(run, spec):
    return _composite(dirac.check_poiss_brak_adm(
        *_graph_args(run, spec, "f", "g")))


def _op_admissible_pair(run, spec):
    sec = run.sections[_json(spec["section"], str, "section")]
    H = run._parse_form_spec(spec["H"], degree=sec.level + 1, label="H") \
        if "H" in spec else run.structure(spec.get("structure")).H
    expect = _flag(spec, "expect")
    verdict = dirac.is_admissible_pair(sec.X, sec.alpha, H, run.cfg)
    return _word(verdict.zero == expect), verdict, ""


def _op_pairing_zero(run, spec):
    verdict = pairing_is_zero(run.sections[_json(spec["a"], str, "a")],
                              run.sections[_json(spec["b"], str, "b")],
                              run.cfg)
    return _word(verdict.zero), verdict, ""


def _op_image_under_d(run, spec):
    secs = [run.sections[_json(name, str, "an entry of sections")]
            for name in _json(spec["sections"], list, "sections")]
    if not secs:
        raise ScenarioError("image_under_d needs at least one section")
    H = run._parse_form_spec(spec["H"], label="H") if "H" in spec \
        else run.structure(spec.get("structure")).H
    return _composite(dirac.check_image_under_d(secs, H, run.cfg))


def _op_graph_flag(run, spec):
    """integrable or nondegenerate, named by the op: the graph's flag
    against expect."""
    op = spec["op"]
    value = getattr(run.structure(spec.get("structure")), op)
    return _word(value == _flag(spec, "expect")), None, f"{op}={value}"


def _op_cartan_kernel(run, spec):
    L = run.structure(spec.get("structure"), "lie_algebra")
    expect = spec["expect_dimension"]
    if type(expect) is not int:
        raise ScenarioError(
            f"expect_dimension must be an integer, got {expect!r}")
    kernel = liealg.contraction_kernel(L)
    detail = f"kernel dimension = {len(kernel)}"
    if kernel:
        detail += "; basis: " + "; ".join(
            "(" + ", ".join(map(_rat_str, vec)) + ")" for vec in kernel)
    return _word(len(kernel) == expect), None, detail


def _op_cartan_table(run, spec):
    L = run.structure(spec.get("structure"), "lie_algebra")
    rows = [f"T({i},{j},{k}) = {_rat_str(v)}"
            for (i, j, k), v in liealg.cartan_3form(L).table()]
    detail = "; ".join(rows) if rows else "no triples"
    nonzero = spec.get("nonzero")
    if nonzero is None:
        return "PASS", None, detail
    if not (isinstance(nonzero, list) and len(nonzero) == 3
            and all(type(i) is int for i in nonzero)):
        raise ScenarioError(
            f"nonzero must be three basis indices, got {nonzero!r}")
    l, m, n = nonzero
    value = liealg.triple_contraction(L, l, m, n)
    return (_word(value != 0), None,
            f"{detail}; contraction({l},{m},{n}) = {_rat_str(value)}")


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
    "integrable": _op_graph_flag,
    "nondegenerate": _op_graph_flag,
    "cartan_kernel": _op_cartan_kernel,
    "cartan_table": _op_cartan_table,
}


def _default_check_name(spec):
    args = ",".join(f"{k}={v}" for k, v in sorted(spec.items())
                    if k not in ("op", "name") and not isinstance(v, (dict,
                                                                      list)))
    return f"{spec.get('op', '?')}({args})"


def run_scenario(source, seed=None, samples=None, tol=None, sign=None):
    """The report of every check of a scenario; FAIL results never abort
    the run, definition and structure errors do."""
    return ScenarioRun.load(source, seed, samples, tol, sign).report()


def _run_check(run, spec):
    """The CheckResult of one check object; a verdict the structure does
    not determine makes an INCONCLUSIVE row, any other error it raises
    from the package, or a missing field, an ERROR row.  The witness and
    residual are those of the op's evidence, when it is not zero."""
    name = spec.get("name") or _default_check_name(spec)
    op = spec.get("op")
    handler = CHECK_OPS.get(op) if isinstance(op, str) else None
    if handler is None:
        return CheckResult(name, "ERROR", detail=f"unknown check op {op!r}")
    try:
        verdict, evidence, detail = handler(run, spec)
    except dirac.VerdictNotDeterminedError as exc:
        return CheckResult(name, "INCONCLUSIVE",
                           detail=f"verdict not determined: {exc}")
    except (SymExprError, KeyError) as exc:
        return CheckResult(name, "ERROR",
                           detail=f"{type(exc).__name__}: {exc}")
    if evidence is None or evidence.zero:
        return CheckResult(name, verdict, detail=detail)
    return CheckResult(name, verdict, evidence.witness_point,
                       evidence.magnitude, detail=detail)


def cmd_bracket(run, f_name, g_name, structure=None):
    """Print X_f, X_g and the simplified bracket {f, g}."""
    D = run.structure(structure)
    f = run.expr(f_name, "f")
    g = run.expr(g_name, "g")
    Xf = dirac.hamiltonian_vf(D, f)
    Xg = dirac.hamiltonian_vf(D, g)
    bracket = dirac.poisson_bracket(D, f, g)
    label = next((f"  (= {name})" for name, e in run.exprs.items()
                  if simplify(e) == bracket), "")
    print(f"X_{f_name} = {Xf}")
    print(f"X_{g_name} = {Xg}")
    print(f"{{{f_name}, {g_name}}} = {bracket}{label}")
    return bracket


def cmd_admissible(run, f_name, structure=None):
    """Print the admissibility report for a named function."""
    report = dirac.is_H_admissible(run.structure(structure),
                                   run.expr(f_name, "f"), f_name)
    print(report)
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
    if args.command == "builtins":
        print("\n".join(BUILTIN_NAMES))
        return 0
    try:
        run = ScenarioRun.load(args.scenario, args.seed, args.samples,
                               args.tol, args.sign)
        if args.command == "bracket":
            cmd_bracket(run, args.f, args.g, args.structure)
            return 0
        if args.command == "admissible":
            cmd_admissible(run, args.f, args.structure)
            return 0
        report = run.report()
    except SymExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if args.format == "json" \
        else report.render_text()
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
