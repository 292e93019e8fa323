"""Layer tracing from outside the package.

``install()`` replaces the public functions and methods of every
twistdirac module with wrappers that count calls and record spans
(name, start, end, parent).  Sibling modules bind their imports by name
(``from .symexpr import simplify``), so each function is replaced in every
module namespace that holds it, and methods are replaced on their class.
A function that re-enters a layer already open on the span stack (direct
or indirect recursion) is counted but gets no span of its own, so its time
stays in the outermost span.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import gzip
import sys
import time

# (metric, unit) for every per-layer metric, in report order.  Metric names
# must start with a letter or digit, so the _normal module's layer is
# reported as "normal".
PER_LAYER = [
    ("cli.run_scenario.calls", "count"), ("cli.run_scenario.self_s", "s"),
    ("cli.load.calls", "count"), ("cli.load.self_s", "s"),
    ("dirac.graph_build.calls", "count"), ("dirac.graph_build.self_s", "s"),
    ("dirac.inverse.calls", "count"), ("dirac.inverse.self_s", "s"),
    ("dirac.hamiltonian.calls", "count"), ("dirac.hamiltonian.self_s", "s"),
    ("dirac.hamiltonian_degenerate.calls", "count"),
    ("dirac.hamiltonian_degenerate.self_s", "s"),
    ("dirac.admissible.calls", "count"), ("dirac.admissible.self_s", "s"),
    ("dirac.poisson.calls", "count"), ("dirac.poisson.self_s", "s"),
    ("dirac.checks.calls", "count"), ("dirac.checks.self_s", "s"),
    ("courant.bracket.calls", "count"), ("courant.bracket.self_s", "s"),
    ("courant.pairing.calls", "count"), ("courant.pairing.self_s", "s"),
    ("exterior.ops.calls", "count"), ("exterior.ops.self_s", "s"),
    ("exterior.simplified.calls", "count"),
    ("exterior.simplified.self_s", "s"),
    ("exterior.zero_test.calls", "count"),
    ("exterior.zero_test.self_s", "s"),
    ("exterior.parse.calls", "count"), ("exterior.parse.self_s", "s"),
    ("symexpr.parse.calls", "count"), ("symexpr.parse.self_s", "s"),
    ("symexpr.diff.calls", "count"), ("symexpr.diff.self_s", "s"),
    ("symexpr.simplify.calls", "count"),
    ("symexpr.is_zero.calls", "count"), ("symexpr.is_zero.self_s", "s"),
    ("symexpr.is_zero.normal_form", "count"),
    ("symexpr.is_zero.rational_witness", "count"),
    ("symexpr.is_zero.sampled", "count"),
    ("symexpr.is_zero.sampled_s", "s"),
    ("symexpr.eval.calls", "count"), ("symexpr.eval.self_s", "s"),
    ("symexpr.sample_points", "count"), ("symexpr.resamples", "count"),
    ("symexpr.sample_useful_ratio", "ratio"),
    ("normal.canon.calls", "count"), ("normal.canon.self_s", "s"),
    ("normal.to_poly.calls", "count"),
    ("normal.p_mul.calls", "count"),
    ("normal.combined_fraction.calls", "count"),
    ("normal.combined_fraction.self_s", "s"),
    ("normal.try_divide.calls", "count"),
    ("normal.try_divide.self_s", "s"),
    ("normal.try_divide.exact_ratio", "ratio"),
    ("liealg.calls", "count"), ("liealg.self_s", "s"),
]

# layer -> [(module, attribute)]; "Class.method" attributes are methods.
SPANNED = {
    "cli.run_scenario": [("cli", "run_scenario")],
    "cli.load": [("cli", "load_scenario_data"),
                 ("cli", "ScenarioRun.__init__")],
    "dirac.graph_build": [("dirac", "TwistedGraph.__init__")],
    "dirac.inverse": [("dirac", "TwistedGraph.inverse_matrix")],
    "dirac.admissible": [("dirac", "is_courant_admissible"),
                         ("dirac", "is_H_admissible"),
                         ("dirac", "is_admissible_pair")],
    "dirac.poisson": [("dirac", "poisson_bracket")],
    "dirac.checks": [("dirac", n) for n in (
        "check_theorem", "check_symplgraph", "check_image_under_d",
        "check_poiss_brak_adm", "jacobi_defect")],
    "courant.bracket": [("courant", n) for n in (
        "courant_bracket", "dorfman_bracket", "twisted_courant_bracket",
        "derived_bracket", "derived_bracket_skew", "courant_tensor")],
    "courant.pairing": [("courant", "pairing")],
    "exterior.ops": [("exterior", n) for n in (
        "wedge", "ext_d", "interior", "lie_derivative", "vf_bracket",
        "vf_apply")],
    "exterior.simplified": [("exterior", "KForm.simplified"),
                            ("exterior", "VectorField.simplified")],
    "exterior.zero_test": [("exterior", "form_is_zero"),
                           ("exterior", "vf_is_zero")],
    "exterior.parse": [("exterior", "parse_form"),
                       ("exterior", "parse_vector_field")],
    "symexpr.parse": [("symexpr", "parse_expr")],
    "symexpr.diff": [("symexpr", "diff")],
    "symexpr.simplify": [("symexpr", "simplify")],
    "symexpr.eval": [("symexpr", "eval_expr")],
    "normal.canon": [("_normal", "canon_expr")],
    "normal.combined_fraction": [("_normal", "combined_fraction")],
    "liealg": [("liealg", n) for n in (
        "LieAlgebraData.__init__", "cartan_3form", "contraction_kernel",
        "center", "triple_contraction")],
}

COUNTED = {
    "normal.to_poly": ("_normal", "to_poly"),
    "normal.p_mul": ("_normal", "p_mul"),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.open = {}           # layer name -> whether a span is open
        self.counts = {}
        self.sampled_s = 0.0
        self._restore = []

    def _count(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1

    def call(self, name, fn, args, kwargs):
        """Run fn under a span named name, unless that layer is already
        open, in which case the call is only counted."""
        self._count(name)
        if self.open.get(name):
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self.stack.append(idx)
        self.open[name] = 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.open[name] = 0

    # -- installation ------------------------------------------------------

    def _replace(self, module, attr, wrapper):
        """Replace module.attr (or Class.method) everywhere it is bound."""
        import importlib
        mod = importlib.import_module(f"twistdirac.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, wrapper(orig))
            self._restore.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        new = wrapper(orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name.startswith("twistdirac")
                                 or name.startswith("tdbench")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)
                    self._restore.append((m, key, orig))

    def install(self):
        import twistdirac.cli  # noqa: F401  (load every module first)
        import twistdirac.randgen  # noqa: F401
        for layer, targets in SPANNED.items():
            for module, attr in targets:
                self._replace(module, attr, self._span_wrapper(layer))
        for layer, (module, attr) in COUNTED.items():
            self._replace(module, attr, self._count_wrapper(layer))
        self._replace("dirac", "hamiltonian_vf", self._hamiltonian_wrapper)
        self._replace("symexpr", "is_zero", self._is_zero_wrapper)
        self._replace("symexpr", "sample_point", self._sample_wrapper)
        self._replace("_normal", "try_divide", self._divide_wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def _span_wrapper(self, name):
        def make(fn):
            def wrapped(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
            wrapped.__wrapped__ = fn
            return wrapped
        return make

    def _count_wrapper(self, name):
        def make(fn):
            def wrapped(*args, **kwargs):
                self._count(name)
                return fn(*args, **kwargs)
            wrapped.__wrapped__ = fn
            return wrapped
        return make

    def _hamiltonian_wrapper(self, fn):
        def wrapped(D, f):
            name = "dirac.hamiltonian" if D.nondegenerate \
                else "dirac.hamiltonian_degenerate"
            return self.call(name, fn, (D, f), {})
        return wrapped

    def _is_zero_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            verdict = self.call("symexpr.is_zero", fn, args, kwargs)
            if not verdict.exact:
                self._count("symexpr.is_zero.sampled")
                self.sampled_s += time.perf_counter() - start
            elif verdict.zero:
                self._count("symexpr.is_zero.normal_form")
            else:
                self._count("symexpr.is_zero.rational_witness")
            return verdict
        return wrapped

    def _sample_wrapper(self, fn):
        def wrapped(cfg, coords, index, attempt=0):
            self._count("sample.attempt0" if attempt == 0 else
                        "symexpr.resamples")
            if attempt == 1:
                self._count("sample.resampled_points")
            return fn(cfg, coords, index, attempt)
        return wrapped

    def _divide_wrapper(self, fn):
        def wrapped(num, den):
            q = self.call("normal.try_divide", fn, (num, den), {})
            if q is not None:
                self._count("normal.try_divide.exact")
            return q
        return wrapped

    # -- results -----------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def metrics(self):
        selfs = self.self_times()
        c = self.counts
        values = {}
        for metric, _ in PER_LAYER:
            if metric.endswith(".calls"):
                values[metric] = c.get(metric[:-6], 0)
            elif metric.endswith(".self_s"):
                values[metric] = selfs.get(metric[:-7], 0.0)
        points = c.get("sample.attempt0", 0)
        resampled = c.get("sample.resampled_points", 0)
        divides = c.get("normal.try_divide", 0)
        values.update({
            "symexpr.is_zero.normal_form": c.get(
                "symexpr.is_zero.normal_form", 0),
            "symexpr.is_zero.rational_witness": c.get(
                "symexpr.is_zero.rational_witness", 0),
            "symexpr.is_zero.sampled": c.get("symexpr.is_zero.sampled", 0),
            "symexpr.is_zero.sampled_s": self.sampled_s,
            "symexpr.sample_points": points,
            "symexpr.resamples": c.get("symexpr.resamples", 0),
            # base: symexpr.sample_points; 0 when no point was sampled
            "symexpr.sample_useful_ratio":
                (points - resampled) / points if points else 0.0,
            # base: normal.try_divide.calls; 0 when nothing was divided
            "normal.try_divide.exact_ratio":
                c.get("normal.try_divide.exact", 0) / divides
                if divides else 0.0,
        })
        units = dict(PER_LAYER)
        return {m: {"value": values[m], "unit": units[m]}
                for m, _ in PER_LAYER}

    def write_spans(self, path):
        """Write every span as CSV: name, start, end, parent index."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
