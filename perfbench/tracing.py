"""Spans and counters around leafconn's layer boundaries, installed from outside.

``Tracer.install`` replaces functions and methods on the imported leafconn
modules with timing wrappers; the package source is not touched.  A module
that imported a function by name (``from .ideals import Ideal``) holds its
own reference, so every module attribute that is the original object is
replaced.  Each call records a span: name, start, end, parent span and query
id.  Spans stay in memory until ``summary`` and ``write_spans`` run after
the pass.  Counters are taken in the same wrappers.

``profile_summary`` turns a cProfile run into per-module shares of self time
for the layers too fine-grained to wrap (``poly`` and ``fractions``).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from fractions import Fraction

# module -> wrapped attributes ("Class.method" for methods): the layer
# boundaries that the three workloads cross.  ``poly`` and the stdlib
# ``fractions`` are left to the profiler.
WRAPPED = {
    "ideals": [
        "buchberger", "_reduce_basis", "normal_form_against", "s_polynomial",
        "Ideal.groebner_basis", "Ideal.normal_form",
    ],
    "linalg": ["rref", "rank", "residue", "nullspace", "solve", "matvec", "matmul", "transpose"],
    "parse": ["parse_polynomial", "parse_multivector", "parse_form"],
    "tensors": ["schouten_bracket", "contract_covector", "differential"],
    "poisson": [
        "jacobi_defect", "PoissonStructure.jacobi_defect", "PoissonStructure.anchor",
        "PoissonStructure.is_integral_ideal",
    ],
    "connection": [
        "LeafContext.__init__", "LeafContext.transversal_basis_at",
        "LeafContext.reduce_mod_tangent", "LeafContext.reduce_coefficients",
        "covariant_derivative_multivector", "flat_sections_at_point",
    ],
    "derivations": ["der_I_basis"],
    "liealg": [
        "LieAlgebraFD.__init__", "LieModuleFD.__init__", "delta_matrix",
        "boundary_delta", "homology", "coboundary_matrix", "ce_coboundary",
        "cohomology",
    ],
    "charclass": [
        "characteristic_class", "LieIdeal.__init__", "H1Quotient.__init__",
        "QuotientAlgebra.__init__", "ProjectionOperator.__init__", "projection_form",
    ],
    "specfile": ["parse_spec_text"],
    "cli": ["main", "run_document"],
}
LAYERS = tuple(WRAPPED)

# The module-level jacobi_defect and the method record under one name.
SPAN_NAME = {"poisson.PoissonStructure.jacobi_defect": "poisson.jacobi_defect"}

BLADE_SIGN = {("tensors.py", "merge_sign"), ("tensors.py", "_sort_with_sign"), ("liealg.py", "_insert_sign")}


def _bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, query, outermost]
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.query = None
        self.counts: dict[str, float] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)

    # -- installation -----------------------------------------------------------

    def install(self, package) -> None:
        hooks = {
            "ideals.normal_form_against": self._on_normal_form_against,
            "ideals.buchberger": self._on_buchberger,
            "linalg.rref": self._on_rref,
            "liealg.delta_matrix": self._on_delta_matrix,
            "connection.LeafContext.transversal_basis_at": self._on_transversal_basis_at,
            "connection.LeafContext.reduce_mod_tangent": self._on_reduce_mod_tangent,
        }
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in WRAPPED}
        modules = [package, *layers.values()]
        for layer, attrs in WRAPPED.items():
            module = layers[layer]
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[fn_name]
                name = SPAN_NAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapper = self._wrap(name, original, hooks.get(name))
                setattr(owner, fn_name, wrapper)
                if not owner_name:
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, wrapper)

    def _wrap(self, name, fn, hook):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.query, active[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result, span[3])
                return result
            finally:
                active[name] -= 1
                stack.pop()
                span[2] = clock()

        return wrapper

    # -- counters (run inside the span they belong to) -----------------------------

    def _parent_is(self, parent: int, name: str) -> bool:
        return parent >= 0 and self.spans[parent][0] == name

    def _on_normal_form_against(self, args, result, parent) -> None:
        if self._parent_is(parent, "ideals.buchberger"):
            self.counts["ideals.spair.reduced"] += 1
            self.counts["ideals.spair.nonzero"] += not result.is_zero

    def _on_buchberger(self, args, result, parent) -> None:
        self.counts["ideals.basis_size"] += len(result)
        bits = max((_bits(c) for g in result for _, c in g.terms()), default=0)
        self.counts["ideals.coeff_bits_max"] = max(self.counts["ideals.coeff_bits_max"], bits)

    def _on_rref(self, args, result, parent) -> None:
        rows = args["rows"]
        nrows, ncols = len(rows), len(rows[0]) if rows else 0
        self.counts["linalg.rref.cells"] += nrows * ncols
        self.counts["linalg.rref.nonzeros"] += sum(1 for row in rows for x in row if x)
        self.counts["linalg.rref.rank"] += len(result[0])
        self.counts["linalg.rref.min_side"] += min(nrows, ncols)

    def _on_delta_matrix(self, args, result, parent) -> None:
        self.keys["liealg.delta_matrix"].add((id(args["g"]), args["grade"]))

    def _on_transversal_basis_at(self, args, result, parent) -> None:
        leaf = args["self"]
        point = args["at"] if args["at"] is not None else leaf.base_point
        self.keys["connection.quotient"].add((id(leaf), tuple(Fraction(c) for c in point), args["grade"]))

    def _on_reduce_mod_tangent(self, args, result, parent) -> None:
        leaf, field = args["self"], args["field"]
        point = args["at"] if args["at"] is not None else leaf.base_point
        grade = field.grade if not field.is_zero else max(field.grade, 1)
        self.keys["connection.quotient"].add((id(leaf), tuple(Fraction(c) for c in point), grade))

    # -- results ------------------------------------------------------------------

    def summary(self, wall_ns: int) -> dict:
        """Per-span and per-layer totals for one pass (times in seconds)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _query, _outer in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        roots = 0
        for k, (name, start, end, parent, _query, outer) in enumerate(self.spans):
            calls[name] += 1
            if outer:
                total[name] += end - start
            self_ns[name] += end - start - child_ns[k]
            if parent < 0:
                roots += end - start
        layer_self = {layer: 0 for layer in LAYERS}
        for name, ns in self_ns.items():
            layer_self[name.split(".")[0]] += ns
        c = self.counts
        keys = self.keys
        spair = c["ideals.spair.reduced"]
        quotient_calls = calls["connection.LeafContext.reduce_mod_tangent"] + calls["connection.LeafContext.transversal_basis_at"]

        def ratio(a, b):
            return a / b if b else 0.0

        metrics = {
            "ideals.buchberger.self_s": self_ns["ideals.buchberger"] / 1e9,
            "ideals.normal_form_against.s": total["ideals.normal_form_against"] / 1e9,
            "ideals.normal_form_against.calls": calls["ideals.normal_form_against"],
            "ideals.Ideal.normal_form.calls": calls["ideals.Ideal.normal_form"],
            "ideals.spair.reduced": spair,
            "ideals.spair.useful_ratio": ratio(c["ideals.spair.nonzero"], spair),
            "ideals.basis_size": c["ideals.basis_size"],
            "ideals.coeff_bits_max": c["ideals.coeff_bits_max"],
            "linalg.rref.s": total["linalg.rref"] / 1e9,
            "linalg.rref.calls": calls["linalg.rref"],
            "linalg.rref.cells": c["linalg.rref.cells"],
            "linalg.rref.density": ratio(c["linalg.rref.nonzeros"], c["linalg.rref.cells"]),
            "linalg.rref.rank_ratio": ratio(c["linalg.rref.rank"], c["linalg.rref.min_side"]),
            "linalg.nullspace.s": total["linalg.nullspace"] / 1e9,
            "linalg.residue.s": total["linalg.residue"] / 1e9,
            "linalg.residue.calls": calls["linalg.residue"],
            "linalg.solve.s": total["linalg.solve"] / 1e9,
            "liealg.delta_matrix.s": total["liealg.delta_matrix"] / 1e9,
            "liealg.delta_matrix.calls": calls["liealg.delta_matrix"],
            "liealg.delta_matrix.useful_ratio": ratio(len(keys["liealg.delta_matrix"]), calls["liealg.delta_matrix"]),
            "liealg.coboundary_matrix.s": total["liealg.coboundary_matrix"] / 1e9,
            "liealg.coboundary_matrix.calls": calls["liealg.coboundary_matrix"],
            "liealg.homology.self_s": self_ns["liealg.homology"] / 1e9,
            "liealg.cohomology.self_s": self_ns["liealg.cohomology"] / 1e9,
            "tensors.schouten_bracket.s": total["tensors.schouten_bracket"] / 1e9,
            "tensors.schouten_bracket.calls": calls["tensors.schouten_bracket"],
            "poisson.jacobi_defect.s": total["poisson.jacobi_defect"] / 1e9,
            "connection.flat_sections_at_point.s": total["connection.flat_sections_at_point"] / 1e9,
            "connection.covariant_derivative_multivector.s": total["connection.covariant_derivative_multivector"] / 1e9,
            "connection.quotient.useful_ratio": ratio(len(keys["connection.quotient"]), quotient_calls),
            "derivations.der_I_basis.s": total["derivations.der_I_basis"] / 1e9,
            "charclass.characteristic_class.s": total["charclass.characteristic_class"] / 1e9,
            "specfile.parse_spec_text.s": total["specfile.parse_spec_text"] / 1e9,
            "cli.run_document.self_s": self_ns["cli.run_document"] / 1e9,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9
        metrics["trace.outside_s"] = (wall_ns - roots) / 1e9
        metrics["trace.wall_s"] = wall_ns / 1e9
        metrics["trace.spans"] = len(self.spans)
        # integer nanoseconds, so the check in the parent is exact
        balance = sum(layer_self.values()) + (wall_ns - roots) - wall_ns
        return {"metrics": metrics, "balance_ns": balance, "nested": self._well_nested()}

    def _well_nested(self) -> bool:
        spans = self.spans
        return all(
            parent < 0 or (spans[parent][1] <= start and end <= spans[parent][2] and spans[parent][4] == query)
            for _name, start, end, parent, query, _outer in spans
        )

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query, _outer in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "query": query}) + "\n")


def profile_summary(stats: dict) -> dict:
    """Shares of profiled self time per leafconn module and ``fractions``."""
    by_module: dict[str, float] = defaultdict(float)
    blade_calls = 0
    total = 0.0
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        total += tottime
        base = filename.replace("\\", "/").rsplit("/", 1)[-1]
        if "/leafconn/" in filename.replace("\\", "/"):
            by_module[base[:-3]] += tottime
        elif base == "fractions.py":
            by_module["fractions"] += tottime
        if (base, func) in BLADE_SIGN:
            blade_calls += ncalls
    share = {m: (t / total if total else 0.0) for m, t in by_module.items()}
    return {
        "poly.self_share": share.get("poly", 0.0),
        "fractions.self_share": share.get("fractions", 0.0),
        "linalg.self_share": share.get("linalg", 0.0),
        "liealg.self_share": share.get("liealg", 0.0),
        "blade_sign.calls": blade_calls,
    }
