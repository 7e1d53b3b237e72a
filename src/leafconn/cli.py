"""Command line front end: run the queries of a declarative input file
and emit a plain-text report.

Exit codes: 0 all queries succeeded; 1 internal error; 2 at least one
query failed validation (the report carries the witness); 3 the input
file does not parse.  Reports are deterministic: identical input bytes
and flags produce identical output bytes.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import charclass, connection, derivations, liealg
from .ideals import Ideal
from .poisson import PoissonStructure
from .poly import Polynomial
from .specfile import (
    Query,
    SpecDocument,
    SpecFileError,
    parse_combo,
    parse_spec_text,
)
from .tensors import DifferentialForm, MultivectorField, schouten_bracket

Pairs = list[tuple[str, str]]


class ValidationFailure(ValueError):
    """A query referenced something undefined or violated a precondition."""


class _Runner:
    def __init__(self, doc: SpecDocument, degree_bound: int, order: str):
        self.doc = doc
        self.degree_bound = degree_bound
        self.order = order
        self.validation_failed = False
        self._poisson: Optional[PoissonStructure] = None
        self._ideals: dict[str, Ideal] = {}
        self._algebras: dict[str, liealg.LieAlgebraFD] = {}
        self._leaves: dict[tuple[str, Optional[connection.Point]], connection.LeafContext] = {}

    # -- shared lookups ----------------------------------------------------

    def poisson(self) -> PoissonStructure:
        if self.doc.bivector is None:
            raise ValidationFailure("the file defines no [bivector]")
        if self._poisson is None:
            self._poisson = PoissonStructure(self.doc.bivector)
        return self._poisson

    def ideal(self, name: str) -> Ideal:
        if name not in self.doc.ideals:
            raise ValidationFailure(f"unknown ideal {name!r}")
        if name not in self._ideals:
            self._ideals[name] = Ideal(
                self.doc.context, self.doc.ideals[name], order=self.order
            )
        return self._ideals[name]

    def multivector(self, name: str) -> MultivectorField:
        try:
            return self.doc.multivectors[name]
        except KeyError:
            raise ValidationFailure(f"unknown multivector {name!r}") from None

    def form(self, name: str) -> DifferentialForm:
        try:
            return self.doc.forms[name]
        except KeyError:
            raise ValidationFailure(f"unknown form {name!r}") from None

    def algebra(self, name: str) -> liealg.LieAlgebraFD:
        if name not in self.doc.lie_algebras:
            raise ValidationFailure(f"unknown lie_algebra {name!r}")
        if name not in self._algebras:
            section = self.doc.lie_algebras[name]
            try:
                self._algebras[name] = liealg.LieAlgebraFD.from_brackets(
                    section.labels, section.relations
                )
            except ValueError as exc:
                raise ValidationFailure(f"lie_algebra {name!r}: {exc}") from None
        return self._algebras[name]

    def leaf(self, ideal_name: str, point) -> connection.LeafContext:
        key = (ideal_name, point)
        if key not in self._leaves:
            try:
                self._leaves[key] = connection.LeafContext(
                    self.poisson(), self.ideal(ideal_name), base_point=point
                )
            except ValueError as exc:
                raise ValidationFailure(str(exc)) from None
        return self._leaves[key]

    # -- rendering helpers -------------------------------------------------

    def blade_str(self, blade: tuple[int, ...]) -> str:
        one = Polynomial.constant(self.doc.context, 1)
        return str(MultivectorField(self.doc.context, len(blade), {blade: one}))

    def combo_str(self, blades, coefficients) -> str:
        components = {
            blade: Polynomial.constant(self.doc.context, c)
            for blade, c in zip(blades, coefficients)
            if c
        }
        grade = len(blades[0]) if blades else 0
        return str(MultivectorField(self.doc.context, grade, components))

    # -- query handlers ----------------------------------------------------

    def dispatch(self, query: Query) -> Pairs:
        handler = {
            "check-poisson": self.q_check_poisson,
            "schouten": self.q_schouten,
            "leaf-connection": self.q_leaf_connection,
            "flat-sections": self.q_flat_sections,
            "der-basis": self.q_der_basis,
            "lie-homology": self.q_lie_homology,
            "char-class": self.q_char_class,
        }[query.kind]
        return handler(query)

    def q_check_poisson(self, query: Query) -> Pairs:
        structure = self.poisson()
        defect = structure.jacobi_defect()
        if defect.is_zero:
            return [("status", "poisson"), ("defect", "0")]
        self.validation_failed = True
        return [("status", "not_poisson"), ("defect", str(defect))]

    def q_schouten(self, query: Query) -> Pairs:
        left = self.multivector(query.options["left"])
        right = self.multivector(query.options["right"])
        bracket = schouten_bracket(left, right)
        return [
            ("status", "ok"),
            ("left", str(query.options["left"])),
            ("right", str(query.options["right"])),
            ("grade", str(bracket.grade)),
            ("bracket", str(bracket)),
        ]

    def q_leaf_connection(self, query: Query) -> Pairs:
        point = query.options.get("point")
        leaf = self.leaf(query.options["ideal"], point)
        alpha = self.form(query.options["alpha"])
        section = self.multivector(query.options["section"])
        try:
            result = connection.covariant_derivative_multivector(leaf, alpha, section)
        except ValueError as exc:
            raise ValidationFailure(str(exc)) from None
        pairs = [
            ("status", "ok"),
            ("ideal", query.options["ideal"]),
            ("alpha", query.options["alpha"]),
            ("section", query.options["section"]),
            ("representative", str(result.representative)),
        ]
        if point is not None:
            grade = section.grade
            if result.representative.is_zero:
                pairs.append(("class_at_point", "0"))
            else:
                # the leaf's base point is this point, checked when it was built
                blades = leaf.transversal_basis_at(grade=grade)
                pairs.append(("class_at_point", self.combo_str(blades, result.class_at())))
            pairs.append(("point", connection.point_str(point)))
        return pairs

    def q_flat_sections(self, query: Query) -> Pairs:
        point = query.options.get("point")
        grade = query.options.get("grade", 1)
        leaf = self.leaf(query.options["ideal"], point)
        try:
            blades, kernel = connection.flat_sections_at_point(leaf, grade=grade)
        except ValueError as exc:
            raise ValidationFailure(str(exc)) from None
        basis = "; ".join(self.combo_str(blades, vec) for vec in kernel) or "(none)"
        return [
            ("status", "ok"),
            ("ideal", query.options["ideal"]),
            ("point", connection.point_str(point) if point is not None else "(base)"),
            ("grade", str(grade)),
            ("transversal_basis", ", ".join(self.blade_str(b) for b in blades) or "(none)"),
            ("flat_section_basis", basis),
            ("flat", "yes" if len(kernel) == len(blades) else "no"),
        ]

    def q_der_basis(self, query: Query) -> Pairs:
        degree = query.options.get("degree", self.degree_bound)
        ideal = self.ideal(query.options["ideal"])
        fields = derivations.der_I_basis(ideal, degree)
        return [
            ("status", "ok"),
            ("ideal", query.options["ideal"]),
            ("truncated_at", str(degree)),
            ("basis_size", str(len(fields))),
            ("basis", "; ".join(str(f) for f in fields) or "(none)"),
        ]

    def q_lie_homology(self, query: Query) -> Pairs:
        g = self.algebra(query.options["algebra"])
        grades = liealg.homology(g)
        euler = sum(
            (h.dimension if h.grade % 2 == 0 else -h.dimension) for h in grades
        )
        return [
            ("status", "ok"),
            ("algebra", query.options["algebra"]),
            ("dims", ", ".join(str(h.dimension) for h in grades)),
            ("euler", str(euler)),
        ]

    def q_char_class(self, query: Query) -> Pairs:
        g = self.algebra(query.options["algebra"])
        rows = []
        for chunk in str(query.options["ideal"]).split(";"):
            try:
                combo = parse_combo(chunk.strip(), g.labels, query._option_lines["ideal"])
            except SpecFileError as exc:
                raise ValidationFailure(str(exc)) from None
            vec = [Fraction(0)] * g.dim
            for label, coeff in combo.items():
                vec[g.index(label)] = coeff
            rows.append(vec)
        try:
            ideal = charclass.LieIdeal(g, rows)
            projection = None
            if "projection" in query.options:
                projection = charclass.ProjectionOperator(
                    ideal, query.options["projection"]
                )
            result = charclass.characteristic_class(ideal, projection)
        except ValueError as exc:
            raise ValidationFailure(str(exc)) from None
        return [
            ("status", "ok"),
            ("algebra", query.options["algebra"]),
            ("ideal_basis", str(query.options["ideal"])),
            ("h1_dim", str(result.h1.dim)),
            ("class", str(result)),
            ("nonzero", "no" if result.is_zero else "yes"),
        ]


def run_document(doc: SpecDocument, degree_bound: int, order: str) -> tuple[str, int]:
    runner = _Runner(doc, degree_bound, order)
    blocks = []
    code = 0
    for number, query in enumerate(doc.queries, start=1):
        try:
            pairs = runner.dispatch(query)
        except ValidationFailure as exc:
            pairs = [("status", "error"), ("error", str(exc))]
            code = 2
        lines = [f"[query {number}: {query.kind}]"]
        lines.extend(f"{key} = {value}" for key, value in pairs)
        blocks.append("\n".join(lines))
    if runner.validation_failed:
        code = 2
    return ("\n\n".join(blocks) + "\n" if blocks else ""), code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="leafconn",
        description="Run symbolic Poisson-geometry and Lie-algebra queries "
        "from a declarative input file.",
    )
    parser.add_argument("--spec", required=True, metavar="PATH", help="input file")
    parser.add_argument(
        "--out", metavar="PATH", help="write the report here instead of stdout"
    )
    parser.add_argument(
        "--degree-bound",
        type=int,
        default=3,
        metavar="N",
        help="default truncation degree for derivation queries (default 3)",
    )
    parser.add_argument(
        "--order",
        choices=("grevlex", "lex"),
        default="grevlex",
        help="monomial order for ideal computations (default grevlex)",
    )
    args = parser.parse_args(argv)
    if args.degree_bound < 0:
        print("error: --degree-bound must be non-negative", file=sys.stderr)
        return 3
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 3
    try:
        doc = parse_spec_text(text)
    except SpecFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    try:
        report, code = run_document(doc, args.degree_bound, args.order)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
