"""Line-oriented input files for the command line tool.

A file is a sequence of sections.  Blank lines and ``#`` comments are
ignored.  Section headers are bracketed; everything else belongs to the
most recent header::

    [variables]
    x, y

    [bivector]
    x ^ y = x

    [ideal leaf]
    x
    y

    [multivector s]
    d/dy

    [form a]
    dy

    [lie_algebra h3]
    basis = e, f, h
    [e, f] = h

    [query flat-sections]
    ideal = leaf
    point = 0, 0

Polynomial and tensor expressions use the same grammar as the parsing
module.  A ``[bivector]`` line assigns one upper-triangular component
(variables in declared order).  Multi-line tensor and ideal sections sum
or collect their lines.  Lie algebra sections declare ``basis = ...``
first, then bracket relations whose right-hand sides are rational linear
combinations of basis labels.  Query sections carry ``key = value``
options; unknown kinds, unknown keys, and malformed values are rejected
at parse time with the offending line number.  Name references between
sections (pointers from queries to ideals, tensors, and algebras) are
resolved later, when the query runs.

The reader makes two passes.  The first groups the lines under their
headers; content before the first header fails there.  The second checks
each header and hands the whole section, in file order, to the one method
for its kind, which also makes the checks that need the whole section
(generators, expression, basis, required query keys).  ``QUERY_KEYS``
holds one table per query kind: its keys, whether each is required, and
the reader of each value.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .parse import ParseError, parse_form, parse_multivector, parse_polynomial, tokenize
from .poly import Polynomial, VarContext
from .tensors import DifferentialForm, MultivectorField

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")
_HEADER_RE = re.compile(r"\[\s*([A-Za-z_-]+)(?:\s+([A-Za-z_][\w-]*))?\s*\]\Z")
_BRACKET_LHS_RE = re.compile(r"\[\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\]\Z")

class SpecFileError(ValueError):
    """Structural or syntax problem, carrying the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class LieAlgebraSection:
    labels: tuple[str, ...]
    relations: dict[tuple[str, str], dict[str, Fraction]]
    line: int


@dataclass
class Query:
    kind: str
    options: dict[str, object]
    line: int
    _option_lines: dict[str, int] = field(default_factory=dict)


@dataclass
class SpecDocument:
    context: Optional[VarContext] = None
    bivector: Optional[MultivectorField] = None
    ideals: dict[str, list[Polynomial]] = field(default_factory=dict)
    multivectors: dict[str, MultivectorField] = field(default_factory=dict)
    forms: dict[str, DifferentialForm] = field(default_factory=dict)
    lie_algebras: dict[str, LieAlgebraSection] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)


def _parse_rational(text: str, line: int) -> Fraction:
    text = text.strip()
    try:
        # no exponent notation (a few bytes of it can ask for a huge
        # integer) and no digit separators (only some Python versions read them)
        if "e" not in text.lower() and "_" not in text:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise SpecFileError(f"expected a rational number, got {text!r}", line)


def _parse_point(value: str, line: int) -> tuple[Fraction, ...]:
    inner = value.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    if not inner.strip():
        raise SpecFileError("empty point", line)
    return tuple(_parse_rational(part, line) for part in inner.split(","))


def _parse_matrix(value: str, line: int) -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for chunk in value.split(";"):
        if not chunk.strip():
            raise SpecFileError("empty matrix row", line)
        rows.append(tuple(_parse_rational(part, line) for part in chunk.split(",")))
    if len({len(row) for row in rows}) > 1:
        raise SpecFileError("matrix rows have unequal lengths", line)
    return tuple(rows)


def _parse_name(value: str, line: int) -> str:
    if not _IDENT_RE.match(value):
        raise SpecFileError(f"expected a name, got {value!r}", line)
    return value


def _parse_count(key: str, value: str, line: int) -> int:
    try:
        count = int(value)
    except ValueError:
        raise SpecFileError(f"{key} must be an integer", line) from None
    if count < 0:
        raise SpecFileError(f"{key} must be non-negative", line)
    return count


def _parse_basis(value: str, line: int) -> str:
    # ';'-separated label combinations, read when the query runs: the
    # algebra that owns the labels may be defined later in the file
    if not value:
        raise SpecFileError("empty ideal basis", line)
    return value


# a row's entries: key -> (required, reader of the value)
_NAME = (True, _parse_name)
_POINT = (False, _parse_point)
_GRADE = (False, partial(_parse_count, "grade"))
_DEGREE = (False, partial(_parse_count, "degree"))

QUERY_KEYS: dict[str, dict[str, tuple[bool, Callable[[str, int], object]]]] = {
    "check-poisson": {},
    "schouten": {"left": _NAME, "right": _NAME},
    "leaf-connection": {"ideal": _NAME, "alpha": _NAME, "section": _NAME, "point": _POINT},
    "flat-sections": {"ideal": _NAME, "point": _POINT, "grade": _GRADE},
    "der-basis": {"ideal": _NAME, "degree": _DEGREE},
    "lie-homology": {"algebra": _NAME},
    "char-class": {
        "algebra": _NAME, "ideal": (True, _parse_basis), "projection": (False, _parse_matrix)
    },
}


def parse_combo(text: str, labels: tuple[str, ...], line: int) -> dict[str, Fraction]:
    """A rational linear combination of labels, e.g. ``2*e - 1/2*h`` or ``0``."""
    try:
        tokens = [token[:2] for token in tokenize(text)] + [("end", "")]
    except ParseError as exc:
        raise SpecFileError(str(exc), line) from None
    out: dict[str, Fraction] = {}
    pos, sign = (1, -1) if tokens[0] == ("op", "-") else (0, 1)
    while True:
        kind, value = tokens[pos]
        if kind == "end":
            raise SpecFileError("expected a term in the linear combination", line)
        coeff = Fraction(1)
        if kind == "number":
            coeff, pos = Fraction(int(value)), pos + 1
            if tokens[pos] == ("op", "/"):
                kind, den = tokens[pos + 1]
                if kind != "number" or int(den) == 0:
                    raise SpecFileError("bad rational coefficient", line)
                coeff, pos = coeff / int(den), pos + 2
            if tokens[pos] == ("op", "*"):
                kind, value = tokens[pos + 1]
                pos += 1
            elif coeff:
                raise SpecFileError("a nonzero constant is not a basis combination", line)
            else:
                kind = "zero"  # a lone 0 adds nothing
        if kind != "zero":
            if kind != "ident":
                raise SpecFileError("expected a basis label", line)
            if value not in labels:
                raise SpecFileError(f"unknown basis label {value!r}", line)
            pos += 1
            total = out.get(value, 0) + sign * coeff
            if total:
                out[value] = total
            else:
                out.pop(value, None)
        kind, value = tokens[pos]
        if kind == "end":
            return out
        if (kind, value) not in (("op", "+"), ("op", "-")):
            raise SpecFileError(f"unexpected {value!r} in linear combination", line)
        pos, sign = pos + 1, (1 if value == "+" else -1)


def _split_assignment(text: str, line: int) -> tuple[str, str]:
    if "=" not in text:
        raise SpecFileError("expected 'key = value'", line)
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


def _expression(parse, text: str, context: VarContext, line: int):
    """``parse(text, context)`` with its syntax errors reported at ``line``."""
    try:
        return parse(text, context)
    except ParseError as exc:
        raise SpecFileError(str(exc), line) from None


Body = list[tuple[str, int]]


class _SpecParser:
    def __init__(self):
        self.doc = SpecDocument()
        self.readers = {
            "variables": self.read_variables,
            "bivector": self.read_bivector,
            "ideal": self.read_ideal,
            "multivector": partial(self.read_tensor, "multivector"),
            "form": partial(self.read_tensor, "form"),
            "lie_algebra": self.read_algebra,
            "query": self.read_query,
        }

    def context(self, line: int) -> VarContext:
        if self.doc.context is None:
            raise SpecFileError("a [variables] section is required first", line)
        return self.doc.context

    def parse(self, text: str) -> SpecDocument:
        sections: list[tuple[str, int, Body]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            content = raw.strip()
            if not content or content.startswith("#"):
                continue
            if content.startswith("[") and not _BRACKET_LHS_RE.match(content.split("=")[0].strip()):
                sections.append((content, number, []))
            elif sections:
                sections[-1][2].append((content, number))
            else:
                raise SpecFileError("content before the first section header", number)
        for header, line, body in sections:
            kind, name = self.header(header, line)
            self.readers[kind](name, line, body)
        return self.doc

    def header(self, text: str, line: int) -> tuple[str, Optional[str]]:
        match = _HEADER_RE.match(text)
        if match is None:
            raise SpecFileError(f"malformed section header {text!r}", line)
        kind, name = match.group(1), match.group(2)
        doc = self.doc
        if kind not in self.readers:
            raise SpecFileError(f"unknown section kind {kind!r}", line)
        if kind in ("variables", "bivector"):
            if name is not None:
                raise SpecFileError(f"[{kind}] takes no name", line)
            if (doc.context if kind == "variables" else doc.bivector) is not None:
                raise SpecFileError(f"duplicate [{kind}] section", line)
        elif kind == "query":
            if name is None:
                raise SpecFileError("[query] needs a kind", line)
            if name not in QUERY_KEYS:
                raise SpecFileError(f"unknown query kind {name!r}", line)
        elif name is None or not _IDENT_RE.match(name):
            raise SpecFileError(f"[{kind}] needs a plain name", line)
        elif any(name in s for s in (doc.ideals, doc.multivectors, doc.forms, doc.lie_algebras)):
            raise SpecFileError(f"duplicate definition of {name!r}", line)
        return kind, name

    def read_variables(self, name: None, line: int, body: Body) -> None:
        names: list[str] = []
        for text, number in body:
            for part in text.split(","):
                candidate = part.strip()
                # VarContext's rule too: \w also admits characters such as '²'
                if not (_IDENT_RE.match(candidate) and candidate.isidentifier()):
                    raise SpecFileError(f"bad variable name {candidate!r}", number)
                if candidate in names:
                    raise SpecFileError(f"duplicate variable {candidate!r}", number)
                names.append(candidate)
        if names:
            self.doc.context = VarContext(names)
        self.context(line)  # an empty section counts as a missing one

    def read_bivector(self, name: None, line: int, body: Body) -> None:
        entries: dict[tuple[int, int], Polynomial] = {}
        for text, number in body:
            lhs, rhs = _split_assignment(text, number)
            parts = [p.strip() for p in lhs.split("^")]
            ctx = self.context(number)
            if len(parts) != 2 or any(p not in ctx for p in parts):
                raise SpecFileError(
                    "bivector components are assigned as '<var> ^ <var> = <polynomial>'",
                    number,
                )
            i, j = ctx.index(parts[0]), ctx.index(parts[1])
            if i >= j:
                raise SpecFileError("bivector components use variables in declared order", number)
            if (i, j) in entries:
                raise SpecFileError(f"duplicate bivector component {lhs!r}", number)
            entries[(i, j)] = _expression(parse_polynomial, rhs, ctx, number)
        self.doc.bivector = MultivectorField(self.context(line), 2, entries)

    def read_ideal(self, name: str, line: int, body: Body) -> None:
        generators = [_expression(parse_polynomial, t, self.context(n), n) for t, n in body]
        if not generators:
            raise SpecFileError(f"ideal {name!r} has no generators", line)
        self.doc.ideals[name] = generators

    def read_tensor(self, kind: str, name: str, line: int, body: Body) -> None:
        parse = parse_multivector if kind == "multivector" else parse_form
        total = None
        for text, number in body:
            term = _expression(parse, text, self.context(number), number)
            try:
                total = term if total is None else total + term
            except ValueError as exc:
                raise SpecFileError(str(exc), number) from None
        if total is None:
            raise SpecFileError(f"{kind} {name!r} has no expression", line)
        store = self.doc.multivectors if kind == "multivector" else self.doc.forms
        store[name] = total

    def read_algebra(self, name: str, line: int, body: Body) -> None:
        if not body:
            raise SpecFileError(f"lie_algebra {name!r} declares no basis", line)
        (first, number), *relation_lines = body
        key, value = _split_assignment(first, number)
        if key != "basis":
            raise SpecFileError("the first line must be 'basis = <labels>'", number)
        labels = tuple(p.strip() for p in value.split(","))
        if not labels or any(not _IDENT_RE.match(p) for p in labels):
            raise SpecFileError("bad basis label list", number)
        if len(set(labels)) != len(labels):
            raise SpecFileError("duplicate basis labels", number)
        relations: dict[tuple[str, str], dict[str, Fraction]] = {}
        for text, number in relation_lines:
            lhs, rhs = _split_assignment(text, number)
            match = _BRACKET_LHS_RE.match(lhs)
            if match is None:
                raise SpecFileError("bracket relations look like '[a, b] = <combination>'", number)
            a, b = match.group(1), match.group(2)
            for label in (a, b):
                if label not in labels:
                    raise SpecFileError(f"unknown basis label {label!r}", number)
            if (a, b) in relations or (b, a) in relations:
                raise SpecFileError(f"duplicate bracket relation for ({a}, {b})", number)
            if a == b:
                raise SpecFileError("a bracket of a label with itself is zero", number)
            relations[(a, b)] = parse_combo(rhs, labels, number)
        self.doc.lie_algebras[name] = LieAlgebraSection(labels, relations, line)

    def read_query(self, kind: str, line: int, body: Body) -> None:
        keys = QUERY_KEYS[kind]
        query = Query(kind, {}, line)
        for text, number in body:
            key, value = _split_assignment(text, number)
            if key not in keys:
                raise SpecFileError(f"query {kind!r} takes no key {key!r}", number)
            if key in query.options:
                raise SpecFileError(f"duplicate key {key!r}", number)
            query._option_lines[key] = number
            query.options[key] = keys[key][1](value, number)
        missing = sorted(k for k, (need, _) in keys.items() if need and k not in query.options)
        if missing:
            raise SpecFileError(f"query {kind!r} is missing {', '.join(missing)}", line)
        self.doc.queries.append(query)


def parse_spec_text(text: str) -> SpecDocument:
    return _SpecParser().parse(text)
