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
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .parse import ParseError, parse_form, parse_multivector, parse_polynomial, tokenize
from .poly import Polynomial, VarContext
from .tensors import DifferentialForm, MultivectorField

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")
_HEADER_RE = re.compile(r"\[\s*([A-Za-z_-]+)(?:\s+([A-Za-z_][\w-]*))?\s*\]\Z")
_BRACKET_LHS_RE = re.compile(r"\[\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\]\Z")

QUERY_KEYS: dict[str, tuple[set[str], set[str]]] = {
    # kind: (required keys, optional keys)
    "check-poisson": (set(), set()),
    "schouten": ({"left", "right"}, set()),
    "leaf-connection": ({"ideal", "alpha", "section"}, {"point"}),
    "flat-sections": ({"ideal"}, {"point", "grade"}),
    "der-basis": ({"ideal"}, {"degree"}),
    "lie-homology": ({"algebra"}, set()),
    "char-class": ({"algebra", "ideal"}, {"projection"}),
}


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


def parse_combo(text: str, labels: tuple[str, ...], line: int) -> dict[str, Fraction]:
    """A rational linear combination of labels, e.g. ``2*e - 1/2*h`` or ``0``."""
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        raise SpecFileError(str(exc), line) from None
    out: dict[str, Fraction] = {}
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def term(sign: Fraction) -> None:
        nonlocal pos
        token = peek()
        if token is None:
            raise SpecFileError("expected a term in the linear combination", line)
        coeff = Fraction(1)
        if token[0] == "number":
            coeff = Fraction(int(token[1]))
            pos += 1
            if peek() and peek()[0] == "op" and peek()[1] == "/":
                pos += 1
                den = peek()
                if den is None or den[0] != "number" or int(den[1]) == 0:
                    raise SpecFileError("bad rational coefficient", line)
                coeff /= int(den[1])
                pos += 1
            if peek() is None or not (peek()[0] == "op" and peek()[1] == "*"):
                if coeff != 0:
                    raise SpecFileError(
                        "a nonzero constant is not a basis combination", line
                    )
                return
            pos += 1
            token = peek()
        if token is None or token[0] != "ident":
            raise SpecFileError("expected a basis label", line)
        if token[1] not in labels:
            raise SpecFileError(f"unknown basis label {token[1]!r}", line)
        pos += 1
        value = out.get(token[1], Fraction(0)) + sign * coeff
        if value:
            out[token[1]] = value
        else:
            out.pop(token[1], None)

    sign = Fraction(1)
    if peek() and peek()[0] == "op" and peek()[1] == "-":
        sign = Fraction(-1)
        pos += 1
    term(sign)
    while True:
        token = peek()
        if token is None:
            return out
        if token[0] != "op" or token[1] not in "+-":
            raise SpecFileError(f"unexpected {token[1]!r} in linear combination", line)
        pos += 1
        term(Fraction(1) if token[1] == "+" else Fraction(-1))


def _split_assignment(text: str, line: int) -> tuple[str, str]:
    if "=" not in text:
        raise SpecFileError("expected 'key = value'", line)
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


class _SpecParser:
    def __init__(self, text: str):
        self.doc = SpecDocument()
        self.lines = text.splitlines()
        self.section: Optional[tuple[str, Optional[str], int]] = None
        self.var_names: list[str] = []
        self.bivector_entries: dict[tuple[int, int], Polynomial] = {}
        self.algebra_labels: Optional[tuple[str, ...]] = None

    def context(self, line: int) -> VarContext:
        if self.doc.context is None:
            if not self.var_names:
                raise SpecFileError("a [variables] section is required first", line)
            self.doc.context = VarContext(self.var_names)
        return self.doc.context

    def parse(self) -> SpecDocument:
        for number, raw in enumerate(self.lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("[") and not _BRACKET_LHS_RE.match(
                text.split("=")[0].strip()
            ):
                self.finish_section()
                self.start_section(text, number)
            else:
                self.body_line(text, number)
        self.finish_section()
        return self.doc

    def start_section(self, text: str, line: int) -> None:
        match = _HEADER_RE.match(text)
        if match is None:
            raise SpecFileError(f"malformed section header {text!r}", line)
        kind, name = match.group(1), match.group(2)
        if kind in ("variables", "bivector"):
            if name is not None:
                raise SpecFileError(f"[{kind}] takes no name", line)
            if kind == "variables" and (self.var_names or self.doc.context):
                raise SpecFileError("duplicate [variables] section", line)
            if kind == "bivector" and self.doc.bivector is not None:
                raise SpecFileError("duplicate [bivector] section", line)
        elif kind in ("ideal", "multivector", "form", "lie_algebra"):
            if name is None or not _IDENT_RE.match(name):
                raise SpecFileError(f"[{kind}] needs a plain name", line)
            defined = (
                name in self.doc.ideals
                or name in self.doc.multivectors
                or name in self.doc.forms
                or name in self.doc.lie_algebras
            )
            if defined:
                raise SpecFileError(f"duplicate definition of {name!r}", line)
        elif kind == "query":
            if name is None:
                raise SpecFileError("[query] needs a kind", line)
        else:
            raise SpecFileError(f"unknown section kind {kind!r}", line)
        self.section = (kind, name, line)
        if kind == "ideal":
            self.doc.ideals[name] = []
        elif kind == "lie_algebra":
            self.algebra_labels = None
            self.doc.lie_algebras[name] = LieAlgebraSection((), {}, line)
        elif kind == "query":
            if name not in QUERY_KEYS:
                raise SpecFileError(f"unknown query kind {name!r}", line)
            self.doc.queries.append(Query(name, {}, line))

    def body_line(self, text: str, line: int) -> None:
        if self.section is None:
            raise SpecFileError("content before the first section header", line)
        kind, name, _ = self.section
        handler = {
            "variables": self.on_variables,
            "bivector": self.on_bivector,
            "ideal": self.on_ideal,
            "multivector": self.on_tensor,
            "form": self.on_tensor,
            "lie_algebra": self.on_algebra,
            "query": self.on_query,
        }[kind]
        try:
            handler(name, text, line)
        except ParseError as exc:
            raise SpecFileError(str(exc), line) from None

    def on_variables(self, name: Optional[str], text: str, line: int) -> None:
        for part in text.split(","):
            candidate = part.strip()
            if not _IDENT_RE.match(candidate):
                raise SpecFileError(f"bad variable name {candidate!r}", line)
            if candidate in self.var_names:
                raise SpecFileError(f"duplicate variable {candidate!r}", line)
            self.var_names.append(candidate)

    def on_bivector(self, name: Optional[str], text: str, line: int) -> None:
        lhs, rhs = _split_assignment(text, line)
        parts = [p.strip() for p in lhs.split("^")]
        ctx = self.context(line)
        if len(parts) != 2 or any(p not in ctx for p in parts):
            raise SpecFileError(
                "bivector components are assigned as '<var> ^ <var> = <polynomial>'",
                line,
            )
        i, j = ctx.index(parts[0]), ctx.index(parts[1])
        if i >= j:
            raise SpecFileError(
                "bivector components use variables in declared order", line
            )
        if (i, j) in self.bivector_entries:
            raise SpecFileError(f"duplicate bivector component {lhs!r}", line)
        self.bivector_entries[(i, j)] = parse_polynomial(rhs, ctx)

    def on_ideal(self, name: Optional[str], text: str, line: int) -> None:
        self.doc.ideals[name].append(parse_polynomial(text, self.context(line)))

    def on_tensor(self, name: Optional[str], text: str, line: int) -> None:
        kind = self.section[0]
        ctx = self.context(line)
        if kind == "multivector":
            term = parse_multivector(text, ctx)
            store = self.doc.multivectors
        else:
            term = parse_form(text, ctx)
            store = self.doc.forms
        if name in store:
            try:
                store[name] = store[name] + term
            except ValueError as exc:
                raise SpecFileError(str(exc), line) from None
        else:
            store[name] = term

    def on_algebra(self, name: Optional[str], text: str, line: int) -> None:
        section = self.doc.lie_algebras[name]
        if self.algebra_labels is None:
            key, value = _split_assignment(text, line)
            if key != "basis":
                raise SpecFileError("the first line must be 'basis = <labels>'", line)
            labels = tuple(p.strip() for p in value.split(","))
            if not labels or any(not _IDENT_RE.match(p) for p in labels):
                raise SpecFileError("bad basis label list", line)
            if len(set(labels)) != len(labels):
                raise SpecFileError("duplicate basis labels", line)
            self.algebra_labels = labels
            section.labels = labels
            return
        lhs, rhs = _split_assignment(text, line)
        match = _BRACKET_LHS_RE.match(lhs)
        if match is None:
            raise SpecFileError("bracket relations look like '[a, b] = <combination>'", line)
        a, b = match.group(1), match.group(2)
        for label in (a, b):
            if label not in self.algebra_labels:
                raise SpecFileError(f"unknown basis label {label!r}", line)
        if (a, b) in section.relations or (b, a) in section.relations:
            raise SpecFileError(f"duplicate bracket relation for ({a}, {b})", line)
        if a == b:
            raise SpecFileError("a bracket of a label with itself is zero", line)
        section.relations[(a, b)] = parse_combo(rhs, self.algebra_labels, line)

    def on_query(self, name: Optional[str], text: str, line: int) -> None:
        query = self.doc.queries[-1]
        key, value = _split_assignment(text, line)
        required, optional = QUERY_KEYS[query.kind]
        if key not in required | optional:
            raise SpecFileError(f"query {query.kind!r} takes no key {key!r}", line)
        if key in query.options:
            raise SpecFileError(f"duplicate key {key!r}", line)
        query._option_lines[key] = line
        if key == "point":
            query.options[key] = _parse_point(value, line)
        elif key in ("grade", "degree"):
            try:
                query.options[key] = int(value)
            except ValueError:
                raise SpecFileError(f"{key} must be an integer", line) from None
            if query.options[key] < 0:
                raise SpecFileError(f"{key} must be non-negative", line)
        elif key == "projection":
            query.options[key] = _parse_matrix(value, line)
        elif query.kind == "char-class" and key == "ideal":
            # basis vectors as label combinations, ';'-separated; the labels
            # belong to an algebra that may be defined later, so resolution
            # waits until the query runs
            if not value:
                raise SpecFileError("empty ideal basis", line)
            query.options[key] = value
        else:
            if not _IDENT_RE.match(value):
                raise SpecFileError(f"expected a name, got {value!r}", line)
            query.options[key] = value

    def finish_section(self) -> None:
        if self.section is None:
            return
        kind, name, line = self.section
        if kind == "variables":
            self.context(line)
        elif kind == "bivector":
            ctx = self.context(line)
            self.doc.bivector = MultivectorField(ctx, 2, self.bivector_entries)
        elif kind == "ideal" and not self.doc.ideals[name]:
            raise SpecFileError(f"ideal {name!r} has no generators", line)
        elif kind in ("multivector", "form"):
            store = self.doc.multivectors if kind == "multivector" else self.doc.forms
            if name not in store:
                raise SpecFileError(f"{kind} {name!r} has no expression", line)
        elif kind == "lie_algebra" and not self.doc.lie_algebras[name].labels:
            raise SpecFileError(f"lie_algebra {name!r} declares no basis", line)
        elif kind == "query":
            query = self.doc.queries[-1]
            required, _ = QUERY_KEYS[query.kind]
            missing = sorted(required - set(query.options))
            if missing:
                raise SpecFileError(
                    f"query {query.kind!r} is missing {', '.join(missing)}", line
                )
        self.section = None


def parse_spec_text(text: str) -> SpecDocument:
    return _SpecParser(text).parse()
