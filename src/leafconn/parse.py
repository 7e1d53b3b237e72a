"""Recursive-descent parsers for polynomial and tensor expressions.

Polynomial grammar (highest precedence first)::

    atom   := NUMBER | IDENT | '(' expr ')'
    factor := '-' factor | atom ['^' NUMBER]
    term   := factor (('*' | '/') factor)*
    expr   := ['-'] term (('+' | '-') term)*

``^`` takes a literal non-negative integer exponent only, and ``/`` divides
by a nonzero *constant* (so ``3/2*x`` and ``x/2`` work but ``1/x`` is
rejected).

Tensor expressions extend a term with basis factors joined by ``^``:
``d/dx ^ d/dy`` for multivector fields, ``dx ^ dy`` for differential
forms, with a leading polynomial coefficient, e.g. ``(x + 1) * d/dx ^ d/dy``.
All terms of one expression must have the same grade.  In multivector
expressions the token run ``d/d<var>`` always denotes a basis field, and in
form expressions an identifier ``d<var>`` (for a context variable ``<var>``)
always denotes a basis covector.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, VarContext
from .tensors import DifferentialForm, MultivectorField, merge_sign

# Each level of parentheses costs four frames of recursion; the bound keeps
# hostile input far below the interpreter's recursion limit.
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(?:(?P<number>\d+)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))")


class ParseError(ValueError):
    """Syntax or lookup error, with the offending position in the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` tokens, kind being number, ident or op.

    Every number token converts with ``int``: a literal longer than the
    interpreter's int-string digit limit is a ``ParseError`` here."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = match.lastgroup
        if kind is not None:
            value, start = match.group(kind), match.start(kind)
            if kind == "number":
                try:
                    int(value)
                except ValueError:
                    raise ParseError(f"number literal of {len(value)} digits is too long", start) from None
            tokens.append((kind, value, start))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str, context: VarContext, mode: str = "poly"):
        self.text = text
        self.context = context
        self.mode = mode  # "poly" | "mv" | "form"
        self.tokens = tokenize(text)
        self.depth = 0  # open parentheses around the current position
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int = 0) -> tuple[str, str, int] | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return token

    def _accept_op(self, *ops: str) -> str | None:
        token = self._peek()
        if token and token[0] == "op" and token[1] in ops:
            self.pos += 1
            return token[1]
        return None

    def _expect_op(self, op: str) -> None:
        token = self._peek()
        if not token or token[0] != "op" or token[1] != op:
            where = token[2] if token else len(self.text)
            raise ParseError(f"expected {op!r}", where)
        self.pos += 1

    def _fail_here(self, message: str):
        token = self._peek()
        raise ParseError(message, token[2] if token else len(self.text))

    # -- polynomial grammar ------------------------------------------------

    def poly_expr(self) -> Polynomial:
        negate = self._accept_op("-") is not None
        result = self.poly_term()
        if negate:
            result = -result
        while True:
            op = self._accept_op("+", "-")
            if op is None:
                return result
            term = self.poly_term()
            result = result + term if op == "+" else result - term

    def poly_term(self) -> Polynomial:
        result = self.poly_factor()
        while True:
            op = self._accept_op("*", "/")
            if op is None:
                return result
            where = self._peek()[2] if self._peek() else len(self.text)
            factor = self.poly_factor()
            if op == "*":
                result = result * factor
            else:
                result = self._divide(result, factor, where)

    def _divide(self, numerator: Polynomial, denominator: Polynomial, where: int) -> Polynomial:
        if not denominator.is_constant():
            raise ParseError("division is only allowed by a nonzero constant", where)
        value = denominator.constant_term()
        if value == 0:
            raise ParseError("division by zero", where)
        return numerator * (Fraction(1) / value)

    def poly_factor(self) -> Polynomial:
        negate = False
        while self._accept_op("-") is not None:
            negate = not negate
        result = self.poly_atom()
        if self._accept_op("^") is not None:
            token = self._peek()
            if not token or token[0] != "number":
                self._fail_here("exponent must be a non-negative integer literal")
            self._next()
            result = result ** int(token[1])
        return -result if negate else result

    def poly_atom(self) -> Polynomial:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, value, where = token
        if kind == "number":
            self._next()
            return Polynomial.constant(self.context, int(value))
        if kind == "ident":
            self._next()
            if value not in self.context:
                raise ParseError(f"unknown variable {value!r}", where)
            return Polynomial.variable(self.context, value)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", where)
            self._next()
            self.depth += 1
            inner = self.poly_expr()
            self.depth -= 1
            self._expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", where)

    # -- tensor grammar ----------------------------------------------------

    def _at_blade(self) -> bool:
        token = self._peek()
        if token is None or token[0] != "ident":
            return False
        if self.mode == "mv":
            if token[1] != "d":
                return False
            slash, name = self._peek(1), self._peek(2)
            return (
                slash is not None and slash[0] == "op" and slash[1] == "/"
                and name is not None and name[0] == "ident"
                and len(name[1]) > 1 and name[1][0] == "d" and name[1][1:] in self.context
            )
        if self.mode == "form":
            value = token[1]
            return len(value) > 1 and value[0] == "d" and value[1:] in self.context
        return False

    def _blade_index(self) -> int:
        if self.mode == "mv":
            self._next()  # 'd'
            self._expect_op("/")
            kind, value, where = self._next()
            if kind != "ident" or len(value) < 2 or value[0] != "d" or value[1:] not in self.context:
                raise ParseError("expected a basis field d/d<var>", where)
            return self.context.index(value[1:])
        kind, value, where = self._next()
        if value in self.context:
            raise ParseError(f"{value!r} is both a variable and a basis covector name", where)
        return self.context.index(value[1:])

    def _blade_chain(self) -> tuple[tuple[int, ...], int]:
        """A wedge of basis factors: sorted index tuple and sign (0 if repeated)."""
        indices = [self._blade_index()]
        while True:
            token = self._peek()
            if token and token[0] == "op" and token[1] == "^" and self._blade_follows_caret():
                self._next()
                indices.append(self._blade_index())
            else:
                break
        blade: tuple[int, ...] = ()
        sign = 1
        for index in indices:
            blade, factor = merge_sign(blade, (index,))
            sign *= factor
        return (tuple(indices), 0) if sign == 0 else (blade, sign)

    def _blade_follows_caret(self) -> bool:
        saved = self.pos
        self.pos += 1
        try:
            return self._at_blade()
        finally:
            self.pos = saved

    def tensor_term(self) -> tuple[int | None, tuple[int, ...], Polynomial]:
        """One product term: (declared grade or None, basis tuple, coefficient)."""
        coeff = Polynomial.constant(self.context, 1)
        blade: tuple[tuple[int, ...], int] | None = None
        while True:
            if self._at_blade():
                if blade is not None:
                    self._fail_here("use '^' to combine basis factors, not '*'")
                blade = self._blade_chain()
            else:
                factor = self.poly_factor()
                coeff = coeff * factor
            while self._accept_op("/") is not None:
                where = self._peek()[2] if self._peek() else len(self.text)
                divisor = self.poly_factor()
                coeff = self._divide(coeff, divisor, where)
            if self._accept_op("*") is None:
                break
        if blade is None:
            return None, (), coeff
        indices, sign = blade
        if sign == 0:
            return len(indices), (), Polynomial.zero(self.context)
        return len(indices), indices, coeff * sign

    def tensor_expr(self) -> tuple[int, dict[tuple[int, ...], Polynomial]]:
        sign = -1 if self._accept_op("-") is not None else 1
        grade: int | None = None
        components: dict[tuple[int, ...], Polynomial] = {}

        def add(term_grade: int | None, indices: tuple[int, ...], coeff: Polynomial) -> None:
            nonlocal grade
            declared = 0 if term_grade is None else term_grade
            if grade is None:
                grade = declared
            elif grade != declared:
                self._fail_here(f"mixed grades in one expression ({grade} and {declared})")
            if coeff.is_zero:
                return
            # zero sums stay for the tensor constructor to drop
            components[indices] = components[indices] + coeff if indices in components else coeff

        term_grade, indices, coeff = self.tensor_term()
        add(term_grade, indices, coeff * sign)
        while True:
            op = self._accept_op("+", "-")
            if op is None:
                break
            term_grade, indices, coeff = self.tensor_term()
            add(term_grade, indices, coeff if op == "+" else -coeff)
        return (grade if grade is not None else 0), components

    def finish(self) -> None:
        token = self._peek()
        if token is not None:
            raise ParseError(f"unexpected trailing token {token[1]!r}", token[2])


def parse_polynomial(text: str, context: VarContext) -> Polynomial:
    parser = _Parser(text, context, "poly")
    result = parser.poly_expr()
    parser.finish()
    return result


def parse_multivector(text: str, context: VarContext) -> MultivectorField:
    parser = _Parser(text, context, "mv")
    grade, components = parser.tensor_expr()
    parser.finish()
    return MultivectorField(context, grade, components)


def parse_form(text: str, context: VarContext) -> DifferentialForm:
    parser = _Parser(text, context, "form")
    grade, components = parser.tensor_expr()
    parser.finish()
    return DifferentialForm(context, grade, components)
