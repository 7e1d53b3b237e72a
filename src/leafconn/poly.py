"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent vectors (one non-negative integer per
context variable) to nonzero ``Fraction`` coefficients.  The map is kept
canonical — no zero coefficients are ever stored — so two polynomials are
equal exactly when their term maps are equal.

Monomial orders are plain key functions on exponent tuples; ``grevlex`` is
the default everywhere and is also the order used for canonical printing.

Coefficients are ``int`` or ``Fraction`` only; anything else (floats,
strings) is a ``TypeError`` from ``linalg._exact``, the package's one
exactness gate.  The public constructor validates every input, and
``_point`` checks every point; arithmetic results, whose term maps are
clean by construction, go through the module-private ``_from_clean``, or
``_from_primitive`` when their primitive integer form is already known.
Each polynomial memoizes its leading term per order, its primitive integer
form (see ``_primitive``) and the exponents of its monomial multiples (see
``_shifted``), which the Gröbner code in :mod:`leafconn.ideals` divides
with; ``_shift`` multiplies by a monomial.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .linalg import _exact

Coeff = Union[Fraction, int]
Exponent = tuple[int, ...]


class ContextMismatch(ValueError):
    """Operands belong to different variable contexts."""


class UnknownVariable(ValueError):
    """A variable name is not part of the context."""


class VarContext:
    """An ordered, immutable tuple of distinct variable names.

    Two contexts compare equal when their name tuples are equal; every
    binary polynomial operation requires equal contexts.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a variable context needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarContext({', '.join(self.names)})"


def grevlex_key(exponent: Exponent):
    """Sort key for graded reverse lexicographic order.

    Higher total degree wins; ties go to the monomial whose *last*
    differing exponent is smaller.
    """
    return (sum(exponent), tuple(map(neg, reversed(exponent))))


def lex_key(exponent: Exponent):
    """Sort key for pure lexicographic order (first variable strongest)."""
    return exponent


MONOMIAL_ORDERS = {"grevlex": grevlex_key, "lex": lex_key}


def _accumulate(terms: dict[Exponent, Fraction], exponent: Exponent, coeff: Fraction) -> None:
    """Add ``coeff`` to one term of a term map, dropping the term if it cancels."""
    new = terms.get(exponent, 0) + coeff
    if new:
        terms[exponent] = new
    else:
        terms.pop(exponent, None)


def _from_clean(context: VarContext, terms: dict[Exponent, Fraction]) -> "Polynomial":
    """A polynomial owning ``terms``, which must already map valid exponent
    tuples to nonzero ``Fraction``s; nothing is checked or copied."""
    p = object.__new__(Polynomial)
    p.context = context
    p._terms = terms
    p._memo = None
    return p


def _from_primitive(context: VarContext, ints: dict[Exponent, int], scale: Fraction) -> "Polynomial":
    """The polynomial ``scale * ints``, with ``(ints, scale)`` memoized as its
    primitive form: ``ints`` must map valid exponent tuples to nonzero
    integers whose gcd is 1, and ``scale`` must be positive."""
    n, d = scale.numerator, scale.denominator
    p = _from_clean(context, {e: Fraction(v * n, d) for e, v in ints.items()})
    p._memo = {None: (ints, scale)}
    return p


def _point(context: VarContext, point: Sequence[Coeff]) -> tuple[Fraction, ...]:
    """``point`` as a tuple of exact coordinates, one per context variable."""
    if len(point) != len(context):
        raise ValueError(f"point has length {len(point)}, expected {len(context)}")
    return tuple(map(_exact, point))


def _check_same_context(a: "Polynomial", b: "Polynomial") -> None:
    if a.context != b.context:
        raise ContextMismatch(f"contexts differ: {a.context!r} vs {b.context!r}")


class Polynomial:
    """An immutable sparse polynomial attached to a :class:`VarContext`.

    ``_memo`` caches values derived from the terms: the leading term under
    each order (keyed by the order's key function), the primitive integer
    form (keyed by ``None``) and, for each shift ``u`` that division or
    ``_shift`` asked for, the exponents of ``x^u * self`` (keyed by ``u``).
    The primitive form's integers are listed in the order of the terms, so
    a shift's exponents line up with both.  A polynomial never changes, so
    a cached value is always the one a recomputation would give; the memo
    takes no part in ``==`` or ``hash``.
    """

    __slots__ = ("context", "_terms", "_memo")

    def __init__(self, context: VarContext, terms: Mapping[Exponent, Coeff] = ()):
        self.context = context
        clean: dict[Exponent, Fraction] = {}
        n = len(context)
        for exponent, coeff in dict(terms).items():
            exponent = tuple(exponent)
            if len(exponent) != n or any(e < 0 or not isinstance(e, int) for e in exponent):
                raise ValueError(f"bad exponent vector {exponent!r} for {context!r}")
            coeff = _exact(coeff)
            if coeff:
                clean[exponent] = coeff
        self._terms = clean
        self._memo = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context: VarContext) -> "Polynomial":
        return cls(context)

    @classmethod
    def constant(cls, context: VarContext, value: Coeff) -> "Polynomial":
        return cls(context, {(0,) * len(context): value})

    @classmethod
    def variable(cls, context: VarContext, name: "str | int") -> "Polynomial":
        i = name if isinstance(name, int) else context.index(name)
        if not 0 <= i < len(context):
            raise UnknownVariable(f"variable index {i} out of range")
        exponent = tuple(1 if j == i else 0 for j in range(len(context)))
        return cls(context, {exponent: Fraction(1)})

    @classmethod
    def monomial(cls, context: VarContext, exponent: Exponent, coeff: Coeff = 1) -> "Polynomial":
        return cls(context, {tuple(exponent): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Terms in descending grevlex order (the canonical term order)."""
        for exponent in sorted(self._terms, key=grevlex_key, reverse=True):
            yield exponent, self._terms[exponent]

    def coefficient(self, exponent: Exponent) -> Fraction:
        exponent = tuple(exponent)
        if len(exponent) != len(self.context):
            raise ValueError(f"bad exponent vector {exponent!r} for {self.context!r}")
        return self._terms.get(exponent, Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * len(self.context), Fraction(0))

    def total_degree(self) -> int:
        """Maximum total degree of a term; 0 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._terms)

    def leading_term(self, key=grevlex_key) -> tuple[Exponent, Fraction]:
        """Largest term under ``key``; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        memo = self._memo_dict()
        term = memo.get(key)
        if term is None:
            exponent = max(self._terms, key=key)
            term = memo[key] = (exponent, self._terms[exponent])
        return term

    def _primitive(self) -> tuple[dict[Exponent, int], Fraction]:
        """``(ints, scale)`` with ``self == scale * ints``: integer terms
        whose gcd is 1 (empty, with scale 1, for the zero polynomial)."""
        memo = self._memo_dict()
        form = memo.get(None)
        if form is None:
            den = lcm(*(c.denominator for c in self._terms.values()))
            ints = {e: c.numerator * (den // c.denominator) for e, c in self._terms.items()}
            content = gcd(*ints.values()) or 1
            if content != 1:
                ints = {e: c // content for e, c in ints.items()}
            form = memo[None] = (ints, Fraction(content, den))
        return form

    def _shifted(self, u: Exponent) -> list[Exponent]:
        """The exponents of ``x^u * self``, in the order of the terms."""
        memo = self._memo_dict()
        exponents = memo.get(u)
        if exponents is None:
            exponents = memo[u] = [tuple(map(add, e, u)) for e in self._terms]
        return exponents

    def _shift(self, u: Exponent) -> "Polynomial":
        """``x^u * self``: the same coefficients and primitive form, on shifted exponents."""
        exponents = self._shifted(u)
        ints, scale = self._primitive()
        p = _from_clean(self.context, dict(zip(exponents, self._terms.values())))
        p._memo = {None: (dict(zip(exponents, ints.values())), scale)}
        return p

    def _memo_dict(self) -> dict:
        if self._memo is None:
            self._memo = {}
        return self._memo

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | Coeff") -> "Polynomial":
        other = self._coerce(other)
        _check_same_context(self, other)
        terms = dict(self._terms)
        for exponent, coeff in other._terms.items():
            _accumulate(terms, exponent, coeff)
        return _from_clean(self.context, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_clean(self.context, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Coeff") -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Coeff) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "Polynomial | Coeff") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return Polynomial.zero(self.context)
            return _from_clean(self.context, {e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        _check_same_context(self, other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                _accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return _from_clean(self.context, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial exponent must be a non-negative integer, got {n!r}")
        result = Polynomial.constant(self.context, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its value (see __eq__), so it hashes as that value.
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.context, frozenset(self._terms.items())))

    def _coerce(self, other: "Polynomial | Coeff") -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.context, other)
        raise TypeError(f"cannot combine polynomial with {type(other).__name__}")

    # -- calculus and evaluation -------------------------------------------

    def partial(self, var: "int | str") -> "Polynomial":
        """Partial derivative with respect to one context variable."""
        i = var if isinstance(var, int) else self.context.index(var)
        terms: dict[Exponent, Fraction] = {}
        for exponent, coeff in self._terms.items():
            if exponent[i] == 0:
                continue
            lowered = list(exponent)
            lowered[i] -= 1
            terms[tuple(lowered)] = coeff * exponent[i]
        return _from_clean(self.context, terms)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        values = _point(self.context, point)
        total = Fraction(0)
        for exponent, coeff in self._terms.items():
            term = coeff
            for value, e in zip(values, exponent):
                if e:
                    term *= value ** e
            total += term
        return total

    # -- printing ----------------------------------------------------------

    def _monomial_str(self, exponent: Exponent) -> str:
        parts = []
        for name, e in zip(self.context.names, exponent):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exponent, coeff in self.terms():
            mono = self._monomial_str(exponent)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __bool__(self) -> bool:
        return bool(self._terms)
