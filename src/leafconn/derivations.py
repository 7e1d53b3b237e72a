"""Derivations preserving an ideal, computed exactly under a degree bound.

The spaces involved (all polynomial vector fields preserving an ideal,
those mapping everything into it, the ideal multiples of a distribution)
are infinite-dimensional over the rationals, so every computation here is
sliced to coefficient degree <= d with the bound always reported back.
Membership tests against the ideal are exact via normal forms, so within
a slice the answers are exact; what a slice cannot do is certify a
statement about all degrees, and the regularity verdict says so
explicitly instead of guessing.

A slice's fields are ``linalg`` sparse rows: a column map
``{(direction, exponent): column}`` numbers the coordinates, and only the
nonzero ones are stored.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Literal, Optional, Sequence

from . import linalg
from .ideals import Ideal
from .poly import ContextMismatch, Polynomial, VarContext, _from_clean, grevlex_key
from .tensors import GradeError, MultivectorField


def monomials_up_to(context: VarContext, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= degree, ascending grevlex."""
    n = len(context)
    out = [
        tuple(combo.count(i) for i in range(n))
        for d in range(degree + 1)
        for combo in combinations_with_replacement(range(n), d)
    ]
    return sorted(out, key=grevlex_key)


def _field_coefficient_degree(field: MultivectorField) -> int:
    return max((c.total_degree() for _, c in field.components()), default=0)


def _check_field(field: MultivectorField, ideal: Ideal) -> None:
    """Raise unless ``field`` is a vector field (or zero) over the ideal's context."""
    if field.grade != 1 and not field.is_zero:
        raise GradeError("expected a vector field")
    if field.context != ideal.context:
        raise ContextMismatch("field and ideal contexts differ")


def preserves_ideal(field: MultivectorField, ideal: Ideal) -> bool:
    """X(g) in I for every generator g — enough, by the Leibniz rule."""
    _check_field(field, ideal)
    if field.is_zero:
        return True
    return all(
        ideal.normal_form(field.apply_to(g)).is_zero for g in ideal.generators
    )


def maps_into_ideal(field: MultivectorField, ideal: Ideal) -> bool:
    """Every coefficient of X lies in I (i.e. X(x_i) in I for all i)."""
    _check_field(field, ideal)
    return all(ideal.normal_form(c).is_zero for _, c in field.components())


def _vector_to_field(
    context: VarContext, monos: Sequence[tuple[int, ...]], vec: linalg.Sparse
) -> MultivectorField:
    """The field whose coefficient of monos[m] * d/dx_i is vec[i * len(monos) + m]."""
    terms: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for k, value in vec.items():
        i, m = divmod(k, len(monos))
        terms.setdefault(i, {})[monos[m]] = value
    return MultivectorField(context, 1, {(i,): _from_clean(context, t) for i, t in terms.items()})


def _field_to_vector(
    field: MultivectorField, column: dict[tuple[int, tuple[int, ...]], int]
) -> Optional[linalg.Sparse]:
    """The field's coordinates under ``column`` ({(i, exponent): column}),
    or ``None`` when one of its terms has no column."""
    vec: linalg.Sparse = {}
    for (i,), coeff in field.components():
        for exp, value in coeff.terms():
            if (i, exp) not in column:
                return None
            vec[column[i, exp]] = value
    return vec


def _kernel(ideal: Ideal, columns: Sequence[Sequence[Polynomial]]) -> list[linalg.Sparse]:
    """Weights w with sum_k w[k] * columns[k][s] in the ideal for every slot s.

    Normal forms are linear, so the conditions are: every coefficient of
    every slot's normal-formed combination is zero, one row per (slot,
    monomial).  Row order does not matter, because the nullspace basis is
    read off the unique reduced row echelon form.
    """
    rows: dict[tuple[int, tuple[int, ...]], linalg.Sparse] = {}
    for k, column in enumerate(columns):
        for s, poly in enumerate(column):
            for exp, value in ideal.normal_form(poly).terms():
                rows.setdefault((s, exp), {})[k] = value
    return linalg.nullspace(list(rows.values()), len(columns))


def der_I_basis(ideal: Ideal, degree_bound: int) -> list[MultivectorField]:
    """Basis of the ideal-preserving fields with coefficient degree <= bound.

    The membership conditions normal_form(X(g_j)) = 0 are linear in the
    unknown field coefficients, so the space is an exact rational
    nullspace; the basis order follows the free-coordinate order
    (direction index, then ascending grevlex monomial).
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    context = ideal.context
    monos = monomials_up_to(context, degree_bound)
    partials = [[g.partial(i) for g in ideal.generators] for i in range(len(context))]
    # unknown i * len(monos) + m is the coefficient of monos[m] * d/dx_i
    columns = [
        [dg._shift(mono) for dg in partials[i]]
        for i in range(len(context))
        for mono in monos
    ]
    return [_vector_to_field(context, monos, vec) for vec in _kernel(ideal, columns)]


@dataclass(frozen=True)
class RegularityResult:
    status: Literal["regular", "not_regular", "inconclusive"]
    witness: Optional[MultivectorField]
    truncated_at: int

    def __str__(self) -> str:
        if self.status == "not_regular":
            return f"not_regular (witness {self.witness}, degree <= {self.truncated_at})"
        return f"{self.status} (degree <= {self.truncated_at})"


def is_regular_integral(
    distribution: Sequence[MultivectorField], ideal: Ideal, degree_bound: int
) -> RegularityResult:
    """Compare, within the slice, the ideal-vanishing part of a distribution
    with its ideal multiples.

    The distribution is the module generated by the given fields.  Its
    ideal-vanishing part is computed exactly inside the slice; the ideal
    multiples are generated with extra multiplier-degree headroom before
    being intersected with the slice, so a reported witness fails every
    representation within that budget.  Equality inside a slice of a
    nonzero ideal is reported as "inconclusive" (the slice cannot speak
    for higher degrees); the zero ideal is decidable outright.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    context = ideal.context
    for field in distribution:
        if field.context != context:
            raise ContextMismatch("distribution and ideal contexts differ")
        if not preserves_ideal(field, ideal):
            raise ValueError(f"ideal is not an integral: {field} does not preserve it")

    if ideal.is_zero_ideal:
        # X(A) subset of (0) forces X = 0, so both sides are zero in every degree.
        return RegularityResult("regular", None, degree_bound)

    d = degree_bound
    n = len(context)
    monos = monomials_up_to(context, d)
    low = {(i, m): i * len(monos) + k for i in range(n) for k, m in enumerate(monos)}
    gen_degrees = [_field_coefficient_degree(f) for f in distribution]

    def multiples(
        factor: Polynomial, degree: int, column: dict[tuple[int, tuple[int, ...]], int]
    ) -> list[linalg.Sparse]:
        """The fields mono * factor * X of coefficient degree <= degree over
        the generators X, as vectors under ``column``; those with a term
        outside it are left out."""
        rows: list[linalg.Sparse] = []
        for field, gdeg in zip(distribution, gen_degrees):
            if field.is_zero:
                continue
            budget = degree - factor.total_degree() - gdeg
            for mono in monomials_up_to(context, max(budget, 0)):
                scaled = field.scale(factor._shift(mono))
                vec = _field_to_vector(scaled, column)
                if vec is not None:
                    rows.append(vec)
        return rows

    # The distribution slice: monomial multiples of the generators that stay
    # within coefficient degree d.
    d_basis, _ = linalg.rref(multiples(Polynomial.constant(context, 1), d, low))

    # Ideal multiples, generated with headroom then cut back to the slice.
    # Monomials of degree > d (those past monos, which ascends in grevlex)
    # take the first columns; the slice's follow.
    slack = max(d, 2)
    high = monomials_up_to(context, d + slack)[len(monos):]
    big = {(i, m): i * len(high) + k for i in range(n) for k, m in enumerate(high)}
    cut = len(big)
    big.update({key: cut + col for key, col in low.items()})
    id_rows: list[linalg.Sparse] = []
    for gb_elem in ideal.groebner_basis():
        id_rows.extend(multiples(gb_elem, d + slack, big))
    # Intersect with the slice.  With the coordinates of degree > d first,
    # the RREF rows pivoting past them vanish there and span
    # span ∩ {high = 0} (any other row's weight in such a vector is the
    # vector's entry at that row's pivot, i.e. 0).  Shifted back to the
    # slice's columns they are in RREF, so they are the slice's unique RREF.
    id_reduced, id_big_pivots = linalg.rref(id_rows)
    id_basis = [{c - cut: x for c, x in row.items()} for row in id_reduced if min(row) >= cut]
    id_pivots = [p - cut for p in id_big_pivots if p >= cut]

    # Within the span, the combinations with every coefficient in the ideal.
    fields = [_vector_to_field(context, monos, vec) for vec in d_basis]
    columns = [[field.coefficient((i,)) for i in range(n)] for field in fields]
    for weights in _kernel(ideal, columns):
        combo = sum((fields[t] * w for t, w in weights.items()), MultivectorField.zero(context, 1))
        if linalg.residue(_field_to_vector(combo, low), id_basis, id_pivots):
            return RegularityResult("not_regular", combo, d)
    return RegularityResult("inconclusive", None, d)
