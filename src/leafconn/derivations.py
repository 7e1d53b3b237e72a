"""Derivations preserving an ideal, computed exactly under a degree bound.

The spaces involved (all polynomial vector fields preserving an ideal,
those mapping everything into it, the ideal multiples of a distribution)
are infinite-dimensional over the rationals, so every computation here is
sliced to coefficient degree <= d with the bound always reported back.
Membership tests against the ideal are exact via normal forms, so within
a slice the answers are exact; what a slice cannot do is certify a
statement about all degrees, and the regularity verdict says so
explicitly instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Literal, Optional, Sequence

from . import linalg
from .ideals import Ideal
from .poly import ContextMismatch, Polynomial, VarContext, grevlex_key
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


def preserves_ideal(field: MultivectorField, ideal: Ideal) -> bool:
    """X(g) in I for every generator g — enough, by the Leibniz rule."""
    if field.grade != 1 and not field.is_zero:
        raise GradeError("expected a vector field")
    if field.context != ideal.context:
        raise ContextMismatch("field and ideal contexts differ")
    if field.is_zero:
        return True
    return all(
        ideal.normal_form(field.apply_to(g)).is_zero for g in ideal.generators
    )


def maps_into_ideal(field: MultivectorField, ideal: Ideal) -> bool:
    """Every coefficient of X lies in I (i.e. X(x_i) in I for all i)."""
    if field.grade != 1 and not field.is_zero:
        raise GradeError("expected a vector field")
    if field.context != ideal.context:
        raise ContextMismatch("field and ideal contexts differ")
    return all(ideal.normal_form(c).is_zero for _, c in field.components())


def _vector_to_field(
    context: VarContext, monos: Sequence[tuple[int, ...]], vec: Sequence[Fraction]
) -> MultivectorField:
    terms: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(len(context))]
    for k, value in enumerate(vec):
        if value:
            i, m = divmod(k, len(monos))
            terms[i][monos[m]] = value
    return MultivectorField(
        context, 1, {(i,): Polynomial(context, t) for i, t in enumerate(terms) if t}
    )


def _field_to_vector(
    field: MultivectorField, monos: Sequence[tuple[int, ...]]
) -> Optional[list[Fraction]]:
    index = {m: k for k, m in enumerate(monos)}
    vec = [Fraction(0)] * (len(field.context) * len(monos))
    for (i,), coeff in field.components():
        for exp, value in coeff.terms():
            if exp not in index:
                return None
            vec[i * len(monos) + index[exp]] = value
    return vec


def _kernel(ideal: Ideal, columns: Sequence[Sequence[Polynomial]]) -> list[list[Fraction]]:
    """Weights w with sum_k w[k] * columns[k][s] in the ideal for every slot s.

    Normal forms are linear, so the conditions are: every coefficient of
    every slot's normal-formed combination is zero, one row per (slot,
    monomial).  Row order does not matter, because the nullspace basis is
    read off the unique reduced row echelon form.
    """
    rows: list[list[Fraction]] = []
    row_of: dict[tuple[int, tuple[int, ...]], int] = {}
    for k, column in enumerate(columns):
        for s, poly in enumerate(column):
            for exp, value in ideal.normal_form(poly).terms():
                if (s, exp) not in row_of:
                    row_of[s, exp] = len(rows)
                    rows.append([Fraction(0)] * len(columns))
                rows[row_of[s, exp]][k] += value
    return linalg.nullspace(rows, len(columns))


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
        [Polynomial.monomial(context, mono, Fraction(1)) * dg for dg in partials[i]]
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
    gen_degrees = [_field_coefficient_degree(f) for f in distribution]

    # The distribution slice: monomial multiples of the generators that stay
    # within coefficient degree d.
    d_rows: list[list[Fraction]] = []
    for field, gdeg in zip(distribution, gen_degrees):
        if field.is_zero:
            continue
        for mono in monomials_up_to(context, max(d - gdeg, 0)):
            scaled = field.scale(Polynomial.monomial(context, mono, Fraction(1)))
            vec = _field_to_vector(scaled, monos)
            if vec is not None:
                d_rows.append(vec)
    d_basis, _ = linalg.rref(d_rows)

    # Within the span, select the subspace with every coefficient in the ideal.
    fields = [_vector_to_field(context, monos, vec) for vec in d_basis]
    columns = [[field.coefficient((i,)) for i in range(n)] for field in fields]
    zero_part = linalg.matmul(_kernel(ideal, columns), d_basis)

    # Ideal multiples, generated with headroom then cut back to the slice.
    slack = max(d, 2)
    big_monos = monomials_up_to(context, d + slack)
    id_rows: list[list[Fraction]] = []
    for gb_elem in ideal.groebner_basis():
        for field, gdeg in zip(distribution, gen_degrees):
            if field.is_zero:
                continue
            budget = d + slack - gb_elem.total_degree() - gdeg
            for mono in monomials_up_to(context, max(budget, 0)):
                scaled = field.scale(
                    Polynomial.monomial(context, mono, Fraction(1)) * gb_elem
                )
                vec = _field_to_vector(scaled, big_monos)
                if vec is not None:
                    id_rows.append(vec)
    # Intersect with the slice.  Both monomial lists ascend in grevlex, so
    # monos is the degree <= d prefix of big_monos.  With the coordinates of
    # degree > d ordered first, the RREF rows pivoting past them vanish there
    # and span span ∩ {high = 0} (any other row's weight in such a vector is
    # the vector's entry at that row's pivot, i.e. 0).  Cut back to the low
    # coordinates they are in RREF, so they are the slice's unique RREF.
    size, low = len(big_monos), len(monos)
    high_cols = [i * size + k for i in range(n) for k in range(low, size)]
    low_cols = [i * size + k for i in range(n) for k in range(low)]
    order = high_cols + low_cols
    cut = len(high_cols)
    id_reduced, id_big_pivots = linalg.rref([[vec[c] for c in order] for vec in id_rows])
    id_basis = [row[cut:] for row, p in zip(id_reduced, id_big_pivots) if p >= cut]
    id_pivots = [p - cut for p in id_big_pivots if p >= cut]

    for vec in zero_part:
        if any(linalg.residue(vec, id_basis, id_pivots)):
            witness = _vector_to_field(context, monos, vec)
            return RegularityResult("not_regular", witness, d)
    return RegularityResult("inconclusive", None, d)
