"""The linear connection on the transversal data of a symplectic leaf.

A leaf is modeled by the ideal I of polynomials vanishing on it inside a
verified Poisson context.  The leaf's tangent directions are spanned by
the coordinate Hamiltonian fields X_{x_i}; transversal vectors (and
higher-grade transversal multivectors) are classes modulo those tangent
directions, realized concretely at points of the leaf by exact linear
algebra.

The connection differentiates a transversal class along a 1-form alpha by
bracketing a representative with the anchored field X_alpha and reducing
again:

    nabla_alpha(s) = class of [X_alpha, s~]

and dually on conormal 1-forms (forms annihilating the tangent
directions mod I) by the Lie derivative along X_alpha.  Both versions are
independent of the chosen representatives at leaf points, and are related
by the exact pairing identity

    X_alpha(<w, s>) - <w, [X_alpha, s]> = <L_{X_alpha} w, s>.

All quotient bases are chosen deterministically: the evaluated tangent
span is row-reduced with leftmost pivots and the complement coordinates
(or coordinate blades, for higher grade) form the transversal basis.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .ideals import Ideal
from .poly import ContextMismatch, Polynomial
from .poisson import PoissonStructure
from .tensors import (
    DifferentialForm,
    GradeError,
    MultivectorField,
    lie_derivative,
    merge_sign,
    pairing,
    schouten_bracket,
)

Point = tuple[Fraction, ...]


class NotOnLeafError(ValueError):
    """A point fails to annihilate the leaf ideal's generators."""


def point_str(point: Sequence[Fraction]) -> str:
    """A point as reports print it, e.g. ``(0, 1/2)``."""
    return "(" + ", ".join(str(c) for c in point) + ")"


class LeafContext:
    """A verified (Poisson structure, leaf ideal, optional base point) triple."""

    def __init__(
        self,
        poisson: PoissonStructure,
        ideal: Ideal,
        base_point: Optional[Sequence[Fraction | int]] = None,
    ):
        if ideal.context != poisson.context:
            raise ContextMismatch("ideal context does not match the Poisson context")
        poisson.require_jacobi()
        if not poisson.is_integral_ideal(ideal):
            raise ValueError("the ideal is not an integral: some {x_i, g} escapes it")
        self.poisson = poisson
        self.ideal = ideal
        self.context = poisson.context
        self.base_point: Optional[Point] = None
        if base_point is not None:
            self.base_point = self._validate_point(base_point)
        self._tangent: Optional[list[MultivectorField]] = None
        # (point, grade) -> _quotient_data; the leaf is immutable after
        # __init__, so a race only recomputes the same value
        self._quotients: dict[tuple[Point, int], tuple] = {}

    def _validate_point(self, point: Sequence[Fraction | int]) -> Point:
        n = len(self.context)
        if len(point) != n:
            raise ValueError(f"point has length {len(point)}, expected {n}")
        pt = tuple(Fraction(c) for c in point)
        for g in self.ideal.generators:
            if g.evaluate(pt) != 0:
                raise NotOnLeafError(f"generator {g} does not vanish at {point_str(pt)}")
        return pt

    def normal_form(self, p: Polynomial) -> Polynomial:
        return self.ideal.normal_form(p)

    def reduce_coefficients(self, tensor):
        """Apply the ideal's normal form to every component of a tensor."""
        return type(tensor)(
            tensor.context,
            tensor.grade,
            {idx: self.ideal.normal_form(c) for idx, c in tensor.components()},
        )

    def tangent_generators(self) -> list[MultivectorField]:
        """The coordinate Hamiltonian fields X_{x_i}, i = 1..n."""
        if self._tangent is None:
            self._tangent = [
                self.poisson.hamiltonian_field(Polynomial.variable(self.context, i))
                for i in range(len(self.context))
            ]
        return list(self._tangent)

    def _resolve_point(self, at) -> Point:
        if at is not None:
            return self._validate_point(at)
        if self.base_point is None:
            raise ValueError("no point supplied and the leaf has no base point")
        return self.base_point

    # -- pointwise transversal quotients -----------------------------------

    def _tangent_rows_at(self, point: Point) -> list[list[Fraction]]:
        n = len(self.context)
        rows = []
        for field in self.tangent_generators():
            row = [Fraction(0)] * n
            for (i,), coeff in field.components():
                row[i] = coeff.evaluate(point)
            rows.append(row)
        return rows

    def transversal_blades(self, grade: int = 1) -> list[tuple[int, ...]]:
        """All grade-sized increasing index tuples, the ambient blade basis."""
        return list(itertools.combinations(range(len(self.context)), grade))

    def _quotient_data(self, point: Point, grade: int):
        """Row-reduced span of (tangent wedge ambient) blades at the point."""
        key = (point, grade)
        if key not in self._quotients:
            self._quotients[key] = self._reduce_tangent_span(point, grade)
        return self._quotients[key]

    def _reduce_tangent_span(self, point: Point, grade: int):
        blades = self.transversal_blades(grade)
        position = {b: k for k, b in enumerate(blades)}
        rows: list[list[Fraction]] = []
        tangent_rows = self._tangent_rows_at(point)
        if grade == 1:
            rows = [list(r) for r in tangent_rows]
        else:
            sub = self.transversal_blades(grade - 1)
            for t in tangent_rows:
                for j in sub:
                    row = [Fraction(0)] * len(blades)
                    nonzero = False
                    for i, value in enumerate(t):
                        if value == 0:
                            continue
                        merged, sign = merge_sign((i,), j)
                        if sign == 0:
                            continue
                        row[position[merged]] += sign * value
                        nonzero = True
                    if nonzero:
                        rows.append(row)
        reduced, pivots = linalg.rref(rows)
        complement = [b for k, b in enumerate(blades) if k not in pivots]
        return blades, position, reduced, pivots, complement

    def transversal_basis_at(self, at=None, grade: int = 1) -> list[tuple[int, ...]]:
        """Complement blades forming the transversal basis at a leaf point."""
        point = self._resolve_point(at)
        return list(self._quotient_data(point, grade)[4])

    def reduce_mod_tangent(self, field: MultivectorField, at=None) -> tuple[Fraction, ...]:
        """Class of an evaluated multivector in the pointwise quotient.

        The result is coordinates with respect to ``transversal_basis_at``.
        """
        if field.context != self.context:
            raise ContextMismatch("field context does not match the leaf context")
        grade = field.grade if not field.is_zero else max(field.grade, 1)
        point = self._resolve_point(at)
        blades, position, reduced, pivots, complement = self._quotient_data(point, grade)
        vec = [Fraction(0)] * len(blades)
        for idx, coeff in field.components():
            vec[position[idx]] = coeff.evaluate(point)
        res = linalg.residue(vec, reduced, pivots)
        return tuple(res[position[b]] for b in complement)


class TransversalMultivector:
    """A transversal class with a normal-formed multivector representative."""

    def __init__(self, leaf: LeafContext, representative: MultivectorField):
        if representative.context != leaf.context:
            raise ContextMismatch("representative context does not match the leaf")
        self.leaf = leaf
        self.representative = leaf.reduce_coefficients(representative)
        self.grade = representative.grade

    def class_at(self, at=None) -> tuple[Fraction, ...]:
        return self.leaf.reduce_mod_tangent(self.representative, at)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransversalMultivector) or self.leaf is not other.leaf:
            return NotImplemented
        if self.leaf.base_point is not None and self.grade == other.grade:
            return self.class_at() == other.class_at()
        return self.representative == other.representative

    def __hash__(self):
        raise TypeError("transversal classes are not hashable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.representative})"


class TransversalVector(TransversalMultivector):
    """Grade-1 transversal class."""

    def __init__(self, leaf: LeafContext, representative: MultivectorField):
        if representative.grade != 1 and not representative.is_zero:
            raise GradeError("TransversalVector needs a grade-1 representative")
        super().__init__(leaf, representative)


class ConormalForm:
    """A 1-form whose pairing with every tangent generator lies in the ideal."""

    def __init__(self, leaf: LeafContext, representative: DifferentialForm):
        if representative.context != leaf.context:
            raise ContextMismatch("representative context does not match the leaf")
        if representative.grade != 1 and not representative.is_zero:
            raise GradeError("ConormalForm needs a grade-1 representative")
        for field in leaf.tangent_generators():
            if field.is_zero:
                continue
            value = leaf.normal_form(pairing(representative, field))
            if not value.is_zero:
                raise ValueError(
                    f"form is not conormal: pairing with {field} reduces to {value}"
                )
        self.leaf = leaf
        self.representative = leaf.reduce_coefficients(representative)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConormalForm) or self.leaf is not other.leaf:
            return NotImplemented
        return self.representative == other.representative

    def __repr__(self) -> str:
        return f"ConormalForm({self.representative})"


# -- the connection ----------------------------------------------------------


def covariant_derivative_transversal(
    leaf: LeafContext, alpha: DifferentialForm, section: MultivectorField
) -> TransversalVector:
    """Bracket the anchored field into a grade-1 representative and reduce."""
    if section.grade != 1 and not section.is_zero:
        raise GradeError("expected a grade-1 section representative")
    x_alpha = leaf.poisson.anchor(alpha)
    return TransversalVector(leaf, schouten_bracket(x_alpha, section))


def covariant_derivative_multivector(
    leaf: LeafContext, alpha: DifferentialForm, section: MultivectorField
) -> TransversalMultivector:
    """The grade-k extension via the full graded bracket."""
    if section.grade < 1 and not section.is_zero:
        raise GradeError("expected a section of grade at least 1")
    x_alpha = leaf.poisson.anchor(alpha)
    return TransversalMultivector(leaf, schouten_bracket(x_alpha, section))


def covariant_derivative_conormal(
    leaf: LeafContext, alpha: DifferentialForm, omega: ConormalForm
) -> ConormalForm:
    """Lie derivative of a conormal representative along the anchored field."""
    x_alpha = leaf.poisson.anchor(alpha)
    if x_alpha.is_zero:
        return ConormalForm(leaf, DifferentialForm.zero(leaf.context, 1))
    return ConormalForm(leaf, lie_derivative(x_alpha, omega.representative))


def duality_check(
    leaf: LeafContext,
    alpha: DifferentialForm,
    omega: ConormalForm,
    section: MultivectorField,
) -> bool:
    """Pairing compatibility of the two connections, checked mod the ideal."""
    x_alpha = leaf.poisson.anchor(alpha)
    w = omega.representative
    if x_alpha.is_zero:
        lhs = Polynomial.zero(leaf.context)
        rhs = Polynomial.zero(leaf.context)
    else:
        lhs = pairing(lie_derivative(x_alpha, w), section)
        rhs = x_alpha.apply_to(pairing(w, section)) - pairing(
            w, schouten_bracket(x_alpha, section)
        )
    return leaf.normal_form(lhs - rhs).is_zero


def flat_sections_at_point(
    leaf: LeafContext, grade: int = 1, at=None
) -> tuple[list[tuple[int, ...]], list[tuple[Fraction, ...]]]:
    """Joint kernel of all nabla_{dx_i} on the pointwise transversal space.

    Transversal classes are extended by constant representatives; the
    return value is the transversal blade basis together with a basis of
    the flat subspace in those coordinates.
    """
    point = leaf._resolve_point(at)
    complement = leaf.transversal_basis_at(point, grade)
    m = len(complement)
    if m == 0:
        return [], []
    one = Polynomial.constant(leaf.context, 1)
    rows: list[list[Fraction]] = []
    for i in range(len(leaf.context)):
        alpha = DifferentialForm.basis_covector(leaf.context, i)
        x_alpha = leaf.poisson.anchor(alpha)
        columns = []
        for blade in complement:
            extension = MultivectorField(leaf.context, grade, {blade: one})
            derivative = schouten_bracket(x_alpha, extension)
            columns.append(leaf.reduce_mod_tangent(derivative, point))
        rows.extend(linalg.transpose(columns))
    kernel = linalg.nullspace(rows, m)
    return complement, [tuple(v) for v in kernel]


def is_flat_at_point(leaf: LeafContext, grade: int = 1, at=None) -> bool:
    """Whether every transversal class of the given grade is flat."""
    complement, kernel = flat_sections_at_point(leaf, grade, at)
    return len(kernel) == len(complement)
