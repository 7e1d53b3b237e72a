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
(or coordinate blades, for higher grade) form the transversal basis.  Each
query checks its point and builds the quotient once, caching nothing.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .ideals import Ideal
from .poly import ContextMismatch, Polynomial, _point
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

    def _validate_point(self, point: Sequence[Fraction | int]) -> Point:
        pt = _point(self.context, point)
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
        return list(self.poisson._coordinate_fields())

    def _resolve_point(self, at) -> Point:
        if at is not None:
            return self._validate_point(at)
        if self.base_point is None:
            raise ValueError("no point supplied and the leaf has no base point")
        return self.base_point

    # -- pointwise transversal quotients -----------------------------------

    def transversal_blades(self, grade: int = 1) -> list[tuple[int, ...]]:
        """All grade-sized increasing index tuples, the ambient blade basis."""
        return list(itertools.combinations(range(len(self.context)), grade))

    def _quotient(self, at, grade: int):
        """Check the point and row-reduce the span of (tangent wedge ambient)
        blades there: the complement blades and the map to class coordinates."""
        point = self._resolve_point(at)
        if grade < 1:
            raise GradeError(f"transversal grade must be at least 1, got {grade}")
        blades = self.transversal_blades(grade)
        position = {b: k for k, b in enumerate(blades)}
        rows: list[linalg.Sparse] = []
        for field in self.tangent_generators():
            t = {i: v for (i,), coeff in field.components() if (v := coeff.evaluate(point))}
            for j in self.transversal_blades(grade - 1):
                row = {}
                for i, value in t.items():
                    merged, sign = merge_sign((i,), j)
                    if sign:
                        row[position[merged]] = sign * value
                rows.append(row)
        reduced, pivots = linalg.rref(rows)
        complement = [b for k, b in enumerate(blades) if k not in pivots]

        def class_of(field: MultivectorField) -> tuple[Fraction, ...]:
            vec = {position[idx]: v for idx, coeff in field.components() if (v := coeff.evaluate(point))}
            res = linalg.residue(vec, reduced, pivots)
            return tuple(res.get(position[b], Fraction(0)) for b in complement)

        return complement, class_of

    def transversal_basis_at(self, at=None, grade: int = 1) -> list[tuple[int, ...]]:
        """Complement blades forming the transversal basis at a leaf point."""
        return self._quotient(at, grade)[0]

    def reduce_mod_tangent(self, field: MultivectorField, at=None) -> tuple[Fraction, ...]:
        """Class of an evaluated multivector in the pointwise quotient.

        The result is coordinates with respect to ``transversal_basis_at``.
        """
        if field.context != self.context:
            raise ContextMismatch("field context does not match the leaf context")
        grade = field.grade if not field.is_zero else max(field.grade, 1)
        return self._quotient(at, grade)[1](field)


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
    complement, class_of = leaf._quotient(at, grade)
    m = len(complement)
    if m == 0:
        return [], []
    one = Polynomial.constant(leaf.context, 1)
    rows: list[linalg.Sparse] = []
    for tangent in leaf.tangent_generators():
        block: list[linalg.Sparse] = [{} for _ in range(m)]
        for k, blade in enumerate(complement):
            extension = MultivectorField(leaf.context, grade, {blade: one})
            derivative = schouten_bracket(tangent, extension)
            for r, value in enumerate(class_of(derivative)):
                if value:
                    block[r][k] = value
        rows.extend(block)
    kernel = linalg.nullspace(rows, m)
    return complement, [tuple(v.get(k, Fraction(0)) for k in range(m)) for v in kernel]


def is_flat_at_point(leaf: LeafContext, grade: int = 1, at=None) -> bool:
    """Whether every transversal class of the given grade is flat."""
    complement, kernel = flat_sections_at_point(leaf, grade, at)
    return len(kernel) == len(complement)
