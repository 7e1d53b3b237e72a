"""Poisson bivectors: Jacobi checking, Hamiltonian fields, anchor, rank.

A bivector field pi on Q[x_1..x_n] induces a bracket on functions through
the anchor map alpha -> i_alpha(pi) (first-slot contraction).  The sign
convention is pinned so that for pi = d/dx ^ d/dy the derived bracket
satisfies {x, y} = +1; equivalently anchor(dx) = d/dy and X_y = -d/dx.

The Jacobi identity for the derived bracket is equivalent to the vanishing
of the Schouten bracket [pi, pi]; ``jacobi_defect`` returns that 3-vector
and ``PoissonStructure`` caches the verdict.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .derivations import preserves_ideal
from .ideals import Ideal
from .poly import ContextMismatch, Polynomial, _point
from .tensors import (
    DifferentialForm,
    GradeError,
    MultivectorField,
    contract_covector,
    differential,
    schouten_bracket,
)


class NotPoissonError(ValueError):
    """The bivector fails the Jacobi identity; carries the nonzero defect."""

    def __init__(self, defect: MultivectorField):
        super().__init__(f"bivector is not Poisson; [pi, pi] = {defect}")
        self.defect = defect


def jacobi_defect(bivector: MultivectorField) -> MultivectorField:
    """[pi, pi]; the zero 3-vector exactly when pi is Poisson."""
    if bivector.grade != 2 and not bivector.is_zero:
        raise GradeError(f"expected a bivector, got grade {bivector.grade}")
    return schouten_bracket(bivector, bivector)


class PoissonStructure:
    """A bivector with a lazily verified, cached Jacobi status."""

    def __init__(self, bivector: MultivectorField):
        if not isinstance(bivector, MultivectorField):
            raise TypeError("PoissonStructure needs a MultivectorField")
        if bivector.grade != 2 and not bivector.is_zero:
            raise GradeError(f"expected a bivector, got grade {bivector.grade}")
        self.bivector = bivector
        self.context = bivector.context
        self._defect: Optional[MultivectorField] = None
        self._fields: Optional[list[MultivectorField]] = None
        self._lock = threading.Lock()

    # -- Jacobi bookkeeping ------------------------------------------------

    def jacobi_defect(self) -> MultivectorField:
        with self._lock:
            if self._defect is None:
                self._defect = schouten_bracket(self.bivector, self.bivector)
            return self._defect

    @property
    def jacobi_status(self) -> str:
        """'unchecked', 'verified', or 'failed'."""
        with self._lock:
            if self._defect is None:
                return "unchecked"
            return "verified" if self._defect.is_zero else "failed"

    def is_poisson(self) -> bool:
        return self.jacobi_defect().is_zero

    def require_jacobi(self) -> None:
        defect = self.jacobi_defect()
        if not defect.is_zero:
            raise NotPoissonError(defect)

    # -- derived operations ------------------------------------------------

    def anchor(self, alpha: DifferentialForm) -> MultivectorField:
        """The vector field i_alpha(pi) of a 1-form alpha."""
        if not isinstance(alpha, DifferentialForm) or alpha.grade != 1:
            if isinstance(alpha, DifferentialForm) and alpha.is_zero:
                return MultivectorField.zero(self.context, 1)
            raise GradeError("anchor takes a grade-1 form")
        if alpha.context != self.context:
            raise ContextMismatch("form context does not match the Poisson context")
        if self.bivector.is_zero:
            return MultivectorField.zero(self.context, 1)
        return contract_covector(alpha, self.bivector)

    def hamiltonian_field(self, f: Polynomial) -> MultivectorField:
        """X_f = anchor(df)."""
        if f.context != self.context:
            raise ContextMismatch("function context does not match the Poisson context")
        return self.anchor(differential(f))

    def poisson_bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = X_f(g)."""
        field = self.hamiltonian_field(f)
        if field.is_zero:
            return Polynomial.zero(self.context)
        return field.apply_to(g)

    def rank_at(self, point: Sequence[Fraction | int]) -> int:
        """Rank of the evaluated bivector matrix at a rational point (even)."""
        pt = _point(self.context, point)
        n = len(self.context)
        rows: list[linalg.Sparse] = [{} for _ in range(n)]
        for (i, j), coeff in self.bivector.components():
            value = coeff.evaluate(pt)
            if value:
                rows[i][j] = value
                rows[j][i] = -value
        return linalg.rank(rows)

    def _coordinate_fields(self) -> list[MultivectorField]:
        """The coordinate Hamiltonian fields X_{x_i}, built on first use."""
        # the bivector never changes, so a race only builds the same list twice
        if self._fields is None:
            self._fields = [
                self.hamiltonian_field(Polynomial.variable(self.context, i))
                for i in range(len(self.context))
            ]
        return self._fields

    def is_integral_ideal(self, ideal: Ideal) -> bool:
        """Whether every Hamiltonian field maps the ideal into itself.

        By the Leibniz rule this reduces to the coordinate fields X_{x_i}
        each preserving the ideal.
        """
        if ideal.context != self.context:
            raise ContextMismatch("ideal context does not match the Poisson context")
        return all(preserves_ideal(field, ideal) for field in self._coordinate_fields())

    def __repr__(self) -> str:
        return f"PoissonStructure({self.bivector})"
