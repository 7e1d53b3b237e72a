"""Ideals in finite-dimensional Lie algebras and the obstruction class
measuring how far an ideal is from splitting off.

Given an ideal V of L, the quotient H_V = V/[V,V] carries an L-action
through brackets of representatives (V itself acts trivially).  Any
linear projection P of L onto V that fixes V pointwise gives an
H_V-valued 1-cochain x -> [P(x)]; its Koszul coboundary is annihilated
by insertions of V, hence descends to a closed 2-cochain on L/V
(Hochschild & Serre 1953).  Its class in H^2(L/V, H_V) is independent of
the projection, vanishes exactly when the quotient map admits a splitting
compatible with the bracket up to [V,V], and survives passing to
L/[V,V].  ``characteristic_class`` relies on these facts and does not
re-check them; the test suite does.

All linear algebra is exact over the rationals; representative and
complement choices are taken from leftmost-pivot row reduction, so every
output is deterministic.  The public vectors and matrices are dense; the
row reductions behind them run on ``linalg.Sparse`` rows, with unit
vectors as ``{i: 1}``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from . import linalg
from .liealg import (
    ChainElement,
    CochainCE,
    LieAlgebraFD,
    LieModuleFD,
    _sparse,
    _transpose,
    ce_coboundary,
    coboundary_matrix,
)

Vec = list[Fraction]
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _vector_str(algebra: LieAlgebraFD, vec: Sequence[Fraction]) -> str:
    return str(ChainElement.vector(algebra, list(vec)))


def _sparse_exact(vec: Sequence[Fraction], n: int) -> linalg.Sparse:
    """The nonzero cells of a dense vector, after checking its length ``n``
    and that every cell is exact."""
    if len(vec) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(vec)}")
    linalg._check_cells(vec)
    return _sparse(vec)


def _dense(row: linalg.Sparse, n: int) -> Vec:
    return [row.get(j, _ZERO) for j in range(n)]


class LieIdeal:
    """A subspace closed under brackets with the whole algebra."""

    def __init__(self, ambient: LieAlgebraFD, rows: Sequence[Sequence[Fraction | int]]):
        clean = [[linalg._exact(c) for c in row] for row in rows]
        if any(len(row) != ambient.dim for row in clean):
            raise ValueError("ideal basis vectors must have ambient dimension")
        sparse_rows = [_sparse(row) for row in clean]
        reduced, pivots = linalg.rref(sparse_rows)
        if len(reduced) != len(clean):
            raise ValueError("ideal basis vectors must be linearly independent")
        self.ambient = ambient
        self.rows = clean
        self.reduced = reduced
        self.pivots = pivots
        self.dim = len(reduced)
        # column k holds the basis row k: coordinates solve against these rows
        self._columns = _transpose(sparse_rows, ambient.dim)
        for i, unit in enumerate(linalg.identity(ambient.dim)):
            for row in self.rows:
                image = ambient.bracket(unit, row)
                if linalg.residue(_sparse(image), reduced, pivots):
                    raise ValueError(
                        f"not an ideal: [{ambient.labels[i]}, "
                        f"{_vector_str(ambient, row)}] = "
                        f"{_vector_str(ambient, image)} leaves the subspace"
                    )

    @classmethod
    def from_labels(cls, ambient: LieAlgebraFD, *labels: str) -> "LieIdeal":
        units = linalg.identity(ambient.dim)
        return cls(ambient, [units[ambient.index(label)] for label in labels])

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not linalg.residue(_sparse_exact(vec, self.ambient.dim), self.reduced, self.pivots)

    def coordinates(self, vec: Sequence[Fraction]) -> Vec:
        """Coefficients of ``vec`` in the stored basis rows."""
        return _dense(self._coordinates(_sparse_exact(vec, self.ambient.dim)), self.dim)

    def _coordinates(self, vec: linalg.Sparse) -> linalg.Sparse:
        solution = linalg.solve(self._columns, vec)
        if solution is None:
            dense = _dense(vec, self.ambient.dim)
            raise ValueError(f"{_vector_str(self.ambient, dense)} is not in the ideal")
        return solution

    def __repr__(self) -> str:
        gens = "; ".join(_vector_str(self.ambient, row) for row in self.rows)
        return f"LieIdeal({gens})"


def _commutators(algebra: LieAlgebraFD, rows: Sequence[Sequence[Fraction]]) -> list[linalg.Sparse]:
    """The nonzero brackets [rows[i], rows[j]], i < j, which span [V,V]."""
    images = (_sparse(algebra.bracket(a, b)) for a, b in combinations(rows, 2))
    return [image for image in images if image]


class H1Quotient:
    """V/[V,V] with a deterministic basis and reduction map."""

    def __init__(self, ideal: LieIdeal):
        g = ideal.ambient
        commutators = [ideal._coordinates(image) for image in _commutators(g, ideal.rows)]
        reduced, pivots = linalg.rref(commutators)
        self.ideal = ideal
        self.commutator_reduced = reduced
        self.commutator_pivots = pivots
        self.positions = [k for k in range(ideal.dim) if k not in set(pivots)]
        self.dim = len(self.positions)
        self.representatives = [list(ideal.rows[k]) for k in self.positions]
        self.labels = tuple(
            f"[{_vector_str(g, ideal.rows[k])}]" for k in self.positions
        )

    def reduce(self, vec: Sequence[Fraction]) -> Vec:
        """Class of an ideal element (ambient coordinates) in the basis."""
        coords = self.ideal._coordinates(_sparse_exact(vec, self.ideal.ambient.dim))
        residue = linalg.residue(coords, self.commutator_reduced, self.commutator_pivots)
        return [residue.get(k, _ZERO) for k in self.positions]


def action_on_h1(ideal: LieIdeal, h1: Optional[H1Quotient] = None) -> list[list[Vec]]:
    """One matrix per ambient basis element, acting by bracket on classes."""
    g = ideal.ambient
    if h1 is None:
        h1 = H1Quotient(ideal)
    matrices = []
    for unit in linalg.identity(g.dim):
        columns = [h1.reduce(g.bracket(unit, rep)) for rep in h1.representatives]
        matrices.append(linalg.transpose(columns))
    return matrices


def h1_module(ideal: LieIdeal, h1: Optional[H1Quotient] = None) -> tuple[H1Quotient, LieModuleFD]:
    """The classes module together with its validated ambient action."""
    if h1 is None:
        h1 = H1Quotient(ideal)
    module = LieModuleFD(ideal.ambient, action_on_h1(ideal, h1), dim=h1.dim)
    return h1, module


class ProjectionOperator:
    """A linear retraction of the algebra onto the ideal."""

    def __init__(self, ideal: LieIdeal, matrix: Sequence[Sequence[Fraction | int]]):
        n = ideal.ambient.dim
        rows = [[linalg._exact(c) for c in row] for row in matrix]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("projection matrix must be square of ambient size")
        for i in range(n):
            if not ideal.contains([row[i] for row in rows]):
                raise ValueError(
                    f"projection image of {ideal.ambient.labels[i]} is not in the ideal"
                )
        for row in ideal.rows:
            if linalg.matvec(rows, row) != list(row):
                raise ValueError(
                    f"projection does not fix {_vector_str(ideal.ambient, row)}"
                )
        self.ideal = ideal
        self.matrix = rows

    @classmethod
    def canonical(cls, ideal: LieIdeal) -> "ProjectionOperator":
        """Projection along the coordinate complement of the pivot columns."""
        n = ideal.ambient.dim
        # column i is e_i minus its residue modulo the ideal
        residues = [linalg.residue({i: _ONE}, ideal.reduced, ideal.pivots) for i in range(n)]
        matrix = [[(i == j) - res.get(j, _ZERO) for i, res in enumerate(residues)] for j in range(n)]
        return cls(ideal, matrix)

    def apply(self, vec: Sequence[Fraction]) -> Vec:
        return linalg.matvec(self.matrix, list(vec))


def projection_form(
    ideal: LieIdeal,
    projection: Optional[ProjectionOperator] = None,
    h1: Optional[H1Quotient] = None,
    module: Optional[LieModuleFD] = None,
) -> CochainCE:
    """The 1-cochain x -> [P(x)] on the ambient algebra, valued in V/[V,V]."""
    g = ideal.ambient
    if projection is None:
        projection = ProjectionOperator.canonical(ideal)
    if h1 is None or module is None:
        h1, module = h1_module(ideal, h1)
    data = {}
    for i in range(g.dim):
        data[(i,)] = tuple(h1.reduce([row[i] for row in projection.matrix]))
    return CochainCE(g, module, 1, data)


class QuotientAlgebra:
    """L/V with basis the coordinate complement of the ideal's pivots."""

    def __init__(self, ideal: LieIdeal):
        g = ideal.ambient
        pivot_set = set(ideal.pivots)
        self.ideal = ideal
        self.positions = [i for i in range(g.dim) if i not in pivot_set]
        labels = tuple(g.labels[i] for i in self.positions)
        table = [[self.project(g.bracket_basis(a, b)) for b in self.positions] for a in self.positions]
        self.algebra = LieAlgebraFD(labels, table)

    def project(self, vec: Sequence[Fraction]) -> Vec:
        sparse = _sparse_exact(vec, self.ideal.ambient.dim)
        res = linalg.residue(sparse, self.ideal.reduced, self.ideal.pivots)
        return [res.get(p, _ZERO) for p in self.positions]

    def lift(self, vec: Sequence[Fraction]) -> Vec:
        """The coordinate section: quotient coordinates back into the algebra."""
        if len(vec) != len(self.positions):
            raise ValueError(f"expected {len(self.positions)} quotient coordinates, got {len(vec)}")
        out = [Fraction(0)] * self.ideal.ambient.dim
        for coeff, p in zip(vec, self.positions):
            out[p] = linalg._exact(coeff)
        return out


def quotient_module(quotient: QuotientAlgebra, h1: H1Quotient, module: LieModuleFD) -> LieModuleFD:
    """The classes module restricted to quotient generators (V acts trivially,
    so the action descends)."""
    mats = [module.matrices[p] for p in quotient.positions]
    return LieModuleFD(quotient.algebra, mats, dim=h1.dim)


def pullback_cochain(
    quotient: QuotientAlgebra, w: CochainCE, ambient_module: LieModuleFD
) -> CochainCE:
    """Precompose a cochain on L/V with the quotient map."""
    g = quotient.ideal.ambient
    projected = [quotient.project(unit) for unit in linalg.identity(g.dim)]
    data = {}
    for blade in g.blades(w.grade):
        data[blade] = tuple(w.evaluate([projected[i] for i in blade]))
    return CochainCE(g, ambient_module, w.grade, data)


class CharClassResult:
    """The descended 2-cochain and its cohomology class coordinates."""

    def __init__(
        self,
        ideal: LieIdeal,
        h1: H1Quotient,
        quotient: QuotientAlgebra,
        module: LieModuleFD,
        form: CochainCE,
        class_vector: tuple[Fraction, ...],
    ):
        self.ideal = ideal
        self.h1 = h1
        self.quotient = quotient
        self.module = module
        self.form = form
        self.class_vector = class_vector

    @property
    def is_zero(self) -> bool:
        return not any(self.class_vector)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        q = self.quotient.algebra
        chunks = []
        m = self.h1.dim
        for k, blade in enumerate(q.blades(2)):
            coords = self.class_vector[k * m : (k + 1) * m]
            if not any(coords):
                continue
            value = " + ".join(
                f"{c}*{label}" if c != 1 else label
                for c, label in zip(coords, self.h1.labels)
                if c
            )
            blade_str = " ^ ".join(f"{q.labels[i]}*" for i in blade)
            chunks.append(f"{blade_str} -> {value}")
        return "; ".join(chunks)

    def __repr__(self) -> str:
        return f"CharClassResult({self})"


def characteristic_class(
    ideal: LieIdeal, projection: Optional[ProjectionOperator] = None
) -> CharClassResult:
    """The obstruction class of the ideal in H^2(L/V, V/[V,V])."""
    h1, module = h1_module(ideal)
    quotient = QuotientAlgebra(ideal)
    q_module = quotient_module(quotient, h1, module)
    if h1.dim == 0 or len(quotient.positions) < 2:
        empty = CochainCE(quotient.algebra, q_module, 2)
        return CharClassResult(ideal, h1, quotient, q_module, empty, ())
    dalpha = ce_coboundary(projection_form(ideal, projection, h1, module))
    # The lifts are the unit vectors at the increasing quotient.positions, so
    # evaluating on them reads one component of dalpha.
    data = {}
    for blade in quotient.algebra.blades(2):
        data[blade] = dalpha.value_on_blade(tuple(quotient.positions[j] for j in blade))
    descended = CochainCE(quotient.algebra, q_module, 2, data)
    # the exact 2-cochains are spanned by the columns of d on 1-cochains
    q = quotient.algebra
    exact_rows = _transpose(coboundary_matrix(q, q_module, 1), q.dim * h1.dim)
    reduced, pivots = linalg.rref(exact_rows)
    coords = descended.coordinates()
    res = linalg.residue(_sparse(coords), reduced, pivots)
    class_vector = tuple(res.get(j, Fraction(0)) for j in range(len(coords)))
    return CharClassResult(ideal, h1, quotient, q_module, descended, class_vector)


@dataclass
class Abelianization:
    algebra: LieAlgebraFD
    ideal: LieIdeal
    project: Callable[[Sequence[Fraction]], Vec]


def abelianize(algebra: LieAlgebraFD, ideal: LieIdeal) -> Abelianization:
    """Quotient by [V,V]; the ideal's image becomes abelian."""
    reduced, _pivots = linalg.rref(_commutators(algebra, ideal.rows))
    if not reduced:
        def identity(vec: Sequence[Fraction]) -> Vec:
            return [linalg._exact(c) for c in vec]

        return Abelianization(algebra, ideal, identity)
    vv = LieIdeal(algebra, [_dense(row, algebra.dim) for row in reduced])
    quotient = QuotientAlgebra(vv)
    image_rows = [_sparse(quotient.project(row)) for row in ideal.rows]
    image_reduced, _ = linalg.rref(image_rows)
    new_ideal = LieIdeal(quotient.algebra, [_dense(row, quotient.algebra.dim) for row in image_reduced])
    return Abelianization(quotient.algebra, new_ideal, quotient.project)
