"""Finite-dimensional Lie algebras over exact rationals, with the chain
and cochain complexes attached to them.

Structure constants are validated (antisymmetry and the Jacobi identity)
at construction, so downstream code can rely on them.  Chains live in the
exterior algebra on the basis; cochains carry values in a finite-
dimensional module given by action matrices.  The boundary operator
sends a basis blade x_1 ^ ... ^ x_m to

    sum_{i<j} (-1)^(i+j) [x_i, x_j] ^ ... (x_i, x_j dropped) ...,

the coboundary is the Koszul formula

    (dw)(X_1..X_{m+1}) = sum_i (-1)^(i-1) X_i w(..drop i..)
                       + sum_{i<j} (-1)^(i+j) w([X_i,X_j], ..drop i,j..),

whose bracket term is the transpose of the boundary: on a basis blade B
it is sum_S (delta B)[S] w(S).  So the boundary and both matrices read one
per-blade kernel, ``_blade_boundary``; the Koszul formula is written once,
in ``coboundary_matrix``, and ``ce_coboundary`` applies that matrix.  The
chain wedge is the exterior-product loop of ``tensors``.  The
wedge-degree bracket is defined by the deviation of the boundary from
being an odd derivation:

    [u, v] = delta(u) ^ v + (-1)^m u ^ delta(v) - delta(u ^ v).

The two matrices are sparse rows (``linalg.Sparse``, built straight from
the kernel and the action matrices), and homology, cohomology and the
boundary and coboundary solvers hand them to ``linalg`` as they are, so no
Lie matrix is ever densified.  Structure constants are stored once, as the
nonzero (index, coefficient) pairs of each basis bracket, which every check
and product iterates and ``bracket_basis`` densifies when read; integral
constants are kept as ``int``, so on an integral algebra the kernel
computes in ``int``.  ``delta_matrix`` and ``coboundary_matrix`` make each
cell a ``Fraction`` as they build their rows, and ``homology`` reads the
kernel back into integer rows, building ``Fraction``s only for its answers.

All homology/cohomology dimensions come from exact rational row
reduction; representative choices are deterministic (leftmost pivots).
Coefficients are ``int`` or ``Fraction``; floats and strings are a
``TypeError``.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from . import linalg
from .linalg import Sparse, _exact
from .tensors import _blade, _signed_sum, _wedge_terms, merge_sign

Vec = list[Fraction]
IndexTuple = tuple[int, ...]


class LieAlgebraFD:
    """A Lie algebra given by labeled basis and structure constants."""

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[Sequence[Fraction | int]]]):
        labels = tuple(labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("basis labels must be distinct")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("structure-constant table must be n x n x n")
        self.labels = labels
        self.dim = n
        cells = [[[_exact(c) for c in cell] for cell in row] for row in table]
        if any(len(cell) != n for row in cells for cell in row):
            raise ValueError("structure-constant table must be n x n x n")
        # the nonzero (t, c) of each [x_i, x_j] = sum_t c x_t, integral c as int
        self._nonzero: tuple[tuple[tuple[tuple[int, int | Fraction], ...], ...], ...] = tuple(
            tuple(
                tuple((t, c.numerator if c.denominator == 1 else c) for t, c in enumerate(cell) if c)
                for cell in row
            )
            for row in cells
        )
        self._validate()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_brackets(
        cls,
        labels: Sequence[str],
        brackets: Mapping[tuple[str, str], Mapping[str, Fraction | int]],
    ) -> "LieAlgebraFD":
        """Build from sparse relations like {("e","f"): {"h": 1}}.

        Unlisted brackets are zero; the antisymmetric counterparts are
        filled in automatically.
        """
        labels = tuple(labels)
        index = {name: k for k, name in enumerate(labels)}
        n = len(labels)
        table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (a, b), combo in brackets.items():
            i, j = index[a], index[b]
            for name, coeff in combo.items():
                k = index[name]
                value = _exact(coeff)
                table[i][j][k] += value
                table[j][i][k] -= value
        return cls(labels, table)

    def _validate(self) -> None:
        n = self.dim
        nonzero = self._nonzero
        for i in range(n):
            for j in range(i, n):
                ij, ji = dict(nonzero[i][j]), dict(nonzero[j][i])
                bad = [k for k in ij.keys() | ji.keys() if ij.get(k, 0) != -ji.get(k, 0)]
                if bad:
                    raise ValueError(
                        f"structure constants are not antisymmetric at "
                        f"([{self.labels[i]},{self.labels[j]}], {self.labels[min(bad)]})"
                    )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: dict[int, Fraction] = {}
                    for pair, other in ((nonzero[i][j], k), (nonzero[j][k], i), (nonzero[k][i], j)):
                        for t, c in pair:
                            for s, c2 in nonzero[t][other]:
                                acc[s] = acc.get(s, 0) + c * c2
                    if any(acc.values()):
                        raise ValueError(
                            f"Jacobi identity fails on "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    # -- brackets ----------------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.dim
        for t, c in self._nonzero[i][j]:
            out[t] = Fraction(c)
        return tuple(out)

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in self._nonzero[i][j]:
                    out[k] += a * b * c
        return out

    def blades(self, grade: int) -> list[IndexTuple]:
        return list(itertools.combinations(range(self.dim), grade))

    def __repr__(self) -> str:
        return f"LieAlgebraFD({', '.join(self.labels)})"


# -- standard examples --------------------------------------------------------


def abelian_algebra(n: int, prefix: str = "a") -> LieAlgebraFD:
    return LieAlgebraFD.from_brackets(tuple(f"{prefix}{i+1}" for i in range(n)), {})


def heisenberg3() -> LieAlgebraFD:
    """Basis e, f, h with [e, f] = h and h central."""
    return LieAlgebraFD.from_brackets(("e", "f", "h"), {("e", "f"): {"h": 1}})


def sl2() -> LieAlgebraFD:
    """Basis e, f, h with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebraFD.from_brackets(
        ("e", "f", "h"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


def so3() -> LieAlgebraFD:
    """Basis r1, r2, r3 with cyclic brackets [r1,r2] = r3 etc."""
    return LieAlgebraFD.from_brackets(
        ("r1", "r2", "r3"),
        {("r1", "r2"): {"r3": 1}, ("r2", "r3"): {"r1": 1}, ("r3", "r1"): {"r2": 1}},
    )


def direct_sum(a: LieAlgebraFD, b: LieAlgebraFD) -> LieAlgebraFD:
    """Direct sum of Lie algebras; clashing labels from ``b`` get a numeric
    suffix (deterministically)."""
    labels = list(a.labels)
    used = set(labels)
    renamed = []
    for name in b.labels:
        candidate = name
        k = 2
        while candidate in used:
            candidate = f"{name}{k}"
            k += 1
        used.add(candidate)
        renamed.append(candidate)
    labels.extend(renamed)
    n = len(labels)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for g, offset in ((a, 0), (b, a.dim)):
        for i, row in enumerate(g._nonzero):
            for j, cell in enumerate(row):
                for k, c in cell:
                    table[offset + i][offset + j][offset + k] = c
    return LieAlgebraFD(labels, table)


class LieModuleFD:
    """A finite-dimensional module given by one action matrix per basis element."""

    def __init__(
        self,
        algebra: LieAlgebraFD,
        matrices: Sequence[Sequence[Sequence[Fraction | int]]],
        dim: Optional[int] = None,
    ):
        if len(matrices) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        mats = []
        for mat in matrices:
            rows = [[_exact(c) for c in row] for row in mat]
            if dim is None:
                dim = len(rows)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError("action matrices must be square of equal size")
            mats.append(rows)
        self.algebra = algebra
        self.dim = dim if dim is not None else 0
        self.matrices = mats
        self._validate()

    @classmethod
    def trivial(cls, algebra: LieAlgebraFD, dim: int = 1) -> "LieModuleFD":
        zero = [[Fraction(0)] * dim for _ in range(dim)]
        return cls(algebra, [zero] * algebra.dim, dim=dim)

    def _validate(self) -> None:
        g, mats = self.algebra, self.matrices
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                ij, ji = linalg.matmul(mats[i], mats[j]), linalg.matmul(mats[j], mats[i])
                for r in range(self.dim):
                    for s in range(self.dim):
                        if sum(c * mats[k][r][s] for k, c in g._nonzero[i][j]) != ij[r][s] - ji[r][s]:
                            raise ValueError(
                                "action matrices are not a homomorphism at "
                                f"({g.labels[i]}, {g.labels[j]})"
                            )

    def act_basis(self, i: int, vec: Sequence[Fraction]) -> Vec:
        return linalg.matvec(self.matrices[i], list(vec))

    def act(self, x: Sequence[Fraction], vec: Sequence[Fraction]) -> Vec:
        out = [Fraction(0)] * self.dim
        for i, c in enumerate(x):
            if c:
                for r, value in enumerate(self.act_basis(i, vec)):
                    out[r] += c * value
        return out


class ChainElement:
    """An element of the exterior algebra on the Lie algebra basis."""

    __slots__ = ("algebra", "grade", "components")

    def __init__(self, algebra: LieAlgebraFD, grade: int, components: Mapping[IndexTuple, Fraction] = ()):
        if grade < 0:
            raise ValueError("negative grade")
        clean: dict[IndexTuple, Fraction] = {}
        for idx, coeff in dict(components).items():
            idx = _blade(idx, grade, algebra.dim)
            coeff = _exact(coeff)
            if coeff:
                clean[idx] = coeff
        self.algebra = algebra
        self.grade = grade
        self.components = clean

    @classmethod
    def basis(cls, algebra: LieAlgebraFD, indices: Sequence[int]) -> "ChainElement":
        return cls(algebra, len(indices), {tuple(indices): Fraction(1)})

    @classmethod
    def vector(cls, algebra: LieAlgebraFD, coords: Sequence[Fraction | int]) -> "ChainElement":
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        return cls(algebra, 1, {(i,): c for i, c in enumerate(coords)})

    @property
    def is_zero(self) -> bool:
        return not self.components

    def items(self) -> Iterator[tuple[IndexTuple, Fraction]]:
        for idx in sorted(self.components):
            yield idx, self.components[idx]

    def coordinates(self) -> Vec:
        blades = self.algebra.blades(self.grade)
        return [self.components.get(b, Fraction(0)) for b in blades]

    def _check(self, other: "ChainElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("chain elements over different algebras")

    def __add__(self, other: "ChainElement") -> "ChainElement":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.grade != other.grade:
            raise ValueError("cannot add chains of different grades")
        data = dict(self.components)
        for idx, coeff in other.components.items():
            data[idx] = data.get(idx, Fraction(0)) + coeff
        return ChainElement(self.algebra, self.grade, data)

    def __neg__(self) -> "ChainElement":
        return self.scale(-1)

    def __sub__(self, other: "ChainElement") -> "ChainElement":
        return self + (-other)

    def scale(self, factor: Fraction | int) -> "ChainElement":
        factor = _exact(factor)
        return ChainElement(
            self.algebra, self.grade, {i: factor * c for i, c in self.components.items()}
        )

    def wedge(self, other: "ChainElement") -> "ChainElement":
        self._check(other)
        data: dict[IndexTuple, Fraction] = {}
        _wedge_terms(data, self.components, other.components, 1)
        return ChainElement(self.algebra, self.grade + other.grade, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainElement) or self.algebra is not other.algebra:
            return NotImplemented
        if self.grade != other.grade and not (self.is_zero and other.is_zero):
            return False
        return self.components == other.components

    def __hash__(self) -> int:
        return hash((id(self.algebra), frozenset(self.components.items())))

    def __str__(self) -> str:
        terms = []
        for idx, coeff in self.items():
            blade = " ^ ".join(self.algebra.labels[i] for i in idx) if idx else "1"
            if coeff == 1:
                terms.append(blade)
            elif coeff == -1:
                terms.append(f"-{blade}")
            else:
                terms.append(f"{coeff}*{blade}")
        return _signed_sum(terms)

    def __repr__(self) -> str:
        return f"ChainElement({self})"


def _blade_boundary(g: LieAlgebraFD, blade: IndexTuple) -> dict[IndexTuple, int | Fraction]:
    """The boundary of one basis blade, sum_{a<b} (-1)^(a+b) [x_a, x_b] ^ rest,
    keyed by the blades one grade lower, nonzero cells only; empty for
    grades 0 and 1."""
    out: dict[IndexTuple, Fraction] = {}
    nonzero = g._nonzero
    for a in range(len(blade)):
        for b in range(a + 1, len(blade)):
            constants = nonzero[blade[a]][blade[b]]
            if not constants:
                continue
            pair_sign = -1 if (a + b) % 2 else 1  # (-1)^(i+j) with 1-based i,j
            rest = blade[:a] + blade[a + 1 : b] + blade[b + 1 :]
            for t, c in constants:
                merged, sign = merge_sign((t,), rest)
                if sign:
                    out[merged] = out.get(merged, 0) + c * pair_sign * sign
    return {face: c for face, c in out.items() if c}


def boundary_delta(u: ChainElement) -> ChainElement:
    """The boundary operator; zero on grades 0 and 1."""
    g = u.algebra
    data: dict[IndexTuple, Fraction] = {}
    for idx, coeff in u.components.items():
        for face, c in _blade_boundary(g, idx).items():
            data[face] = data.get(face, Fraction(0)) + coeff * c
    return ChainElement(g, max(u.grade - 1, 0), data)


def supercommutator(u: ChainElement, v: ChainElement) -> ChainElement:
    """[u, v] = delta(u) ^ v + (-1)^|u| u ^ delta(v) - delta(u ^ v)."""
    if u.algebra is not v.algebra:
        raise ValueError("chain elements over different algebras")
    sign = -1 if u.grade % 2 else 1
    term = boundary_delta(u).wedge(v) + u.wedge(boundary_delta(v)).scale(sign)
    return term - boundary_delta(u.wedge(v))


def delta_matrix(g: LieAlgebraFD, grade: int) -> list[Sparse]:
    """Sparse matrix rows of the boundary from grade to grade-1 blade
    coordinates: row r maps the column of each grade blade to its nonzero
    coefficient on the r-th blade one grade lower.  Grade 0 has one zero
    row (the boundary of the grade-0 blade is 0)."""
    position = {b: k for k, b in enumerate(g.blades(max(grade - 1, 0)))}
    rows: list[Sparse] = [{} for _ in position]
    for col, blade in enumerate(g.blades(grade)):
        for face, c in _blade_boundary(g, blade).items():
            rows[position[face]][col] = Fraction(c)
    return rows


def _transpose(rows: list[Sparse], ncols: int) -> list[Sparse]:
    """The ``ncols`` columns of sparse rows, as sparse rows."""
    out: list[Sparse] = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


class HomologyGrade:
    def __init__(self, grade: int, dimension: int, representatives: list[ChainElement]):
        self.grade = grade
        self.dimension = dimension
        self.representatives = representatives

    def __repr__(self) -> str:
        return f"HomologyGrade(grade={self.grade}, dim={self.dimension})"


def homology(g: LieAlgebraFD) -> list[HomologyGrade]:
    """Exact homology of the boundary complex, grades 0..dim.

    Every matrix and vector here is sparse: the image of the boundary into
    grade m is spanned by the columns of ``delta_matrix(g, m + 1)``.  It is
    kept as ``linalg``'s integer pivot map.  Each kernel vector is read once
    into a primitive integer row and cleared against that map; ``Fraction``
    cells are built only for the ``dim_h`` residues kept."""
    out = []
    dm = delta_matrix(g, 0)  # delta_matrix(g, m), carried over from grade m - 1
    for m in range(g.dim + 1):
        blades = g.blades(m)
        kernel = linalg.nullspace(dm, len(blades))
        next_matrix = delta_matrix(g, m + 1) if m + 1 <= g.dim else []
        image = linalg._echelon(_transpose(next_matrix, len(g.blades(m + 1))))
        dim_h = len(kernel) - len(image)
        reps: list[ChainElement] = []
        rep_span: dict[int, dict[int, int]] = {}  # echelon of the residues kept so far
        for vec in kernel:
            if len(reps) == dim_h:
                break
            row, num, den = linalg._residue(vec, image)
            if len(linalg._echelon([row], rep_span)) > len(reps):
                res = {blades[j]: Fraction(v * num, den) for j, v in row.items()}
                reps.append(ChainElement(g, m, res))
        out.append(HomologyGrade(m, dim_h, reps))
        dm = next_matrix
    return out


def is_boundary(u: ChainElement) -> Optional[ChainElement]:
    """A preimage under the boundary operator, or None if there is none."""
    g = u.algebra
    if u.is_zero:
        return ChainElement(g, u.grade + 1)
    matrix = delta_matrix(g, u.grade + 1)
    solution = linalg.solve(matrix, _sparse(u.coordinates()))
    if solution is None:
        return None
    blades = g.blades(u.grade + 1)
    return ChainElement(g, u.grade + 1, {blades[j]: c for j, c in solution.items()})


def _sparse(vec: Vec) -> Sparse:
    return {j: x for j, x in enumerate(vec) if x}


class CochainCE:
    """An alternating multilinear map on the algebra with module values."""

    __slots__ = ("algebra", "module", "grade", "components")

    def __init__(
        self,
        algebra: LieAlgebraFD,
        module: LieModuleFD,
        grade: int,
        components: Mapping[IndexTuple, Sequence[Fraction | int]] = (),
    ):
        if module.algebra is not algebra:
            raise ValueError("module is over a different algebra")
        if grade < 0:
            raise ValueError("negative grade")
        clean: dict[IndexTuple, tuple[Fraction, ...]] = {}
        for idx, value in dict(components).items():
            idx = _blade(idx, grade, algebra.dim)
            vec = tuple(_exact(c) for c in value)
            if len(vec) != module.dim:
                raise ValueError("component value has wrong module dimension")
            if any(vec):
                clean[idx] = vec
        self.algebra = algebra
        self.module = module
        self.grade = grade
        self.components = clean

    @property
    def is_zero(self) -> bool:
        return not self.components

    def value_on_blade(self, idx: IndexTuple) -> tuple[Fraction, ...]:
        return self.components.get(tuple(idx), tuple([Fraction(0)] * self.module.dim))

    def coordinates(self) -> Vec:
        out: Vec = []
        for blade in self.algebra.blades(self.grade):
            out.extend(self.value_on_blade(blade))
        return out

    @classmethod
    def from_coordinates(
        cls, algebra: LieAlgebraFD, module: LieModuleFD, grade: int, vec: Sequence[Fraction]
    ) -> "CochainCE":
        m = module.dim
        blades = algebra.blades(grade)
        if len(vec) != len(blades) * m:
            raise ValueError(f"expected {len(blades) * m} coordinates, got {len(vec)}")
        data = {}
        for k, blade in enumerate(blades):
            data[blade] = tuple(vec[k * m : (k + 1) * m])
        return cls(algebra, module, grade, data)

    def _check(self, other: "CochainCE") -> None:
        if self.algebra is not other.algebra or self.module is not other.module:
            raise ValueError("cochains over different data")

    def __add__(self, other: "CochainCE") -> "CochainCE":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.grade != other.grade:
            raise ValueError("cannot add cochains of different grades")
        data = {idx: list(vec) for idx, vec in self.components.items()}
        for idx, vec in other.components.items():
            if idx in data:
                data[idx] = [a + b for a, b in zip(data[idx], vec)]
            else:
                data[idx] = list(vec)
        return CochainCE(self.algebra, self.module, self.grade, data)

    def __sub__(self, other: "CochainCE") -> "CochainCE":
        return self + other.scale(-1)

    def scale(self, factor: Fraction | int) -> "CochainCE":
        factor = _exact(factor)
        return CochainCE(
            self.algebra,
            self.module,
            self.grade,
            {i: tuple(factor * c for c in vec) for i, vec in self.components.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CochainCE):
            return NotImplemented
        if self.algebra is not other.algebra or self.module is not other.module:
            return False
        if self.grade != other.grade and not (self.is_zero and other.is_zero):
            return False
        return self.components == other.components

    def evaluate(self, vectors: Sequence[Sequence[Fraction | int]]) -> Vec:
        """Multilinear alternating evaluation on arbitrary coordinate vectors."""
        if len(vectors) != self.grade:
            raise ValueError(f"expected {self.grade} arguments")
        # the minors of the argument matrix are the components of the wedge
        # of its rows
        g = self.algebra
        wedge = ChainElement.basis(g, ())
        for v in vectors:
            wedge = wedge.wedge(ChainElement.vector(g, v))
        out = [Fraction(0)] * self.module.dim
        for blade, value in self.components.items():
            minor = wedge.components.get(blade)
            if minor:
                for r, c in enumerate(value):
                    out[r] += minor * c
        return out

    def __str__(self) -> str:
        if not self.components:
            return "0"
        chunks = []
        for idx in sorted(self.components):
            blade = " ^ ".join(f"{self.algebra.labels[i]}*" for i in idx) if idx else "1"
            value = ", ".join(str(c) for c in self.components[idx])
            chunks.append(f"{blade} -> ({value})")
        return "; ".join(chunks)

    def __repr__(self) -> str:
        return f"CochainCE({self})"


def ce_coboundary(w: CochainCE) -> CochainCE:
    """The Koszul coboundary, ``coboundary_matrix`` applied to the
    coordinates of ``w``; on grade 0, (da)(X) = X(a)."""
    g, S = w.algebra, w.module
    x = _sparse(w.coordinates())
    image = [
        sum((c * x[j] for j, c in row.items() if j in x), Fraction(0))
        for row in coboundary_matrix(g, S, w.grade)
    ]
    return CochainCE.from_coordinates(g, S, w.grade + 1, image)


def coboundary_matrix(g: LieAlgebraFD, S: LieModuleFD, grade: int) -> list[Sparse]:
    """Sparse matrix rows of d from grade to grade+1 cochain coordinates
    (coordinate k * S.dim + r is module component r on the k-th blade)."""
    m = S.dim
    position = {b: k * m for k, b in enumerate(g.blades(grade))}
    rows: list[Sparse] = []
    for blade in g.blades(grade + 1):
        block: list[Sparse] = [{} for _ in range(m)]
        for p in range(len(blade)):
            sign = -1 if p % 2 else 1
            col = position[blade[:p] + blade[p + 1 :]]
            for r, action_row in enumerate(S.matrices[blade[p]]):
                for s, a in enumerate(action_row):
                    if a:
                        block[r][col + s] = block[r].get(col + s, 0) + sign * a
        for face, c in _blade_boundary(g, blade).items():
            col = position[face]
            for r in range(m):
                block[r][col + r] = block[r].get(col + r, 0) + c
        rows.extend({j: Fraction(x) for j, x in row.items() if x} for row in block)
    return rows


def cohomology(g: LieAlgebraFD, S: LieModuleFD) -> list[tuple[int, int]]:
    """(grade, dimension) of the cochain complex's cohomology, grades 0..dim."""
    out = []
    ranks = {}
    for m in range(g.dim + 1):
        ncols = len(g.blades(m)) * S.dim
        ranks[m] = linalg.rank(coboundary_matrix(g, S, m))
        kernel_dim = ncols - ranks[m]
        image_dim = ranks[m - 1] if m >= 1 else 0
        out.append((m, kernel_dim - image_dim))
    return out


def is_closed_cochain(w: CochainCE) -> bool:
    return ce_coboundary(w).is_zero


def is_coboundary(w: CochainCE) -> Optional[CochainCE]:
    """A preimage under d, or None; grade-0 cochains are never coboundaries."""
    if w.grade == 0:
        return None
    g, S = w.algebra, w.module
    matrix = coboundary_matrix(g, S, w.grade - 1)
    solution = linalg.solve(matrix, _sparse(w.coordinates()))
    if solution is None:
        return None
    ncols = len(g.blades(w.grade - 1)) * S.dim
    return CochainCE.from_coordinates(g, S, w.grade - 1, [solution.get(j, 0) for j in range(ncols)])
