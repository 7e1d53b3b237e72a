"""Exact linear algebra over the rationals.

Plain Gaussian elimination on lists of ``Fraction`` rows.  Everything here
is deterministic: pivots are chosen left to right, first usable row wins,
so reduced forms, nullspace bases and residues are canonical for a given
input order.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = list[Fraction]
Mat = list[Vec]


def _copy(rows: Sequence[Sequence[Fraction]]) -> Mat:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and its pivot columns (zero rows dropped)."""
    mat = _copy(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def residue(vec: Sequence[Fraction], reduced: Mat, pivots: list[int]) -> Vec:
    """Canonical representative of ``vec`` modulo the row space of ``reduced``.

    ``reduced``/``pivots`` must come from :func:`rref`.  The result has a
    zero in every pivot column; it is zero iff ``vec`` lies in the span.
    """
    out = [Fraction(x) for x in vec]
    for row, col in zip(reduced, pivots):
        if out[col]:
            factor = out[col]
            out = [a - factor * b for a, b in zip(out, row)]
    return out


def in_span(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> bool:
    reduced, pivots = rref(rows)
    return not any(residue(vec, reduced, pivots))


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector has value 1 at its free column and zeros at the other
    free columns (the standard back-substitution parametrization).
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """One exact solution of ``rows @ x = rhs`` or ``None`` if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    mat = _copy(rows)
    if not mat:
        return [] if not any(rhs) else None
    ncols = len(mat[0])
    augmented = [row + [Fraction(b)] for row, b in zip(mat, rhs)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        solution[col] = row[-1]
    return solution


def matvec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vec:
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    cols = list(zip(*b)) if b else []
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def transpose(rows: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(col) for col in zip(*rows)] if rows else []


def identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def invert(rows: Sequence[Sequence[Fraction]]) -> Mat | None:
    """Exact inverse of a square matrix, or ``None`` if singular."""
    n = len(rows)
    units = identity(n)
    augmented = [list(map(Fraction, row)) + units[i] for i, row in enumerate(rows)]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]
