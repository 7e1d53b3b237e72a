"""Exact linear algebra over the rationals.

One sparse elimination kernel, ``_echelon``, does all the row reduction.
It keeps each pivot row as a dict of its nonzero cells, ``{column:
Fraction}``, and takes the input rows one at a time: a row is reduced by the
pivot rows whose columns it touches, scaled so that its leftmost cell is 1,
and then cleared out of the earlier pivot rows.  Work follows the nonzeros
that elimination touches, so the (co)boundary matrices of ``liealg``, which
are almost all zeros, cost little.  Fill-in stays inside the connected
blocks of a matrix's row/column graph, so no explicit block splitting is
needed.

The reduced row echelon form of a matrix is unique, so results do not
depend on the order of elimination: the reduced rows and pivots, the
nullspace basis (one vector per free column) and the residues are exactly
those of plain left-to-right Gauss-Jordan.  Inputs and outputs stay dense
``list[list[Fraction]]`` rows, which is what the callers build and read
(and what the benchmark tracer reads from the ``rows`` argument of
``rref``).  Every public function checks the shapes it is given and raises
``ValueError`` on ragged rows or mismatched lengths rather than truncating.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = list[Fraction]
Mat = list[Vec]
Sparse = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _width(rows: Sequence[Sequence], expected: Optional[int] = None) -> int:
    """The common row length; ``expected`` when there are no rows."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted(widths)}")
    width = widths.pop() if widths else expected
    if expected is not None and width != expected:
        raise ValueError(f"matrix rows have length {width}, expected {expected}")
    return width or 0


def _subtract(target: Sparse, factor: Fraction, row: Sparse) -> None:
    """``target -= factor * row`` on nonzero cells, dropping cells that cancel."""
    for j, x in row.items():
        value = target.get(j, _ZERO) - factor * x
        if value:
            target[j] = value
        else:
            del target[j]


def _echelon(rows: Iterable[Sequence]) -> dict[int, Sparse]:
    """Pivot column -> its fully reduced row, for the span of ``rows``."""
    reduced: dict[int, Sparse] = {}
    for dense in rows:
        row = {j: x if isinstance(x, Fraction) else Fraction(x) for j, x in enumerate(dense) if x}
        # pivot rows vanish at each other's pivots, so one pass clears them all
        for col in [c for c in row if c in reduced]:
            _subtract(row, row[col], reduced[col])
        if not row:
            continue
        lead = min(row)
        if row[lead] != 1:
            inv = 1 / row[lead]
            row = {j: x * inv for j, x in row.items()}
        for other in reduced.values():
            factor = other.get(lead)
            if factor:
                _subtract(other, factor, row)
        reduced[lead] = row
    return reduced


def _dense(row: Sparse, ncols: int) -> Vec:
    out = [_ZERO] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and its pivot columns (zero rows dropped)."""
    ncols = _width(rows)
    reduced = _echelon(rows)
    pivots = sorted(reduced)
    return [_dense(reduced[c], ncols) for c in pivots], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    _width(rows)
    return len(_echelon(rows))


def residue(vec: Sequence[Fraction], reduced: Mat, pivots: list[int]) -> Vec:
    """Canonical representative of ``vec`` modulo the row space of ``reduced``.

    ``reduced``/``pivots`` must come from :func:`rref`.  The result has a
    zero in every pivot column; it is zero iff ``vec`` lies in the span.
    """
    _width(reduced, len(vec))
    if len(pivots) != len(reduced):
        raise ValueError(f"{len(pivots)} pivots for {len(reduced)} reduced rows")
    out = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
    for row, col in zip(reduced, pivots):
        factor = out[col]
        if factor:
            for j, x in enumerate(row):
                if x:
                    out[j] -= factor * x
    return out


def in_span(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> bool:
    _width(rows, len(vec))
    reduced, pivots = rref(rows)
    return not any(residue(vec, reduced, pivots))


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector has value 1 at its free column and zeros at the other
    free columns (the standard back-substitution parametrization).
    """
    _width(rows, ncols)
    reduced = _echelon(rows)
    basis = {free: [_ZERO] * ncols for free in range(ncols) if free not in reduced}
    for free, vec in basis.items():
        vec[free] = _ONE
    for col, row in reduced.items():
        for j, x in row.items():
            if j != col:
                basis[j][col] = -x
    return list(basis.values())


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """One exact solution of ``rows @ x = rhs`` or ``None`` if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    ncols = _width(rows)
    reduced = _echelon((*row, b) for row, b in zip(rows, rhs))
    if ncols in reduced:
        return None
    solution = [_ZERO] * ncols
    for col, row in reduced.items():
        solution[col] = row.get(ncols, _ZERO)
    return solution


def matvec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vec:
    _width(rows, len(vec))
    return [sum((a * b for a, b in zip(row, vec) if a and b), _ZERO) for row in rows]


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    _width(a, len(b))
    _width(b)
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), _ZERO) for col in cols] for row in a]


def transpose(rows: Sequence[Sequence[Fraction]]) -> Mat:
    _width(rows)
    return [list(col) for col in zip(*rows)]


def identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def invert(rows: Sequence[Sequence[Fraction]]) -> Mat | None:
    """Exact inverse of a square matrix, or ``None`` if singular."""
    n = len(rows)
    _width(rows, n)
    reduced = _echelon((*row, *unit) for row, unit in zip(rows, identity(n)))
    if any(c not in reduced for c in range(n)):
        return None
    return [_dense(reduced[c], 2 * n)[n:] for c in range(n)]
