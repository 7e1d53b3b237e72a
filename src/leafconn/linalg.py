"""Exact linear algebra over the rationals.

One sparse elimination kernel, ``_echelon``, does all the row reduction.
Every input row, dense or sparse, is read once (``_row``) into a dict of
its nonzero cells, ``{column: Fraction}``.  The kernel maps each pivot
column to its pivot row and takes the rows one at a time: a row is reduced
by the pivot rows whose columns it touches (``_reduce``, the step that
``residue`` and ``in_span`` share), scaled so that its leftmost cell is 1,
and then cleared out of the earlier pivot rows.  Given a pivot map it built
before, ``_echelon`` extends it in place, so a span can grow one row at a
time.  Work follows the nonzeros that elimination touches, so the
(co)boundary matrices of ``liealg``, which are almost all zeros, cost
little.  Fill-in stays inside the connected blocks of a matrix's row/column
graph, so no explicit block splitting is needed.

The reduced row echelon form of a matrix is unique, so results do not
depend on the order of elimination: the reduced rows and pivots, the
nullspace basis (one vector per free column) and the residues are exactly
those of plain left-to-right Gauss-Jordan.

Rows come in two kinds, and ``rref``, ``rank``, ``nullspace``, ``solve`` and
``residue`` take either: dense sequences of one common length, or ``Sparse``
dicts that map column indices to their nonzero cells (the kind ``liealg``
builds its (co)boundary matrices in).  Each answers in the kind it was
given, densifying only at the end; an empty row list has no kind and
answers dense.  ``matvec``, ``matmul``, ``transpose`` and ``invert`` take
dense rows.  Every public function checks the shapes it is given and raises
``ValueError`` on ragged rows, mixed kinds, mismatched lengths or
out-of-range sparse columns rather than truncating, and ``TypeError`` on a
cell that is not ``int`` or ``Fraction``: floats and strings never enter
exact arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Collection, Iterable, Optional, Sequence, Union

Vec = list[Fraction]
Mat = list[Vec]
Sparse = dict[int, Fraction]
Row = Union[Sequence[Fraction], Sparse]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact(value) -> Fraction:
    """``value`` as a ``Fraction``; only ``int`` and ``Fraction`` are exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__} {value!r}")


def _check_cells(cells: Collection) -> None:
    """``TypeError`` unless every cell is an ``int`` or a ``Fraction``."""
    for kind in set(map(type, cells)):
        if not issubclass(kind, (int, Fraction)):
            _exact(next(x for x in cells if type(x) is kind))


def _is_sparse(rows: Sequence[Row]) -> bool:
    """Whether ``rows`` are sparse dicts; they must all be of one kind."""
    kinds = {isinstance(row, dict) for row in rows}
    if len(kinds) > 1:
        raise ValueError("rows mix dense sequences and sparse dicts")
    return True in kinds


def _shape(rows: Sequence[Row], ncols: Optional[int] = None) -> Optional[int]:
    """Check the shape of rows of either kind.

    Dense rows must share one length (``ncols`` if given); the result is
    that length, or ``ncols`` (else 0) when there are no rows.  Sparse rows
    must have columns in ``range(ncols)``, or non-negative ones when the
    width is open; the result is ``None``.
    """
    if _is_sparse(rows):
        for row in rows:
            if row and (min(row) < 0 or (ncols is not None and max(row) >= ncols)):
                bad = min(row) if min(row) < 0 else max(row)
                bound = "" if ncols is None else f" for {ncols} columns"
                raise ValueError(f"sparse column {bad} out of range{bound}")
        return None
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted(widths)}")
    width = widths.pop() if widths else ncols
    if ncols is not None and width != ncols:
        raise ValueError(f"matrix rows have length {width}, expected {ncols}")
    return width or 0


def _width(rows: Sequence[Sequence[Fraction]], expected: Optional[int] = None) -> int:
    """The common length of dense rows (``expected`` when there are none)."""
    width = _shape(rows, expected)
    if width is None:
        raise ValueError("sparse rows where dense rows are needed")
    return width


def _row(given: Row) -> Sparse:
    """``given`` read into the sparse form, with ``Fraction`` cells."""
    sparse = isinstance(given, dict)
    _check_cells(given.values() if sparse else given)
    cells = given.items() if sparse else enumerate(given)
    return {j: x if type(x) is Fraction else Fraction(x) for j, x in cells if x}


def _subtract(target: Sparse, factor: Fraction, row: Sparse) -> None:
    """``target -= factor * row`` on nonzero cells, dropping cells that cancel."""
    for j, x in row.items():
        value = target.get(j, _ZERO) - factor * x
        if value:
            target[j] = value
        else:
            del target[j]


def _reduce(row: Sparse, reduced: dict[int, Sparse]) -> Sparse:
    """Clear ``row`` in place at the pivot columns of ``reduced``; return it."""
    # pivot rows vanish at each other's pivots, so one pass clears them all
    for col in [c for c in row if c in reduced]:
        _subtract(row, row[col], reduced[col])
    return row


def _echelon(rows: Iterable[Row], reduced: Optional[dict[int, Sparse]] = None) -> dict[int, Sparse]:
    """Pivot column -> its fully reduced row, for the span of ``rows``.

    Given such a map as ``reduced``, the rows are added to it in place.
    """
    if reduced is None:
        reduced = {}
    for given in rows:
        row = _reduce(_row(given), reduced)
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


def _fit(vec: Row, rows: Sequence[Row]) -> bool:
    """Whether ``vec`` is sparse, after checking that ``rows``, all of one
    kind, are of its kind (and, if dense, of its length)."""
    if not isinstance(vec, dict):
        _width(rows, len(vec))
        return False
    if rows and not isinstance(rows[0], dict):
        raise ValueError("dense rows for a sparse vector")
    _shape([vec])
    return True


def rref(rows: Sequence[Row]) -> tuple[list, list[int]]:
    """Reduced row echelon form and its pivot columns (zero rows dropped)."""
    ncols = _shape(rows)
    reduced = _echelon(rows)
    pivots = sorted(reduced)
    if ncols is None:
        return [reduced[c] for c in pivots], pivots
    return [_dense(reduced[c], ncols) for c in pivots], pivots


def rank(rows: Sequence[Row]) -> int:
    _shape(rows)
    return len(_echelon(rows))


def residue(vec: Row, reduced: Sequence[Row], pivots: list[int]) -> Vec | Sparse:
    """Canonical representative of ``vec`` modulo the row space of ``reduced``.

    ``reduced``/``pivots`` must come from :func:`rref`, of the kind of
    ``vec`` (or be empty).  The result has a zero in every pivot column; it
    is zero (all zeros, or an empty dict) iff ``vec`` lies in the span.
    """
    if len(pivots) != len(reduced):
        raise ValueError(f"{len(pivots)} pivots for {len(reduced)} reduced rows")
    sparse = _fit(vec, reduced)
    out = _row(vec)
    rows = dict(zip(pivots, reduced))
    if not sparse:
        # clearing never adds a pivot column: read only the rows it uses
        rows = {c: _row(rows[c]) for c in out if c in rows}
    _reduce(out, rows)
    return out if sparse else _dense(out, len(vec))


def in_span(rows: Sequence[Row], vec: Row) -> bool:
    _shape(rows)
    _fit(vec, rows)
    return not _reduce(_row(vec), _echelon(rows))


def nullspace(rows: Sequence[Row], ncols: int) -> list[Vec] | list[Sparse]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector has value 1 at its free column and zeros at the other
    free columns (the standard back-substitution parametrization).
    """
    sparse = _shape(rows, ncols) is None
    reduced = _echelon(rows)
    free = [j for j in range(ncols) if j not in reduced]
    if sparse:
        basis = {j: {j: _ONE} for j in free}
    else:
        basis = {j: _dense({j: _ONE}, ncols) for j in free}
    for col, row in reduced.items():
        for j, x in row.items():
            if j != col:
                basis[j][col] = -x
    return list(basis.values())


def solve(rows: Sequence[Row], rhs: Row) -> Vec | Sparse | None:
    """One exact solution of ``rows @ x = rhs`` or ``None`` if inconsistent.

    Free variables are set to zero, so the answer is deterministic.  With a
    sparse ``rhs`` (a dict over the row indices) the rows must be sparse and
    the solution is a sparse dict over the columns.
    """
    sparse = isinstance(rhs, dict)
    if sparse:
        if rows and _shape(rows) is not None:
            raise ValueError("dense rows with a sparse right-hand side")
        _shape([rhs], len(rows))
        # one column past every column in use: the augmented column
        aug = max((max(row) for row in rows if row), default=-1) + 1
    else:
        if len(rhs) != len(rows):
            raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
        aug = _width(rows)
    b = _row(rhs)
    reduced = _echelon({**_row(row), aug: b[i]} if i in b else row for i, row in enumerate(rows))
    if aug in reduced:
        return None
    solution = {col: row[aug] for col, row in reduced.items() if aug in row}
    return solution if sparse else _dense(solution, aug)


def matvec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vec:
    _width(rows, len(vec))
    for row in (*rows, vec):
        _check_cells(row)
    return [sum((a * b for a, b in zip(row, vec) if a and b), _ZERO) for row in rows]


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    _width(a, len(b))
    _width(b)
    for row in (*a, *b):
        _check_cells(row)
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), _ZERO) for col in cols] for row in a]


def transpose(rows: Sequence[Sequence[Fraction]]) -> Mat:
    _width(rows)
    for row in rows:
        _check_cells(row)
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
