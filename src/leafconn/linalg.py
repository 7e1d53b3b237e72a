"""Exact linear algebra over the rationals.

One sparse, fraction-free elimination kernel, ``_echelon``, does all the
row reduction.  ``_row``, the package's one reader of primitive integer
forms (``Polynomial._primitive`` uses it too), reads each cell through
``as_integer_ratio()``, clears the denominators by their ``lcm`` and takes
the content out.  The kernel maps each pivot column to its pivot row, kept
primitive with a positive pivot cell, so the exact reduced row is
``row / row[pivot]``.  A new row is reduced by the pivot rows whose
columns it touches, then cleared out of the earlier pivot rows; the scan
``for other in reduced.values()`` visits every pivot row, also in blocks
of the row/column graph that the new row does not touch.  Each clearing
is one integer pseudo-step, ``_clear``: ``a * row - b * pivot_row`` with
``a = p / g``, ``b = c / g`` and ``g = gcd(c, p)`` for the cells ``c`` and
``p`` in the pivot column, after which the content comes out, as in
``ideals``.  ``_echelon`` and ``_residue`` share it through ``_reduce``.
``_residue`` returns a row cleared against a pivot map with its rational
scale; ``residue`` and ``liealg.homology`` build ``Fraction`` cells from
it.  Given a pivot map it built before, ``_echelon`` extends it in place.
``Fraction`` cells appear only in the answers (``Fraction(v, p)``);
``rank`` converts nothing.

The reduced row echelon form of a matrix is unique, so results do not
depend on the order of elimination: the reduced rows and pivots, the
nullspace basis (one vector per free column) and the residues are exactly
those of plain left-to-right Gauss-Jordan.

Rows are ``Sparse`` dicts that map column indices to their nonzero cells,
the kind ``liealg`` builds its (co)boundary matrices in.  ``rref``,
``rank``, ``residue``, ``nullspace`` and ``solve`` take and answer only
such rows; an empty row list is the zero-row matrix.  ``matvec``,
``matmul`` and ``transpose`` work on dense rows and vectors (sequences of
one common length), and ``identity`` builds them.  A public function
checks each row once, at its gate, ``_shape`` (sparse) or ``_check_dense``
(dense): ``ValueError`` on a row of the wrong kind, ragged rows,
mismatched lengths or out-of-range columns, then ``TypeError`` on a cell
that is not ``int`` or ``Fraction``, so floats and strings never enter
exact arithmetic.  The kernel checks nothing: its rows passed a gate or
were built by the library.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Optional, Sequence

Sparse = dict[int, Fraction]

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
    """``TypeError`` on the first cell that is not an ``int`` or a ``Fraction``."""
    for kind in dict.fromkeys(map(type, cells)):
        if not issubclass(kind, (int, Fraction)):
            _exact(next(x for x in cells if type(x) is kind))


def _shape(rows: Sequence[Sparse], ncols: Optional[int] = None) -> None:
    """The sparse gate: ``Sparse`` rows with columns in ``range(ncols)``
    (non-negative ones when the width is open), then exact cells."""
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"rows and vectors must be Sparse dicts, got {type(row).__name__}")
        if row and (min(row) < 0 or (ncols is not None and max(row) >= ncols)):
            bad = min(row) if min(row) < 0 else max(row)
            bound = "" if ncols is None else f" for {ncols} columns"
            raise ValueError(f"sparse column {bad} out of range{bound}")
    for row in rows:
        _check_cells(row.values())


def _check_dense(rows: Sequence[Sequence[Fraction]], width: Optional[int] = None) -> None:
    """The dense gate: no ``dict``, one common length (``width``, if given
    and there are rows), then exact cells."""
    if any(isinstance(row, dict) for row in rows):
        raise ValueError("sparse rows where dense rows are needed")
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted(widths)}")
    if width is not None and widths and widths != {width}:
        raise ValueError(f"matrix rows have length {widths.pop()}, expected {width}")
    for row in rows:
        _check_cells(row)


def _row(given: Sparse) -> tuple[dict[int, int], int, int]:
    """``(ints, num, den)`` with ``given == ints * num / den`` and ``ints``
    primitive (empty for a zero row); the cells passed a gate."""
    ratios = {j: x.as_integer_ratio() for j, x in given.items() if x}
    den = lcm(*(d for _, d in ratios.values()))
    ints = {j: n * (den // d) for j, (n, d) in ratios.items()}
    content = gcd(*ints.values())
    if content > 1:
        for j, v in ints.items():
            ints[j] = v // content
    return ints, content or 1, den


def _clear(target: dict[int, int], col: int, pivot_row: dict[int, int]) -> tuple[int, int]:
    """Cancel the primitive ``target`` in place at ``col``, the pivot column
    of ``pivot_row``, by the pseudo-step of the module docstring; ``target``
    stays primitive.  Returns ``(a, content)``: modulo ``pivot_row``, the
    old ``target`` is ``content / a`` times the new one."""
    c, p = target[col], pivot_row[col]
    g = gcd(c, p)
    a, b = p // g, c // g
    if a != 1:
        for j, v in target.items():
            target[j] = a * v
    for j, x in pivot_row.items():
        v = target.get(j, 0) - b * x
        if v:
            target[j] = v
        else:
            del target[j]
    content = gcd(*target.values())
    if content > 1:
        for j, v in target.items():
            target[j] = v // content
    return a, content


def _reduce(row: dict[int, int], reduced: dict[int, dict[int, int]]) -> tuple[int, int]:
    """Clear ``row`` in place at the pivot columns of ``reduced``.

    Returns ``(num, den)``: modulo the span, the old ``row`` is ``num / den``
    times the new one.
    """
    num = den = 1
    # pivot rows vanish at each other's pivots, so one pass clears them all
    for col in [c for c in row if c in reduced]:
        a, content = _clear(row, col, reduced[col])
        num *= content
        den *= a
    return num, den


def _echelon(
    rows: Iterable[Sparse], reduced: Optional[dict[int, dict[int, int]]] = None
) -> dict[int, dict[int, int]]:
    """Pivot column -> its pivot row, for the span of ``rows``.

    Each pivot row is primitive with a positive pivot cell and vanishes at
    every other pivot column; the exact reduced row is ``row / row[pivot]``.
    Given such a map as ``reduced``, the rows are added to it in place.
    """
    if reduced is None:
        reduced = {}
    for given in rows:
        row = _row(given)[0]
        _reduce(row, reduced)
        if not row:
            continue
        lead = min(row)
        if row[lead] < 0:
            for j, v in row.items():
                row[j] = -v
        for other in reduced.values():
            if lead in other:
                _clear(other, lead, row)
        reduced[lead] = row
    return reduced


def _residue(vec: Sparse, reduced: dict[int, dict[int, int]]) -> tuple[dict[int, int], int, int]:
    """``(ints, num, den)``: the residue of ``vec`` modulo a pivot map is
    ``ints * num / den``, with ``ints`` primitive."""
    row, num, den = _row(vec)
    scale_num, scale_den = _reduce(row, reduced)
    return row, num * scale_num, den * scale_den


def rref(rows: Sequence[Sparse]) -> tuple[list[Sparse], list[int]]:
    """Reduced row echelon form and its pivot columns (zero rows dropped)."""
    _shape(rows)
    reduced = _echelon(rows)
    pivots = sorted(reduced)
    return [{j: Fraction(v, reduced[c][c]) for j, v in reduced[c].items()} for c in pivots], pivots


def rank(rows: Sequence[Sparse]) -> int:
    _shape(rows)
    return len(_echelon(rows))


def residue(vec: Sparse, reduced: Sequence[Sparse], pivots: list[int]) -> Sparse:
    """Canonical representative of ``vec`` modulo the row space of ``reduced``.

    ``reduced``/``pivots`` must come from :func:`rref` (or be empty).  The
    result has no cell in any pivot column; it is empty iff ``vec`` lies in
    the span.
    """
    if len(pivots) != len(reduced):
        raise ValueError(f"{len(pivots)} pivots for {len(reduced)} reduced rows")
    _shape([vec])
    rows = dict(zip(pivots, reduced))
    # clearing never adds a pivot column: check and read only the rows it uses
    used = {c: rows[c] for c in vec if c in rows}
    _shape(used.values())
    row, num, den = _residue(vec, {c: _row(r)[0] for c, r in used.items()})
    return {j: Fraction(v * num, den) for j, v in row.items()}


def nullspace(rows: Sequence[Sparse], ncols: int) -> list[Sparse]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector has value 1 at its free column and zeros at the other
    free columns (the standard back-substitution parametrization).
    """
    _shape(rows, ncols)
    reduced = _echelon(rows)
    basis = {j: {j: _ONE} for j in range(ncols) if j not in reduced}
    for col, row in reduced.items():
        p = row[col]
        for j, x in row.items():
            if j != col:
                basis[j][col] = Fraction(-x, p)
    return list(basis.values())


def solve(rows: Sequence[Sparse], rhs: Sparse) -> Sparse | None:
    """One exact solution of ``rows @ x = rhs`` or ``None`` if inconsistent.

    ``rhs`` is a dict over the row indices and the solution a dict over the
    columns.  Free variables are set to zero, so the answer is deterministic.
    """
    _shape(rows)
    _shape([rhs], len(rows))
    # one column past every column in use: the augmented column
    aug = max((max(row) for row in rows if row), default=-1) + 1
    reduced = _echelon({**row, aug: rhs[i]} if i in rhs else row for i, row in enumerate(rows))
    if aug in reduced:
        return None
    return {col: Fraction(row[aug], row[col]) for col, row in reduced.items() if aug in row}


def matvec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> list[Fraction]:
    _check_dense(rows, len(vec))
    _check_dense([vec])
    return [sum((a * b for a, b in zip(row, vec) if a and b), _ZERO) for row in rows]


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    _check_dense(a, len(b))
    _check_dense(b)
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), _ZERO) for col in cols] for row in a]


def transpose(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    _check_dense(rows)
    return [list(col) for col in zip(*rows)]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
