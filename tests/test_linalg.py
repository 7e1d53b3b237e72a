import random
from fractions import Fraction

import pytest

from leafconn import linalg

import support


def F(x):
    return Fraction(x)


def rows(*data):
    return [[F(x) for x in row] for row in data]


def test_rref_drops_dependent_rows():
    reduced, pivots = linalg.rref(rows((1, 2), (2, 4)))
    assert reduced == rows((1, 2))
    assert pivots == [0]


def test_rref_identity():
    reduced, pivots = linalg.rref(rows((0, 1), (1, 0)))
    assert reduced == rows((1, 0), (0, 1))
    assert pivots == [0, 1]


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        m = [[F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        reduced, pivots = linalg.rref(m)
        again, again_pivots = linalg.rref(reduced)
        assert again == reduced
        assert again_pivots == pivots


def test_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(25):
        m = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
        assert linalg.rank(m) == linalg.rank(linalg.transpose(m))


def test_residue_of_span_member_is_zero():
    reduced, pivots = linalg.rref(rows((1, 0, 2), (0, 1, 1)))
    assert linalg.residue([F(3), F(-1), F(5)], reduced, pivots) == [F(0)] * 3
    res = linalg.residue([F(0), F(0), F(1)], reduced, pivots)
    assert any(res)
    for p in pivots:
        assert res[p] == 0


def test_in_span():
    m = rows((1, 1, 0), (0, 0, 1))
    assert linalg.in_span(m, [F(2), F(2), F(-1)])
    assert not linalg.in_span(m, [F(1), F(0), F(0)])


def test_nullspace_dimension_and_membership():
    m = rows((1, 2, 3), (0, 1, 1))
    basis = linalg.nullspace(m, 3)
    assert len(basis) == 1
    for vec in basis:
        assert linalg.matvec(m, vec) == [F(0), F(0)]
    assert linalg.nullspace(rows((1, 0), (0, 1)), 2) == []


def test_solve():
    m = rows((1, 1), (1, -1))
    sol = linalg.solve(m, [F(3), F(1)])
    assert sol == [F(2), F(1)]
    assert linalg.solve(rows((1, 1), (1, 1)), [F(0), F(1)]) is None
    under = rows((1, 1, 1))
    sol = linalg.solve(under, [F(5)])
    assert sol is not None
    assert linalg.matvec(under, sol) == [F(5)]


def test_invert_roundtrip():
    m = rows((2, 1, 0), (0, 1, 1), (1, 0, 1))
    inv = linalg.invert(m)
    assert inv is not None
    assert linalg.matmul(m, inv) == linalg.identity(3)
    assert linalg.matmul(inv, m) == linalg.identity(3)
    assert linalg.invert(rows((1, 2), (2, 4))) is None


def test_transpose_empty():
    assert linalg.transpose([]) == []


def _all_fractions(*vectors):
    return all(isinstance(x, Fraction) for vec in vectors for x in vec)


def test_matches_dense_reference_on_random_matrices():
    rng = random.Random(2024)
    for trial in range(400):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice([0.05, 0.1, 0.25, 0.5, 1.0])
        m = support.rand_sparse_matrix(rng, nrows, ncols, density)
        reduced, pivots = linalg.rref(m)
        assert (reduced, pivots) == support.ref_rref(m), trial
        assert all(_all_fractions(row) for row in reduced)
        assert linalg.rank(m) == support.ref_rank(m)
        basis = linalg.nullspace(m, ncols)
        assert basis == support.ref_nullspace(m, ncols)
        assert all(_all_fractions(vec) for vec in basis)
        vec = support.rand_sparse_matrix(rng, 1, ncols, density)[0]
        res = linalg.residue(vec, reduced, pivots)
        assert res == support.ref_residue(vec, reduced, pivots)
        assert _all_fractions(res)
        rhs = [rng.choice([0, 1, Fraction(-2, 3)]) for _ in range(nrows)]
        solution = linalg.solve(m, rhs)
        assert solution == support.ref_solve(m, rhs)
        assert solution is None or _all_fractions(solution)
        square = support.rand_sparse_matrix(rng, nrows, nrows, density)
        inverse = linalg.invert(square)
        assert inverse == support.ref_invert(square)
        assert inverse is None or all(_all_fractions(row) for row in inverse)


def test_rank_and_nullity_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = support.rand_sparse_matrix(rng, nrows, ncols, rng.choice([0.1, 0.3, 1.0]))
        reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in map(F, row)] for row in m])
        assert linalg.rank(m) == reference.rank()
        assert len(linalg.nullspace(m, ncols)) == len(reference.nullspace())


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError):
        linalg.rref([[0], [1, 2]])
    with pytest.raises(ValueError):
        linalg.rref([[1, 2], [0]])
    with pytest.raises(ValueError):
        linalg.rank([[1], [1, 2]])


def test_solve_rejects_rhs_length_mismatch():
    with pytest.raises(ValueError):
        linalg.solve([[1, 2]], [1, 5])


def test_nullspace_rejects_wrong_column_count():
    with pytest.raises(ValueError):
        linalg.nullspace([[1, 0, 0]], 2)


def test_vector_length_must_match_row_width():
    with pytest.raises(ValueError):
        linalg.residue([1], [[1, 1]], [0])
    with pytest.raises(ValueError):
        linalg.matvec([[1, 1]], [1])
    with pytest.raises(ValueError):
        linalg.in_span([[1, 1]], [1, 1, 1])


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.invert([[1, 0, 0], [0, 1, 0]])
