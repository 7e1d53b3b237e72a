import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from leafconn import linalg

import support


def F(x):
    return Fraction(x)


def rows(*data):
    """Sparse rows from dense data: the nonzero cells as Fractions."""
    return [{j: F(x) for j, x in enumerate(row) if x} for row in data]


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
        m = rows(*([rng.randint(-4, 4) for _ in range(4)] for _ in range(3)))
        reduced, pivots = linalg.rref(m)
        again, again_pivots = linalg.rref(reduced)
        assert again == reduced
        assert again_pivots == pivots


def test_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(25):
        m = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
        assert linalg.rank(rows(*m)) == linalg.rank(rows(*linalg.transpose(m)))


def test_residue_of_span_member_is_zero():
    reduced, pivots = linalg.rref(rows((1, 0, 2), (0, 1, 1)))
    assert linalg.residue({0: F(3), 1: F(-1), 2: F(5)}, reduced, pivots) == {}
    res = linalg.residue({2: F(1)}, reduced, pivots)
    assert res
    assert not any(p in res for p in pivots)


def test_nullspace_dimension_and_membership():
    m = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    basis = linalg.nullspace(rows(*m), 3)
    assert len(basis) == 1
    for vec in basis:
        assert linalg.matvec(m, support.densify([vec], 3)[0]) == [F(0), F(0)]
    assert linalg.nullspace(rows((1, 0), (0, 1)), 2) == []


def test_nullspace_of_no_rows_is_the_unit_dicts():
    assert linalg.nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert all(type(x) is Fraction for vec in linalg.nullspace([], 3) for x in vec.values())
    assert linalg.nullspace([], 0) == []


def test_solve():
    m = rows((1, 1), (1, -1))
    assert linalg.solve(m, {0: F(3), 1: F(1)}) == {0: F(2), 1: F(1)}
    assert linalg.solve(rows((1, 1), (1, 1)), {1: F(1)}) is None
    under = [[F(1), F(1), F(1)]]
    sol = linalg.solve(rows(*under), {0: F(5)})
    assert sol is not None
    assert linalg.matvec(under, support.densify([sol], 3)[0]) == [F(5)]


def test_transpose_empty():
    assert linalg.transpose([]) == []


def _sparse_rows(rng, m):
    """The rows of a dense matrix as Sparse dicts, keeping a few zero cells,
    which the kernel must read as absent."""
    return [{j: x for j, x in enumerate(row) if x or rng.random() < 0.2} for row in m]


def test_matches_dense_reference_on_random_matrices():
    rng = random.Random(2024)
    sparsify = support.sparsify
    for trial in range(400):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice([0.05, 0.1, 0.25, 0.5, 1.0])
        m = support.rand_sparse_matrix(rng, nrows, ncols, density)
        s = _sparse_rows(rng, m)
        reduced, pivots = linalg.rref(s)
        ref_reduced, ref_pivots = support.ref_rref(m)
        assert (reduced, pivots) == ([sparsify(row) for row in ref_reduced], ref_pivots), trial
        assert linalg.rank(s) == support.ref_rank(m)
        basis = linalg.nullspace(s, ncols)
        assert basis == [sparsify(vec) for vec in support.ref_nullspace(m, ncols)]
        vec = support.rand_sparse_matrix(rng, 1, ncols, density)[0]
        res = linalg.residue(_sparse_rows(rng, [vec])[0], reduced, pivots)
        assert res == sparsify(support.ref_residue(vec, ref_reduced, ref_pivots))
        rhs = [rng.choice([0, 1, Fraction(-2, 3)]) for _ in range(nrows)]
        solution = linalg.solve(s, _sparse_rows(rng, [rhs])[0])
        expected = support.ref_solve(m, rhs)
        assert solution == (None if expected is None else sparsify(expected))
        # every answer cell is a nonzero Fraction
        for answer in (*reduced, *basis, res, solution or {}):
            assert all(type(x) is Fraction and x for x in answer.values())


def test_sparse_rows_answer_the_sparse_form_of_the_dense_answer():
    rng = random.Random(88)
    sparsify = support.sparsify
    for trial in range(400):
        nrows, ncols = rng.randint(1, 8), rng.randint(0, 8)
        density = rng.choice([0.05, 0.1, 0.25, 0.5, 1.0])
        m = support.rand_sparse_matrix(rng, nrows, ncols, density)
        s = [sparsify(row) for row in m]
        reduced, pivots = support.ref_rref(m)
        s_reduced, s_pivots = linalg.rref(s)
        assert (s_reduced, s_pivots) == ([sparsify(row) for row in reduced], pivots), trial
        assert linalg.rank(s) == support.ref_rank(m)
        basis = linalg.nullspace(s, ncols)
        assert basis == [sparsify(vec) for vec in support.ref_nullspace(m, ncols)]
        vec = support.rand_sparse_matrix(rng, 1, ncols, density)[0]
        res = linalg.residue(sparsify(vec), s_reduced, pivots)
        assert res == sparsify(support.ref_residue(vec, reduced, pivots))
        # a zero residue is span membership: adding the vector keeps the rank
        assert (res == {}) == (linalg.rank([*s, sparsify(vec)]) == len(pivots))
        rhs = [rng.choice([0, 1, Fraction(-2, 3)]) for _ in range(nrows)]
        solution = support.ref_solve(m, rhs)
        s_solution = linalg.solve(s, sparsify(rhs))
        assert s_solution == (None if solution is None else sparsify(solution))
        for answer in (*s_reduced, *basis, res, s_solution or {}):
            assert all(type(x) is Fraction and x for x in answer.values())


def _wide_cell(rng):
    """A cell for the integer kernel: small, rational, or near 10**40."""
    kind = rng.random()
    if kind < 0.4:
        return rng.choice([0, Fraction(0)])
    if kind < 0.6:
        return rng.choice([-3, -2, 2, 3, 5, 7])
    if kind < 0.8:
        return Fraction(rng.randint(-9, 9), rng.choice([2, 3, 4, 7, 9]))
    big = 10**40 + rng.randint(-10**6, 10**6)
    if rng.random() < 0.5:
        return rng.choice([-1, 1]) * big
    return Fraction(rng.choice([-1, 1]) * big, 10**20 + rng.randint(1, 10**6))


@pytest.mark.parametrize("seed", range(4))
def test_integer_kernel_matches_dense_oracles_on_wide_cells(seed):
    rng = random.Random(1600 + seed)
    sparsify = support.sparsify
    for trial in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[_wide_cell(rng) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            # a row that depends on the others, with a pivot far from +-1
            m.append([3 * a - Fraction(5, 7) * b for a, b in zip(m[0], m[-1])])
        given = [sparsify(row) for row in m]
        reduced, pivots = linalg.rref(given)
        ref_reduced, ref_pivots = support.ref_rref(m)
        assert (reduced, pivots) == ([sparsify(row) for row in ref_reduced], ref_pivots), trial
        assert linalg.rank(given) == len(ref_pivots)
        basis = linalg.nullspace(given, ncols)
        assert basis == [sparsify(vec) for vec in support.ref_nullspace(m, ncols)]
        vec = [_wide_cell(rng) for _ in range(ncols)]
        res = linalg.residue(sparsify(vec), reduced, pivots)
        assert res == sparsify(support.ref_residue(vec, ref_reduced, ref_pivots))
        rhs = [_wide_cell(rng) for _ in range(len(m))]
        solution = linalg.solve(given, sparsify(rhs))
        expected = support.ref_solve(m, rhs)
        assert solution == (None if expected is None else sparsify(expected))
        for answer in (*reduced, *basis, res, solution or {}):
            assert all(type(x) is Fraction for x in answer.values())
        # the pivot map: primitive integer rows with positive pivots that
        # vanish at the other pivots; row / row[pivot] is the reduced row
        whole = linalg._echelon(given)
        grown: dict = {}
        for row in given:
            linalg._echelon([row], grown)
        assert grown == whole
        assert sorted(whole) == ref_pivots
        for col, row in whole.items():
            assert all(type(v) is int for v in row.values())
            assert row[col] > 0 and math.gcd(*row.values()) == 1
            assert not any(c in row for c in whole if c != col)
            exact = {j: Fraction(v, row[col]) for j, v in row.items()}
            assert exact == sparsify(ref_reduced[ref_pivots.index(col)])


def test_rank_and_nullity_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = support.rand_sparse_matrix(rng, nrows, ncols, rng.choice([0.1, 0.3, 1.0]))
        reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in map(F, row)] for row in m])
        s = [support.sparsify(row) for row in m]
        assert linalg.rank(s) == reference.rank()
        assert len(linalg.nullspace(s, ncols)) == len(reference.nullspace())


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match="ragged"):
        linalg.transpose([[0], [1, 2]])
    with pytest.raises(ValueError, match="ragged"):
        linalg.matvec([[1, 2], [0]], [1, 2])
    with pytest.raises(ValueError, match="ragged"):
        linalg.matmul([[1, 1]], [[1], [1, 2]])


def test_solve_rejects_rhs_length_mismatch():
    # the right-hand side is indexed by row
    with pytest.raises(ValueError, match="sparse column 1 out of range for 1 columns"):
        linalg.solve([{0: 1, 1: 2}], {0: 1, 1: 5})


def test_nullspace_rejects_wrong_column_count():
    with pytest.raises(ValueError, match="sparse column 2 out of range for 2 columns"):
        linalg.nullspace([{0: 1, 2: 1}], 2)


def test_vector_length_must_match_row_width():
    with pytest.raises(ValueError):
        linalg.matvec([[1, 1]], [1])
    with pytest.raises(ValueError):
        linalg.matmul([[1, 1]], [[1]])


def test_sparse_columns_out_of_range_are_rejected():
    with pytest.raises(ValueError, match="sparse column -1 out of range"):
        linalg.rref([{0: 1}, {-1: 1}])
    with pytest.raises(ValueError, match="sparse column -2 out of range"):
        linalg.rank([{-2: 1, 3: 1}])
    with pytest.raises(ValueError, match="sparse column 2 out of range for 2 columns"):
        linalg.nullspace([{0: 1}, {2: 1}], 2)
    with pytest.raises(ValueError, match="sparse column -1 out of range for 2 columns"):
        linalg.nullspace([{-1: 1}], 2)
    with pytest.raises(ValueError, match="sparse column -1 out of range"):
        linalg.residue({-1: 1}, [], [])
    with pytest.raises(ValueError, match="sparse column -1 out of range"):
        linalg.solve([{-1: 1}], {0: 1})
    with pytest.raises(ValueError, match="sparse column 1 out of range for 1 columns"):
        linalg.solve([{0: 1}], {1: 1})


def test_dense_rows_are_rejected():
    calls = [
        lambda: linalg.rref([[1, 0]]),
        lambda: linalg.rref([(1, 0)]),
        lambda: linalg.rank([{0: 1}, [1]]),
        lambda: linalg.nullspace([[1, 0]], 2),
        lambda: linalg.solve([[1]], {0: 1}),
        lambda: linalg.solve([{0: 1}], [1]),
        lambda: linalg.residue([1, 0], [], []),
        # a dense reduced row is caught where the vector reads it
        lambda: linalg.residue({0: 1}, [[1, 0]], [0]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be Sparse dicts"):
            call()


def test_dense_helpers_reject_sparse_rows():
    with pytest.raises(ValueError, match="sparse rows where dense rows are needed"):
        linalg.transpose([{0: 1}])
    with pytest.raises(ValueError, match="sparse rows where dense rows are needed"):
        linalg.matvec([{0: 1}], [1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.rank([{0: "1/3", 1: 0.1}]),
        lambda: linalg.rref([{0: 0.0, 1: 1}]),
        lambda: linalg.rank([{0: 0.5}]),
        lambda: linalg.nullspace([{0: 1, 1: 0.5}], 2),
        lambda: linalg.solve([{0: 0.5}], {0: 1}),
        lambda: linalg.solve([{0: 1}], {0: 0.5}),
        lambda: linalg.residue({0: 0.5}, [], []),
        lambda: linalg.residue({0: "1"}, [], []),
        lambda: linalg.rref([{0: 1}, {1: "1/2"}]),
        lambda: linalg.matvec([[1]], [0.5]),
        lambda: linalg.matmul([[0.5]], [[1]]),
        lambda: linalg.transpose([[0.5]]),
        lambda: linalg.solve([{0: 1}, {1: 1}], {1: "2"}),
        # valid int cells first, then one bad cell: the all-int read of a
        # row must not let it through
        lambda: linalg.rank([{0: 1, 1: 0.5}]),
        lambda: linalg.rank([{0: 1, 1: 2, 2: 0.5}]),
        lambda: linalg.nullspace([{0: 1, 1: 2, 2: "1"}], 3),
        lambda: linalg.nullspace([{0: 1, 1: "1"}], 2),
        lambda: linalg.solve([{0: 1, 1: 2, 2: 0.5}], {0: 1}),
        lambda: linalg.solve([{0: 1, 1: 0.5}], {0: 1}),
        lambda: linalg.solve([{0: 1}, {0: 2}], {0: 1, 1: 0.5}),
        lambda: linalg.residue({0: 1, 1: 2, 2: 0.5}, [], []),
        lambda: linalg.residue({0: 1, 1: "1"}, [], []),
        lambda: linalg.residue({0: 1, 1: 1}, [{0: 1, 1: 0.5}], [0]),
    ],
)
def test_floats_and_strings_are_rejected(call):
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        call()


def test_bool_cells_are_read_as_int():
    assert linalg.rank([{0: True, 1: 2}, {0: 2, 1: 4}]) == 1
    assert linalg.rank([{0: 1, 1: True}, {0: 2, 1: 2}]) == 1
    answers = [
        *linalg.nullspace([{0: True, 1: 2}], 2),
        linalg.solve([{0: 1, 1: True}], {0: 3}),
        linalg.residue({0: True, 1: 1}, [{0: 1}], [0]),
    ]
    assert answers == [{0: -2, 1: 1}, {0: 3}, {1: 1}]
    assert all(type(x) is Fraction for a in answers for x in a.values())


def _linalg_names(tree):
    """The attribute names read off ``linalg`` and imported from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "linalg":
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "linalg" and node.level == 1:
            yield from (alias.name for alias in node.names)


def test_every_public_linalg_name_has_a_library_caller():
    package = Path(linalg.__file__).parent
    module = ast.parse(Path(linalg.__file__).read_text())
    public = set()
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            public.add(node.name)
        elif isinstance(node, ast.Assign):
            public.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in public if not name.startswith("_")}
    used = set()
    for path in package.glob("*.py"):
        if path.name != "linalg.py":
            used.update(_linalg_names(ast.parse(path.read_text())))
    assert public - used == set()
