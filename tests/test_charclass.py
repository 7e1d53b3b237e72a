import random
from fractions import Fraction
from itertools import combinations

import pytest

from leafconn import linalg
from leafconn.charclass import (
    H1Quotient,
    LieIdeal,
    ProjectionOperator,
    QuotientAlgebra,
    abelianize,
    action_on_h1,
    characteristic_class,
    h1_module,
    projection_form,
    pullback_cochain,
)
from leafconn.liealg import (
    ChainElement,
    LieModuleFD,
    abelian_algebra,
    ce_coboundary,
    direct_sum,
    heisenberg3,
    is_closed_cochain,
    sl2,
)

import support

F = Fraction


def center_of_heisenberg():
    h3 = heisenberg3()
    return h3, LieIdeal.from_labels(h3, "h")


def test_ideal_validation():
    h3, _ = center_of_heisenberg()
    with pytest.raises(ValueError, match="linearly independent"):
        LieIdeal(h3, [[F(1), F(0), F(0)], [F(2), F(0), F(0)]])
    with pytest.raises(ValueError, match=r"not an ideal: \[f, e\] = -h leaves the subspace"):
        LieIdeal.from_labels(sl2(), "e")


def test_ideal_membership_and_coordinates():
    h3, ideal = center_of_heisenberg()
    assert ideal.dim == 1
    assert ideal.contains([F(0), F(0), F(5)])
    assert not ideal.contains([F(1), F(0), F(0)])
    assert ideal.coordinates([F(0), F(0), F(5)]) == [F(5)]


def test_commutator_quotient_of_ideal():
    h3, ideal = center_of_heisenberg()
    h1 = H1Quotient(ideal)
    assert h1.dim == 1
    assert h1.labels == ("[h]",)
    assert h1.reduce([F(0), F(0), F(3)]) == [F(3)]
    big = direct_sum(sl2(), heisenberg3())
    V = LieIdeal.from_labels(big, "e", "f", "h", "h2")
    assert H1Quotient(V).dim == 1


def test_action_on_commutator_quotient():
    _, ideal = center_of_heisenberg()
    mats = action_on_h1(ideal)
    assert mats == [[[F(0)]], [[F(0)]], [[F(0)]]]
    h1, module = h1_module(ideal)
    assert module.dim == h1.dim == 1


def test_projection_operator():
    _, ideal = center_of_heisenberg()
    canonical = ProjectionOperator.canonical(ideal)
    assert canonical.apply([F(1), F(1), F(4)]) == [F(0), F(0), F(4)]
    with pytest.raises(ValueError, match="not in the ideal"):
        ProjectionOperator(ideal, [[F(1)] * 3] * 3)
    with pytest.raises(ValueError):
        ProjectionOperator(
            ideal, [[F(0), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(2)]]
        )


@pytest.mark.parametrize("bad", [0.1, "1/3"])
def test_inexact_entries_rejected(bad):
    h3, _ = center_of_heisenberg()
    with pytest.raises(TypeError):
        LieIdeal(h3, [[0, 0, bad]])


@pytest.mark.parametrize("bad", [0.5, "1/3"])
def test_inexact_projection_rejected(bad):
    _, ideal = center_of_heisenberg()
    with pytest.raises(TypeError):
        ProjectionOperator(ideal, [[0, 0, 0], [0, 0, 0], [bad, F(1, 3), 1]])


@pytest.mark.parametrize("bad", [0.5, "1/3"])
def test_inexact_abelianize_projection_rejected(bad):
    h3, center = center_of_heisenberg()
    big = direct_sum(sl2(), heisenberg3())
    quotient = abelianize(big, LieIdeal.from_labels(big, "e", "f", "h", "h2"))
    # the identity branch ([V,V] = 0) and the quotient branch
    for ab, dim in ((abelianize(h3, center), 3), (quotient, 6)):
        with pytest.raises(TypeError):
            ab.project([bad] + [1] * (dim - 1))


def test_projection_form_and_subcomplex_property():
    _, ideal = center_of_heisenberg()
    form = projection_form(ideal)
    assert str(form) == "h* -> (1)"
    d = ce_coboundary(form)
    assert str(d) == "e* ^ f* -> (-1)"
    assert d.evaluate([[0, 0, 1], [1, 5, 7]]) == [F(0)]
    assert d.evaluate([[1, 0, 0], [0, 1, 0]]) == [F(-1)]


def test_class_of_heisenberg_center():
    _, ideal = center_of_heisenberg()
    result = characteristic_class(ideal)
    assert not result.is_zero
    assert result.class_vector == (F(-1),)
    assert str(result) == "e* ^ f* -> -1*[h]"
    assert result.h1.labels == ("[h]",)
    assert is_closed_cochain(result.form)


def test_class_of_direct_sum_factor_is_zero():
    big = direct_sum(sl2(), heisenberg3())
    ideal = LieIdeal.from_labels(big, "e2", "f2", "h2")
    result = characteristic_class(ideal)
    assert result.is_zero
    assert result.form.is_zero


def test_class_trivial_cases():
    g = sl2()
    perfect = LieIdeal.from_labels(g, "e", "f", "h")
    result = characteristic_class(perfect)
    assert result.is_zero and result.h1.dim == 0 and result.class_vector == ()
    h3 = heisenberg3()
    codim1 = LieIdeal.from_labels(h3, "e", "h")
    result = characteristic_class(codim1)
    assert result.is_zero and result.quotient.algebra.dim == 1
    ab = abelian_algebra(3)
    flat = LieIdeal.from_labels(ab, "a1")
    assert characteristic_class(flat).is_zero


def test_class_independent_of_projection():
    h3, ideal = center_of_heisenberg()
    base = characteristic_class(ideal).class_vector
    rng = random.Random(73)
    for _ in range(8):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        matrix = [
            [F(0), F(0), F(0)],
            [F(0), F(0), F(0)],
            [F(a), F(b), F(1)],
        ]
        alt = characteristic_class(ideal, ProjectionOperator(ideal, matrix))
        assert alt.class_vector == base


def test_quotient_algebra():
    h3, ideal = center_of_heisenberg()
    quotient = QuotientAlgebra(ideal)
    assert quotient.algebra.labels == ("e", "f")
    assert quotient.project([F(1), F(2), F(9)]) == [F(1), F(2)]
    lifted = quotient.lift([F(1), F(2)])
    assert quotient.project(lifted) == [F(1), F(2)]
    assert quotient.algebra.bracket_basis(0, 1) == (F(0), F(0))


def test_pullback_keeps_values_on_quotient_lifts():
    h3, ideal = center_of_heisenberg()
    result = characteristic_class(ideal)
    _, ambient_module = h1_module(ideal, result.h1)
    back = pullback_cochain(result.quotient, result.form, ambient_module)
    assert back.evaluate([[1, 0, 0], [0, 1, 0]]) == list(
        result.form.evaluate([[1, 0], [0, 1]])
    )
    assert back.evaluate([[0, 0, 1], [0, 1, 0]]) == [F(0)]


def test_abelianize():
    big = direct_sum(sl2(), heisenberg3())
    V = LieIdeal.from_labels(big, "e", "f", "h", "h2")
    ab = abelianize(big, V)
    assert ab.algebra.dim == 3
    assert ab.algebra.labels == ("e2", "f2", "h2")
    h3, center = center_of_heisenberg()
    same = abelianize(h3, center)
    assert same.algebra is h3


def test_abelianization_preserves_class():
    h3, center = center_of_heisenberg()
    assert support.abelianized_class_agrees(h3, center)
    big = direct_sum(sl2(), heisenberg3())
    V = LieIdeal.from_labels(big, "e", "f", "h", "h2")
    assert support.abelianized_class_agrees(big, V)


@pytest.mark.parametrize("bad", [[0.5, F(1, 3)], [1, "1/3"]])
def test_quotient_lift_rejects_inexact_coordinates(bad):
    _, ideal = center_of_heisenberg()
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        QuotientAlgebra(ideal).lift(bad)


@pytest.mark.parametrize("vec", [[1], [1, 2, 3, 4], []])
def test_quotient_lift_rejects_wrong_length(vec):
    _, ideal = center_of_heisenberg()
    quotient = QuotientAlgebra(ideal)
    with pytest.raises(ValueError, match=f"expected 2 quotient coordinates, got {len(vec)}"):
        quotient.lift(vec)
    assert quotient.lift([1, F(1, 2)]) == [F(1), F(1, 2), F(0)]


@pytest.mark.parametrize(
    "call",
    [
        lambda h3, ideal: linalg.matvec([[1, 2]], {0: 5, 1: 7}),
        lambda h3, ideal: ideal.contains({0: 0, 1: 0, 2: 5}),
        lambda h3, ideal: ideal.coordinates({0: 0, 1: 0, 2: 5}),
        lambda h3, ideal: QuotientAlgebra(ideal).project({0: 0, 1: 0, 2: 5}),
        lambda h3, ideal: QuotientAlgebra(ideal).lift({0: 1, 1: 2}),
        lambda h3, ideal: ProjectionOperator.canonical(ideal).apply({0: 0, 1: 0, 2: 5}),
        lambda h3, ideal: LieModuleFD.trivial(h3, 2).act_basis(0, {0: 1, 1: 2}),
        lambda h3, ideal: ChainElement.vector(h3, {0: 0, 1: 0, 2: 5}),
        lambda h3, ideal: LieIdeal(h3, [{0: 0, 1: 0, 2: 5}]),
    ],
)
def test_dict_where_a_dense_vector_is_expected_is_rejected(call):
    # a Sparse dict of the right length was read by its keys
    h3, ideal = center_of_heisenberg()
    with pytest.raises(ValueError, match="sparse rows where dense rows are needed"):
        call(h3, ideal)


def _summands(g):
    """Unit-vector bases of the summands of a direct sum in coordinate
    basis order: the connected pieces of the graph that joins i, j and
    every k with a nonzero constant in [e_i, e_j]."""
    parent = list(range(g.dim))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(g.dim), 2):
        for k in [j] + [k for k, c in enumerate(g.bracket_basis(i, j)) if c]:
            parent[root(k)] = root(i)
    pieces = {}
    for i, unit in enumerate(linalg.identity(g.dim)):
        pieces.setdefault(root(i), []).append(unit)
    return list(pieces.values())


def _centre(g):
    """The x with [x, e_i] = 0 for every i: one equation per (i, t)."""
    n = g.dim
    columns = [[g.bracket_basis(k, i) for k in range(n)] for i in range(n)]
    rows = [support.sparsify([column[k][t] for k in range(n)]) for column in columns for t in range(n)]
    return support.densify(linalg.nullspace([row for row in rows if row], n), n)


def _derived(g):
    images = [support.sparsify(g.bracket_basis(i, j)) for i, j in combinations(range(g.dim), 2)]
    reduced, _ = linalg.rref([image for image in images if image])
    return support.densify(reduced, g.dim)


def _transport(rows, m):
    """Coordinates M^-T v, in the basis of ``support.unimodular_twist``."""
    back = linalg.transpose(support.ref_invert(m))
    return [linalg.matvec(back, row) for row in rows]


def _other_projection(ideal, rng):
    """P + R(1 - P) for the canonical P and a random R with columns in V."""
    n = ideal.ambient.dim
    p = ProjectionOperator.canonical(ideal).matrix
    columns = []
    for _ in range(n):
        coeffs = [rng.randint(-2, 2) for _ in ideal.rows]
        columns.append([sum((c * row[i] for c, row in zip(coeffs, ideal.rows)), F(0)) for i in range(n)])
    r = linalg.transpose(columns)
    complement = [[F(i == j) - p[i][j] for j in range(n)] for i in range(n)]
    moved = linalg.matmul(r, complement)
    return ProjectionOperator(ideal, [[a + b for a, b in zip(*rows)] for rows in zip(p, moved)])


def _algebras_with_ideals(rng):
    g = support.permuted_sum(rng, 7)
    m = support.unimodular_basis(g.dim, rng)
    twisted = support.unimodular_twist(g, rng, m)
    rescaled = support.rational_rescale(g, rng)
    pieces = _summands(g)
    for algebra, summands in ((g, pieces), (twisted, [_transport(p, m) for p in pieces]), (rescaled, pieces)):
        for rows in summands + [_centre(algebra), _derived(algebra)]:
            if rows:
                yield algebra, rows


@pytest.mark.parametrize("seed", range(6))
def test_class_descends_and_is_closed_and_independent_of_projection(seed):
    # characteristic_class trusts that d(alpha) is killed by V and descends
    # to a closed cochain whose class does not see the projection; check it
    rng = random.Random(seed)
    nontrivial = 0
    for g, rows in _algebras_with_ideals(rng):
        ideal = LieIdeal(g, rows)
        results = []
        for projection in (ProjectionOperator.canonical(ideal), _other_projection(ideal, rng)):
            dalpha = ce_coboundary(projection_form(ideal, projection))
            for row in ideal.rows:
                for unit in linalg.identity(g.dim):
                    assert not any(dalpha.evaluate([row, unit]))
            result = characteristic_class(ideal, projection)
            assert is_closed_cochain(result.form)
            results.append(result)
        assert results[0].class_vector == results[1].class_vector
        assert str(results[0]) == str(results[1])
        nontrivial += not results[0].form.is_zero
    assert nontrivial
