import random
from fractions import Fraction

import pytest

from leafconn import linalg
from leafconn.charclass import LieIdeal, h1_module
from leafconn.liealg import (
    ChainElement,
    CochainCE,
    LieAlgebraFD,
    LieModuleFD,
    abelian_algebra,
    boundary_delta,
    ce_coboundary,
    coboundary_matrix,
    cohomology,
    delta_matrix,
    direct_sum,
    heisenberg3,
    homology,
    is_boundary,
    is_closed_cochain,
    is_coboundary,
    sl2,
    so3,
    supercommutator,
)

import support

F = Fraction


def rand_chain(rng, g, grade, lo=-3, hi=3):
    blades = g.blades(grade)
    return ChainElement(
        g, grade, {b: F(rng.randint(lo, hi)) for b in blades if rng.random() < 0.7}
    )


def rand_cochain(rng, g, S, grade):
    values = {
        b: [support.rand_fraction(rng) for _ in range(S.dim)]
        for b in g.blades(grade)
        if rng.random() < 0.5
    }
    return CochainCE(g, S, grade, values)


def test_factories():
    assert sl2().labels == ("e", "f", "h")
    assert heisenberg3().labels == ("e", "f", "h")
    assert abelian_algebra(2).labels == ("a1", "a2")
    assert so3().labels == ("r1", "r2", "r3")
    g = sl2()
    assert g.bracket_basis(g.index("h"), g.index("e")) == (F(2), F(0), F(0))
    assert all(type(c) is F for c in g.bracket_basis(g.index("h"), g.index("e")))
    assert g.bracket_basis(g.index("e"), g.index("f")) == (F(0), F(0), F(1))


def test_table_validation_witnesses():
    table = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    table[0][1][0] = F(1)
    table[1][0][0] = F(1)
    with pytest.raises(ValueError, match=r"not antisymmetric at \(\[a,b\], a\)"):
        LieAlgebraFD(["a", "b"], table)
    table = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    table[0][2][1], table[2][0][1] = F(1), F(-1)
    table[0][2][0], table[2][0][0] = F(2), F(3)
    with pytest.raises(ValueError, match=r"not antisymmetric at \(\[a,c\], a\)"):
        LieAlgebraFD(["a", "b", "c"], table)
    table = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    table[1][1][0] = F(1)
    with pytest.raises(ValueError, match=r"not antisymmetric at \(\[b,b\], a\)"):
        LieAlgebraFD(["a", "b", "c"], table)
    with pytest.raises(ValueError, match=r"Jacobi identity fails on \(a, b, d\)"):
        LieAlgebraFD.from_brackets(
            ["a", "b", "c", "d"],
            {("a", "b"): {"c": 1}, ("c", "d"): {"a": 1}, ("a", "c"): {"d": 1}},
        )


def test_from_brackets_accumulates_antisymmetrically():
    g = LieAlgebraFD.from_brackets(
        ["a", "b"], {("a", "b"): {"a": 1}, ("b", "a"): {"a": 1}}
    )
    assert g.bracket_basis(0, 1) == (F(0), F(0))


def test_direct_sum_relabels_collisions():
    ds = direct_sum(sl2(), heisenberg3())
    assert ds.labels == ("e", "f", "h", "e2", "f2", "h2")
    assert ds.bracket_basis(0, 1) == (F(0),) * 2 + (F(1),) + (F(0),) * 3
    assert ds.bracket_basis(0, 3) == (F(0),) * 6


def test_chain_element_algebra():
    g = sl2()
    e = ChainElement.basis(g, [0])
    f = ChainElement.basis(g, [1])
    assert str(f.wedge(e)) == "-e ^ f"
    assert e.wedge(e).is_zero
    assert str(e.wedge(f) - ChainElement.basis(g, [0, 2]).scale(F(3, 2))) == "e ^ f - 3/2*e ^ h"
    assert ChainElement.basis(g, [0, 1]).coordinates() == [F(1), F(0), F(0)]
    zero = ChainElement.vector(g, [0, 0, 0])
    assert zero + ChainElement.basis(g, [0, 1]) == ChainElement.basis(g, [0, 1])
    assert hash(zero) == hash(ChainElement(g, 2, {}))


def test_boundary_values():
    g = sl2()
    ef = ChainElement.basis(g, [g.index("e"), g.index("f")])
    assert boundary_delta(ef) == -ChainElement.basis(g, [g.index("h")])
    assert boundary_delta(ChainElement.basis(g, [0])).is_zero
    full = ChainElement.basis(g, [0, 1, 2])
    assert boundary_delta(boundary_delta(full)).is_zero


def test_boundary_squares_to_zero_random():
    rng = random.Random(59)
    for g in (abelian_algebra(2), heisenberg3(), sl2(), so3()):
        for _ in range(10):
            u = rand_chain(rng, g, rng.randint(2, g.dim))
            assert boundary_delta(boundary_delta(u)).is_zero


def test_supercommutator_extends_bracket():
    rng = random.Random(61)
    for g in (heisenberg3(), sl2(), so3()):
        for _ in range(10):
            u = rand_chain(rng, g, 1)
            v = rand_chain(rng, g, 1)
            expected = ChainElement.vector(g, g.bracket(u.coordinates(), v.coordinates()))
            assert supercommutator(u, v) == expected


def test_supercommutator_of_closed_elements_bounds():
    rng = random.Random(67)
    g = sl2()
    for _ in range(10):
        u = rand_chain(rng, g, rng.randint(1, 2))
        v = rand_chain(rng, g, rng.randint(1, 2))
        if boundary_delta(u).is_zero and boundary_delta(v).is_zero:
            w = supercommutator(u, v)
            if not w.is_zero:
                assert is_boundary(w) is not None


def test_homology_dimensions():
    assert [(h.grade, h.dimension) for h in homology(sl2())] == [(0, 1), (1, 0), (2, 0), (3, 1)]
    assert [(h.grade, h.dimension) for h in homology(heisenberg3())] == [
        (0, 1),
        (1, 2),
        (2, 2),
        (3, 1),
    ]
    assert [(h.grade, h.dimension) for h in homology(abelian_algebra(2))] == [
        (0, 1),
        (1, 2),
        (2, 1),
    ]


def test_homology_representatives_are_cycles():
    # in grade 1 of [a, b] = a + b, both kernel vectors leave a nonzero
    # residue modulo the image, and the two residues are dependent
    skew = LieAlgebraFD.from_brackets(["a", "b"], {("a", "b"): {"a": 1, "b": 1}})
    for g in (heisenberg3(), sl2(), skew):
        for level in homology(g):
            assert len(level.representatives) == level.dimension
            for rep in level.representatives:
                assert boundary_delta(rep).is_zero
                if level.grade >= 1:
                    assert is_boundary(rep) is None


def test_is_boundary():
    g = heisenberg3()
    h = ChainElement.basis(g, [g.index("h")])
    pre = is_boundary(h)
    assert pre is not None
    assert boundary_delta(pre) == h
    e = ChainElement.basis(g, [g.index("e")])
    assert is_boundary(e) is None
    sl = sl2()
    pre = is_boundary(ChainElement.basis(sl, [sl.index("e")]))
    assert pre is not None and boundary_delta(pre) == ChainElement.basis(sl, [sl.index("e")])


def test_module_validation():
    g = sl2()
    with pytest.raises(ValueError, match="not a homomorphism"):
        LieModuleFD(
            g,
            [
                [[F(1), F(0)], [F(0), F(0)]],
                [[F(0), F(0)], [F(0), F(0)]],
                [[F(0), F(0)], [F(0), F(0)]],
            ],
        )
    trivial = LieModuleFD.trivial(g, 2)
    assert trivial.dim == 2
    assert trivial.act([1, 1, 1], [F(1), F(2)]) == [F(0), F(0)]


def test_coboundary_squares_to_zero_random():
    rng = random.Random(71)
    modules = [(g, LieModuleFD.trivial(g)) for g in (abelian_algebra(2), heisenberg3(), sl2())]
    modules += [(g, support.adjoint(g)) for g in (sl2(), heisenberg3())]
    for g, S in modules:
        for _ in range(10):
            grade = rng.randint(0, g.dim - 2)
            w = CochainCE(
                g,
                S,
                grade,
                {b: tuple(F(rng.randint(-3, 3)) for _ in range(S.dim)) for b in g.blades(grade)},
            )
            assert ce_coboundary(ce_coboundary(w)).is_zero


def test_cohomology_dimensions():
    h3 = heisenberg3()
    assert cohomology(h3, LieModuleFD.trivial(h3)) == [(0, 1), (1, 2), (2, 2), (3, 1)]
    g = sl2()
    assert cohomology(g, LieModuleFD.trivial(g)) == [(0, 1), (1, 0), (2, 0), (3, 1)]
    # Adjoint modules: Whitehead's lemmas kill everything for sl2; for h3,
    # H^0 is the centre, H^1 = Der/Inn has dimension 6 - 2, H^3 is
    # h3/[h3, h3], and H^2 follows from Euler characteristic 0.
    assert cohomology(g, support.adjoint(g)) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert cohomology(h3, support.adjoint(h3)) == [(0, 1), (1, 4), (2, 5), (3, 2)]


def _nonzero_fractions(rows):
    return all(type(x) is Fraction and x for row in rows for x in row.values())


def test_matrices_match_unit_probing_references():
    rng = random.Random(17)
    rescaled = [support.rational_rescale(g, rng) for g in (so3(), direct_sum(sl2(), heisenberg3()))]
    for g in (sl2(), so3(), heisenberg3(), direct_sum(sl2(), heisenberg3()), *rescaled):
        for grade in range(g.dim + 1):
            rows = delta_matrix(g, grade)
            assert _nonzero_fractions(rows)
            ncols = len(g.blades(grade))
            assert support.densify(rows, ncols) == support.reference_delta_matrix(g, grade)
        for S in (LieModuleFD.trivial(g, 2), support.adjoint(g)):
            for grade in range(g.dim + 1):
                rows = coboundary_matrix(g, S, grade)
                assert _nonzero_fractions(rows)
                ncols = len(g.blades(grade)) * S.dim
                expected = support.reference_coboundary_matrix(g, S, grade)
                assert support.densify(rows, ncols) == expected


def test_volume_pairing_cocycle_is_exact():
    h3 = heisenberg3()
    S = LieModuleFD.trivial(h3)
    w = CochainCE(h3, S, 2, {(h3.index("e"), h3.index("f")): (F(1),)})
    assert is_closed_cochain(w)
    pre = is_coboundary(w)
    assert pre is not None
    assert str(pre) == "h* -> (-1)"
    assert ce_coboundary(pre) == w


def test_center_pairing_cocycles_are_nontrivial():
    h3 = heisenberg3()
    S = LieModuleFD.trivial(h3)
    for other in ("e", "f"):
        idx = tuple(sorted((h3.index(other), h3.index("h"))))
        w = CochainCE(h3, S, 2, {idx: (F(1),)})
        assert is_closed_cochain(w)
        assert is_coboundary(w) is None


def test_cochain_evaluate_is_multilinear_alternating():
    h3 = heisenberg3()
    S = LieModuleFD.trivial(h3)
    w = CochainCE(h3, S, 2, {(0, 1): (F(1),)})
    assert w.evaluate([[1, 2, 0], [3, 4, 0]]) == [F(-2)]
    assert w.evaluate([[1, 2, 0], [1, 2, 0]]) == [F(0)]
    assert w.evaluate([[3, 4, 0], [1, 2, 0]]) == [F(2)]


def test_cochain_evaluate_matches_determinant_reference():
    rng = random.Random(61)
    for g in (sl2(), heisenberg3(), so3(), direct_sum(sl2(), heisenberg3())):
        for S in (LieModuleFD.trivial(g, 2), support.adjoint(g)):
            for grade in range(4):
                for _ in range(5):
                    w = CochainCE(
                        g,
                        S,
                        grade,
                        {
                            b: [support.rand_fraction(rng) for _ in range(S.dim)]
                            for b in g.blades(grade)
                            if rng.random() < 0.5
                        },
                    )
                    vectors = [
                        [rng.choice([0, 0, rng.randint(-3, 3), support.rand_fraction(rng)]) for _ in range(g.dim)]
                        for _ in range(grade)
                    ]
                    if grade > 1 and rng.random() < 0.2:
                        vectors[-1] = list(vectors[0])
                    assert w.evaluate(vectors) == support.ref_cochain_evaluate(w, vectors)


def test_chain_vector_rejects_wrong_length():
    h3 = heisenberg3()
    with pytest.raises(ValueError, match="expected 3 coordinates, got 1"):
        ChainElement.vector(h3, [1])
    with pytest.raises(ValueError, match="expected 3 coordinates, got 4"):
        ChainElement.vector(h3, [1, 0, 0, 0])


def test_cochain_evaluate_rejects_short_vectors():
    h3 = heisenberg3()
    w = CochainCE(h3, LieModuleFD.trivial(h3), 2, {(0, 1): (F(1),)})
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        w.evaluate([[1, 2], [3, 4]])


def test_cochain_evaluate_rejects_long_vectors():
    h3 = heisenberg3()
    w = CochainCE(h3, LieModuleFD.trivial(h3), 2, {(0, 1): (F(1),)})
    with pytest.raises(ValueError, match="expected 3 coordinates, got 4"):
        w.evaluate([[1, 2, 0, 5], [3, 4, 0, 7]])


def test_grade_zero_cochains():
    g = sl2()
    S = LieModuleFD.trivial(g)
    w = CochainCE(g, S, 0, {(): (F(5),)})
    assert ce_coboundary(w).is_zero
    assert is_coboundary(w) is None


def test_lemma_equivalence_probe():
    h3 = heisenberg3()
    assert support.lemma_equivalence_probe(h3, LieModuleFD.trivial(h3), trials=10, seed=3)
    g = sl2()
    assert support.lemma_equivalence_probe(g, LieModuleFD.trivial(g), trials=10, seed=4)


def test_zero_dimensional_algebra():
    g = LieAlgebraFD((), [])
    assert [(h.grade, h.dimension) for h in homology(g)] == [(0, 1)]
    S = LieModuleFD.trivial(g)
    assert cohomology(g, S) == [(0, 1)]


def test_homology_and_cohomology_unchanged_under_dense_reference(monkeypatch):
    g = direct_sum(sl2(), heisenberg3())
    S = LieModuleFD.trivial(g)

    def snapshot():
        grades = [(h.dimension, [r.components for r in h.representatives]) for h in homology(g)]
        return grades, cohomology(g, S)

    sparse = snapshot()
    # the public linalg names the two call; each reference densifies the
    # sparse rows, so an empty row list still answers sparse
    ran = {"rank": 0, "nullspace": 0}

    def ref_rank(rows):
        ran["rank"] += 1
        return support.ref_rank(rows)

    def ref_nullspace(rows, ncols):
        ran["nullspace"] += 1
        return [support.sparsify(vec) for vec in support.ref_nullspace(support.densify(rows, ncols), ncols)]

    monkeypatch.setattr(linalg, "rank", ref_rank)
    monkeypatch.setattr(linalg, "nullspace", ref_nullspace)
    assert snapshot() == sparse
    assert all(ran.values()), ran


def _differential_algebras():
    rng = random.Random(808)
    algebras = [support.permuted_sum(rng, 7) for _ in range(5)] + [support.strictly_upper_triangular(4)]
    # structure constants with denominators; after the unimodular twist, the
    # kept residues are rescaled when cleared against the image
    twisted = support.unimodular_twist(support.permuted_sum(rng, 6), rng)
    return algebras + [support.rational_rescale(h, rng) for h in (support.permuted_sum(rng, 7), twisted)]


@pytest.mark.parametrize("g", _differential_algebras(), ids=repr)
def test_sparse_path_matches_dense_parent_code(g):
    rng = random.Random(g.dim)

    def table(grades):
        return [(h.grade, h.dimension, [r.components for r in h.representatives]) for h in grades]

    grades = homology(g)
    assert table(grades) == table(support.ref_homology(g))
    assert all(type(c) is Fraction for h in grades for r in h.representatives for c in r.components.values())
    for grade in range(g.dim + 1):
        assert _nonzero_fractions(delta_matrix(g, grade))
        for _ in range(3):
            u = rand_chain(rng, g, grade)
            if grade < g.dim and rng.random() < 0.5:
                u = boundary_delta(rand_chain(rng, g, grade + 1))
            assert is_boundary(u) == support.ref_is_boundary(u)
    for S in (LieModuleFD.trivial(g), LieModuleFD.trivial(g, 2), support.adjoint(g)):
        assert cohomology(g, S) == support.ref_cohomology(g, S)
        for grade in range(g.dim + 1):
            assert _nonzero_fractions(coboundary_matrix(g, S, grade))
            w = rand_cochain(rng, g, S, grade)
            if grade and rng.random() < 0.5:
                w = ce_coboundary(rand_cochain(rng, g, S, grade - 1))
            assert is_coboundary(w) == support.ref_is_coboundary(w)


def test_homology_of_a_unimodular_twist_matches_dense_reference():
    # sl2 + h3 + a1 in an integer basis of determinant +-1, as the spec_batch
    # benchmark builds it: the boundary matrices have pivots other than +-1
    g = direct_sum(direct_sum(sl2(), heisenberg3()), abelian_algebra(1))
    g = support.unimodular_twist(g, random.Random(16))
    assert any(abs(c) > 1 for i in range(g.dim) for j in range(g.dim) for c in g.bracket_basis(i, j))

    def table(grades):
        return [(h.grade, h.dimension, [r.components for r in h.representatives]) for h in grades]

    grades = homology(g)
    assert [h.dimension for h in grades] == [1, 3, 4, 4, 4, 4, 3, 1]
    assert table(grades) == table(support.ref_homology(g))


def test_strictly_upper_triangular_homology():
    # checks that do not come from leafconn: nilpotent algebras are
    # unimodular, so Poincare duality gives dim H_k = dim H_{6-k}; and
    # H_1 = n/[n, n], where [n, n] is spanned by E02, E13 and E03
    n4 = support.strictly_upper_triangular(4)
    dims = [h.dimension for h in homology(n4)]
    assert dims == dims[::-1]
    assert dims[1] == 3
    # Kostant: dim H_k of the strictly upper triangular n x n matrices is
    # the number of permutations of S_n with k inversions (Mahonian numbers)
    mahonian = {4: [1, 3, 5, 6, 5, 3, 1], 5: [1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1]}
    for n, betti in mahonian.items():
        grades = homology(support.strictly_upper_triangular(n))
        assert [h.dimension for h in grades] == betti
        assert all(len(h.representatives) == h.dimension for h in grades)


def test_cochain_blades_out_of_range_are_rejected():
    g = sl2()
    S = LieModuleFD.trivial(g)
    for blade in ((7,), (-1,), (0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            CochainCE(g, S, len(blade), {blade: (1,)})


def test_cochain_from_coordinates_rejects_wrong_length():
    g = sl2()
    S = LieModuleFD.trivial(g)
    with pytest.raises(ValueError, match="expected 3 coordinates, got 4"):
        CochainCE.from_coordinates(g, S, 1, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="expected 6 coordinates, got 3"):
        CochainCE.from_coordinates(g, LieModuleFD.trivial(g, 2), 1, [1, 2, 3])


@pytest.mark.parametrize(
    "call",
    [
        lambda g, S: ChainElement(g, 1, {(0,): 0.5}),
        lambda g, S: ChainElement.vector(g, [0.1, 0, 0]),
        lambda g, S: ChainElement.basis(g, [0]).scale(0.5),
        lambda g, S: CochainCE(g, S, 1, {(0,): ("1/3",)}),
        lambda g, S: CochainCE(g, S, 1, {(0,): (1,)}).scale(0.5),
        lambda g, S: LieAlgebraFD(["a"], [[[0.0]]]),
        lambda g, S: LieAlgebraFD.from_brackets(["a", "b"], {("a", "b"): {"a": 0.1}}),
        lambda g, S: LieAlgebraFD.from_brackets(["a", "b"], {("a", "b"): {"a": "1/3"}}),
        lambda g, S: LieModuleFD(abelian_algebra(1), [[[0.5]]]),
    ],
)
def test_floats_and_strings_are_rejected(call):
    g = sl2()
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        call(g, LieModuleFD.trivial(g))


def test_ce_coboundary_matches_cell_by_cell_reference():
    # the parent's Koszul cell loop, kept in tests/support.py, on random
    # cochains of every grade over trivial, adjoint and classes modules
    rng = random.Random(12)
    h3 = heisenberg3()
    big = direct_sum(sl2(), heisenberg3())
    _, h3_classes = h1_module(LieIdeal.from_labels(h3, "f", "h"))
    _, big_classes = h1_module(LieIdeal.from_labels(big, "e2", "f2", "h2"))
    cases = [(g, LieModuleFD.trivial(g, dim)) for g in (sl2(), so3(), h3) for dim in range(3)]
    cases += [(g, support.adjoint(g)) for g in (sl2(), h3, abelian_algebra(2), big)]
    cases += [(h3, h3_classes), (big, big_classes)]
    assert (h3_classes.dim, big_classes.dim) == (2, 2)
    for g, S in cases:
        for grade in range(g.dim + 2):
            for _ in range(3):
                w = rand_cochain(rng, g, S, grade)
                got, expected = ce_coboundary(w), support.ref_ce_coboundary(w)
                assert got == expected
                assert got.grade == expected.grade == grade + 1
