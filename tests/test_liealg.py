import random
from fractions import Fraction

import pytest

from leafconn import linalg
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


def test_factories():
    assert sl2().labels == ("e", "f", "h")
    assert heisenberg3().labels == ("e", "f", "h")
    assert abelian_algebra(2).labels == ("a1", "a2")
    assert so3().labels == ("r1", "r2", "r3")
    g = sl2()
    assert g.bracket_basis(g.index("h"), g.index("e")) == (F(2), F(0), F(0))
    assert g.bracket_basis(g.index("e"), g.index("f")) == (F(0), F(0), F(1))


def test_table_validation_witnesses():
    table = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    table[0][1][0] = F(1)
    table[1][0][0] = F(1)
    with pytest.raises(ValueError, match="not antisymmetric"):
        LieAlgebraFD(["a", "b"], table)
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
    for g in (heisenberg3(), sl2()):
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


def test_matrices_match_unit_probing_references():
    for g in (sl2(), so3(), heisenberg3(), direct_sum(sl2(), heisenberg3())):
        for grade in range(g.dim + 1):
            assert delta_matrix(g, grade) == support.reference_delta_matrix(g, grade)
        for S in (LieModuleFD.trivial(g, 2), support.adjoint(g)):
            for grade in range(g.dim + 1):
                expected = support.reference_coboundary_matrix(g, S, grade)
                assert coboundary_matrix(g, S, grade) == expected


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
    for name in ("rref", "rank", "residue", "nullspace", "solve"):
        monkeypatch.setattr(linalg, name, getattr(support, f"ref_{name}"))
    assert snapshot() == sparse
