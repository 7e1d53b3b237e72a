import random
from fractions import Fraction

import pytest

from leafconn.connection import (
    ConormalForm,
    LeafContext,
    NotOnLeafError,
    TransversalMultivector,
    TransversalVector,
    covariant_derivative_conormal,
    covariant_derivative_multivector,
    covariant_derivative_transversal,
    duality_check,
    flat_sections_at_point,
    is_flat_at_point,
)
from leafconn.ideals import Ideal, vanishing_ideal_of_point
from leafconn.parse import parse_form, parse_multivector, parse_polynomial
from leafconn.poisson import PoissonStructure
from leafconn.poly import Polynomial, VarContext
from leafconn.tensors import GradeError, MultivectorField

import support

CTX = support.XY
CTX3 = support.XYZ


def mv(text, ctx=CTX):
    return parse_multivector(text, ctx)


def form(text, ctx=CTX):
    return parse_form(text, ctx)


def pp(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def origin_leaf(phi_text):
    pi = PoissonStructure(mv("d/dx ^ d/dy").scale(pp(phi_text)))
    ideal = Ideal(CTX, [pp("x"), pp("y")])
    return LeafContext(pi, ideal, base_point=(0, 0))


def plane_leaf():
    pi = PoissonStructure(mv("d/dx ^ d/dy", CTX3))
    ideal = Ideal(CTX3, [pp("z", CTX3)])
    return LeafContext(pi, ideal, base_point=(0, 0, 0))


def test_tangent_generators():
    leaf = origin_leaf("x")
    assert [str(t) for t in leaf.tangent_generators()] == ["x * d/dy", "-x * d/dx"]


def test_transversal_space_at_point_leaf():
    leaf = origin_leaf("x")
    assert leaf.transversal_basis_at(None, 1) == [(0,), (1,)]
    assert leaf.reduce_mod_tangent(mv("d/dx + 3*d/dy")) == (Fraction(1), Fraction(3))


def test_transversal_basis_is_a_copy():
    leaf = plane_leaf()
    basis = leaf.transversal_basis_at(None, 1)
    assert basis == [(2,)]
    basis.clear()
    assert leaf.transversal_basis_at(None, 1) == [(2,)]
    assert leaf.reduce_mod_tangent(mv("d/dx + 2*d/dz", CTX3)) == (Fraction(2),)


def test_covariant_derivative_values():
    leaf = origin_leaf("x")
    d = covariant_derivative_transversal(leaf, form("dy"), mv("d/dx"))
    assert d.class_at() == (Fraction(1), Fraction(0))
    assert covariant_derivative_transversal(leaf, form("dx"), mv("d/dy")).class_at() == (
        Fraction(0),
        Fraction(0),
    )


def test_flat_sections_at_origin():
    leaf = origin_leaf("x")
    blades, kernel = flat_sections_at_point(leaf)
    assert blades == [(0,), (1,)]
    assert kernel == [(Fraction(0), Fraction(1))]
    assert not is_flat_at_point(leaf)


def test_flat_sections_reject_grade_zero():
    leaf = origin_leaf("x")
    for query in (
        lambda: flat_sections_at_point(leaf, grade=0),
        lambda: leaf.transversal_basis_at(None, 0),
        lambda: leaf.reduce_mod_tangent(mv("x + y")),
    ):
        with pytest.raises(GradeError, match="transversal grade must be at least 1, got 0"):
            query()


def test_flatness_depends_on_vanishing_linear_part():
    assert not is_flat_at_point(origin_leaf("x"))
    assert is_flat_at_point(origin_leaf("x^2 + y^2"))


def test_conormal_derivative():
    leaf = origin_leaf("x")
    w = ConormalForm(leaf, form("dx"))
    dw = covariant_derivative_conormal(leaf, form("dy"), w)
    assert dw.representative == form("-dx")


def test_conormal_validation():
    leaf = plane_leaf()
    ConormalForm(leaf, form("x*dz", CTX3))
    with pytest.raises(ValueError):
        ConormalForm(leaf, form("dy", CTX3))


def test_plane_leaf_flatness():
    leaf = plane_leaf()
    blades, kernel = flat_sections_at_point(leaf, 1)
    assert blades == [(2,)]
    assert kernel == [(Fraction(1),)]
    assert is_flat_at_point(leaf, 1)
    assert flat_sections_at_point(leaf, 2) == ([], [])


def test_grade_two_derivative_at_origin():
    leaf = origin_leaf("x")
    section = mv("d/dx ^ d/dy")
    assert covariant_derivative_multivector(leaf, form("dx"), section).class_at() == (
        Fraction(0),
    )
    assert covariant_derivative_multivector(leaf, form("dy"), section).class_at() == (
        Fraction(1),
    )


def test_tangent_quotients_off_the_coordinate_axes():
    # the tangent span at the point is spanned by d/dx and d/dy + d/dz
    ctx = VarContext(["x", "y", "z", "w", "v"])
    pi = PoissonStructure(mv("d/dx ^ d/dy + d/dx ^ d/dz", ctx))
    leaf = LeafContext(pi, Ideal(ctx, [pp("w", ctx), pp("v", ctx)]), base_point=(1, 2, 3, 0, 0))
    one = Polynomial.constant(ctx, 1)
    complements = {1: [(2,), (3,), (4,)], 2: [(2, 3), (2, 4), (3, 4)], 3: [(2, 3, 4)]}
    for grade, complement in complements.items():
        assert leaf.transversal_basis_at(None, grade) == complement
        for b in complement:
            unit = tuple(Fraction(int(c == b)) for c in complement)
            assert leaf.reduce_mod_tangent(MultivectorField(ctx, grade, {b: one})) == unit
        for t in leaf.tangent_generators():
            for blade in leaf.transversal_blades(grade - 1):
                field = t.wedge(MultivectorField(ctx, grade - 1, {blade: one}))
                if not field.is_zero:
                    assert leaf.reduce_mod_tangent(field) == (Fraction(0),) * len(complement)


def test_transversal_class_ignores_tangent_part():
    leaf = origin_leaf("x")
    assert TransversalVector(leaf, mv("d/dx + x*d/dy")) == TransversalVector(leaf, mv("d/dx"))
    assert TransversalVector(leaf, mv("d/dx")) != TransversalVector(leaf, mv("d/dy"))
    with pytest.raises(TypeError):
        hash(TransversalVector(leaf, mv("d/dx")))


def test_not_on_leaf():
    pi = PoissonStructure(mv("x * d/dx ^ d/dy"))
    ideal = Ideal(CTX, [pp("x"), pp("y")])
    with pytest.raises(NotOnLeafError):
        LeafContext(pi, ideal, base_point=(1, 0))
    leaf = LeafContext(pi, ideal, base_point=(0, 0))
    with pytest.raises(NotOnLeafError):
        TransversalVector(leaf, mv("d/dx")).class_at((1, 0))


@pytest.mark.parametrize("bad", [0.5, "1/3"])
def test_inexact_point_rejected(bad):
    pi = PoissonStructure(mv("d/dx ^ d/dy", CTX3))
    ideal = Ideal(CTX3, [pp("z", CTX3)])
    with pytest.raises(TypeError):
        LeafContext(pi, ideal, base_point=(bad, 0, 0))


@pytest.mark.parametrize("bad", [0.5, "1/3"])
def test_inexact_query_point_rejected(bad):
    leaf = plane_leaf()
    with pytest.raises(TypeError):
        TransversalVector(leaf, mv("d/dz", CTX3)).class_at((0, bad, 0))


@pytest.mark.parametrize(
    "gate",
    [
        lambda point: (pp("x") + pp("y")).evaluate(point),
        lambda point: PoissonStructure(mv("x * d/dx ^ d/dy")).rank_at(point),
        lambda point: LeafContext(PoissonStructure(mv("x * d/dx ^ d/dy")), Ideal(CTX, [pp("x")]), base_point=point),
        lambda point: vanishing_ideal_of_point(CTX, point),
    ],
    ids=["evaluate", "rank_at", "base_point", "vanishing_ideal"],
)
def test_one_point_gate(gate):
    with pytest.raises(ValueError, match=r"^point has length 3, expected 2$"):
        gate((0, 0, 0))
    with pytest.raises(TypeError, match="coefficients must be int or Fraction, got float 0.5"):
        gate((0, 0.5))


def test_coordinate_fields_are_built_once(monkeypatch):
    built = []
    hamiltonian_field = PoissonStructure.hamiltonian_field

    def counting(self, f):
        built.append(f)
        return hamiltonian_field(self, f)

    monkeypatch.setattr(PoissonStructure, "hamiltonian_field", counting)
    leaf = plane_leaf()
    flat_sections_at_point(leaf)
    assert built == [pp(name, CTX3) for name in ("x", "y", "z")]


def test_base_point_is_checked_once(monkeypatch):
    checked = []
    validate_point = LeafContext._validate_point

    def counting(self, point):
        checked.append(tuple(point))
        return validate_point(self, point)

    monkeypatch.setattr(LeafContext, "_validate_point", counting)
    leaf = plane_leaf()
    complement, kernel = flat_sections_at_point(leaf)
    assert (complement, kernel) == ([(2,)], [(Fraction(1),)])
    assert checked == [(0, 0, 0)]
    with pytest.raises(NotOnLeafError):
        flat_sections_at_point(leaf, at=(0, 0, 1))


def test_non_integral_ideal_rejected():
    pi = PoissonStructure(mv("d/dx ^ d/dy"))
    with pytest.raises(ValueError):
        LeafContext(pi, Ideal(CTX, [pp("x")]))


def test_section_grade_guards():
    leaf = origin_leaf("x")
    with pytest.raises(GradeError):
        covariant_derivative_transversal(leaf, form("dx"), mv("d/dx ^ d/dy"))
    with pytest.raises(GradeError):
        covariant_derivative_multivector(leaf, form("dx"), mv("x + y"))


def test_duality_random():
    rng = random.Random(47)
    leaf = origin_leaf("x")
    for _ in range(6):
        alpha = support.rand_form(rng, CTX, 1)
        omega = ConormalForm(leaf, support.rand_form(rng, CTX, 1))
        section = support.rand_multivector(rng, CTX, 1)
        assert duality_check(leaf, alpha, omega, section)
    leaf3 = plane_leaf()
    for _ in range(6):
        alpha = support.rand_form(rng, CTX3, 1)
        omega = ConormalForm(
            leaf3, form("dz", CTX3).scale(support.rand_poly(rng, CTX3))
        )
        section = support.rand_multivector(rng, CTX3, 1)
        assert duality_check(leaf3, alpha, omega, section)
