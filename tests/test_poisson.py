import random
from fractions import Fraction

import pytest

from leafconn.ideals import Ideal
from leafconn.parse import parse_form, parse_multivector, parse_polynomial
from leafconn.poly import Polynomial, VarContext
from leafconn.poisson import NotPoissonError, PoissonStructure, jacobi_defect
from leafconn.tensors import GradeError, MultivectorField

import support

CTX = support.XY
CTX3 = support.XYZ

CANONICAL = PoissonStructure(parse_multivector("d/dx ^ d/dy", CTX))


def pp(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def test_canonical_bracket():
    assert CANONICAL.poisson_bracket(pp("x"), pp("y")) == pp("1")
    assert CANONICAL.poisson_bracket(pp("y"), pp("x")) == pp("-1")
    assert CANONICAL.is_poisson()


def test_hamiltonian_fields():
    assert CANONICAL.hamiltonian_field(pp("y")) == parse_multivector("-d/dx", CTX)
    assert CANONICAL.hamiltonian_field(pp("x")) == parse_multivector("d/dy", CTX)


def test_anchor():
    assert CANONICAL.anchor(parse_form("dx", CTX)) == parse_multivector("d/dy", CTX)
    assert CANONICAL.anchor(parse_form("dy", CTX)) == parse_multivector("-d/dx", CTX)
    with pytest.raises(GradeError):
        CANONICAL.anchor(parse_form("dx ^ dy", CTX))


def test_scaled_planar_bivectors_always_satisfy_jacobi():
    rng = random.Random(41)
    for _ in range(10):
        phi = support.rand_poly(rng, CTX)
        pi = parse_multivector("d/dx ^ d/dy", CTX).scale(phi)
        assert jacobi_defect(pi).is_zero


def test_linear_three_variable_structure_is_poisson():
    pi = parse_multivector("z * d/dx ^ d/dy + x * d/dy ^ d/dz", CTX3)
    assert jacobi_defect(pi).is_zero
    assert PoissonStructure(pi).is_poisson()


def test_three_variable_defect_detected():
    pi = parse_multivector("d/dx ^ d/dy + x * d/dx ^ d/dz", CTX3)
    defect = jacobi_defect(pi)
    assert defect == parse_multivector("-2 * d/dx ^ d/dy ^ d/dz", CTX3)
    structure = PoissonStructure(pi)
    assert not structure.is_poisson()
    with pytest.raises(NotPoissonError) as info:
        structure.require_jacobi()
    assert info.value.defect == defect


def test_jacobi_status_transitions():
    structure = PoissonStructure(parse_multivector("d/dx ^ d/dy", CTX))
    assert structure.jacobi_status == "unchecked"
    structure.is_poisson()
    assert structure.jacobi_status == "verified"
    bad = PoissonStructure(parse_multivector("d/dx ^ d/dy + x * d/dx ^ d/dz", CTX3))
    bad.is_poisson()
    assert bad.jacobi_status == "failed"


def test_derived_bracket_jacobi_for_valid_structure():
    rng = random.Random(43)
    pi = PoissonStructure(parse_multivector("x * d/dx ^ d/dy", CTX))
    for _ in range(8):
        f = support.rand_poly(rng, CTX)
        g = support.rand_poly(rng, CTX)
        h = support.rand_poly(rng, CTX)
        assert pi.poisson_bracket(f, g) == -pi.poisson_bracket(g, f)
        total = (
            pi.poisson_bracket(f, pi.poisson_bracket(g, h))
            + pi.poisson_bracket(g, pi.poisson_bracket(h, f))
            + pi.poisson_bracket(h, pi.poisson_bracket(f, g))
        )
        assert total.is_zero


def test_rank_at():
    pi = PoissonStructure(parse_multivector("x * d/dx ^ d/dy", CTX))
    assert pi.rank_at((0, 0)) == 0
    assert pi.rank_at((1, 5)) == 2
    assert CANONICAL.rank_at((Fraction(1, 2), 0)) == 2


@pytest.mark.parametrize("bad", [0.1, "1/3"])
def test_rank_at_rejects_inexact_point(bad):
    with pytest.raises(TypeError):
        CANONICAL.rank_at((bad, 0))


def test_is_integral_ideal():
    pi = PoissonStructure(parse_multivector("x * d/dx ^ d/dy", CTX))
    origin = Ideal(CTX, [pp("x"), pp("y")])
    assert pi.is_integral_ideal(origin)
    line = Ideal(CTX, [pp("x")])
    assert CANONICAL.is_integral_ideal(Ideal(CTX, []))
    assert not CANONICAL.is_integral_ideal(line)


def test_is_integral_ideal_matches_the_bracket_loop():
    # Jacobi is not needed: both sides only read brackets of coordinates.
    rng = random.Random(124)
    verdicts = []
    for _ in range(40):
        ctx = rng.choice([CTX, CTX3])
        pi = PoissonStructure(support.rand_multivector(rng, ctx, 2))
        n = len(ctx)
        coordinates = [Polynomial.variable(ctx, i) for i in rng.sample(range(n), rng.randint(1, n))]
        for ideal in (support.rand_binomial_ideal(rng, ctx, "grevlex"), Ideal(ctx, coordinates)):
            verdict = pi.is_integral_ideal(ideal)
            assert verdict == support.ref_is_integral_ideal(pi, ideal)
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_plane_leaf_in_three_variables():
    pi = PoissonStructure(parse_multivector("d/dx ^ d/dy", CTX3))
    plane = Ideal(CTX3, [pp("z", CTX3)])
    assert pi.is_integral_ideal(plane)
    assert not pi.is_integral_ideal(Ideal(CTX3, [pp("x", CTX3)]))


def test_grade_guard():
    with pytest.raises(GradeError):
        PoissonStructure(parse_multivector("d/dx", CTX))
    with pytest.raises(GradeError):
        jacobi_defect(parse_multivector("d/dx", CTX))
    assert jacobi_defect(MultivectorField.zero(CTX, 2)).is_zero
