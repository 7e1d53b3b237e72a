import itertools
import random
from fractions import Fraction

import pytest

from leafconn.parse import parse_form, parse_multivector, parse_polynomial
from leafconn.poly import Polynomial, VarContext
from leafconn.tensors import (
    DifferentialForm,
    GradeError,
    MultivectorField,
    contract_covector,
    differential,
    exterior_derivative,
    interior_product,
    lie_derivative,
    merge_sign,
    pairing,
    schouten_bracket,
    wedge,
)

import support

CTX = support.XY
CTX3 = support.XYZ


def mv(text, ctx=CTX):
    return parse_multivector(text, ctx)


def form(text, ctx=CTX):
    return parse_form(text, ctx)


def pp(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def test_merge_sign():
    assert merge_sign((0,), (1,)) == ((0, 1), 1)
    assert merge_sign((1,), (0,)) == ((0, 1), -1)
    assert merge_sign((0,), (0,)) == ((), 0)
    assert merge_sign((), (0, 1)) == ((0, 1), 1)
    # Every pair of increasing tuples over range(6): the sign is the parity
    # of the concatenation's inversion count, and overlap gives ((), 0).
    tuples = [t for k in range(7) for t in itertools.combinations(range(6), k)]
    for left in tuples:
        for right in tuples:
            if set(left) & set(right):
                assert merge_sign(left, right) == ((), 0)
                continue
            word = left + right
            inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j])
            assert merge_sign(left, right) == (tuple(sorted(word)), -1 if inversions % 2 else 1)


def test_constructor_requires_increasing_blades():
    one = Polynomial.constant(CTX, 1)
    for cls in (MultivectorField, DifferentialForm):
        for blade, message in [
            ((1, 0), r"^bad blade \(1, 0\) for grade 2$"),
            ((0, 0), r"^bad blade \(0, 0\) for grade 2$"),
            ((0,), r"^bad blade \(0,\) for grade 2$"),
            ((0, 2), r"^blade \(0, 2\) out of range$"),
            ((-1, 0), r"^blade \(-1, 0\) out of range$"),
        ]:
            with pytest.raises(ValueError, match=message):
                cls(CTX, 2, {blade: one})
        assert cls(CTX, 3, {}).is_zero


def test_wedge_antisymmetry_and_square_zero():
    assert form("dx").wedge(form("dy")) == -form("dy").wedge(form("dx"))
    assert mv("d/dx").wedge(mv("d/dx")).is_zero
    assert (form("dx ^ dy") ^ form("dx")).is_zero


def test_wedge_with_scalar():
    p = pp("x^2 - y")
    assert MultivectorField.from_scalar(p).wedge(mv("d/dx")) == mv("d/dx").scale(p)


def test_wedge_associative_random():
    rng = random.Random(13)
    for _ in range(15):
        a = support.rand_form(rng, CTX3, rng.randint(0, 1))
        b = support.rand_form(rng, CTX3, rng.randint(0, 1))
        c = support.rand_form(rng, CTX3, rng.randint(0, 1))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_zero_is_grade_agnostic():
    z0 = MultivectorField.zero(CTX, 0)
    z2 = MultivectorField.zero(CTX, 2)
    assert z0 == z2
    assert hash(z0) == hash(z2)
    v = mv("d/dx ^ d/dy")
    assert v + z0 == v


def test_grade_mismatch_rejected():
    with pytest.raises(GradeError):
        mv("d/dx") + mv("d/dx ^ d/dy")


def test_differential():
    assert differential(pp("x^2*y")) == form("2*x*y*dx + x^2*dy")
    assert differential(pp("5")).is_zero


def test_exterior_derivative():
    assert exterior_derivative(form("x*dy")) == form("dx ^ dy")
    assert exterior_derivative(form("y*dx")) == -form("dx ^ dy")


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(17)
    for _ in range(20):
        w = support.rand_form(rng, CTX3, rng.randint(0, 2))
        assert exterior_derivative(exterior_derivative(w)).is_zero


def test_interior_product_values():
    assert interior_product(mv("d/dx"), form("dx")) == DifferentialForm.from_scalar(
        Polynomial.constant(CTX, 1)
    )
    assert interior_product(mv("d/dx ^ d/dy"), form("dx ^ dy")) == DifferentialForm.from_scalar(
        Polynomial.constant(CTX, -1)
    )
    assert interior_product(mv("d/dy"), form("dx ^ dy")) == -form("dx")


def test_interior_product_grade_guard():
    with pytest.raises(GradeError):
        interior_product(mv("d/dx ^ d/dy"), form("dx"))


def test_lie_derivative_on_forms():
    assert lie_derivative(mv("d/dx"), form("x*dy")) == form("dy")
    assert lie_derivative(mv("d/dx"), form("dx")).is_zero


def test_pairing():
    assert pairing(form("dx"), mv("y * d/dx")) == pp("y")
    assert pairing(form("x*dx + dy"), mv("d/dx + y*d/dy")) == pp("x + y")
    with pytest.raises(GradeError):
        pairing(form("dx"), mv("d/dx ^ d/dy"))
    with pytest.raises(GradeError):
        pairing(form("dx ^ dy"), mv("d/dx ^ d/dy"))


def test_contract_covector_first_slot():
    assert contract_covector(form("dx"), mv("d/dx ^ d/dy")) == mv("d/dy")
    assert contract_covector(form("dy"), mv("d/dx ^ d/dy")) == -mv("d/dx")


def test_bracket_is_lie_bracket_on_vector_fields():
    assert schouten_bracket(mv("x * d/dy"), mv("y * d/dx")) == mv("x * d/dx - y * d/dy")
    rng = random.Random(19)
    for _ in range(10):
        X = support.rand_multivector(rng, CTX3, 1)
        Y = support.rand_multivector(rng, CTX3, 1)
        expected = {}
        for k in range(3):
            coeff = Polynomial.zero(CTX3)
            for (i,), xi in X.components():
                coeff = coeff + xi * Y.coefficient((k,)).partial(i)
            for (i,), yi in Y.components():
                coeff = coeff - yi * X.coefficient((k,)).partial(i)
            if not coeff.is_zero:
                expected[(k,)] = coeff
        assert schouten_bracket(X, Y) == MultivectorField(CTX3, 1, expected)


def test_bracket_with_scalar_applies_field():
    X = mv("x * d/dy")
    f = pp("x*y")
    assert schouten_bracket(X, MultivectorField.from_scalar(f)) == MultivectorField.from_scalar(
        pp("x^2")
    )


def test_bracket_of_disjoint_linear_bivectors_vanishes():
    a = mv("z * d/dx ^ d/dy", CTX3)
    b = mv("x * d/dy ^ d/dz", CTX3)
    assert schouten_bracket(a, b).is_zero


def test_graded_symmetry():
    rng = random.Random(23)
    for _ in range(20):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        U = support.rand_monomial_field(rng, CTX3, p)
        V = support.rand_monomial_field(rng, CTX3, q)
        assert schouten_bracket(U, V) == schouten_bracket(V, U).scale((-1) ** (p * q))


def test_graded_leibniz():
    rng = random.Random(29)
    for _ in range(20):
        p, q, r = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 1)
        U = support.rand_monomial_field(rng, CTX3, p)
        V = support.rand_monomial_field(rng, CTX3, q)
        W = support.rand_monomial_field(rng, CTX3, r)
        lhs = schouten_bracket(U, wedge(V, W))
        rhs = wedge(schouten_bracket(U, V), W) + wedge(
            V, schouten_bracket(U, W)
        ).scale((-1) ** ((p + 1) * q))
        assert lhs == rhs


def test_graded_jacobi():
    rng = random.Random(31)
    for _ in range(12):
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        U = support.rand_monomial_field(rng, CTX3, p)
        V = support.rand_monomial_field(rng, CTX3, q)
        W = support.rand_monomial_field(rng, CTX3, r)
        total = (
            schouten_bracket(U, schouten_bracket(V, W)).scale((-1) ** (p * (r - 1)))
            + schouten_bracket(V, schouten_bracket(W, U)).scale((-1) ** (q * (p - 1)))
            + schouten_bracket(W, schouten_bracket(U, V)).scale((-1) ** (r * (q - 1)))
        )
        assert total.is_zero


def test_derivative_commutes_with_contraction_through_bracket():
    rng = random.Random(37)
    for _ in range(20):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        X = support.rand_monomial_field(rng, CTX3, p)
        Y = support.rand_monomial_field(rng, CTX3, q)
        w = support.rand_form(rng, CTX3, rng.randint(p + q - 1, 3))
        lhs = lie_derivative(X, interior_product(Y, w)) - interior_product(
            Y, lie_derivative(X, w)
        ).scale((-1) ** ((p - 1) * q))
        rhs = interior_product(schouten_bracket(X, Y), w).scale((-1) ** (p + 1))
        assert lhs == rhs


def test_str_formats():
    assert str(mv("y * d/dx")) == "y * d/dx"
    assert str(mv("d/dx ^ d/dy")) == "d/dx ^ d/dy"
    assert str(form("dx ^ dy")) == "dx ^ dy"
    assert str(MultivectorField.zero(CTX, 1)) == "0"
    assert str(-mv("d/dx")) == "-d/dx"


def test_apply_to():
    assert mv("x * d/dy").apply_to(pp("y^2")) == pp("2*x*y")
    with pytest.raises(GradeError):
        mv("d/dx ^ d/dy").apply_to(pp("x"))


def test_schouten_matches_monomial_rule_reference():
    # the parent's monomial-rule bracket, kept in tests/support.py; zero
    # fields and grades above the variable count included
    cases = 0
    for n in range(1, 7):
        ctx = VarContext([f"x{i}" for i in range(n)])
        rng = random.Random(7 * n)
        for p in range(n + 2):
            for q in range(n + 2):
                pairs = [
                    (support.rand_multivector(rng, ctx, p), support.rand_multivector(rng, ctx, q)),
                    (support.rand_monomial_field(rng, ctx, p), support.rand_multivector(rng, ctx, q, terms=3)),
                    (MultivectorField.zero(ctx, p), support.rand_multivector(rng, ctx, q)),
                    (support.rand_multivector(rng, ctx, p), MultivectorField.zero(ctx, q)),
                ]
                for U, V in pairs:
                    got, expected = schouten_bracket(U, V), support.ref_schouten_bracket(U, V)
                    assert got == expected, (n, p, q, str(U), str(V))
                    assert got.grade == expected.grade
                    cases += 1
    assert cases == 4 * sum((n + 2) ** 2 for n in range(1, 7))
