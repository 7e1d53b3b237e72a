import random
from fractions import Fraction

import pytest

from leafconn.parse import MAX_NESTING, ParseError, parse_form, parse_multivector, parse_polynomial
from leafconn.poly import Polynomial, VarContext
from leafconn.tensors import DifferentialForm, MultivectorField

import support

CTX = support.XY


def test_polynomial_round_trip_fixed():
    for text in ["3/2*x^2*y - y + 1/3", "x - y", "0", "-x", "7"]:
        p = parse_polynomial(text, CTX)
        assert str(p) == text
        assert parse_polynomial(str(p), CTX) == p


def test_polynomial_precedence():
    x = Polynomial.variable(CTX, "x")
    y = Polynomial.variable(CTX, "y")
    assert parse_polynomial("x + 2*y^3", CTX) == x + 2 * y ** 3
    assert parse_polynomial("(x + y)^2", CTX) == (x + y) ** 2
    assert parse_polynomial("x/2", CTX) == x * Fraction(1, 2)
    assert parse_polynomial("-x^2", CTX) == -(x ** 2)


def test_polynomial_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + ", CTX)
    assert info.value.position == 4
    assert "(at position 4)" in str(info.value)
    with pytest.raises(ParseError):
        parse_polynomial("x / y", CTX)
    with pytest.raises(ParseError):
        parse_polynomial("x ^ y", CTX)
    with pytest.raises(ParseError):
        parse_polynomial("(x", CTX)


def test_nesting_is_bounded():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deepest, CTX) == Polynomial.variable(CTX, "x")
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_polynomial("(" + deepest + ")", CTX)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_multivector("(" * 3000 + "x" + ")" * 3000 + " * d/dx", CTX)
    # A run of unary minus signs is not nesting.
    assert parse_polynomial("-" * 3001 + "x", CTX) == -Polynomial.variable(CTX, "x")


def test_multivector_parsing():
    dx = MultivectorField.basis_field(CTX, "x")
    dy = MultivectorField.basis_field(CTX, "y")
    y = Polynomial.variable(CTX, "y")
    assert parse_multivector("y * d/dx", CTX) == dx.scale(y)
    assert parse_multivector("d/dx ^ d/dy", CTX) == dx.wedge(dy)
    assert parse_multivector("d/dy ^ d/dx", CTX) == -dx.wedge(dy)
    assert parse_multivector("d/dx ^ d/dx", CTX).is_zero
    assert parse_multivector("0", CTX).is_zero


def test_form_parsing():
    dx = DifferentialForm.basis_covector(CTX, "x")
    dy = DifferentialForm.basis_covector(CTX, "y")
    assert parse_form("dx ^ dy", CTX) == dx.wedge(dy)
    assert parse_form("dy ^ dx", CTX) == -dx.wedge(dy)
    assert parse_form("3/2*dx", CTX) == dx.scale(Fraction(3, 2))


def test_mixed_tensor_kinds_rejected():
    with pytest.raises(ParseError):
        parse_multivector("x*d/dx + dy", CTX)
    with pytest.raises(ParseError):
        parse_form("dx ^ d/dy", CTX)


def test_unknown_variable_is_parse_error():
    with pytest.raises(ParseError):
        parse_polynomial("x + z", CTX)
    with pytest.raises(ParseError):
        parse_multivector("d/dz", CTX)


def test_random_round_trips():
    rng = random.Random(3)
    for _ in range(20):
        p = support.rand_poly(rng, CTX)
        assert parse_polynomial(str(p), CTX) == p
    for _ in range(20):
        grade = rng.randint(0, 2)
        t = support.rand_multivector(rng, CTX, grade)
        assert parse_multivector(str(t), CTX) == t
        w = support.rand_form(rng, support.XYZ, rng.randint(0, 3))
        assert parse_form(str(w), support.XYZ) == w
