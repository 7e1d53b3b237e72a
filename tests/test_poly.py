from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafconn.poly import (
    ContextMismatch,
    Polynomial,
    UnknownVariable,
    VarContext,
    grevlex_key,
    lex_key,
)

CTX = VarContext(["x", "y"])
X = Polynomial.variable(CTX, "x")
Y = Polynomial.variable(CTX, "y")


def poly_strategy(context=CTX, max_degree=3, max_terms=4):
    n = len(context)
    exponent = st.tuples(*([st.integers(0, max_degree)] * n))
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    )
    return st.dictionaries(exponent, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(context, terms)
    )


def test_context_basics():
    assert len(CTX) == 2
    assert CTX.index("y") == 1
    assert "x" in CTX and "z" not in CTX
    with pytest.raises(UnknownVariable):
        CTX.index("z")
    with pytest.raises(ValueError):
        VarContext(["x", "x"])


def test_zero_normalization():
    assert Polynomial(CTX, {(0, 0): Fraction(0)}).is_zero
    assert Polynomial.zero(CTX) == Polynomial(CTX, {})
    assert not bool(Polynomial.zero(CTX))
    assert bool(X)


def test_known_products():
    assert (X + Y) * (X + Y) == X * X + 2 * X * Y + Y * Y
    assert (X + 1) * (X - 1) == X * X - 1
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert X ** 0 == Polynomial.constant(CTX, 1)


def test_pow_squares_only_while_bits_remain(monkeypatch):
    products = 0
    multiply = Polynomial.__mul__

    def counted(a, b):
        nonlocal products
        products += 1
        return multiply(a, b)

    p = X + 2 * Y - 1
    for n in range(1, 18):
        expected = p
        for _ in range(n - 1):
            expected = expected * p
        products = 0
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        power = p ** n
        monkeypatch.setattr(Polynomial, "__mul__", multiply)
        assert products == n.bit_length() - 1 + bin(n).count("1")
        assert power == expected


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        X ** -1


def test_context_mismatch_rejected():
    other = VarContext(["x", "y", "z"])
    with pytest.raises(ContextMismatch):
        X + Polynomial.variable(other, "x")


@settings(max_examples=60)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b)
    assert a + Polynomial.zero(CTX) == a


def test_partial():
    p = X ** 3 * Y + X
    assert p.partial("x") == 3 * X ** 2 * Y + 1
    assert p.partial(1) == X ** 3
    assert Polynomial.constant(CTX, 5).partial("x").is_zero


def test_evaluate():
    p = Fraction(3, 2) * X ** 2 * Y - Y + Fraction(1, 3)
    assert p.evaluate([2, 3]) == Fraction(46, 3)
    assert Polynomial.zero(CTX).evaluate([7, 7]) == 0


def test_leading_term_orders():
    p = X + Y ** 2
    assert p.leading_term(grevlex_key) == ((0, 2), Fraction(1))
    assert p.leading_term(lex_key) == ((1, 0), Fraction(1))


def test_str_canonical():
    p = Fraction(3, 2) * X ** 2 * Y - Y + Fraction(1, 3)
    assert str(p) == "3/2*x^2*y - y + 1/3"
    assert str(Polynomial.zero(CTX)) == "0"
    assert str(-X) == "-x"
    assert str(X - Y) == "x - y"


def test_total_degree_and_constant_term():
    p = X ** 2 * Y - 3
    assert p.total_degree() == 3
    assert p.constant_term() == -3
    assert Polynomial.zero(CTX).total_degree() == 0
    assert Polynomial.constant(CTX, 4).is_constant()
    assert not p.is_constant()


@pytest.mark.parametrize(
    "exponent",
    [(1,), (1, 0, 0), (-1, 0), (0, -2), (1.5, 0), (0, Fraction(1, 2)), (1.0, 0)],
)
def test_constructor_rejects_bad_exponents(exponent):
    with pytest.raises(ValueError, match="bad exponent vector"):
        Polynomial(CTX, {exponent: 1})


def test_coefficient_lookup():
    p = 2 * X * Y - Y
    assert p.coefficient((1, 1)) == 2
    assert p.coefficient((0, 1)) == -1
    assert p.coefficient((5, 5)) == 0


def test_coefficient_rejects_wrong_length():
    p = 2 * X * Y - Y
    for exponent in [(1,), (1, 1, 0), ()]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            p.coefficient(exponent)


@pytest.mark.parametrize("bad", [0.1, 0.0, 1.0, "1/3", Decimal("0.1"), None, 1j])
def test_inexact_coefficients_are_rejected(bad):
    with pytest.raises(TypeError):
        Polynomial(CTX, {(1, 0): bad})
    with pytest.raises(TypeError):
        Polynomial.constant(CTX, bad)
    with pytest.raises(TypeError):
        Polynomial.monomial(CTX, (0, 1), bad)
    with pytest.raises(TypeError):
        (X + Y).evaluate([1, bad])
    for combine in (lambda: X * bad, lambda: bad * X, lambda: X + bad):
        with pytest.raises(TypeError):
            combine()


@pytest.mark.parametrize("value", [0, 3, -2, Fraction(1, 2)])
def test_constants_hash_as_their_value(value):
    p = Polynomial.constant(CTX, value)
    assert p == value
    assert hash(p) == hash(value)
    assert value in {p}
    assert p in {value}


def test_memo_is_per_order_and_invisible_to_equality():
    p = Polynomial(CTX, {(1, 0): Fraction(-3, 2), (0, 2): Fraction(5, 4)})
    fresh = Polynomial(CTX, {(1, 0): Fraction(-3, 2), (0, 2): Fraction(5, 4)})
    before = hash(p)
    assert p._primitive() == ({(1, 0): -6, (0, 2): 5}, Fraction(1, 4))
    assert p.leading_term(grevlex_key) == ((0, 2), Fraction(5, 4))
    assert p.leading_term(lex_key) == ((1, 0), Fraction(-3, 2))
    assert p.leading_term(grevlex_key) == ((0, 2), Fraction(5, 4))
    # Shift entries: the exponents of x^u * p, in term order, one entry per u.
    assert p._shifted((1, 1)) == [(2, 1), (1, 3)]
    shifted = p._shift((1, 1))
    assert shifted == Polynomial.monomial(CTX, (1, 1)) * p
    assert shifted._primitive() == ({(2, 1): -6, (1, 3): 5}, Fraction(1, 4))
    assert shifted._primitive() == Polynomial(CTX, dict(shifted.terms()))._primitive()
    assert p._shift((0, 0)) == p
    assert [u for u in p._memo if isinstance(u, tuple)] == [(1, 1), (0, 0)]
    assert p == fresh and fresh == p
    assert hash(p) == before == hash(fresh) == hash(p._shift((0, 0)))
    assert len({p, fresh}) == 1
    assert Polynomial.zero(CTX)._primitive() == ({}, Fraction(1))
    assert Polynomial.zero(CTX)._shift((1, 0)).is_zero
