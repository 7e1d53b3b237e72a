import itertools
import math
import random

import pytest

from leafconn.derivations import (
    der_I_basis,
    is_regular_integral,
    maps_into_ideal,
    monomials_up_to,
    preserves_ideal,
)
from leafconn.ideals import Ideal, vanishing_ideal_of_point
from leafconn.parse import parse_multivector, parse_polynomial
from leafconn.poly import Polynomial, VarContext, grevlex_key

import support

CTX = support.XY


def pp(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def mv(text, ctx=CTX):
    return parse_multivector(text, ctx)


def test_monomials_up_to():
    monos = monomials_up_to(CTX, 2)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for n, d in [(2, 3), (3, 2)]:
        ctx = VarContext([f"t{i}" for i in range(n)])
        assert len(monomials_up_to(ctx, d)) == math.comb(n + d, d)
    for n in range(1, 5):
        ctx = VarContext([f"t{i}" for i in range(n)])
        for d in range(-1, 5):
            brute = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
            assert monomials_up_to(ctx, d) == sorted(brute, key=grevlex_key)


def test_preserves_and_maps_into():
    origin = Ideal(CTX, [pp("x"), pp("y")])
    assert preserves_ideal(mv("x * d/dx"), origin)
    assert not preserves_ideal(mv("d/dx"), origin)
    assert maps_into_ideal(mv("x * d/dx"), origin)
    line = Ideal(CTX, [pp("x")])
    assert preserves_ideal(mv("y * d/dy"), line)
    assert not maps_into_ideal(mv("y * d/dy"), line)


def test_basis_at_origin_degree_one():
    origin = Ideal(CTX, [pp("x"), pp("y")])
    basis = der_I_basis(origin, 1)
    assert [str(f) for f in basis] == ["y * d/dx", "x * d/dx", "y * d/dy", "x * d/dy"]
    for f in basis:
        assert preserves_ideal(f, origin)
        for blade, coeff in f.components():
            assert coeff.evaluate([0, 0]) == 0


def test_basis_zero_ideal():
    assert [str(f) for f in der_I_basis(Ideal(CTX, []), 0)] == ["d/dx", "d/dy"]


def test_basis_unit_ideal_is_the_whole_slice():
    # every normal form is zero, so there are no constraint rows at all
    unit = Ideal(CTX, [pp("1")])
    basis = der_I_basis(unit, 1)
    assert [str(f) for f in basis] == ["d/dx", "y * d/dx", "x * d/dx", "d/dy", "y * d/dy", "x * d/dy"]
    assert [str(f) for f in basis] == [str(f) for f in support.ref_der_I_basis(unit, 1)]


def test_basis_line_ideal_degree_zero():
    assert [str(f) for f in der_I_basis(Ideal(CTX, [pp("x")]), 0)] == ["d/dy"]


def test_point_basis_dimension():
    ctx = support.XYZ
    ideal = vanishing_ideal_of_point(ctx, (0, 0, 0))
    basis = der_I_basis(ideal, 1)
    assert len(basis) == 9


def test_basis_monotone_in_degree():
    rng = random.Random(53)
    origin = Ideal(CTX, [pp("x"), pp("y")])
    for d in (0, 1, 2):
        small = der_I_basis(origin, d)
        big = der_I_basis(origin, d + 1)
        monos = monomials_up_to(CTX, d + 1)
        index = {m: k for k, m in enumerate(monos)}

        def coords(field):
            vec = [0] * (2 * len(monos))
            for (i,), coeff in field.components():
                for exp, c in coeff.terms():
                    vec[i * len(monos) + index[exp]] = c
            return vec

        reduced, pivots = support.ref_rref([coords(f) for f in big])
        for f in small:
            assert not any(support.ref_residue(coords(f), reduced, pivots))


def test_regularity_zero_ideal():
    result = is_regular_integral([mv("d/dx"), mv("d/dy")], Ideal(CTX, []), 3)
    assert result.status == "regular"
    assert result.truncated_at == 3
    assert str(result) == "regular (degree <= 3)"


def test_regularity_strict_witness():
    distribution = [mv("x * d/dx"), mv("x * d/dy")]
    result = is_regular_integral(distribution, Ideal(CTX, [pp("x")]), 2)
    assert result.status == "not_regular"
    assert str(result.witness) == "x * d/dx"
    assert "witness" in str(result)


def test_regularity_inconclusive_when_equal_at_truncation():
    result = is_regular_integral([mv("d/dy")], Ideal(CTX, [pp("x")]), 2)
    assert result.status == "inconclusive"
    assert result.witness is None


def test_regularity_precondition():
    with pytest.raises(ValueError):
        is_regular_integral([mv("x * d/dy")], Ideal(CTX, [pp("y")]), 2)
    with pytest.raises(ValueError):
        is_regular_integral([mv("d/dy")], Ideal(CTX, [pp("x")]), -1)


def test_matches_reference_on_random_ideals():
    rng = random.Random(29)
    statuses = set()
    orders = set()
    for _ in range(40):
        ctx = rng.choice([support.XY, support.XYZ])
        order = rng.choice(["grevlex", "lex"])
        ideal = support.rand_binomial_ideal(rng, ctx, order)
        degree = rng.randint(0, 3 if len(ctx) == 2 else 2)
        basis = der_I_basis(ideal, degree)
        reference = support.ref_der_I_basis(ideal, degree)
        assert basis == reference
        assert [str(f) for f in basis] == [str(f) for f in reference]
        if not basis:
            continue
        distribution = rng.sample(basis, min(len(basis), rng.randint(1, 3)))
        bound = rng.randint(0, 2)
        verdict = is_regular_integral(distribution, ideal, bound)
        expected = support.ref_is_regular_integral(distribution, ideal, bound)
        assert verdict == expected
        assert str(verdict) == str(expected)
        statuses.add(verdict.status)
        orders.add(order)
    assert statuses == {"not_regular", "inconclusive"}
    assert orders == {"grevlex", "lex"}
