import hashlib
import inspect
import random
import sys
from decimal import Decimal
from fractions import Fraction
from operator import le

import pytest

from leafconn import ideals
from leafconn.ideals import Ideal, normal_form_against, s_polynomial, vanishing_ideal_of_point
from leafconn.parse import parse_polynomial
from leafconn.poly import MONOMIAL_ORDERS, Polynomial, VarContext, grevlex_key

import support

CTX = support.XY


def pp(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def ideal_of(*texts, ctx=CTX, order="grevlex"):
    return Ideal(ctx, [pp(t, ctx) for t in texts], order=order)


def gb_strs(ideal):
    return [str(g) for g in ideal.groebner_basis()]


def test_coordinate_ideal():
    assert gb_strs(ideal_of("x", "y")) == ["y", "x"]


def test_monomial_ideal_monic():
    assert gb_strs(ideal_of("3*x^2", "2*x*y")) == ["x*y", "x^2"]


def test_scaled_generators_same_basis():
    assert gb_strs(ideal_of("3*x + 3*y")) == gb_strs(ideal_of("x + y"))


def test_circle_line_intersection():
    assert gb_strs(ideal_of("x^2 + y^2 - 1", "x - y")) == ["x - y", "y^2 - 1/2"]


def test_substitution_depends_on_order():
    yx = VarContext(["y", "x"])
    gens = ["y - x^2"]
    lex_ideal = ideal_of(*gens, ctx=yx, order="lex")
    assert str(lex_ideal.normal_form(pp("y^2", yx))) == "x^4"
    grevlex_ideal = ideal_of(*gens, ctx=yx)
    assert str(grevlex_ideal.normal_form(pp("y^2", yx))) == "y^2"


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        Ideal(CTX, [pp("x")], order="weird")


def test_zero_ideal():
    assert Ideal(CTX, []).is_zero_ideal
    assert Ideal(CTX, [Polynomial.zero(CTX)]).is_zero_ideal
    p = pp("x^2 - y")
    assert Ideal(CTX, []).normal_form(p) == p


def test_vanishing_ideal_evaluates():
    ideal = vanishing_ideal_of_point(CTX, (1, 2))
    assert gb_strs(ideal) == ["y - 2", "x - 1"]
    assert ideal.normal_form(pp("x^2*y")) == Polynomial.constant(CTX, 2)
    assert ideal.contains(pp("(x - 1)*(y + 5)"))


@pytest.mark.parametrize("bad", [0.5, "1/3", Decimal("0.1")])
def test_vanishing_ideal_rejects_inexact_coordinates(bad):
    with pytest.raises(TypeError):
        vanishing_ideal_of_point(CTX, (1, bad))


def test_contains():
    ideal = ideal_of("x", "y")
    assert ideal.contains(pp("x^2 + 3*x*y"))
    assert not ideal.contains(pp("x + 1"))


def test_normal_form_properties_random():
    rng = random.Random(5)
    for _ in range(15):
        gens = [support.rand_nonzero_poly(rng, CTX) for _ in range(rng.randint(1, 2))]
        ideal = Ideal(CTX, gens)
        p = support.rand_poly(rng, CTX)
        q = support.rand_poly(rng, CTX)
        np, nq = ideal.normal_form(p), ideal.normal_form(q)
        assert ideal.normal_form(np) == np
        assert ideal.normal_form(p + q) == ideal.normal_form(np + nq)
        assert ideal.normal_form(p * q) == ideal.normal_form(np * nq)
        for g in gens:
            assert ideal.normal_form(g * p).is_zero


def test_generator_permutation_invariance():
    rng = random.Random(9)
    for _ in range(8):
        gens = [support.rand_nonzero_poly(rng, CTX) for _ in range(3)]
        ideal = Ideal(CTX, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert gb_strs(Ideal(CTX, shuffled)) == gb_strs(ideal)


def test_normal_form_against_no_reduction_needed():
    basis = [pp("x^2")]
    p = pp("x + y")
    assert normal_form_against(p, basis, grevlex_key) == p


def rand_ideal_case(rng):
    """A context of 1-3 variables and at most one random generator per variable.

    More generators than variables mostly span the unit ideal.
    """
    ctx = VarContext([f"x{i}" for i in range(rng.randint(1, 3))])
    count = rng.randint(1, len(ctx))
    gens = [support.rand_nonzero_poly(rng, ctx, degree=2, terms=rng.randint(1, 3)) for _ in range(count)]
    return ctx, gens


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_matches_reference_on_random_ideals(order):
    rng = random.Random(41)
    key = MONOMIAL_ORDERS[order]
    for _ in range(60):
        ctx, gens = rand_ideal_case(rng)
        ideal = Ideal(ctx, gens, order)
        reference = support.ref_buchberger(list(gens), key)
        assert [str(g) for g in ideal.groebner_basis()] == [str(g) for g in reference]
        for _ in range(3):
            p = support.rand_poly(rng, ctx, degree=4, terms=4)
            assert str(ideal.normal_form(p)) == str(support.ref_normal_form_against(p, reference, key))
            # Divisor lists that are not Gröbner bases: the first divisor wins.
            divisors = [support.rand_nonzero_poly(rng, ctx, degree=2, terms=2) for _ in range(rng.randint(1, 3))]
            expected = support.ref_normal_form_against(p, divisors, key)
            assert str(normal_form_against(p, divisors, key)) == str(expected)


def _term_map(items) -> frozenset:
    """Exponent/coefficient pairs of leafconn or sympy terms, as one comparable set."""
    return frozenset((tuple(e), Fraction(str(c))) for e, c in items)


def _to_sympy(sympy, symbols, p):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms()}
    return sympy.Poly.from_dict(terms, *symbols, domain="QQ").as_expr()


def _assert_sympy_basis(sympy, ideal, gens):
    """``ideal``'s reduced basis equals sympy's; returns sympy's basis and symbols."""
    symbols = sympy.symbols(ideal.context.names)
    exprs = [_to_sympy(sympy, symbols, g) for g in gens]
    expected = sympy.groebner(exprs, *symbols, order=ideal.order, domain="QQ")
    assert {_term_map(g.terms()) for g in ideal.groebner_basis()} == {
        _term_map(g.as_dict().items()) for g in expected.polys
    }
    return expected, symbols


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_matches_sympy_on_random_ideals(order):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    for _ in range(25):
        ctx, gens = rand_ideal_case(rng)
        ideal = Ideal(ctx, gens, order)
        expected, symbols = _assert_sympy_basis(sympy, ideal, gens)
        for _ in range(3):
            p = support.rand_poly(rng, ctx, degree=4, terms=4)
            _, remainder = sympy.reduced(
                _to_sympy(sympy, symbols, p), expected.exprs, *symbols, order=order, domain="QQ"
            )
            expected_nf = sympy.Poly(remainder, *symbols, domain="QQ").as_dict()
            assert _term_map(ideal.normal_form(p).terms()) == _term_map(expected_nf.items())


KATSURA3 = VarContext(["u0", "u1", "u2", "u3"]), [
    "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
    "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
    "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
    "2*u0*u2 + u1^2 + 2*u1*u3 - u2",
]
CYCLIC4 = VarContext(["a", "b", "c", "d"]), [
    "a + b + c + d",
    "a*b + b*c + c*d + d*a",
    "a*b*c + b*c*d + c*d*a + d*a*b",
    "a*b*c*d - 1",
]
# Inputs that exercise the pair update: equal leading monomials and equal
# lcms, redundant and unit generators, and zero generators.
PAIR_CASES = {
    "katsura3-lex": (*KATSURA3, "lex"),
    "cyclic4-lex": (*CYCLIC4, "lex"),
    "cyclic4-grevlex": (*CYCLIC4, "grevlex"),
    "duplicates": (CTX, ["x^2 - y", "x*y - 1", "x^2 - y", "x*y - 1"], "grevlex"),
    "equal-leads": (support.XYZ, ["x^2 + y", "x^2 - z + 1", "x^2 + x*z", "y*z - x"], "grevlex"),
    "equal-leads-lex": (support.XYZ, ["x*y + z", "x*y - z^2", "x*z - y", "x*z + 1"], "lex"),
    "scaled-copies": (CTX, ["x^2 - y", "3*x^2 - 3*y", "-1/2*x^2 + 1/2*y", "x*y^2 - x"], "lex"),
    "unit": (support.XYZ, ["x^2 - y", "x*y*z", "-7", "y^2 - z"], "grevlex"),
    "zero-generators": (CTX, ["0", "x^2 - y", "0", "y^2 - x", "0"], "lex"),
}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_pair_update_matches_references(case):
    ctx, texts, order = PAIR_CASES[case]
    gens = [pp(t, ctx) for t in texts]
    ideal = Ideal(ctx, gens, order)
    basis = [str(g) for g in ideal.groebner_basis()]
    assert basis == [str(g) for g in support.ref_buchberger(gens, MONOMIAL_ORDERS[order])]
    if case == "unit":
        assert basis == ["1"]
    sympy = pytest.importorskip("sympy")
    _assert_sympy_basis(sympy, ideal, [g for g in gens if not g.is_zero])


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_pair_update_matches_reference_on_binomial_ideals(order):
    """Binomial ideals in 3-4 variables are full of equal leads and equal lcms."""
    rng = random.Random(47)
    key = MONOMIAL_ORDERS[order]
    for _ in range(60):
        ctx = VarContext([f"x{i}" for i in range(rng.randint(3, 4))])
        ideal = support.rand_binomial_ideal(rng, ctx, order)
        extra = [g * Polynomial.variable(ctx, rng.randrange(len(ctx))) for g in ideal.generators]
        gens = list(ideal.generators) + extra[: rng.randint(0, len(extra))]
        reference = support.ref_buchberger(gens, key)
        assert [str(g) for g in Ideal(ctx, gens, order).groebner_basis()] == [str(g) for g in reference]


KATSURA4 = VarContext(["u0", "u1", "u2", "u3", "u4"]), [
    "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 - u0",
    "2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 - u1",
    "u1^2 + 2*u0*u2 + 2*u1*u3 + 2*u2*u4 - u2",
    "2*u1*u2 + 2*u0*u3 + 2*u1*u4 - u3",
    "u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1",
]


def _reductions(monkeypatch, system, order):
    """The remainders that ``buchberger`` and ``ref_buchberger`` compute, one
    flag per reduction: whether it was zero.  The bases must agree."""
    ctx, texts = system
    gens = [pp(t, ctx) for t in texts]
    key = MONOMIAL_ORDERS[order]

    def count_calls(module, name, caller):
        zeros = []
        function = getattr(module, name)

        def counted(*args, **kwargs):
            remainder = function(*args, **kwargs)
            if sys._getframe(1).f_code.co_name == caller:
                zeros.append(remainder.is_zero)
            return remainder

        monkeypatch.setattr(module, name, counted)
        return zeros

    ours = count_calls(ideals, "normal_form_against", "buchberger")
    theirs = count_calls(support, "ref_normal_form_against", "ref_buchberger")
    assert [str(g) for g in ideals.buchberger(gens, key)] == [str(g) for g in support.ref_buchberger(gens, key)]
    return ours, theirs


def test_signatures_reduce_fewer_pairs(monkeypatch):
    """The syzygy and singular criteria reduce fewer S-pairs than the
    reference's coprime and chain criteria, and fewer of them reach zero."""
    ours, theirs = _reductions(monkeypatch, KATSURA3, "lex")
    assert 0 < len(ours) < len(theirs)
    ours, theirs = _reductions(monkeypatch, KATSURA4, "grevlex")
    assert 0 < sum(ours) < sum(theirs)


# A small positive-dimensional lex ideal whose completion takes minutes when
# the pairs are ordered by heuristics such as sugar.  The digest is of the
# reduced basis, one element per line, checked against
# ``sympy.groebner(..., order="lex")``, which takes several seconds.
LEX_STALL = VarContext(["x0", "x1", "x2"]), [
    "-x0^3*x1^2*x2^3 + 1/3*x0^3*x2 - 1/3*x0^2*x2",
    "3/2*x0^3*x1^2*x2 - 2*x0^2*x2 - 3*x1*x2^2",
    "2*x0^2*x1^3*x2 + 4/3*x1^3*x2 + 2/3*x0",
]
LEX_STALL_DIGEST = "38f2b4ea9227c4fec69c9f6fe4c78f8cc1b4343b76783f59526ca620ffaa7b4a"


def test_lex_stall_case_completes():
    ctx, texts = LEX_STALL
    basis = gb_strs(ideal_of(*texts, ctx=ctx, order="lex"))
    assert len(basis) == 3
    assert basis[0].startswith("x1*x2^22 + 224/117*x1*x2^20")
    assert hashlib.sha256("\n".join(basis).encode()).hexdigest() == LEX_STALL_DIGEST


def _random_quadrics(rng, ctx, count):
    """Dense quadrics with integer coefficients in [-5, 5], as the benchmark draws them."""
    n = len(ctx)
    exps = [tuple((j == a) + (j == b) for j in range(n)) for a in range(n) for b in range(a, n)]
    exps += [tuple(int(j == a) for j in range(n)) for a in range(n)] + [(0,) * n]
    return [Polynomial(ctx, {e: rng.randint(-5, 5) for e in exps}) for _ in range(count)]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_basis_certificate_on_random_ideals(order):
    """Checks that need no second implementation: the basis is monic and
    inter-reduced, every S-polynomial of two of its elements reduces to zero
    (Buchberger's criterion), and every generator reduces to zero."""
    rng = random.Random(59)
    key = MONOMIAL_ORDERS[order]
    cases = [rand_ideal_case(rng) for _ in range(20)]
    for _ in range(10):
        ideal = support.rand_binomial_ideal(rng, support.XYZ, order)
        cases.append((ideal.context, ideal.generators))
    for nvars, count in [(3, 2), (3, 3), (4, 4)]:
        ctx = VarContext([f"x{i}" for i in range(nvars)])
        cases.append((ctx, _random_quadrics(rng, ctx, count)))
    for ctx, gens in cases:
        basis = Ideal(ctx, gens, order).groebner_basis()
        leads = [g.leading_term(key) for g in basis]
        assert all(c == 1 for _, c in leads)
        for g, (lead, _) in zip(basis, leads):
            others = [h for h in leads if h[0] != lead]
            assert not any(all(map(le, h, e)) for h, _ in others for e, _ in g.terms())
        for k, f in enumerate(basis):
            for g in basis[k + 1 :]:
                assert normal_form_against(s_polynomial(f, g, key), basis, key).is_zero
        assert all(normal_form_against(g, basis, key).is_zero for g in gens)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_signature_guard_bounds(order):
    """A bound below every divisor's multiple admits none of them; a bound
    above all of them gives the unguarded remainder."""
    rng = random.Random(61)
    key = MONOMIAL_ORDERS[order]
    reduced = 0
    for _ in range(40):
        ctx = VarContext([f"x{i}" for i in range(rng.randint(1, 3))])
        n = len(ctx)
        divisors = [support.rand_nonzero_poly(rng, ctx, degree=2, terms=2) for _ in range(rng.randint(1, 3))]
        ratios = [(support.rand_exponent(rng, n, 2), rng.randrange(3)) for _ in divisors]
        p = support.rand_poly(rng, ctx, degree=4, terms=4)
        low = (key((0,) * n), -1)
        high = (key((20,) * n), 3)
        assert normal_form_against(p, divisors, key, signature=(ratios, low)) == p
        expected = normal_form_against(p, divisors, key)
        assert normal_form_against(p, divisors, key, signature=(ratios, high)) == expected
        reduced += expected != p
    assert reduced > 0


def _big_fraction(rng):
    """A nonzero rational whose numerator and denominator have up to 64 bits."""
    bits = rng.choice([2, 8, 64])
    numerator = rng.choice([-1, 1]) * rng.randint(1, 2**bits)
    return Fraction(numerator, rng.randint(1, 2 ** rng.choice([1, 8, 64])))


def _big_poly(rng, ctx, degree, terms):
    acc = {}
    for _ in range(terms):
        e = support.rand_exponent(rng, len(ctx), degree)
        acc[e] = acc.get(e, 0) + _big_fraction(rng)
    p = Polynomial(ctx, acc)
    return p if p else Polynomial.variable(ctx, 0)


def _lines_run(function, body):
    """Run ``body()`` and return the source lines of ``function`` it executed."""
    code = function.__code__
    source, first = inspect.getsourcelines(function)
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(source[frame.f_lineno - first].strip())
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        body()
    finally:
        sys.settrace(previous)
    return seen


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_integer_division_matches_exact_reference(order):
    """Division and S-polynomials on integer forms equal the exact Fraction
    versions, on non-monic, negative-lead, 64-bit divisor lists that are
    mostly not Gröbner bases."""
    rng = random.Random(53)
    key = MONOMIAL_ORDERS[order]
    leads = []

    def run():
        for _ in range(150):
            ctx = VarContext([f"x{i}" for i in range(rng.randint(1, 4))])
            divisors = [_big_poly(rng, ctx, 2, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            leads.extend(g.leading_term(key)[1] for g in divisors)
            for _ in range(2):
                p = _big_poly(rng, ctx, 4, rng.randint(1, 5))
                expected = support.ref_normal_form_against(p, divisors, key)
                assert str(normal_form_against(p, divisors, key)) == str(expected)
            f, g = rng.choice(divisors), rng.choice(divisors)
            s = s_polynomial(f, g, key)
            assert str(s) == str(support.ref_s_polynomial(f, g, key))
            # The memo of an S-polynomial holds the form a fresh polynomial computes.
            assert s._primitive() == Polynomial(ctx, dict(s.terms()))._primitive()
            expected = support.ref_normal_form_against(s, divisors, key)
            assert str(normal_form_against(s, divisors, key)) == str(expected)

    seen = _lines_run(normal_form_against, run)
    assert any(c < 0 for c in leads) and any(c > 0 and c != 1 for c in leads)
    # The lead multiplier m = lc_g / gcd(c, lc_g) was not 1, the multipliers
    # outgrew the content rule's bound, and content was cancelled in the loop
    # as well as at the end.
    assert "terms[e] = v * m" in seen
    assert "content = gcd(*work.values(), *remainder.values())" in seen
    assert "terms[e] = v // content" in seen
    assert "remainder = {e: v // content for e, v in remainder.items()}" in seen


def _remainder_form_is_fresh(r):
    """The primitive form division memoized equals the one a fresh polynomial computes."""
    return r._memo[None] == Polynomial(r.context, dict(r.terms()))._primitive()


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_repeated_division_reuses_shifts(order):
    """Divisions that reuse the (divisor, shift) exponents an earlier division
    memoized on the same divisor list still equal the exact reference."""
    rng = random.Random(67)
    key = MONOMIAL_ORDERS[order]
    memoized = 0
    for _ in range(30):
        ctx = VarContext([f"x{i}" for i in range(rng.randint(2, 4))])
        divisors = [_big_poly(rng, ctx, 2, rng.randint(2, 3)) for _ in range(rng.randint(2, 4))]
        polys = [_big_poly(rng, ctx, 4, rng.randint(2, 5)) for _ in range(4)]
        for p in polys + polys:
            r = normal_form_against(p, divisors, key)
            assert str(r) == str(support.ref_normal_form_against(p, divisors, key))
            assert _remainder_form_is_fresh(r)
            assert r.is_zero or r._memo[key] == Polynomial(ctx, dict(r.terms())).leading_term(key)
        shifts = [(g, u) for g in divisors for u in g._memo if isinstance(u, tuple)]
        assert all(g._shifted(u) == list(g._shift(u)._terms) for g, u in shifts)
        memoized += len(shifts)
    assert memoized > 0


def test_support_mask_admits_only_dividing_leads():
    """x^3's support lies inside x^2*y's, but x^3 does not divide it, so the
    next divisor in basis order reduces the term."""
    key = MONOMIAL_ORDERS["grevlex"]
    divisors = [pp("x^3 - y"), pp("x*y - 1")]
    p = pp("x^2*y + x^3")
    assert str(normal_form_against(p, divisors, key)) == "x + y"
    assert normal_form_against(p, divisors, key) == support.ref_normal_form_against(p, divisors, key)
    assert str(normal_form_against(pp("x^2*y"), [pp("x^3")], key)) == "x^2*y"
    assert str(normal_form_against(pp("x^2*y"), [pp("x^3"), pp("y - 2")], key)) == "2*x^2"


def test_first_divisor_in_basis_order_wins():
    """Two leads divide x*y; the earlier one, with the larger support, wins,
    also after a term with the same support fixed the candidate list."""
    ctx = support.XYZ
    key = MONOMIAL_ORDERS["grevlex"]
    divisors = [pp("x*y - z", ctx), pp("x - 1", ctx)]
    assert str(normal_form_against(pp("x*y", ctx), divisors, key)) == "z"
    assert str(normal_form_against(pp("x*y", ctx), divisors[::-1], key)) == "y"
    p = pp("x^2*y^2 + x*y", ctx)
    assert normal_form_against(p, divisors, key) == support.ref_normal_form_against(p, divisors, key)
    assert str(normal_form_against(p, divisors, key)) == "z^2 + z"


def _katsura(n):
    ctx = VarContext([f"u{i}" for i in range(n + 1)])
    u = [Polynomial.variable(ctx, i) for i in range(n + 1)]
    zero = Polynomial.zero(ctx)

    def big_u(m):
        return u[abs(m)] if abs(m) <= n else zero

    gens = [sum((big_u(k) * big_u(m - k) for k in range(-n, n + 1)), zero) - u[m] for m in range(n)]
    return ctx, gens + [u[0] + 2 * sum(u[1:], zero) - 1]


def _cyclic(n):
    ctx = VarContext([f"x{i}" for i in range(n)])
    x = [Polynomial.variable(ctx, i) for i in range(n)]
    one = Polynomial.constant(ctx, 1)

    def product(factors):
        out = one
        for f in factors:
            out = out * f
        return out

    gens = [sum((product(x[(i + j) % n] for j in range(k)) for i in range(n)), Polynomial.zero(ctx)) for k in range(1, n)]
    return ctx, gens + [product(x) - 1]


# Digests of the reduced bases, one element per line, checked against
# ``sympy.groebner``, which takes 13 s on katsura-6 and 20 s on cyclic-5.
LONG_DIVISIONS = {
    "katsura6-grevlex": (_katsura(6), "grevlex", "703913ebff6b414761b0176314f131891e81aeeefa085528f413d180a904ef92"),
    "cyclic5-lex": (_cyclic(5), "lex", "d8958a05d0eff38c3f188151fb16883413c29dd024f77dc9ad65d9d7b7aacd7a"),
}


@pytest.mark.parametrize("case", sorted(LONG_DIVISIONS))
def test_long_divisions_match_sympy(case):
    """Completions whose divisions run long enough for the content rule to
    fire: the basis is pinned, every generator reduces to zero, and normal
    forms of dense 64-bit polynomials agree with sympy's division."""
    rings = pytest.importorskip("sympy.polys.rings")
    from sympy.polys.domains import QQ

    (ctx, gens), order, digest = LONG_DIVISIONS[case]
    ideal = Ideal(ctx, gens, order)
    basis = ideal.groebner_basis()
    assert hashlib.sha256("\n".join(map(str, basis)).encode()).hexdigest() == digest
    assert all(ideal.contains(g) for g in gens)
    assert all(_remainder_form_is_fresh(g) for g in basis)
    ring, *_ = rings.ring(",".join(ctx.names), QQ, order)

    def to_sympy(p):
        return ring({e: QQ(c.numerator, c.denominator) for e, c in p.terms()})

    divisors = [to_sympy(g) for g in basis]
    rng = random.Random(71)
    for p in [_big_poly(rng, ctx, 4, 6) for _ in range(2)]:
        expected = to_sympy(p).rem(divisors)
        assert _term_map(ideal.normal_form(p).terms()) == _term_map(expected.items())
